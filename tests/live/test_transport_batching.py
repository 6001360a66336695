"""Write-path batching on the framed TCP transport.

Frames that waited for the channel (while it connected) go out as one
socket write (coalescing), which surfaces in :class:`TransportStats` so
the monitor can see bytes-per-write; and a receiver rejects any frame that
sets a flag bit, since this codec version defines none.
"""

from __future__ import annotations

import asyncio
import random
import struct
import zlib

import pytest

from repro.live import wire
from repro.live.harness import free_port
from repro.live.transport import RetryPolicy, Transport, TransportStats


def _payload(index: int, pad: bytes = b"") -> bytes:
    out = bytearray()
    wire.encode_value((index, pad), out)
    return bytes(out)


def _indices(payloads: list[bytes]) -> list[int]:
    return [wire.decode_value(p)[0][0] for p in payloads]


def _fast_policy() -> RetryPolicy:
    return RetryPolicy(base=0.01, cap=0.1)


async def _wait_for(predicate, timeout: float = 10.0, message: str = "condition"):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(f"timed out waiting for {message}")
        await asyncio.sleep(0.01)


class TestWriteCoalescing:
    def test_queued_frames_share_one_socket_write(self):
        async def scenario():
            port = free_port()
            received: list[bytes] = []
            sender = Transport(
                {"peer": ("127.0.0.1", port)},
                on_payload=lambda p: None,
                policy=_fast_policy(),
                rng=random.Random(1),
            )
            receiver = Transport({}, on_payload=received.append)
            try:
                # Queue a burst while nothing listens: on connect the
                # channel must write it as ONE buffer, not 10 writes.
                for index in range(10):
                    sender.post("peer", _payload(index))
                await receiver.listen("127.0.0.1", port)
                await _wait_for(lambda: len(received) == 10, message="delivery")
                assert _indices(received) == list(range(10))
                assert sender.stats.frames_sent == 10
                assert sender.stats.write_calls < 10
                assert sender.stats.frames_coalesced == (
                    sender.stats.frames_sent - sender.stats.write_calls
                )
            finally:
                await sender.close()
                await receiver.close()

        asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))

    def test_bytes_per_write_gauge(self):
        stats = TransportStats(bytes_sent=4096, write_calls=4, frames_sent=16)
        gauges = stats.as_gauges()
        assert gauges["transport_bytes_per_write"] == pytest.approx(1024.0)
        assert gauges["transport_write_calls"] == 4
        assert "transport_frames_coalesced" in gauges
        # No division blow-up before the first write.
        assert TransportStats().as_gauges()["transport_bytes_per_write"] == 0.0


class TestUnknownFlagRejection:
    def test_receiver_drops_connection_on_unknown_flag(self):
        async def scenario():
            port = free_port()
            received: list[bytes] = []
            receiver = Transport({}, on_payload=received.append)
            try:
                await receiver.listen("127.0.0.1", port)
                # No flag bit is assigned: endpoints must reject every
                # one (only the pass-through chaos proxy tolerates them).
                for errors, flag in enumerate((0b001, 0b010, 0b100), start=1):
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                    payload = b"mystery"
                    header = struct.pack(
                        ">4sII",
                        wire.MAGIC,
                        len(payload) | (flag << 29),
                        zlib.crc32(payload),
                    )
                    writer.write(header + payload)
                    await writer.drain()
                    await _wait_for(
                        lambda: receiver.stats.decode_errors == errors,
                        message="decode error",
                    )
                    # The receiver closed the connection.
                    assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
                    writer.close()
                assert received == []
            finally:
                await receiver.close()

        asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))
