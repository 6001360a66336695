"""Fault-path tests for the framed TCP transport.

The transport's contract under faults (module docstring of
:mod:`repro.live.transport`): frames queue while a peer is unreachable
and flow once it appears; a peer dying mid-stream costs at most the
frames in the dead socket's window, never reorders the survivors; and a
bounded queue sheds (and counts) frames instead of growing without
limit.
"""

from __future__ import annotations

import asyncio
import random

from repro.live import wire
from repro.live.harness import free_port
from repro.live.transport import RetryPolicy, Transport, TransportStats


def _payload(index: int) -> bytes:
    out = bytearray()
    wire.encode_value(index, out)
    return bytes(out)


def _indices(payloads: list[bytes]) -> list[int]:
    return [wire.decode_value(p)[0] for p in payloads]


def _fast_policy() -> RetryPolicy:
    return RetryPolicy(base=0.01, cap=0.1)


async def _wait_for(predicate, timeout: float = 10.0, message: str = "condition"):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(f"timed out waiting for {message}")
        await asyncio.sleep(0.01)


class TestConnectionRefusedAtStartup:
    def test_frames_queue_until_peer_listens(self):
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
                # Post while nothing listens: the writer task sits in its
                # reconnect backoff loop; nothing is lost.
                for index in range(5):
                    sender.post("peer", _payload(index))
                await asyncio.sleep(0.2)
                assert received == []
                assert sender.stats.reconnects > 0, "should have retried"
                await receiver.listen("127.0.0.1", port)
                await _wait_for(lambda: len(received) == 5, message="delivery")
                assert _indices(received) == [0, 1, 2, 3, 4]
                assert sender.stats.send_drops == 0
            finally:
                await sender.close()
                await receiver.close()

        asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))

    def test_reconnect_backoff_is_capped(self):
        policy = RetryPolicy(base=0.05, cap=2.0)
        backoff = policy.base
        for __ in range(20):
            backoff = policy.next_backoff(backoff)
        assert backoff == 2.0
        # Jitter never exceeds the current backoff.
        rng = random.Random(0)
        assert all(
            policy.jittered(2.0, rng) <= 2.0 for __ in range(100)
        )


class TestPeerDeathMidStream:
    def test_frames_resume_after_peer_restart(self):
        async def scenario():
            port = free_port()
            received: list[bytes] = []
            sender = Transport(
                {"peer": ("127.0.0.1", port)},
                on_payload=lambda p: None,
                policy=_fast_policy(),
                rng=random.Random(2),
            )
            receiver = Transport({}, on_payload=received.append)
            try:
                await receiver.listen("127.0.0.1", port)
                for index in range(3):
                    sender.post("peer", _payload(index))
                await _wait_for(lambda: len(received) == 3, message="first batch")

                # Peer dies mid-stream: frames in the dead window may be
                # lost; the sender reconnects on its own.
                await receiver.close()
                for index in range(3, 6):
                    sender.post("peer", _payload(index))
                await asyncio.sleep(0.1)

                revived: list[bytes] = []
                receiver2 = Transport({}, on_payload=revived.append)
                await receiver2.listen("127.0.0.1", port)
                sender.post("peer", _payload(6))
                try:
                    await _wait_for(
                        lambda: 6 in _indices(revived), message="post-restart frame"
                    )
                    # Ordering across the reconnect: everything the new
                    # incarnation sees is a strictly increasing
                    # subsequence of what was sent (FIFO preserved,
                    # losses allowed, reordering never).
                    indices = _indices(revived)
                    assert indices == sorted(indices)
                    assert len(set(indices)) == len(indices)
                finally:
                    await receiver2.close()
            finally:
                await sender.close()
                await receiver.close()

        asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))


class TestOverflowPolicies:
    def test_drop_policy_counts_and_sheds(self):
        async def scenario():
            sender = Transport(
                {"peer": ("127.0.0.1", free_port())},  # nothing listens
                on_payload=lambda p: None,
                policy=_fast_policy(),
                rng=random.Random(3),
                max_queued=4,
            )
            try:
                for index in range(10):
                    sender.post("peer", _payload(index))
                stats = sender.stats
                assert stats.frames_dropped >= 5
                assert stats.send_drops >= stats.frames_dropped
                assert stats.queue_high_water <= 4
            finally:
                await sender.close()

        asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))

    def test_queue_high_water_tracked(self):
        async def scenario():
            sender = Transport(
                {"peer": ("127.0.0.1", free_port())},
                on_payload=lambda p: None,
                policy=_fast_policy(),
                rng=random.Random(5),
                max_queued=100,
            )
            try:
                for index in range(7):
                    sender.post("peer", _payload(index))
                assert sender.stats.queue_high_water >= 6
            finally:
                await sender.close()

        asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))


class TestStatsGauges:
    def test_as_gauges_keys_are_prefixed_and_numeric(self):
        gauges = TransportStats().as_gauges()
        assert gauges, "gauges must not be empty"
        for key, value in gauges.items():
            assert key.startswith("transport_")
            assert isinstance(value, (int, float))

    def test_gauges_reflect_counters(self):
        stats = TransportStats()
        stats.frames_dropped = 3
        stats.reconnects = 2
        stats.queue_high_water = 9
        gauges = stats.as_gauges()
        assert gauges["transport_frames_dropped"] == 3
        assert gauges["transport_reconnects"] == 2
        assert gauges["transport_queue_high_water"] == 9
