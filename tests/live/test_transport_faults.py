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
                # Post while nothing listens: the channel sits in its
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


class TestPeerHangUp:
    def test_one_frame_after_peer_hang_up_arrives(self):
        """A peer that hangs up must take the channel down at once: the
        next frame reconnects instead of vanishing into the half-closed
        socket (which cost a whole RPC timeout per hang-up)."""
        async def scenario():
            port = free_port()
            received: list[bytes] = []
            sender = Transport(
                {"peer": ("127.0.0.1", port)},
                on_payload=lambda p: None,
                policy=_fast_policy(),
                rng=random.Random(4),
            )
            receiver = Transport({}, on_payload=received.append)
            try:
                await receiver.listen("127.0.0.1", port)
                sender.post("peer", _payload(0))
                await _wait_for(lambda: len(received) == 1, message="first frame")
                await receiver.close()
                await asyncio.sleep(0.1)  # the hang-up reaches the sender

                revived: list[bytes] = []
                receiver2 = Transport({}, on_payload=revived.append)
                await receiver2.listen("127.0.0.1", port)
                try:
                    sender.post("peer", _payload(1))
                    await _wait_for(
                        lambda: len(revived) == 1, timeout=3.0,
                        message="the one frame sent after the hang-up",
                    )
                    assert _indices(revived) == [1]
                finally:
                    await receiver2.close()
            finally:
                await sender.close()
                await receiver.close()

        asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))


class TestPausedWriting:
    def test_frames_wait_in_order_shed_and_flow_after_resume(self):
        """A receiver that stops reading fills the socket until the
        sender pauses; frames then wait in order, shed beyond
        ``max_queued``, and arrive strictly increasing after resume."""
        max_queued = 8
        extra = max_queued + 4

        async def scenario():
            port = free_port()
            received: list[bytes] = []
            sender = Transport(
                {"peer": ("127.0.0.1", port)},
                on_payload=lambda p: None,
                policy=_fast_policy(),
                rng=random.Random(6),
                max_queued=max_queued,
            )
            receiver = Transport({}, on_payload=received.append)
            pad = b"p" * (128 * 1024)
            try:
                await receiver.listen("127.0.0.1", port)
                sender.post("peer", _payload(0))
                await _wait_for(lambda: len(received) == 1, message="connection")
                for inbound in receiver._inbound:
                    inbound.pause_reading()
                # Write until a frame has to wait: the sender paused.
                sent = 1
                while True:
                    sender.post("peer", _payload(sent, pad))
                    sent += 1
                    if sender.stats.frames_sent < sent:
                        break
                    assert sent < 400, "sender never paused"
                    await asyncio.sleep(0)
                # The paused channel keeps max_queued frames, sheds the rest
                # (no loop turn in between, so it cannot resume meanwhile).
                for __ in range(extra):
                    sender.post("peer", _payload(sent, pad))
                    sent += 1
                assert sender.stats.queue_high_water == max_queued
                assert sender.stats.frames_dropped == extra + 1 - max_queued
                kept = sent - sender.stats.frames_dropped
                for inbound in receiver._inbound:
                    inbound.resume_reading()
                await _wait_for(lambda: len(received) == kept, message="resumed delivery")
                indices = _indices(received)
                assert indices == list(range(kept))
                assert sender.stats.reconnects == 0
            finally:
                await sender.close()
                await receiver.close()

        asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))


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
