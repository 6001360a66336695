"""Framed TCP transport: pooled peer connections + a frame server.

One process = one :class:`Transport`.  It listens on the process's own
address and keeps at most one outbound connection per peer, created on
first use and replaced after failures with the same bounded
exponential-backoff-plus-jitter retry policy the Ingestor uses for
forward retries (PR 1): ``delay = backoff * (0.5 + 0.5 * rng())``,
doubling up to a cap.

Delivery semantics match what the node layer already assumes of TCP
(Section III-H: ordered delivery, drops appear as delay):

* **FIFO per channel** — each peer has a single outbound queue drained
  by a single writer task over a single connection, so a later frame
  never overtakes an earlier one to the same destination.
* **At-most-once per frame, retried forever at the connection level** —
  a frame is written to exactly one socket; if the connection dies the
  writer reconnects (with backoff) and resumes from the unsent queue.
  Frames already handed to a dead socket may be lost — exactly the
  window the node layer's RPC timeouts + idempotent retries cover.
* **Bounded queues that shed** — a peer that stays down cannot OOM the
  process.  Beyond ``max_queued`` frames per peer the transport counts
  the frame in ``TransportStats.frames_dropped`` and discards it (the
  upper layer's retry produces a fresh frame later).  The high-water
  mark of every queue is tracked in ``TransportStats.queue_high_water``.

The server side reads CRC-checked frames and hands each payload to the
``on_payload`` callback on the event loop; a malformed frame closes
that connection (the peer reconnects and retries).
"""

from __future__ import annotations

import asyncio
import logging
import random
from dataclasses import dataclass, field

from . import wire

logger = logging.getLogger("repro.live.transport")

@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Reconnect backoff parameters (shape of the PR 1 forward-retry
    policy: exponential with jitter, bounded by a cap)."""

    base: float = 0.05
    cap: float = 2.0

    def next_backoff(self, backoff: float) -> float:
        return min(backoff * 2.0, self.cap)

    def jittered(self, backoff: float, rng: random.Random) -> float:
        return backoff * (0.5 + 0.5 * rng.random())


@dataclass(slots=True)
class TransportStats:
    """Counters for the live fabric.

    ``send_drops`` counts every frame the transport gave up on at the
    send side, whatever the reason (unknown destination, closed peer,
    queue overflow); ``frames_dropped`` is the
    queue-overflow subset — the number a cut or stalled link silently
    cost, which the monitor gauges surface so "the link was down and we
    shed N frames" is a measurement, not a guess.
    """

    frames_sent: int = 0
    frames_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    #: Socket writes issued; ``frames_sent / write_calls`` is the
    #: coalescing factor the drain-the-queue writer achieves.
    write_calls: int = 0
    #: Frames that rode along in a write started for an earlier frame
    #: (``frames_sent - write_calls`` when nothing was retried).
    frames_coalesced: int = 0
    reconnects: int = 0
    send_drops: int = 0
    frames_dropped: int = 0
    queue_high_water: int = 0
    decode_errors: int = 0
    peers: set = field(default_factory=set)

    def as_gauges(self) -> dict[str, float]:
        """Numeric counters, keyed for monitor timelines."""
        return {
            "transport_frames_sent": self.frames_sent,
            "transport_frames_received": self.frames_received,
            "transport_bytes_sent": self.bytes_sent,
            "transport_bytes_received": self.bytes_received,
            "transport_write_calls": self.write_calls,
            "transport_frames_coalesced": self.frames_coalesced,
            "transport_bytes_per_write": (
                self.bytes_sent / self.write_calls if self.write_calls else 0.0
            ),
            "transport_reconnects": self.reconnects,
            "transport_send_drops": self.send_drops,
            "transport_frames_dropped": self.frames_dropped,
            "transport_queue_high_water": self.queue_high_water,
            "transport_decode_errors": self.decode_errors,
        }


class _Peer:
    """One outbound channel: a queue and a writer task with reconnect."""

    def __init__(
        self,
        name: str,
        address: tuple[str, int],
        policy: RetryPolicy,
        rng: random.Random,
        stats: TransportStats,
        max_queued: int,
    ) -> None:
        self.name = name
        self.address = address
        self.policy = policy
        self.rng = rng
        self.stats = stats
        self.max_queued = max_queued
        # Unframed payloads; framing happens in the writer task, many
        # frames at a time into one reused scratch buffer.
        self.queue: asyncio.Queue[bytes] = asyncio.Queue()
        self._scratch = bytearray()
        self.writer: asyncio.StreamWriter | None = None
        self.task: asyncio.Task | None = None
        self.closed = False

    def post(self, payload: bytes) -> None:
        """Enqueue a payload for delivery, or shed it if the queue is full."""
        if self.closed:
            self.stats.send_drops += 1
            return
        queued = self.queue.qsize()
        if queued >= self.max_queued:
            self.stats.send_drops += 1
            self.stats.frames_dropped += 1
            logger.warning("outbound queue to %s full; dropping frame", self.name)
            return
        self.queue.put_nowait(payload)
        if queued + 1 > self.stats.queue_high_water:
            self.stats.queue_high_water = queued + 1
        if self.task is None:
            self.task = asyncio.get_running_loop().create_task(
                self._run(), name=f"transport.send.{self.name}"
            )

    async def _connect(self) -> asyncio.StreamWriter | None:
        """Open a connection, retrying with jittered exponential backoff
        until it succeeds or the peer is closed."""
        backoff = self.policy.base
        host, port = self.address
        while not self.closed:
            try:
                __, writer = await asyncio.open_connection(host, port)
                return writer
            except OSError:
                self.stats.reconnects += 1
                await asyncio.sleep(self.policy.jittered(backoff, self.rng))
                backoff = self.policy.next_backoff(backoff)
        return None

    async def _run(self) -> None:
        try:
            while not self.closed:
                first = await self.queue.get()
                # Drain everything already queued: one wakeup frames the
                # whole backlog into the reused scratch buffer and hands
                # the kernel ONE write instead of a syscall per frame.
                batch = [first]
                while True:
                    try:
                        batch.append(self.queue.get_nowait())
                    except asyncio.QueueEmpty:
                        break
                buffer = self._scratch
                # Safe to reuse: the previous write was fully handed to
                # the (selector) socket transport, which copies anything
                # it could not send immediately, before drain returned.
                buffer.clear()
                for payload in batch:
                    wire.encode_frame_into(buffer, payload)
                while not self.closed:
                    if self.writer is None:
                        self.writer = await self._connect()
                        if self.writer is None:
                            return  # closed while connecting
                    try:
                        self.writer.write(buffer)
                        await self.writer.drain()
                        self.stats.frames_sent += len(batch)
                        self.stats.bytes_sent += len(buffer)
                        self.stats.write_calls += 1
                        self.stats.frames_coalesced += len(batch) - 1
                        break
                    except (ConnectionError, OSError):
                        self._drop_connection()
        except asyncio.CancelledError:
            raise
        finally:
            self._drop_connection()

    def _drop_connection(self) -> None:
        writer, self.writer = self.writer, None
        if writer is not None:
            try:
                writer.close()
            except Exception:  # pragma: no cover - best-effort close
                pass

    async def close(self) -> None:
        self.closed = True
        if self.task is not None:
            self.task.cancel()
            try:
                await self.task
            except asyncio.CancelledError:
                pass
            self.task = None
        self._drop_connection()


class Transport:
    """Send frames to named peers; receive frames on a local server.

    Args:
        addresses: Node name -> (host, port) for every reachable peer.
        on_payload: Called with each received, CRC-verified payload.
        policy: Reconnect backoff policy (``cap`` bounds the backoff, so
            a long outage retries at a steady, finite cadence).
        rng: Jitter stream (seed it for reproducible backoff schedules).
        max_queued: Per-peer outbound queue bound; beyond it frames
            are shed.
    """

    def __init__(
        self,
        addresses: dict[str, tuple[str, int]],
        on_payload,
        policy: RetryPolicy | None = None,
        rng: random.Random | None = None,
        max_queued: int = 10_000,
    ) -> None:
        self.addresses = dict(addresses)
        self.on_payload = on_payload
        self.policy = policy or RetryPolicy()
        self.rng = rng or random.Random(0x7C9)
        self.max_queued = max_queued
        self.stats = TransportStats()
        self._peers: dict[str, _Peer] = {}
        self._server: asyncio.base_events.Server | None = None
        self._server_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def post(self, dst: str, payload: bytes) -> None:
        """Frame and enqueue ``payload`` for peer ``dst``.

        Unknown destinations are counted as drops (the sim network would
        raise — here an address map that lags a reconfig shows up as
        timeouts at the caller, not a crash in the sender).
        """
        address = self.addresses.get(dst)
        if address is None:
            self.stats.send_drops += 1
            logger.warning("no address for %s; dropping frame", dst)
            return
        peer = self._peers.get(dst)
        if peer is None:
            peer = _Peer(
                dst, address, self.policy, self.rng, self.stats, self.max_queued
            )
            self._peers[dst] = peer
            self.stats.peers.add(dst)
        peer.post(payload)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    async def listen(self, host: str, port: int) -> None:
        """Start the frame server on (host, port)."""
        self._server = await asyncio.start_server(self._serve_connection, host, port)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._server_tasks.add(task)
            task.add_done_callback(self._server_tasks.discard)
        try:
            while True:
                header = await reader.readexactly(wire.HEADER_SIZE)
                length, crc = wire.decode_header(header)
                payload = await reader.readexactly(length)
                wire.check_payload(payload, crc)
                self.stats.frames_received += 1
                self.stats.bytes_received += wire.HEADER_SIZE + length
                self.on_payload(payload)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # peer went away: normal
        except asyncio.CancelledError:
            pass  # transport closing; end the task cleanly (streams.py
            # would log a cancelled reader task as a callback error)
        except wire.WireError as error:
            self.stats.decode_errors += 1
            logger.warning("closing connection on wire error: %s", error)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def close(self) -> None:
        """Stop the server and tear down every peer connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._server_tasks):
            task.cancel()
        for peer in self._peers.values():
            await peer.close()
        self._peers.clear()
