"""Framed TCP transport: pooled peer connections + a frame server.

One process = one :class:`Transport`.  It listens on the process's own
address and keeps at most one outbound connection per peer, created on
first use and replaced after failures with the same bounded
exponential-backoff-plus-jitter retry policy the Ingestor uses for
forward retries (PR 1): ``delay = backoff * (0.5 + 0.5 * rng())``,
doubling up to a cap.

Both directions are asyncio Protocols, driven by the loop's callbacks
with no task per peer or per connection.  Outbound, :meth:`Transport.post`
frames a payload straight into the connection's ``transport.write``
while the channel is connected and the socket has not paused writing;
inbound, ``data_received`` cuts CRC-checked frames out of the byte
stream and hands each payload to ``on_payload`` in the same callback.

Delivery semantics match what the node layer already assumes of TCP
(Section III-H: ordered delivery, drops appear as delay):

* **FIFO per channel** — each peer has one connection, and every frame
  joins the peer's pending list, which is written as one buffer (at
  once on a healthy channel): so a later frame never overtakes an
  earlier one to the same destination.
* **At-most-once per frame, retried forever at the connection level** —
  a frame is written to exactly one socket.  While the channel is
  connecting (with backoff) or the socket has paused writing, frames
  wait in the pending list; they are written on ``connection_made`` or
  ``resume_writing``.  The channel is marked down as soon as its
  connection is lost or the peer hangs up (EOF), so the next frame
  reconnects.  Frames already handed to a dead socket may be lost —
  exactly the window the node layer's RPC timeouts + idempotent
  retries cover.
* **A bounded pending list that sheds** — a peer that stays down cannot
  OOM the process.  Beyond ``max_queued`` waiting frames per peer the
  transport counts the frame in ``TransportStats.frames_dropped`` and
  discards it (the upper layer's retry produces a fresh frame later).
  The high-water mark of every pending list is tracked in
  ``TransportStats.queue_high_water``.

A malformed inbound frame closes that connection (the peer reconnects
and retries).
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
    pending-list overflow); ``frames_dropped`` is the
    overflow subset — the number a cut or stalled link silently
    cost, which the monitor gauges surface so "the link was down and we
    shed N frames" is a measurement, not a guess.
    """

    frames_sent: int = 0
    frames_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    #: Socket writes issued; ``frames_sent / write_calls`` is the
    #: coalescing factor of writing each pending list as one buffer.
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
    """One outbound channel: a connection written to directly, and the
    frames waiting while it connects or the socket has paused writing."""

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
        #: Unframed payloads waiting for the channel, oldest first.
        self.pending: list[bytes] = []
        #: The live connection, or None while the channel is down.
        self.transport: asyncio.Transport | None = None
        self.paused = False
        self.connector: asyncio.Task | None = None
        self.closed = False

    def post(self, payload: bytes) -> None:
        """Write a payload's frame now, or keep it pending (or shed it
        when the pending list is full) until the channel can take it."""
        if self.closed:
            self.stats.send_drops += 1
            return
        transport = self.transport
        if transport is not None and transport.is_closing():
            self._down(transport)
            transport = None
        queued = len(self.pending)
        if queued >= self.max_queued:
            self.stats.send_drops += 1
            self.stats.frames_dropped += 1
            logger.warning("pending frames to %s at bound; dropping frame", self.name)
            return
        self.pending.append(payload)
        if queued + 1 > self.stats.queue_high_water:
            self.stats.queue_high_water = queued + 1
        if transport is None:
            self._reconnect()
        elif not self.paused:
            self._flush()

    def _flush(self) -> None:
        """Write every pending frame as one buffer (on a healthy channel,
        the one frame just posted)."""
        batch, self.pending = self.pending, []
        if not batch:
            return
        buffer = bytearray()
        for payload in batch:
            wire.encode_frame_into(buffer, payload)
        self.transport.write(buffer)
        self.stats.frames_sent += len(batch)
        self.stats.bytes_sent += len(buffer)
        self.stats.write_calls += 1
        self.stats.frames_coalesced += len(batch) - 1

    # ------------------------------------------------------------------
    # Connection life cycle (called by the channel's _Link protocol)
    # ------------------------------------------------------------------
    def _reconnect(self) -> None:
        if self.connector is None and not self.closed:
            self.connector = asyncio.get_running_loop().create_task(
                self._connect(), name=f"transport.connect.{self.name}"
            )

    async def _connect(self) -> None:
        """Open a connection, retrying with jittered exponential backoff,
        while frames wait for one and the peer is not closed."""
        backoff = self.policy.base
        host, port = self.address
        loop = asyncio.get_running_loop()
        try:
            while not self.closed and self.transport is None and self.pending:
                try:
                    await loop.create_connection(lambda: _Link(self), host, port)
                except OSError:
                    self.stats.reconnects += 1
                    await asyncio.sleep(self.policy.jittered(backoff, self.rng))
                    backoff = self.policy.next_backoff(backoff)
        finally:
            self.connector = None

    def _up(self, transport: asyncio.Transport) -> None:
        if self.closed:
            transport.close()
            return
        self.transport = transport
        self.paused = False
        self._flush()

    def _down(self, transport: asyncio.Transport) -> None:
        """The connection is gone (or going): mark the channel down, and
        reconnect at once if frames are waiting for it."""
        if self.transport is not transport:
            return
        self.transport = None
        self.paused = False
        transport.close()
        if self.pending:
            self._reconnect()

    def _pause(self, transport: asyncio.Transport) -> None:
        if self.transport is transport:
            self.paused = True

    def _resume(self, transport: asyncio.Transport) -> None:
        if self.transport is transport:
            self.paused = False
            self._flush()

    async def close(self) -> None:
        self.closed = True
        if self.connector is not None:
            self.connector.cancel()
            try:
                await self.connector
            except asyncio.CancelledError:
                pass
        transport, self.transport = self.transport, None
        if transport is not None:
            transport.close()


class _Link(asyncio.Protocol):
    """The protocol of one outbound connection: it reports the socket's
    state to its channel and reads nothing (replies arrive on the
    peer's own outbound connection to us)."""

    def __init__(self, peer: _Peer) -> None:
        self.peer = peer
        self.transport: asyncio.Transport | None = None

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.peer._up(transport)

    def connection_lost(self, exc) -> None:
        self.peer._down(self.transport)

    def eof_received(self) -> bool:
        # The peer hung up: the channel is down now, not at the next
        # failed write (a frame written into a half-closed socket is lost).
        self.peer._down(self.transport)
        return False

    def pause_writing(self) -> None:
        self.peer._pause(self.transport)

    def resume_writing(self) -> None:
        self.peer._resume(self.transport)


class _FrameReader(asyncio.Protocol):
    """The protocol of one inbound connection: cut CRC-checked frames
    out of the byte stream and hand each payload on as it completes."""

    def __init__(self, owner: "Transport") -> None:
        self.owner = owner
        self.transport: asyncio.Transport | None = None
        #: Bytes of an unfinished frame, and the length it needs.
        self.partial = bytearray()
        self.needed = 0

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.owner._inbound.add(transport)

    def connection_lost(self, exc) -> None:
        self.owner._inbound.discard(self.transport)

    def data_received(self, data: bytes) -> None:
        partial = self.partial
        if partial:
            partial += data
            if len(partial) < self.needed:
                return
            data = bytes(partial)
            partial.clear()
        # Payloads are zero-copy slices of this (immutable) chunk.
        view = memoryview(data)
        size = len(data)
        stats = self.owner.stats
        on_payload = self.owner.on_payload
        pos = 0
        try:
            while True:
                if size - pos < wire.HEADER_SIZE:
                    needed = wire.HEADER_SIZE
                    break
                length, crc = wire.decode_header(view[pos : pos + wire.HEADER_SIZE])
                end = pos + wire.HEADER_SIZE + length
                if end > size:
                    needed = end - pos
                    break
                payload = view[pos + wire.HEADER_SIZE : end]
                wire.check_payload(payload, crc)
                pos = end
                stats.frames_received += 1
                stats.bytes_received += wire.HEADER_SIZE + length
                on_payload(payload)
        except wire.WireError as error:
            stats.decode_errors += 1
            logger.warning("closing connection on wire error: %s", error)
            self.transport.close()
            return
        if pos < size:
            partial += view[pos:]
            self.needed = needed


class Transport:
    """Send frames to named peers; receive frames on a local server.

    Args:
        addresses: Node name -> (host, port) for every reachable peer.
        on_payload: Called with each received, CRC-verified payload (a
            read-only buffer: ``bytes`` or a ``memoryview`` of them).
        policy: Reconnect backoff policy (``cap`` bounds the backoff, so
            a long outage retries at a steady, finite cadence).
        rng: Jitter stream (seed it for reproducible backoff schedules).
        max_queued: Per-peer bound on frames waiting for the channel;
            beyond it frames are shed.
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
        self._inbound: set[asyncio.Transport] = set()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def post(self, dst: str, payload: bytes) -> None:
        """Frame and send ``payload`` to peer ``dst``.

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
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(lambda: _FrameReader(self), host, port)

    async def close(self) -> None:
        """Stop the server and tear down every connection."""
        if self._server is not None:
            self._server.close()
            for transport in list(self._inbound):
                transport.close()
            await self._server.wait_closed()
            self._server = None
        for peer in self._peers.values():
            await peer.close()
        self._peers.clear()
