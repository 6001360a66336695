"""The CooLSM client library.

A :class:`Client` is a simulated application node.  It implements the
paper's client-side protocols:

* **upsert/delete** — sent to an Ingestor (the nearest by default).
* **read** (single Ingestor) — sent to the Ingestor, which owns the
  full read path (memtable, L0, L1, then the right Compactor).
* **read** (multiple Ingestors) — the two-phase protocol of Section
  III-E.2: phase 1 asks a coordinator Ingestor to stamp the read and
  gather every Ingestor's newest visible version plus its ts_c; the
  client then asks the Compactors only if the phase-1 results cannot
  prove freshness (ts_h - min ts_c < 2δ) or nothing was found.
* **read_from_backup / analytics_query** — served by a Reader without
  touching the ingestion path (Sections III-D, IV-E).

Every operation above — single or batched, failover-ordered or routed
by the shard map — is driven by one retry loop, :meth:`Client._routed`,
which owns timeouts, failover and WrongShard re-routing.  Every
completed operation is appended to the client's
:class:`~repro.core.history.History` and its latency recorded, feeding
both the consistency checkers and the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.effects import ComputeHost, EffectKernel, Fabric
from repro.lsm.entry import Entry, encode_key, encode_value
from repro.sim.clock import definitely_after
from repro.sim.rpc import RemoteError, RpcNode, RpcTimeout

from .config import CooLSMConfig
from .history import History
from .keyspace import Partitioning
from .messages import (
    Phase1Reply,
    Phase1Request,
    RangeQuery,
    RangeQueryReply,
    ReadReply,
    ReadRequest,
    ShardMapRequest,
    UpsertBatchReply,
    UpsertBatchRequest,
    UpsertReply,
    UpsertRequest,
)
from .shard import ShardMap, is_wrong_shard


@dataclass(slots=True)
class ClientStats:
    """Per-kind operation latencies (true simulation time, seconds)."""

    latencies: dict[str, list[float]] = field(default_factory=dict)
    phase2_reads: int = 0
    timeouts: int = 0
    failovers: int = 0
    shard_redirects: int = 0
    map_refreshes: int = 0
    # Always 0: nothing sheds writes with a retryable reply any more.
    # Kept only because the frozen e2e benchmark still reads it.
    backpressure_retries: int = 0

    def record(self, kind: str, latency: float) -> None:
        self.latencies.setdefault(kind, []).append(latency)

    def all(self, kind: str) -> list[float]:
        return self.latencies.get(kind, [])


class Client(RpcNode):
    """A CooLSM client.

    Operation methods are coroutines — drive them with
    ``yield from client.upsert(...)`` inside a process, or via the
    harness helpers.

    Args:
        kernel/network/machine/name: Simulation plumbing.
        config: Deployment parameters (δ, costs).
        partitioning: Compactor map, needed for phase-2 reads.
        ingestors: Ingestor names this client may talk to; the first is
            its default (nearest) Ingestor and read coordinator.
        readers: Reader names for backup reads and analytics.
        multi_ingestor: Selects the read protocol.
        history: Optional shared history for consistency checking.
    """

    def __init__(
        self,
        kernel: EffectKernel,
        network: Fabric,
        machine: ComputeHost,
        name: str,
        config: CooLSMConfig,
        partitioning: Partitioning,
        ingestors: list[str],
        readers: list[str] | None = None,
        multi_ingestor: bool = False,
        history: History | None = None,
        shard_map: ShardMap | None = None,
    ) -> None:
        super().__init__(kernel, network, machine, name)
        if not ingestors:
            raise ValueError("a client needs at least one Ingestor")
        self.config = config
        self.partitioning = partitioning
        self.ingestors = list(ingestors)
        self.readers = list(readers or [])
        self.multi_ingestor = multi_ingestor
        self.history = history
        # Sharded scale-out mode: route each op to the owner named by
        # the (versioned) shard map instead of failing over blindly.
        # Refreshed in place whenever a node bounces a request with a
        # WrongShard redirect — clients never poll for membership.
        self.shard_map = shard_map
        self.stats = ClientStats()

    # ------------------------------------------------------------------
    # Fault handling: the one routed-retry loop
    # ------------------------------------------------------------------
    def _shard_routed(self, preferred: str | None) -> bool:
        """Owner routing applies when the client holds a shard map and
        the caller pinned no target."""
        return self.shard_map is not None and preferred is None

    def _routed(self, send, preferred: str | None, pool: list[str], key: bytes | None = None):
        """Drive ``send(target)`` — a generator making one attempt — to
        success or a spent budget; returns ``(serving_target, result)``.
        Every client operation goes through here, so a crashed node
        surfaces as :class:`~repro.sim.rpc.RpcTimeout` after the retry
        budget — never as a driver hung forever on ``timeout=None``.

        *Target.*  With ``key`` under shard routing, the key's owner in
        the current map, re-read every attempt; otherwise the attempt
        count rotates through ``preferred`` then the rest of ``pool``.

        *Failures.*  A WrongShard bounce refreshes the map and
        re-routes; during a split's fence→activate window no node
        serves the moving range, so a bounce that finds nothing fresher
        backs off (bounded) until the new owner goes live.
        Anything else counts against ``client_retry_budget``: a failover
        order rotates at once, a shard-routed call — which has no
        alternate target, only a fresher map — refreshes and backs off.
        """
        sharded = key is not None and self._shard_routed(preferred)
        if not sharded:
            first = preferred or (pool[0] if pool else None)
            if first is None:
                raise ValueError("no target available")
            order = [first] + [t for t in pool if t != first]
        budget = self.config.client_retry_budget
        attempt = redirects = 0
        backoff = self.config.forward_backoff_base
        target = None
        while True:
            if sharded:
                target = self.shard_map.owner_of(key)
            else:
                previous, target = target, order[attempt % len(order)]
                if previous is not None and target != previous:
                    self.stats.failovers += 1
            try:
                return target, (yield from send(target))
            except (RpcTimeout, RemoteError) as error:
                if sharded and is_wrong_shard(error):
                    self.stats.shard_redirects += 1
                    redirects += 1
                    if redirects > 8 * budget:
                        raise
                    if (yield from self._refresh_shard_map()):
                        continue
                else:
                    self.stats.timeouts += 1
                    attempt += 1
                    if attempt >= budget:
                        raise
                    if not sharded:
                        continue
                    yield from self._refresh_shard_map()
            yield self.kernel.timeout(backoff)
            backoff = min(backoff * 2.0, self.config.forward_backoff_cap)

    def _call(
        self,
        method: str,
        request,
        preferred: str | None,
        pool: list[str],
        key: bytes | None = None,
        size_bytes: int = 256,
    ):
        """One RPC through :meth:`_routed`."""

        def send(target: str):
            return (yield self._rpc(target, method, request, size_bytes))

        return self._routed(send, preferred, pool, key)

    def _rpc(self, target: str, method: str, request, size_bytes: int = 256):
        """A single attempt, bounded by the config-derived timeout."""
        return self.call(
            target, method, request,
            size_bytes=size_bytes, timeout=self.config.request_timeout,
        )

    def _refresh_shard_map(self):
        """Try to fetch a strictly newer shard map from any live node.

        Asks the current map's owners first (the node that bounced us
        is usually the one holding the successor epoch), then the rest
        of the configured Ingestor pool.  Returns True if a newer map
        was installed.
        """
        assert self.shard_map is not None
        candidates = self.shard_map.owners()
        for name in self.ingestors:
            if name not in candidates:
                candidates.append(name)
        for target in candidates:
            try:
                reply = yield self._rpc(
                    target, "shard_map", ShardMapRequest(self.shard_map.epoch)
                )
            except (RpcTimeout, RemoteError):
                continue
            fresher = reply.shard_map
            if fresher is not None and fresher.epoch > self.shard_map.epoch:
                self.shard_map = fresher
                self.stats.map_refreshes += 1
                return True
        return False

    def _record(
        self,
        stat: str,
        key: bytes,
        value: bytes | None,
        invoked: float,
        completed: float,
        timestamp: float,
        server: str = "",
    ) -> None:
        """Account one completed operation: its latency under ``stat``
        and, in the shared history, a write or (any other ``stat``) a read."""
        self.stats.record(stat, completed - invoked)
        if self.history is not None:
            self.history.record(
                "write" if stat == "write" else "read",
                key, value, invoked, completed, timestamp,
                client=self.name, server=server,
            )

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def upsert(self, key, value, ingestor: str | None = None):
        """Insert or overwrite ``key``; returns the assigned timestamp."""
        encoded_key = encode_key(key)
        encoded_value = encode_value(value)
        request = UpsertRequest(encoded_key, encoded_value)
        return (yield from self._do_upsert(request, ingestor))

    def delete(self, key, ingestor: str | None = None):
        """Delete ``key`` via a tombstone."""
        request = UpsertRequest(encode_key(key), b"", tombstone=True)
        return (yield from self._do_upsert(request, ingestor))

    def _do_upsert(self, request: UpsertRequest, ingestor: str | None):
        invoked = self.kernel.now
        target, reply = yield from self._call(
            "upsert", request, ingestor, self.ingestors,
            key=request.key, size_bytes=64 + len(request.value),
        )
        assert isinstance(reply, UpsertReply)
        self._record(
            "write", request.key, None if request.tombstone else request.value,
            invoked, self.kernel.now, reply.timestamp, target,
        )
        return reply

    def upsert_many(self, items, ingestor: str | None = None):
        """Insert or overwrite many keys with batched RPCs.

        ``items`` is an iterable of ``(key, value)`` pairs; they are
        applied by the Ingestor in order and each gets its own stamped
        :class:`UpsertReply` (returned as a list, in order).  A batch
        retries/fails over as a unit — safe because re-upserting the
        same values is idempotent, the same argument that covers a
        single upsert whose ack was lost.
        """
        requests = tuple(
            UpsertRequest(encode_key(key), encode_value(value))
            for key, value in items
        )
        return (yield from self._do_upsert_batch(requests, ingestor))

    def _do_upsert_batch(self, requests: tuple[UpsertRequest, ...], ingestor: str | None):
        """One ``upsert_batch`` RPC per target, replies in op order.

        Unrouted, the whole batch is one group.  Under shard routing
        each attempt sends the still-unacked ops its target owns *under
        the current map*: after a split a group that used to be one
        owner's keys legitimately straddles two, so regrouping on every
        WrongShard-driven refresh (not blind retry) is what terminates,
        and whatever the acked group left behind goes out next.
        """
        invoked = self.kernel.now
        sharded = self._shard_routed(ingestor)
        replies: list[UpsertReply | None] = [None] * len(requests)
        pending = list(range(len(requests)))

        def send(target: str):
            group = pending
            if sharded:
                owner_of = self.shard_map.owner_of
                group = [i for i in pending if owner_of(requests[i].key) == target]
            batch = tuple(requests[i] for i in group)
            size = 64 + sum(32 + len(r.key) + len(r.value) for r in batch)
            reply = yield self._rpc(target, "upsert_batch", UpsertBatchRequest(batch), size)
            return group, reply

        while pending:
            target, (group, reply) = yield from self._routed(
                send, ingestor, self.ingestors, key=requests[pending[0]].key
            )
            assert isinstance(reply, UpsertBatchReply)
            completed = self.kernel.now
            for index, op_reply in zip(group, reply.replies):
                replies[index] = op_reply
                request = requests[index]
                self._record(
                    "write", request.key, None if request.tombstone else request.value,
                    invoked, completed, op_reply.timestamp, target,
                )
            pending = [i for i in pending if replies[i] is None]
        return replies

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(self, key, coordinator: str | None = None):
        """Point read with the deployment's strongest available path.

        Times out and fails over to an alternate Ingestor (or, for the
        two-phase protocol, an alternate coordinator) when the serving
        node is crashed or unreachable.
        """
        encoded = encode_key(key)
        invoked = self.kernel.now
        if self.multi_ingestor:
            __, (entry, stamp) = yield from self._routed(
                lambda target: self._two_phase_read(encoded, target),
                coordinator, self.ingestors,
            )
        else:
            # Single Ingestor, or sharded — where exactly one Ingestor
            # serves this key, so the same read path applies per shard.
            __, reply = yield from self._call(
                "read", ReadRequest(encoded), coordinator, self.ingestors, key=encoded
            )
            entry = reply.entry
            stamp = entry.timestamp if entry is not None else 0.0
        value = self._value_of(entry)
        self._record("read", encoded, value, invoked, self.kernel.now, stamp)
        return value

    def _two_phase_read(self, key: bytes, coordinator: str | None):
        """Section III-E.2's two-phase multi-Ingestor read."""
        target = coordinator or self.ingestors[0]
        phase1 = yield self._rpc(target, "read_phase1", Phase1Request(key))
        assert isinstance(phase1, Phase1Reply)
        found = [r.entry for r in phase1.results if r.entry is not None]
        # Freshness proof: every record at the Compactors was forwarded by
        # some Ingestor i with timestamp <= that Ingestor's ts_c, so no
        # Compactor record can supersede ts_h iff ts_h - max_i ts_c_i >= 2δ.
        # (The paper says "lowest received ts_c"; the max is the sound
        # bound — see DESIGN.md's deviations section.)
        max_ts_c = max(r.ts_c for r in phase1.results)
        best: Entry | None = max(found, key=lambda e: e.version) if found else None
        skip_phase2 = best is not None and definitely_after(
            best.timestamp, max_ts_c, self.config.delta
        )
        if not skip_phase2:
            self.stats.phase2_reads += 1
            partition = self.partitioning.partition_for(key)
            request = ReadRequest(key, as_of=phase1.read_ts)
            # Each member gets the full retry budget and the read fails
            # if one stays silent: a missing member's answer could hide
            # the newest version, so the read must fail, not degrade.
            calls = [
                self.kernel.spawn(self._call("read", request, member, []))
                for member in partition.members
            ]
            replies = yield self.kernel.all_of(calls)
            for __, reply in replies:
                assert isinstance(reply, ReadReply)
                if reply.entry is not None and (
                    best is None or reply.entry.version > best.version
                ):
                    best = reply.entry
        return best, phase1.read_ts

    def read_from_backup(self, key, reader: str | None = None):
        """Point read served by a Reader (snapshot-linearizable)."""
        if not self.readers and reader is None:
            raise ValueError("deployment has no Readers")
        encoded = encode_key(key)
        invoked = self.kernel.now
        target, reply = yield from self._call(
            "read", ReadRequest(encoded), reader, self.readers
        )
        entry = reply.entry
        value = self._value_of(entry)
        self._record(
            "backup_read", encoded, value, invoked, self.kernel.now,
            entry.timestamp if entry is not None else 0.0, target,
        )
        return value

    def scan(self, lo, hi, limit: int | None = None, ingestor: str | None = None):
        """Global range scan through the Ingestor: merges the Ingestor's
        levels with every Compactor partition the range touches.

        Fresher than :meth:`analytics_query` (which reads a possibly
        lagging Reader snapshot) but interferes with the ingestion path.
        Returns sorted (key, value) pairs, tombstones elided.
        """
        return (yield from self._range_query("scan", lo, hi, limit, ingestor, self.ingestors))

    def analytics_query(self, lo, hi, limit: int | None = None, reader: str | None = None):
        """Range query served by a Reader (the paper's analytics task)."""
        if not self.readers and reader is None:
            raise ValueError("deployment has no Readers")
        return (yield from self._range_query("analytics", lo, hi, limit, reader, self.readers))

    def _range_query(self, stat: str, lo, hi, limit, preferred: str | None, pool: list[str]):
        request = RangeQuery(encode_key(lo), encode_key(hi), limit)
        invoked = self.kernel.now
        __, reply = yield from self._call(
            "range_query", request, preferred, pool, size_bytes=64
        )
        assert isinstance(reply, RangeQueryReply)
        self.stats.record(stat, self.kernel.now - invoked)
        return list(reply.pairs)

    @staticmethod
    def _value_of(entry: Entry | None) -> bytes | None:
        if entry is None or entry.tombstone:
            return None
        return entry.value


class ClientPipeline:
    """Auto-batching, pipelined write issuer on top of one client.

    Coalesces submitted upserts into :meth:`Client.upsert_many` batches
    of up to ``max_batch`` ops and keeps up to ``depth`` batched RPCs in
    flight at once, so one client saturates the connection instead of
    paying a full round-trip (and, server-side, a full fsync) per op.
    Kernel-agnostic: works under the simulator and the live runtime.

    Use :meth:`put` (a generator — ``yield from pipeline.put(...)``) to
    submit with backpressure: it parks the caller while the window
    (``depth * max_batch`` ops buffered or in flight) is full.  Call
    :meth:`drain` before reading your own writes or exiting — only ops
    acked by then are durable; the first batch failure (after the
    client's own retries and failovers) is re-raised there and by the
    next ``put``.

    Per-op latencies (submit -> batch ack, seconds) accumulate in
    ``latencies`` for the benchmark harness.
    """

    def __init__(
        self,
        client: Client,
        ingestor: str | None = None,
        max_batch: int = 32,
        depth: int = 4,
    ) -> None:
        if max_batch <= 0 or depth <= 0:
            raise ValueError("max_batch and depth must be positive")
        self.client = client
        self.kernel = client.kernel
        self.ingestor = ingestor
        self.max_batch = max_batch
        self.depth = depth
        self.latencies: list[float] = []
        self.ops_acked = 0
        self.batches_sent = 0
        self._buffer: list[tuple[UpsertRequest, float]] = []
        self._inflight_batches = 0
        self._inflight_ops = 0
        self._pump_scheduled = False
        self._waiters: list = []
        self._error: Exception | None = None

    @property
    def pending_ops(self) -> int:
        """Ops submitted but not yet acked (buffered + in flight)."""
        return len(self._buffer) + self._inflight_ops

    def submit(self, key, value) -> None:
        """Queue one upsert without blocking (no window check — callers
        that outrun ``depth * max_batch`` should use :meth:`put`)."""
        self._raise_if_failed()
        request = UpsertRequest(encode_key(key), encode_value(value))
        self._buffer.append((request, self.kernel.now))
        self._dispatch()

    def put(self, key, value):
        """Generator: queue one upsert, parking while the window is full."""
        while self.pending_ops >= self.depth * self.max_batch:
            waiter = self.kernel.event()
            self._waiters.append(waiter)
            yield waiter
        self.submit(key, value)

    def drain(self):
        """Generator: flush the buffer, wait until nothing is in flight,
        and re-raise the first batch failure if there was one."""
        while self._buffer or self._inflight_batches:
            self._dispatch(flush=True)
            if not (self._buffer or self._inflight_batches):
                break
            waiter = self.kernel.event()
            self._waiters.append(waiter)
            yield waiter
        self._raise_if_failed()

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def _dispatch(self, flush: bool = False) -> None:
        """Launch full batches while slots are free; a partial buffer
        waits one scheduler tick for same-tick submits (or goes out
        immediately when ``flush`` demands it)."""
        while self._inflight_batches < self.depth and (
            len(self._buffer) >= self.max_batch or (flush and self._buffer)
        ):
            batch = self._take_batch()
            self._inflight_batches += 1
            self._inflight_ops += len(batch)
            self.batches_sent += 1
            self.kernel.spawn(
                self._run_batch(batch),
                f"{self.client.name}.pipeline.batch",
            )
        if self._buffer and self._inflight_batches < self.depth and not self._pump_scheduled:
            self._pump_scheduled = True
            self.kernel.spawn(self._pump(), f"{self.client.name}.pipeline.pump")

    def _take_batch(self) -> list[tuple[UpsertRequest, float]]:
        """Pull the next batch off the buffer.

        Under shard routing every batch must land on one owner (a mixed
        batch would bounce whole), so take up to ``max_batch`` buffered
        ops owned by the first op's shard and keep the rest, in order,
        for later batches — per-shard pipelining is preserved because
        each shard's ops drain through their own batches while other
        shards' batches are in flight.
        """
        shard_map = self.client.shard_map
        if shard_map is None or self.ingestor is not None:
            batch = self._buffer[: self.max_batch]
            del self._buffer[: self.max_batch]
            return batch
        owner = shard_map.owner_of(self._buffer[0][0].key)
        batch: list[tuple[UpsertRequest, float]] = []
        rest: list[tuple[UpsertRequest, float]] = []
        for item in self._buffer:
            if len(batch) < self.max_batch and shard_map.owner_of(item[0].key) == owner:
                batch.append(item)
            else:
                rest.append(item)
        self._buffer = rest
        return batch

    def _pump(self):
        yield self.kernel.timeout(0.0)
        self._pump_scheduled = False
        self._dispatch(flush=True)

    def _run_batch(self, batch):
        requests = tuple(request for request, __ in batch)
        try:
            yield from self.client._do_upsert_batch(requests, self.ingestor)
        except (RpcTimeout, RemoteError, ValueError) as error:
            if self._error is None:
                self._error = error
        else:
            acked = self.kernel.now
            for __, submitted in batch:
                self.latencies.append(acked - submitted)
            self.ops_acked += len(batch)
        finally:
            self._inflight_batches -= 1
            self._inflight_ops -= len(batch)
            self._dispatch()
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                waiter.succeed()
