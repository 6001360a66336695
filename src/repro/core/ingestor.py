"""The Ingestor: CooLSM's edge-resident write front-end.

An Ingestor (Section III-B/C) owns the memtable and levels **L0 and
L1**.  It batches upserts, performs *minor* (tiering) compaction of
L0+L1, and forwards L1's overflow sstables to the partitioned
Compactors — retaining a copy of every forwarded table until the
Compactor acknowledges the merge, so no key is ever temporarily
invisible on the read path.

Flow control: when too many forwarded tables await acks
(``config.max_inflight_tables``), the next minor compaction — and the
upsert that triggered it — stalls until acks drain.  This is the only
write backpressure, and what couples write latency to the number (and
speed) of Compactors and produces Figure 3's trends and Table II's tail.

In multi-Ingestor deployments (Section III-E) the Ingestor additionally
stamps every write with its loose clock, retains multiple versions per
key, answers coordinator-timestamped phase-1 reads, and exposes
``ts_c`` — the timestamp of the most recent record it has sent to
Compactors — which clients use to decide whether phase 2 is needed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable

from repro.effects import ComputeHost, EffectKernel, Fabric
from repro.lsm.cache import ReadCache
from repro.lsm.compaction import KeepPolicy, NEWEST_WINS, compact_step, pick_tables
from repro.lsm.entry import Entry
from repro.lsm.iterators import dedup_newest, k_way_merge
from repro.lsm.manifest import LevelEdit, Manifest
from repro.lsm.memtable import Memtable
from repro.lsm.policy import make_policy, stacked_levels
from repro.lsm.readpath import level_groups, level_sources, lookup
from repro.lsm.sstable import SSTable
from repro.sim.clock import LooseClock
from repro.sim.resources import Resource
from repro.sim.rpc import RemoteError, RpcNode, RpcTimeout

from .config import CooLSMConfig
from .keyspace import Partitioning
from .messages import (
    ForwardReply,
    ForwardRequest,
    IngestorL1Update,
    IngestorReadResult,
    InstallShardMap,
    InstallShardMapReply,
    Phase1Reply,
    Phase1Request,
    RangeQuery,
    RangeQueryReply,
    ReadReply,
    ReadRequest,
    ShardDrainReply,
    ShardDrainRequest,
    ShardMapReply,
    ShardMapRequest,
    UpsertBatchReply,
    UpsertBatchRequest,
    UpsertReply,
    UpsertRequest,
)
from .shard import ShardMap, WrongShardError


#: Entries one group-commit WAL record may cover; a fuller buffer is
#: written as several records, one per successive leader.
MAX_RECORD_ENTRIES = 256

#: Value a parked follower is woken with when leadership passes to it.
_LEAD = object()


@dataclass(slots=True)
class IngestorStats:
    """Counters and timings exposed for the evaluation harness."""

    upserts: int = 0
    batch_upserts: int = 0
    reads: int = 0
    flushes: int = 0
    minor_compactions: int = 0
    minor_compaction_times: list[float] = field(default_factory=list)
    forwarded_tables: int = 0
    forward_retries: int = 0
    forward_failovers: int = 0
    forward_backoff_time: float = 0.0
    stall_time: float = 0.0
    reads_forwarded: int = 0
    read_retries: int = 0


class Ingestor(RpcNode):
    """A CooLSM Ingestor node.

    Args:
        kernel/network/machine/name: Simulation plumbing.
        config: Deployment parameters.
        clock: This node's loose clock.
        partitioning: Compactor key-range map for forwarding and reads.
        peers: Names of the *other* Ingestors (multi-Ingestor mode).
        multi_ingestor: Retain versions + timestamp protocols when True.
        backups: Reader names to push this Ingestor's L1 snapshot to
            after each minor compaction — the Section III-D.3 variant
            that makes Reader state fresher at the cost of extra
            coordination.  Empty (the default) means Readers are fed by
            Compactors only.
    """

    def __init__(
        self,
        kernel: EffectKernel,
        network: Fabric,
        machine: ComputeHost,
        name: str,
        config: CooLSMConfig,
        clock: LooseClock,
        partitioning: Partitioning,
        peers: Iterable[str] = (),
        multi_ingestor: bool = False,
        backups: Iterable[str] = (),
        rng: random.Random | None = None,
        shard_map: ShardMap | None = None,
    ) -> None:
        super().__init__(kernel, network, machine, name)
        self.config = config
        self.clock = clock
        self.partitioning = partitioning
        self.peers = list(peers)
        self.multi_ingestor = multi_ingestor
        self.backups = list(backups)
        # Sharded scale-out mode: when set, this node serves only the
        # key ranges the map assigns to it and rejects everything else
        # with a WrongShard redirect.  ``None`` (the default) keeps the
        # classic accept-everything behaviour.
        self.shard_map = shard_map
        # Jitter stream for retry backoff; seeded per node by the
        # cluster builder so chaotic runs replay bit-identically.
        self._rng = rng or random.Random(0xC001)
        # Event forward-retry loops wait on while this node is down.
        self._recovered: "object | None" = None
        self.stats = IngestorStats()
        # Row 0 of the policy's pipeline is this node's minor compaction,
        # row 1's ``pick`` selects what L1 forwards downstream.
        self._policy = make_policy(config.compaction_policy)
        # Index 0 = L0, index 1 = L1; tiered policies stack overlapping
        # runs in L1, the default keeps it a single disjoint run.
        self.manifest = Manifest(
            2, overlapping_levels=stacked_levels(self._policy.pipeline, range(0, 2))
        )
        # Per-node read cache over immutable sstable rows.  Volatile:
        # wiped on crash (it is reconstructible state, never durable).
        self.read_cache: ReadCache | None = (
            ReadCache(config.read_cache_capacity)
            if config.read_cache_capacity > 0
            else None
        )
        self._memtable = self._new_memtable()
        self._seqno = 0
        self._batch_seq = 0
        # Timestamp of the most recent record sent to Compactors; -inf
        # means "nothing ever forwarded", which lets readers prove that
        # this Ingestor contributed nothing to the Compactors.
        self.ts_c = float("-inf")
        self._in_flight: dict[int, list[SSTable]] = {}
        self._inflight_high_ts: dict[int, float] = {}
        self._inflight_tables = 0
        self._forward_pointer: bytes | None = None
        # The current batch's not-yet-flushed entries (Section III-H
        # recovery: "recovering a consistent, recent state ... includes
        # both the data structure and the meta-information").  In the
        # simulation this in-memory list *models* the WAL — durable
        # state is everything except the memtable, and recovery replays
        # it.  With a NodeStore attached the same entries are also in a
        # real fsynced write-ahead log (or a persisted L0 table) before
        # every ack.
        self._unflushed: list[Entry] = []
        # Optional durable storage (live runtime); None under the
        # simulator, where all persistence stays modelled.
        self._store = None
        # WAL group commit: (entries, waiter) groups not yet in a WAL
        # record, oldest first.  The head group's handler is the leader
        # (its waiter is None until leadership is handed to it); a
        # non-empty buffer therefore means "a leader exists".
        self._gc_buffer: list = []
        # Highest timestamp this node ever stamped: persisted so a
        # restarted process (whose kernel clock restarts at zero) keeps
        # issuing strictly newer timestamps.
        self._max_entry_ts = float("-inf")
        self._drain_waiters: list = []
        self._compact_lock = Resource(kernel, 1)
        self.on("upsert", self._handle_upsert)
        self.on("upsert_batch", self._handle_upsert_batch)
        self.on("read", self._handle_read)
        self.on("read_phase1", self._handle_read_phase1)
        self.on("ingestor_read", self._handle_ingestor_read)
        self.on("range_query", self._handle_range_query)
        self.on("shard_map", self._handle_shard_map)
        self.on("install_shard_map", self._handle_install_shard_map)
        self.on("shard_drain", self._handle_shard_drain)
        self.on("shard_status", self._handle_shard_status)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _new_memtable(self) -> Memtable:
        return Memtable(
            self.config.memtable_entries, retain_versions=self.multi_ingestor
        )

    def _next_seqno(self) -> int:
        self._seqno += 1
        return self._seqno

    def _keep_policy(self) -> KeepPolicy:
        if not self.multi_ingestor:
            return NEWEST_WINS
        # Never garbage collect a version an in-flight read might need.
        return KeepPolicy(retain_horizon=self.clock.now() - self.config.gc_slack)

    @property
    def level0(self) -> list[SSTable]:
        return self.manifest.level(0)

    @property
    def level1(self) -> list[SSTable]:
        return self.manifest.level(1)

    @property
    def inflight_tables(self) -> int:
        return self._inflight_tables

    def _check_owner(self, key: bytes) -> None:
        """Fence misrouted traffic in sharded mode.

        After a split, the deposed owner of a range holds a map (epoch
        E+1) in which someone else owns it; any request routed here
        under the stale map is rejected so the client refreshes and
        re-routes — late writes can never land on the old owner.
        """
        if self.shard_map is not None and self.shard_map.owner_of(key) != self.name:
            raise WrongShardError(self.name, self.shard_map.epoch)

    def health_gauges(self) -> dict:
        return {
            "inflight": self._inflight_tables,
            "shard_epoch": -1 if self.shard_map is None else self.shard_map.epoch,
            "l0_tables": len(self.level0),
            "l1_tables": len(self.level1),
            "forward_retries": self.stats.forward_retries,
            "forward_failovers": self.stats.forward_failovers,
            "batch_upserts": self.stats.batch_upserts,
            "compaction_stall_time": round(self.stats.stall_time, 6),
        }

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _handle_upsert(self, src: str, request: UpsertRequest):
        self._check_owner(request.key)
        yield from self.compute(self.config.costs.upsert_cpu)
        entry = self._stamp(request)
        self.stats.upserts += 1
        if self._memtable.is_full():
            # The batch is full: this request pays for the flush (and any
            # cascading minor compaction + forwarding stall) — the
            # occasional slow writes of Table II.  Flushing right after
            # the stamp, not after the durability wait, keeps what one
            # L0 table holds independent of how handlers group below.
            yield from self._flush_and_compact()
        # Durable-then-ack: the reply below is only sent once the fsync
        # covering the entry's WAL record (or the L0 table it was just
        # flushed into) completes, so "acked" means "survives SIGKILL".
        yield from self._log_durable([entry])
        return UpsertReply(entry.timestamp, entry.seqno)

    def _handle_upsert_batch(self, src: str, request: UpsertBatchRequest):
        """Apply a whole client batch with one durability wait.

        Ops are stamped and applied in order; one fsync (shared with any
        concurrent batches) covers every ack in the reply, which is what
        makes the pipelined write path cheap.
        Externally equivalent to the same ops sent one at a time.
        """
        if not request.ops:
            return UpsertBatchReply(())
        # All-or-nothing ownership: a batch containing any key this node
        # does not own bounces whole, before any op is applied — the
        # client refreshes its map and re-splits the batch per shard.
        for op in request.ops:
            self._check_owner(op.key)
        yield from self.compute(len(request.ops) * self.config.costs.upsert_cpu)
        entries = [self._stamp(op) for op in request.ops]
        self.stats.upserts += len(entries)
        self.stats.batch_upserts += 1
        if self._memtable.is_full():
            # The memtable tolerates overshoot, so the whole batch lands
            # in one generation and pays for at most one flush.
            yield from self._flush_and_compact()
        yield from self._log_durable(entries)
        return UpsertBatchReply(
            tuple(UpsertReply(e.timestamp, e.seqno) for e in entries)
        )

    def _stamp(self, request: UpsertRequest) -> Entry:
        """Stamp one op and apply it to the in-memory write state."""
        timestamp = self.clock.now()
        entry = Entry(
            request.key, self._next_seqno(), timestamp, request.value, request.tombstone
        )
        self._unflushed.append(entry)
        self._memtable.put(entry)
        self._max_entry_ts = timestamp
        return entry

    def _log_durable(self, entries: list[Entry]):
        """Make ``entries`` durable (WAL) before the caller acks.

        Without a store this is a no-op *with zero yields*, so the sim
        schedule is untouched; so it is for entries a flush has already
        put in a persisted L0 table (the WAL floor is past them and
        recovery would skip their record).  Otherwise handlers share
        fsyncs leader/follower style: the first handler into an empty
        buffer is the leader — it waits one scheduler tick so everything
        already runnable can pile on (no added latency beyond the tick),
        then writes whole groups (a handler's entries are never split
        across records) up to :data:`MAX_RECORD_ENTRIES` as ONE fsynced
        record and wakes the handlers it covered.  Later arrivals park
        as followers; groups the record had no room for stay buffered
        and the oldest of them is handed leadership.  A handler that is
        alone spawns nothing and parks on nothing.
        """
        if self._store is None or entries[-1].seqno <= self._store.wal_floor:
            return
        buffer = self._gc_buffer
        if buffer:
            waiter = self.kernel.event()
            buffer.append((entries, waiter))
            if (yield waiter) is not _LEAD:
                return  # a leader's record covered these entries
        else:
            buffer.append((entries, None))
            yield self.kernel.timeout(0.0)
        # Leading: this handler's group is the buffer's head, so the
        # record always holds at least it — oversized batches still flush.
        groups = [buffer.pop(0)]
        taken = len(entries)
        while buffer and taken + len(buffer[0][0]) <= MAX_RECORD_ENTRIES:
            groups.append(buffer.pop(0))
            taken += len(groups[-1][0])
        try:
            self._store.log_entries([e for group, __ in groups for e in group])
        except Exception as error:
            for __, waiter in groups[1:]:
                waiter.fail(error)
            raise
        else:
            for __, waiter in groups[1:]:
                waiter.succeed()
        finally:
            if buffer:
                buffer[0][1].succeed(_LEAD)

    def _flush_memtable(self):
        """Freeze the memtable into a new L0 table.

        Atomic swap: the frozen batch becomes an L0 table in the same
        tick, so reads never miss buffered entries.  The caller holds
        ``_compact_lock`` and has checked the memtable is not empty.
        """
        entries = self._memtable.entries()
        self._memtable = self._new_memtable()
        self._unflushed = []  # batch is durable in L0 now
        self.manifest.apply(LevelEdit().add(0, [SSTable(entries)]))
        if self._store is not None:
            # Synchronous (no yields since the swap): the L0 table is
            # durable before the WAL floor advances, and entries logged
            # for the *new* memtable carry higher seqnos.
            self._persist(wal_floor=self._seqno)
        self.stats.flushes += 1
        yield from self.compute(self.config.costs.flush_cost(len(entries)))

    def _flush_and_compact(self):
        yield self._compact_lock.request()
        try:
            if not self._memtable.is_full():
                return  # another request already flushed this batch
            yield from self._flush_memtable()
            if len(self.level0) > self.config.l0_threshold:
                yield from self._minor_compaction()
        finally:
            self._compact_lock.release()

    def _minor_compaction(self):
        # Backpressure: wait for Compactor acks if too much is in flight.
        stall_start = self.kernel.now
        while self._inflight_tables > self.config.max_inflight_tables:
            waiter = self.kernel.event()
            self._drain_waiters.append(waiter)
            yield waiter
        self.stats.stall_time += self.kernel.now - stall_start

        started = self.kernel.now
        l0_newest_first = list(reversed(self.level0))
        # All of L0 moves: folded with the whole of L1 into a fresh run
        # by default, stacked on L1 as a new run under tiered policies.
        result, replaced_l1 = compact_step(
            l0_newest_first,
            self.level1,
            self._policy.pipeline[0].move,
            self.config.sstable_entries,
            self._keep_policy(),
        )
        yield from self.compute(self.config.costs.merge_cost(result.stats.entries_in))
        edit = (
            LevelEdit()
            .remove(0, l0_newest_first)
            .remove(1, replaced_l1)
            .add(1, result.tables)
        )
        self.manifest.apply(edit)
        self.stats.minor_compactions += 1
        self.stats.minor_compaction_times.append(self.kernel.now - started)
        if self._store is not None:
            self._persist()
        self._push_l1_to_backups()
        self._maybe_forward()

    def _push_l1_to_backups(self) -> None:
        """Section III-D.3: ship the fresh L1 snapshot to the Readers.

        Sent on FIFO channels after every minor compaction, so a Reader's
        fresh area for this Ingestor is always one of its past L1 states
        — snapshot progression is preserved per source.
        """
        if not self.backups:
            return
        tables = tuple(self.level1)
        entries = sum(len(t) for t in tables)
        update = IngestorL1Update(tables, self.name)
        for backup in self.backups:
            self.cast(
                backup,
                "ingestor_update",
                update,
                size_bytes=self.config.costs.tables_size_bytes(entries),
            )

    def _maybe_forward(self) -> None:
        """Move L1's overflow tables into the in-flight set and ship them.

        The policy's forward row picks the overflow: the default sweeps
        a rotating pointer over the sorted run so no key region is
        starved; stacked (tiered) policies forward the oldest runs first.
        """
        overflow, self._forward_pointer = pick_tables(
            self.level1,
            self.config.l1_threshold,
            self._forward_pointer,
            self._policy.pipeline[1].pick,
        )
        if not overflow:
            return
        self._launch_forwards(overflow)

    def _launch_forwards(self, overflow: list[SSTable]) -> None:
        """Move ``overflow`` (tables currently in L1) into the in-flight
        set and ship them to the owning Compactor partitions."""
        self.manifest.apply(LevelEdit().remove(1, overflow))
        high_ts = max(e.timestamp for t in overflow for e in t.entries)
        self.ts_c = max(self.ts_c, high_ts)
        # Split at partition boundaries, group per partition.
        per_partition: dict[int, list[SSTable]] = {}
        partition_by_id: dict[int, object] = {}
        for table in overflow:
            for partition, piece in self.partitioning.split_table(table):
                pid = id(partition)
                partition_by_id[pid] = partition
                per_partition.setdefault(pid, []).append(piece)
        launches = []
        for pid, pieces in per_partition.items():
            self._batch_seq += 1
            batch_id = self._batch_seq
            self._in_flight[batch_id] = pieces
            self._inflight_high_ts[batch_id] = high_ts
            self._inflight_tables += len(pieces)
            self.stats.forwarded_tables += len(pieces)
            launches.append((partition_by_id[pid], pieces, batch_id))
        if self._store is not None:
            # The in-flight registration must hit disk before the first
            # forward can leave the node, or a crash after a Compactor
            # merge but before our ack-processing would lose track of
            # what we owe (and what we may re-send).
            self._persist()
        for partition, pieces, batch_id in launches:
            self.kernel.spawn(
                self._forward_batch(partition, pieces, batch_id, high_ts),
                f"{self.name}.forward.{batch_id}",
            )

    def _forward_batch(self, partition, pieces: list[SSTable], batch_id: int, high_ts: float):
        """Ship one batch until a Compactor acks the merge.

        Failed attempts back off exponentially with jitter (bounded by
        ``forward_backoff_cap``) instead of hammering a struggling or
        partitioned Compactor; after ``forward_retry_budget`` failures
        against one target the loop fails over to the partition's next
        member — which round-robin load balancing or a completed leader
        election may have repointed.  Retries reuse the same
        ``(ingestor, batch_id)``, so the Compactor's dedup table makes
        redelivery after a lost ack harmless.
        """
        entries = sum(len(t) for t in pieces)
        request = ForwardRequest(tuple(pieces), high_ts, batch_id, ingestor=self.name)
        size = self.config.costs.tables_size_bytes(entries)
        target = partition.writer()
        failures_on_target = 0
        backoff = self.config.forward_backoff_base
        while True:
            # A crashed Ingestor initiates nothing: hold the retry loop
            # until recovery (the in-flight set is durable state).
            while self.crashed:
                yield self._recovery_event()
            try:
                reply = yield self.call(
                    target,
                    "forward",
                    request,
                    size_bytes=size,
                    timeout=self.config.ack_timeout,
                )
                assert isinstance(reply, ForwardReply)
                break
            except (RpcTimeout, RemoteError):
                self.stats.forward_retries += 1
                failures_on_target += 1
                if failures_on_target >= self.config.forward_retry_budget:
                    # Budget exhausted: move on (round-robin picks the
                    # next overlapping member, or the promoted
                    # replacement) and restart the backoff ramp.
                    self.stats.forward_failovers += 1
                    target = partition.writer()
                    failures_on_target = 0
                    backoff = self.config.forward_backoff_base
                delay = backoff * (0.5 + 0.5 * self._rng.random())
                self.stats.forward_backoff_time += delay
                yield self.kernel.timeout(delay)
                backoff = min(backoff * 2.0, self.config.forward_backoff_cap)
        # Ack received: the Compactor has merged the tables; drop our
        # retained copies and wake any stalled compaction.
        self._in_flight.pop(batch_id, None)
        self._inflight_high_ts.pop(batch_id, None)
        self._inflight_tables -= len(pieces)
        if self._store is not None:
            self._persist()
        if self._inflight_tables <= self.config.max_inflight_tables:
            waiters, self._drain_waiters = self._drain_waiters, []
            for waiter in waiters:
                waiter.succeed()

    # ------------------------------------------------------------------
    # Shard membership (live scale-out)
    # ------------------------------------------------------------------
    def _handle_shard_map(self, src: str, request: ShardMapRequest):
        """Serve this node's current shard map to a redirected client."""
        yield from ()
        return ShardMapReply(self.shard_map)

    def _handle_install_shard_map(self, src: str, request: InstallShardMap):
        """Adopt a newer shard map (split coordinator, step A and C).

        Epoch-monotone: installs are accepted only when strictly newer
        than what this node holds, so a stale or replayed install can
        never resurrect old ownership.  The accepted map is persisted
        before the reply — a deposed owner stays fenced across a crash.
        ``clock_floor`` raises the loose clock past the previous owner's
        timestamp watermark so a newly activated owner stamps strictly
        newer versions than anything it inherited.
        """
        yield from ()
        current = self.shard_map
        if current is not None and request.shard_map.epoch <= current.epoch:
            return InstallShardMapReply(current.epoch, False)
        self.shard_map = request.shard_map
        self.clock.advance_past(request.clock_floor)
        if self._store is not None:
            self._persist()
        return InstallShardMapReply(request.shard_map.epoch, True)

    def _handle_shard_drain(self, src: str, request: ShardDrainRequest):
        """Migration step B: push everything this node holds downstream.

        Called on the deposed owner *after* the fence (so no new writes
        for the moving range can arrive): flush the memtable — which
        raises the durable WAL floor via :meth:`_persist` — minor-compact
        L0 into L1, then forward ALL of L1 to the Compactors through the
        normal retained/acked path.  The reply snapshots the in-flight
        batch ids; once those specific batches are acked (polled via
        ``shard_status``), every write acked before the fence is
        readable at the Compactors and the new owner can go live.
        """
        yield self._compact_lock.request()
        try:
            if len(self._memtable):
                # No is-full gate: drain flushes whatever is buffered.
                yield from self._flush_memtable()
            if self.level0:
                yield from self._minor_compaction()
            leftover = list(self.level1)
            if leftover:
                self._launch_forwards(leftover)
        finally:
            self._compact_lock.release()
        return self._shard_status()

    def _handle_shard_status(self, src: str, request: ShardDrainRequest):
        """Cheap poll of the drain snapshot (no flushing side effects)."""
        yield from ()
        return self._shard_status()

    def _shard_status(self) -> ShardDrainReply:
        return ShardDrainReply(
            pending=tuple(sorted(self._in_flight)),
            inflight_tables=self._inflight_tables,
            watermark=self._max_entry_ts,
            ts_c=self.ts_c,
        )

    # ------------------------------------------------------------------
    # Crash recovery (Section III-H)
    # ------------------------------------------------------------------
    def crash(self, lose_memtable: bool = True) -> None:
        """Fail-stop.  With ``lose_memtable`` (the realistic default)
        the in-memory buffer is wiped — L0/L1, the in-flight set, and
        the WAL survive (they model durable state)."""
        super().crash()
        if lose_memtable:
            self._memtable = self._new_memtable()
        if self.read_cache is not None:
            self.read_cache.clear()

    def _recovery_event(self):
        """The event :meth:`recover` fires; created lazily while down."""
        if self._recovered is None:
            self._recovered = self.kernel.event()
        return self._recovered

    def recover(self) -> None:
        """Restart: replay the WAL into a fresh memtable, restoring the
        pre-crash batch exactly, then resume serving (which also
        releases any forward-retry loops parked during the outage)."""
        for entry in self._unflushed:
            self._memtable.put(entry)
        super().recover()
        event, self._recovered = self._recovered, None
        if event is not None:
            event.succeed()

    # ------------------------------------------------------------------
    # Durable storage (live runtime)
    # ------------------------------------------------------------------
    def _persist(self, wal_floor: int | None = None) -> None:
        """Commit the recovery-critical state to the attached store:
        L0/L1 contents, the in-flight forward set, counters, ts_c, and
        the clock watermark.  Synchronous — never yields, so attaching
        a store cannot change the simulator's schedule."""
        tables = (
            list(self.level0)
            + list(self.level1)
            + [t for batch in self._in_flight.values() for t in batch]
        )
        state = {
            "policy": self._policy.name,
            "seqno": self._seqno,
            "batch_seq": self._batch_seq,
            "ts_c": self.ts_c,
            "clock_watermark": self._max_entry_ts,
            "shard_map": None if self.shard_map is None else self.shard_map.to_state(),
            "levels": [
                [t.table_id for t in self.level0],
                [t.table_id for t in self.level1],
            ],
            "in_flight": {
                str(batch_id): {
                    "tables": [t.table_id for t in pieces],
                    "high_ts": self._inflight_high_ts.get(batch_id, self.ts_c),
                }
                for batch_id, pieces in self._in_flight.items()
            },
        }
        self._store.commit(tables, state, wal_floor=wal_floor)

    def attach_store(self, store) -> None:
        """Attach a :class:`~repro.store.node_store.NodeStore`,
        restoring any state a previous incarnation persisted.

        Recovery rebuilds L0/L1 and the in-flight set from the stored
        sstables, replays the durable WAL (entries above the flushed
        floor) into the memtable, restores the seqno/batch counters and
        ``ts_c``, raises the loose clock past the persisted timestamp
        watermark (the live kernel's clock restarts at zero, which
        would otherwise stamp new writes older than pre-crash ones),
        and respawns the forward-retry loop for every unacked batch —
        the Compactors' durable dedup tables make redelivery harmless.
        Must be called before the node serves traffic.
        """
        self._store = store
        recovered = store.recovered
        if recovered is None:
            self._persist()
            return
        self.manifest.apply(recovered.levels_for(self.name, self._policy.name))
        state = recovered.state
        tables = recovered.tables
        self._seqno = int(state.get("seqno", 0))
        self._batch_seq = int(state.get("batch_seq", 0))
        self.ts_c = float(state.get("ts_c", float("-inf")))
        persisted_map = state.get("shard_map")
        if persisted_map is not None:
            restored = ShardMap.from_state(persisted_map)
            # The spec's initial map seeds construction; a persisted map
            # from a later epoch (an install survived a crash) wins, so
            # a deposed owner comes back up still fenced.
            if self.shard_map is None or restored.epoch > self.shard_map.epoch:
                self.shard_map = restored
        relaunch = []
        for batch_str, meta in state.get("in_flight", {}).items():
            batch_id = int(batch_str)
            pieces = [tables[tid] for tid in meta["tables"]]
            self._in_flight[batch_id] = pieces
            self._inflight_high_ts[batch_id] = float(meta["high_ts"])
            self._inflight_tables += len(pieces)
            relaunch.append((batch_id, pieces, float(meta["high_ts"])))
        watermark = float(state.get("clock_watermark", float("-inf")))
        for entry in recovered.wal_entries:
            self._unflushed.append(entry)
            self._memtable.put(entry)
            self._seqno = max(self._seqno, entry.seqno)
            watermark = max(watermark, entry.timestamp)
        self._max_entry_ts = watermark
        self.clock.advance_past(watermark)
        for batch_id, pieces, high_ts in sorted(relaunch):
            # Pieces never straddle partitions (they were split at
            # boundaries before the first send), so any key identifies
            # the owning partition.
            partition = self.partitioning.partition_for(pieces[0].min_key)
            self.kernel.spawn(
                self._forward_batch(partition, pieces, batch_id, high_ts),
                f"{self.name}.forward.{batch_id}",
            )

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _call_retry(self, target: str, method: str, request):
        """Remote call with the configured timeout and a bounded retry
        budget, so a crashed or partitioned peer surfaces an error to
        the caller instead of hanging the read forever.  Raises the
        last failure once the budget is exhausted — never returns a
        partial answer (which could violate Table I's guarantees)."""
        last_error: Exception | None = None
        for attempt in range(self.config.client_retry_budget):
            if attempt:
                self.stats.read_retries += 1
            try:
                reply = yield self.call(
                    target, method, request, timeout=self.config.request_timeout
                )
                return reply
            except (RpcTimeout, RemoteError) as error:
                last_error = error
        raise last_error

    def _search_local(self, key: bytes, as_of: float | None) -> tuple[Entry | None, int]:
        """Newest visible version in memtable/L0/L1/in-flight tables.

        Returns (entry, probes) where probes counts the sstables whose
        blocks were actually searched (for the cost model).
        """
        # Newest data first: each L0 table supersedes the ones flushed
        # before it, L0 was flushed after everything compacted into L1,
        # and an in-flight table left L1 before L1's current content
        # arrived.  In-flight batches are unordered among themselves.
        groups = itertools.chain(
            ([table] for table in reversed(self.level0)),
            level_groups(self.manifest, key, (1,)),
            ((t for batch in self._in_flight.values() for t in batch),),
        )
        buffered = self._memtable.versions(key)
        return lookup(key, groups, buffered, as_of, self.read_cache)

    def _handle_read(self, src: str, request: ReadRequest):
        """Full read path (Section III-C): local levels, then the
        appropriate Compactor."""
        self._check_owner(request.key)
        self.stats.reads += 1
        yield from self.compute(self.config.costs.read_base)
        entry, probes = self._search_local(request.key, request.as_of)
        yield from self.compute(probes * self.config.costs.probe_table)
        if entry is not None and request.as_of is None:
            return ReadReply(entry, self.name)
        self.stats.reads_forwarded += 1
        partition = self.partitioning.partition_for(request.key)
        if len(partition.members) == 1:
            reply = yield from self._call_retry(partition.members[0], "read", request)
        else:
            # Overlapping Compactors: ask all members, newest wins.
            calls = [
                self.kernel.spawn(self._call_retry(m, "read", request))
                for m in partition.members
            ]
            replies = yield self.kernel.all_of(calls)
            found = [r.entry for r in replies if r.entry is not None]
            best = max(found, key=lambda e: e.version) if found else None
            reply = ReadReply(best, "overlap-group")
        remote = reply.entry
        if entry is not None and (remote is None or entry.version > remote.version):
            return ReadReply(entry, self.name)
        return reply

    def _handle_range_query(self, src: str, request: RangeQuery):
        """Global range scan: merge the local levels with the range
        results of every Compactor partition intersecting [lo, hi]."""
        self.stats.reads += 1
        yield from self.compute(self.config.costs.read_base)
        lo, hi = request.lo, request.hi
        sources = [self._memtable.range(lo, hi)]
        sources += level_sources(self.manifest, (0, 1), lo, hi)
        sources += [
            table.scan(lo, hi)
            for batch in self._in_flight.values()
            for table in batch
            if table.overlaps(lo, hi)
        ]
        # Fan out to every partition the range touches (all members of
        # overlapping groups, newest version wins).
        partitions = self.partitioning.partitions_for_range(lo, hi)
        members = [m for p in partitions for m in p.members]
        calls = [
            self.kernel.spawn(self._call_retry(m, "range_query", request))
            for m in members
        ]
        replies = yield self.kernel.all_of(calls)
        combined: dict[bytes, bytes | None] = {}
        for reply in replies:
            for key, value in reply.pairs:
                combined.setdefault(key, value)
        # Local levels are strictly fresher than the Compactors for any
        # key they contain (single-Ingestor deployments), so local wins —
        # tombstones included, which is why this is not ``live_pairs``.
        for entry in dedup_newest(k_way_merge(sources)):
            combined[entry.key] = None if entry.tombstone else entry.value
        live = ((k, v) for k, v in sorted(combined.items()) if v is not None)
        limit = request.limit
        pairs = tuple(live if limit is None else itertools.islice(live, max(limit, 0)))
        yield from self.compute(len(pairs) * self.config.costs.scan_per_entry)
        return RangeQueryReply(pairs)

    def _handle_ingestor_read(self, src: str, request: ReadRequest):
        """Phase-1 probe from a coordinator: local result plus ts_c."""
        yield from self.compute(self.config.costs.read_base)
        entry, probes = self._search_local(request.key, request.as_of)
        yield from self.compute(probes * self.config.costs.probe_table)
        return IngestorReadResult(entry, self.ts_c, self.name)

    def _handle_read_phase1(self, src: str, request: Phase1Request):
        """Coordinate a multi-Ingestor read (Section III-E.2).

        Stamps the read with this node's loose clock and gathers every
        Ingestor's newest visible version and ts_c; the client decides
        whether phase 2 (asking Compactors) is needed.
        """
        self.stats.reads += 1
        read_ts = self.clock.now()
        probe = ReadRequest(request.key, as_of=read_ts)
        calls = [
            self.kernel.spawn(self._call_retry(peer, "ingestor_read", probe))
            for peer in self.peers
        ]
        yield from self.compute(self.config.costs.read_base)
        entry, probes = self._search_local(request.key, read_ts)
        yield from self.compute(probes * self.config.costs.probe_table)
        own = IngestorReadResult(entry, self.ts_c, self.name)
        others = yield self.kernel.all_of(calls)
        return Phase1Reply(read_ts, tuple([own] + list(others)))
