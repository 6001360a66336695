"""The Compactor: CooLSM's cloud-resident structuring engine.

A Compactor (Section III-B/C) owns levels **L2 and L3** for its key
partition.  When an Ingestor forwards sstables, the Compactor runs a
*major* (leveling) compaction: the received tables are k-way merged
with the overlapping tables of L2 and swapped in atomically; if L2 then
exceeds its threshold, the extra tables are merged into the overlapping
region of L3.  The forwarding Ingestor is acked only after the merge —
that ack is what lets the Ingestor drop its retained copies.

After every major compaction the Compactor casts the level edit it just
applied — the tables it removed and the newly formed sstables it added
— to all Readers (Section III-D), which replay it, keeping each Reader
a progressively advancing snapshot of this Compactor's range (snapshot
linearizability relies on the network layer's FIFO channels).

Garbage collection: in multi-Ingestor mode merges use a version
retention horizon ``clock.now() - gc_slack`` so that "values can be
garbage collected only if the new value has a timestamp that is higher
than the timestamp of any current or future read operation".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.effects import ComputeHost, EffectKernel, Fabric
from repro.lsm.compaction import KeepPolicy, NEWEST_WINS, compact_step, pick_tables
from repro.lsm.entry import Entry
from repro.lsm.manifest import LevelEdit, Manifest
from repro.lsm.policy import CompactionPolicy, Step, make_policy, stacked_levels
from repro.lsm.readpath import level_groups, level_sources, live_pairs, lookup
from repro.lsm.sstable import SSTable
from repro.sim.clock import LooseClock
from repro.sim.resources import Resource
from repro.sim.rpc import RpcNode

from .config import CooLSMConfig
from .messages import (
    BackupUpdate,
    ForwardReply,
    ForwardRequest,
    RangeQuery,
    RangeQueryReply,
    ReadReply,
    ReadRequest,
)

#: Manifest level indices (local 0/1 map to the paper's L2/L3).
L2, L3 = 0, 1


def levels_manifest(policy: CompactionPolicy) -> Manifest:
    """An empty L2/L3 manifest shaped by ``policy``: rows 1 and 2 of its
    pipeline say whether forwarded tables stack in L2 and L2 overflow
    stacks in L3.  A Compactor's levels, and each Reader area that
    replicates them."""
    return Manifest(2, overlapping_levels=stacked_levels(policy.pipeline, range(2, 4)))


@dataclass(slots=True)
class CompactionTiming:
    """One major compaction occurrence (drives Figure 4)."""

    level: int  # 2 or 3, paper numbering
    duration: float
    entries_merged: int


@dataclass(slots=True)
class CompactorStats:
    """Counters and timings exposed for the evaluation harness."""

    forwards_received: int = 0
    tables_received: int = 0
    duplicate_forwards: int = 0
    snapshots_served: int = 0
    reads: int = 0
    entries_rewritten: int = 0  # major compactions' output entries
    compactions: list[CompactionTiming] = field(default_factory=list)


class Compactor(RpcNode):
    """A CooLSM Compactor node serving one key partition.

    Args:
        kernel/network/machine/name: Simulation plumbing.
        config: Deployment parameters.
        clock: This node's loose clock (for the GC horizon).
        backups: Reader node names to push post-compaction runs to.
        multi_ingestor: Use the version-retention GC policy when True.
    """

    def __init__(
        self,
        kernel: EffectKernel,
        network: Fabric,
        machine: ComputeHost,
        name: str,
        config: CooLSMConfig,
        clock: LooseClock,
        backups: Iterable[str] = (),
        multi_ingestor: bool = False,
    ) -> None:
        super().__init__(kernel, network, machine, name)
        self.config = config
        self.clock = clock
        self.backups = list(backups)
        self.multi_ingestor = multi_ingestor
        self.stats = CompactorStats()
        # The default (leveling) keeps both levels single disjoint
        # runs, tiered policies stack.
        self._policy = make_policy(config.compaction_policy)
        self.manifest = levels_manifest(self._policy)
        self._merge_lock = Resource(kernel, 1)
        self._l2_pointer: bytes | None = None
        # Idempotent forwards: retried batches (lost acks) are answered
        # from this table instead of being merged twice.  Keyed by
        # (ingestor, batch_id); part of the durable meta-information of
        # Section III-H (a real system would prune it below the
        # Ingestors' acked watermark).
        self._completed_batches: dict[tuple[str, int], ForwardReply] = {}
        self._pending_batches: dict[tuple[str, int], object] = {}
        # Monotone per-source sequence stamped on every Reader update
        # broadcast; Readers use it for gap detection (catch-up protocol).
        self._backup_seq = 0
        # Optional durable storage (live runtime); None under the
        # simulator, where persistence stays modelled.
        self._store = None
        self.on("forward", self._handle_forward)
        self.on("read", self._handle_read)
        self.on("range_query", self._handle_range_query)
        self.on("fetch_area", self._handle_fetch_area)

    # ------------------------------------------------------------------
    # Level access
    # ------------------------------------------------------------------
    @property
    def level2(self) -> list[SSTable]:
        return self.manifest.level(L2)

    @property
    def level3(self) -> list[SSTable]:
        return self.manifest.level(L3)

    def health_gauges(self) -> dict:
        return {
            "inflight": len(self._pending_batches),
            "l2_tables": len(self.level2),
            "l3_tables": len(self.level3),
            "duplicate_forwards": self.stats.duplicate_forwards,
            # Downstream compaction debt: L2 occupancy over its
            # threshold (>1.0 means overflow merges are due).
            "l2_debt": round(len(self.level2) / max(1, self.config.l2_threshold), 4),
        }

    def _keep_policy(self, bottom: bool) -> KeepPolicy:
        if self.multi_ingestor:
            horizon = self.clock.now() - self.config.gc_slack
            return KeepPolicy(retain_horizon=horizon)
        if bottom:
            return KeepPolicy(drop_tombstones=True)
        return NEWEST_WINS

    # ------------------------------------------------------------------
    # Write path: major compaction
    # ------------------------------------------------------------------
    @staticmethod
    def _batch_key(src: str, request: ForwardRequest) -> tuple[str, int]:
        return (request.ingestor or src, request.batch_id)

    def _handle_forward(self, src: str, request: ForwardRequest):
        """Merge forwarded sstables into L2 (and overflow into L3),
        atomically, then ack the Ingestor and update the Readers.

        Idempotent: when an ack is lost the Ingestor retries the same
        ``(ingestor, batch_id)``; the duplicate is answered from the
        completed-batch table (or, if the first merge is still running,
        waits for it) rather than double-merged.
        """
        key = self._batch_key(src, request)
        cached = self._completed_batches.get(key)
        if cached is not None:
            self.stats.duplicate_forwards += 1
            return cached
        pending = self._pending_batches.get(key)
        if pending is not None:
            self.stats.duplicate_forwards += 1
            reply = yield pending
            return reply
        done = self.kernel.event()
        self._pending_batches[key] = done
        try:
            reply = yield from self._process_forward(src, request)
        except BaseException as error:
            self._pending_batches.pop(key, None)
            done.defused = True  # waiters (if any) still see the failure
            done.fail(error)
            raise
        self._pending_batches.pop(key, None)
        self._completed_batches[key] = reply
        if self._store is not None:
            # The dedup entry must be durable before the ack leaves:
            # the Ingestor drops its retained copies on receipt, so a
            # crashed-and-restarted Compactor must still recognise the
            # batch if a lost ack makes the Ingestor re-send it.
            self._persist()
        done.succeed(reply)
        return reply

    def _process_forward(self, src: str, request: ForwardRequest):
        """The actual merge work; runs at most once per batch."""
        self.stats.forwards_received += 1
        self.stats.tables_received += len(request.tables)
        merged = yield from self._absorb(list(request.tables))
        return ForwardReply(request.batch_id, merged)

    def record_applied_batch(self, ingestor: str, batch_id: int, merged: int) -> None:
        """Mark a batch as merged without serving it (replicas applying
        their replicated log call this so that, after promotion, a
        retried forward is deduplicated instead of re-merged)."""
        if ingestor:
            self._completed_batches.setdefault(
                (ingestor, batch_id), ForwardReply(batch_id, merged)
            )

    def _absorb(self, tables: list[SSTable]):
        """Walk the policy's Compactor rows under the merge lock: land
        ``tables`` in L2, then move whatever the next row picks from an
        over-threshold L2 into L3.  Returns the entries merged into L2."""
        absorb, *overflow = self._policy.pipeline[1:]
        yield self._merge_lock.request()
        try:
            merged = yield from self._compact(L2, tables, absorb)
            for step in overflow:
                picked, self._l2_pointer = pick_tables(
                    self.level2, self.config.l2_threshold, self._l2_pointer, step.pick
                )
                if picked:
                    yield from self._compact(L3, picked, step)
        finally:
            self._merge_lock.release()
        return merged

    def _compact(self, level: int, picked: list[SSTable], step: Step):
        """One major compaction: merge ``picked`` into ``level`` as
        ``step`` says, pay for it, swap the result in atomically (the
        tables picked from L2 leave it in the same edit) and tell the
        Readers.  Returns the entries merged."""
        started = self.kernel.now
        result, replaced = compact_step(
            picked,
            self.manifest.level(level),
            step.move,
            self.config.sstable_entries,
            self._keep_policy(step.bottom),
        )
        total = result.stats.entries_in
        yield from self.compute(self.config.costs.merge_cost(total))
        from_l2 = picked if level == L3 else []
        edit = LevelEdit().remove(L2, from_l2).remove(level, replaced).add(level, result.tables)
        self.manifest.apply(edit)
        self.stats.entries_rewritten += result.stats.entries_out
        self.stats.compactions.append(
            CompactionTiming(level + 2, self.kernel.now - started, total)
        )
        self._push_to_backups(edit)
        return total

    def _push_to_backups(self, edit: LevelEdit) -> None:
        """Cast the edit just applied to L2/L3 to every Reader.

        Sent on FIFO channels, so each Reader replays this Compactor's
        edits in order and its area passes through exactly this
        Compactor's post-compaction states — the basis of snapshot
        linearizability (Section III-D.2).  An empty edit changes no
        state and is not sent.
        """
        removed_ids = tuple(
            t.table_id for level in (L2, L3) for t in edit.removes.get(level, ())
        )
        l2 = tuple(edit.adds.get(L2, ()))
        l3 = tuple(edit.adds.get(L3, ()))
        if not (removed_ids or l2 or l3):
            return
        self._backup_seq += 1
        if self._store is not None:
            # Persist the incremented sequence (and the freshly merged
            # level contents) *before* casting: a restart must never
            # reuse a sequence number some Reader already applied with
            # different contents — gap detection relies on it.
            self._persist()
        update = BackupUpdate(self.name, self._backup_seq, removed_ids, l2, l3)
        size = self.config.costs.tables_size_bytes(sum(len(t) for t in l2 + l3))
        for backup in self.backups:
            self.cast(backup, "backup_update", update, size_bytes=size)

    def _handle_fetch_area(self, src: str, request) -> BackupUpdate:
        """Reader catch-up (Section III-H recovery, Reader side): serve
        the edit that builds the current L2/L3 from empty, so a Reader
        that missed updates — a crash, a partition — can rebuild its
        area wholesale."""
        self.stats.snapshots_served += 1
        entries = self.manifest.total_entries()
        yield from self.compute(entries * self.config.costs.scan_per_entry)
        return BackupUpdate(
            self.name, self._backup_seq, (), tuple(self.level2), tuple(self.level3)
        )

    # ------------------------------------------------------------------
    # Durable storage (live runtime)
    # ------------------------------------------------------------------
    def _persist(self) -> None:
        """Commit L2/L3, the dedup table, and the backup sequence to
        the attached store.  Synchronous — never yields."""
        state = {
            "policy": self._policy.name,
            "backup_seq": self._backup_seq,
            "levels": [
                [t.table_id for t in self.level2],
                [t.table_id for t in self.level3],
            ],
            "completed": [
                [ingestor, batch_id, reply.merged_entries]
                for (ingestor, batch_id), reply in self._completed_batches.items()
            ],
        }
        self._store.commit(list(self.level2) + list(self.level3), state)

    def attach_store(self, store) -> None:
        """Attach a :class:`~repro.store.node_store.NodeStore`,
        restoring L2/L3, the completed-batch dedup table, and the
        Reader broadcast sequence from a previous incarnation.

        A forward the pre-crash process merged but whose ack was lost
        is answered from the recovered dedup table, so the retrying
        Ingestor is never double-merged; a forward that never reached
        the merge is simply processed fresh.  Readers that applied
        updates the crash cut off re-fetch the whole area via the
        catch-up protocol, which this node serves from the recovered
        levels.
        """
        self._store = store
        recovered = store.recovered
        if recovered is None:
            self._persist()
            return
        self.manifest.apply(recovered.levels_for(self.name, self._policy.name))
        state = recovered.state
        self._backup_seq = int(state.get("backup_seq", 0))
        for ingestor, batch_id, merged in state.get("completed", ()):
            self._completed_batches[(str(ingestor), int(batch_id))] = ForwardReply(
                int(batch_id), int(merged)
            )

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _search(self, key: bytes, as_of: float | None) -> tuple[Entry | None, int]:
        # L2 is strictly newer than L3 for the same key.
        groups = level_groups(self.manifest, key, (L2, L3))
        return lookup(key, groups, as_of=as_of)

    def _handle_read(self, src: str, request: ReadRequest):
        """Point read over L2 then L3 ("starting with the corresponding
        sstable in L2 and then ... L3")."""
        self.stats.reads += 1
        yield from self.compute(self.config.costs.read_base)
        entry, probes = self._search(request.key, request.as_of)
        yield from self.compute(probes * self.config.costs.probe_table)
        return ReadReply(entry, self.name)

    def _handle_range_query(self, src: str, request: RangeQuery):
        """Analytics range read directly on the Compactor (used when a
        deployment has no Readers)."""
        self.stats.reads += 1
        yield from self.compute(self.config.costs.read_base)
        sources = level_sources(self.manifest, (L2, L3), request.lo, request.hi)
        pairs = tuple(live_pairs(sources, request.limit))
        yield from self.compute(len(pairs) * self.config.costs.scan_per_entry)
        return RangeQueryReply(pairs)
