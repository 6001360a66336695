"""The Reader (Backup): CooLSM's snapshot-serving analytics node.

A Reader (Section III-D) passively maintains a snapshot of the data in
levels **L2 and L3**, fed by the Compactors: after each major
compaction a Compactor casts the level edit it applied (the ids of the
tables it removed, the tables it added), and the Reader replays exactly
that edit on its copy of that Compactor's *area*, which has the
Compactor's level shape.  Because each Compactor's edits arrive on a
FIFO channel and are replayed in arrival order, the Reader's state for
any single Compactor's range is always some past state of that
Compactor — which is exactly the *snapshot linearizability* guarantee.

Keeping a separate area per source Compactor also implements what
Section III-G leaves as future work — Backups fed by *overlapping*
Compactors: each source's area progresses independently and reads
resolve across areas by version metadata (seqno with one Ingestor,
loose timestamps with several), precisely the approach the paper
sketches ("use sequence numbers if there is one Ingestor or use
timestamps if there are more than one").

Readers serve point reads and — their main purpose — large analytics
range queries without touching Ingestors or Compactors, isolating
analytics from the ingestion path (Figure 7, Figure 9b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.effects import ComputeHost, EffectKernel, Fabric
from repro.lsm.entry import Entry
from repro.lsm.errors import ManifestError
from repro.lsm.manifest import LevelEdit, Manifest
from repro.lsm.policy import make_policy
from repro.lsm.readpath import level_sources, live_pairs, lookup
from repro.lsm.sstable import SSTable
from repro.sim.rpc import RemoteError, RpcNode, RpcTimeout

from .compactor import levels_manifest
from .config import CooLSMConfig
from .messages import (
    BackupUpdate,
    IngestorL1Update,
    RangeQuery,
    RangeQueryReply,
    ReadReply,
    ReadRequest,
)

_L2, _L3 = 0, 1


@dataclass(slots=True)
class ReaderStats:
    """Counters exposed for the evaluation harness."""

    updates_received: int = 0
    tables_installed: int = 0
    reads: int = 0
    range_queries: int = 0
    gaps_detected: int = 0
    stale_updates: int = 0
    catchups: int = 0
    failed_catchups: int = 0


class _MergedView:
    """Read-only manifest-like view over all per-Compactor areas, so
    callers can keep using ``reader.manifest.total_entries()`` etc."""

    def __init__(self, areas: dict[str, Manifest]) -> None:
        self._areas = areas

    @property
    def num_levels(self) -> int:
        return 2

    def level(self, index: int) -> list[SSTable]:
        return [t for area in self._areas.values() for t in area.level(index)]

    def level_sizes(self) -> list[int]:
        return [len(self.level(_L2)), len(self.level(_L3))]

    def total_entries(self) -> int:
        return sum(area.total_entries() for area in self._areas.values())


class Reader(RpcNode):
    """A CooLSM Reader (backup) node.

    The Reader may lag the Compactors — that is the availability /
    freshness trade-off the paper accepts — but it never exposes a
    mixed state: each replayed edit applies atomically, and each
    source Compactor's area progresses independently.
    """

    def __init__(
        self,
        kernel: EffectKernel,
        network: Fabric,
        machine: ComputeHost,
        name: str,
        config: CooLSMConfig,
    ) -> None:
        super().__init__(kernel, network, machine, name)
        self.config = config
        self.stats = ReaderStats()
        # One area per source Compactor: a replica of its L2/L3, so it
        # has the Compactor's level shape and every install is validated.
        self._policy = make_policy(config.compaction_policy)
        self._areas: dict[str, Manifest] = {}
        self.manifest = _MergedView(self._areas)
        # Section III-D.3 fresh area: the latest L1 snapshot received
        # from each Ingestor (only populated when Ingestors feed Readers).
        self.fresh_area: dict[str, tuple[SSTable, ...]] = {}
        # Catch-up protocol: next expected update seq per source, the
        # set of sources with a resync in flight, and the full source
        # list (filled in by the cluster builder) used after a crash.
        self._next_seq: dict[str, int] = {}
        self._syncing: set[str] = set()
        self._sources: list[str] = []
        # Optional durable storage (live runtime); None under the
        # simulator, where persistence stays modelled.
        self._store = None
        self.on("backup_update", self._handle_backup_update)
        self.on("ingestor_update", self._handle_ingestor_update)
        self.on("read", self._handle_read)
        self.on("range_query", self._handle_range_query)

    def set_sources(self, compactors: list[str] | tuple[str, ...]) -> None:
        """Tell the Reader which Compactors feed it (for post-crash
        resync before any of them happens to send an update)."""
        self._sources = list(compactors)

    def _area(self, compactor: str) -> Manifest:
        if compactor not in self._areas:
            self._areas[compactor] = levels_manifest(self._policy)
        return self._areas[compactor]

    @property
    def level2(self) -> list[SSTable]:
        return self.manifest.level(_L2)

    @property
    def level3(self) -> list[SSTable]:
        return self.manifest.level(_L3)

    def health_gauges(self) -> dict:
        return {
            "areas": len(self._areas),
            "gaps_detected": self.stats.gaps_detected,
            "catchups": self.stats.catchups,
            "updates_received": self.stats.updates_received,
        }

    # ------------------------------------------------------------------
    # Update path
    # ------------------------------------------------------------------
    def _handle_backup_update(self, src: str, update: BackupUpdate):
        """Replay a Compactor's edit on *that Compactor's* area.

        Keeping areas per source makes overlapping Compactors safe: one
        source's update can never clobber another source's tables;
        reads merge areas by version.

        Updates are sequence-numbered per source.  A gap — updates lost
        while this Reader was crashed, or cut off by a partition whose
        held traffic was superseded — means applying this update could
        skip intermediate states, so the Reader instead re-fetches the
        source's complete area (:meth:`_catch_up`), which restores
        snapshot progression.  Updates older than the fetched snapshot
        are ignored as stale.  Nothing yields between the check and the
        install, so one source's updates install in the order sent.
        """
        self.stats.updates_received += 1
        expected = self._next_seq.get(update.compactor, 1)
        if update.seq < expected:
            self.stats.stale_updates += 1
            return None
        if update.seq > expected or update.compactor in self._syncing:
            if update.seq > expected:
                self.stats.gaps_detected += 1
            yield from self._catch_up(update.compactor)
            return None
        yield from self._install(self._area(update.compactor), update)
        return None

    def _install(self, area: Manifest, update: BackupUpdate):
        """Apply ``update``'s edit to ``area`` — strictly: every removed
        id must be in the area — make it the source's area, persist,
        and only then pay the modelled install cost."""
        removed = set(update.removed_ids)
        edit = LevelEdit()
        for level in (_L2, _L3):
            edit.remove(level, [t for t in area.level(level) if t.table_id in removed])
        found = sum(len(tables) for tables in edit.removes.values())
        if found != len(removed):
            raise ManifestError(
                f"update {update.seq} from {update.compactor} removes "
                f"{len(removed) - found} table(s) its area does not hold"
            )
        area.apply(edit.add(_L2, list(update.l2)).add(_L3, list(update.l3)))
        self._areas[update.compactor] = area
        self._next_seq[update.compactor] = update.seq + 1
        if self._store is not None:
            self._persist()
        tables = update.l2 + update.l3
        self.stats.tables_installed += len(tables)
        entries = sum(len(t) for t in tables)
        yield from self.compute(entries * self.config.costs.install_per_entry)

    def _catch_up(self, source: str):
        """Re-fetch ``source``'s complete area and install it wholesale.

        Runs at most once per source at a time; concurrent triggers
        (several gapped updates) fold into the running attempt.  On
        success the area becomes the Compactor's current state — some
        past-or-present state of that source, so snapshot
        linearizability per area is preserved.
        """
        if source in self._syncing:
            return
        self._syncing.add(source)
        try:
            snapshot = None
            for __ in range(self.config.client_retry_budget):
                try:
                    snapshot = yield self.call(
                        source,
                        "fetch_area",
                        None,
                        timeout=self.config.request_timeout,
                    )
                    break
                except (RpcTimeout, RemoteError):
                    continue
            if not isinstance(snapshot, BackupUpdate):
                # Source unreachable: stay stale; the next sequenced
                # update re-detects the gap and retries.
                self.stats.failed_catchups += 1
                return
            self.stats.catchups += 1
            yield from self._install(levels_manifest(self._policy), snapshot)
        finally:
            self._syncing.discard(source)

    def resync(self, sources: Iterable[str] | None = None) -> None:
        """Spawn a catch-up for every known source (or the given ones).
        Used after recovery, or by drivers after healing a fault."""
        names = sorted(set(sources if sources is not None else [])
                       | set(self._sources) | set(self._areas))
        for source in names:
            self.kernel.spawn(
                self._catch_up(source), f"{self.name}.catchup.{source}"
            )

    # ------------------------------------------------------------------
    # Durable storage (live runtime)
    # ------------------------------------------------------------------
    def _persist(self) -> None:
        """Commit the per-source areas, fresh areas, and applied
        sequence numbers to the attached store.  Synchronous — never
        yields."""
        tables: dict[int, SSTable] = {}
        areas_state: dict[str, list[list[int]]] = {}
        for source, area in self._areas.items():
            level_ids: list[list[int]] = []
            for level in (_L2, _L3):
                run = area.level(level)
                level_ids.append([t.table_id for t in run])
                for table in run:
                    tables[table.table_id] = table
            areas_state[source] = level_ids
        fresh_state: dict[str, list[int]] = {}
        for ingestor, run in self.fresh_area.items():
            fresh_state[ingestor] = [t.table_id for t in run]
            for table in run:
                tables[table.table_id] = table
        state = {
            "areas": areas_state,
            "fresh": fresh_state,
            "applied_seq": {
                source: seq - 1 for source, seq in self._next_seq.items()
            },
        }
        self._store.commit(tables.values(), state)

    def attach_store(self, store) -> None:
        """Attach a :class:`~repro.store.node_store.NodeStore`,
        restoring the per-source areas and applied BackupUpdate
        sequence numbers of a previous incarnation, then spawning a
        catch-up per source: updates cast while the process was down
        are gone, and re-fetching each area wholesale (the PR 1 gap
        protocol) restores snapshot progression from the recovered
        baseline instead of from empty.
        """
        self._store = store
        recovered = store.recovered
        if recovered is None:
            self._persist()
            return
        state = recovered.state
        tables = recovered.tables
        unloadable: list[str] = []
        for source, level_ids in state.get("areas", {}).items():
            area = levels_manifest(self._policy)
            try:
                area.apply(recovered.level_edit(level_ids))
            except ManifestError:
                # Not a state of that Compactor's level shape (written
                # by an older build, or under another policy): the
                # catch-up below rebuilds it from the Compactor.
                unloadable.append(source)
                continue
            self._areas[source] = area
        for ingestor, ids in state.get("fresh", {}).items():
            self.fresh_area[ingestor] = tuple(tables[tid] for tid in ids)
        self._next_seq = {
            source: int(seq) + 1
            for source, seq in state.get("applied_seq", {}).items()
            if source not in unloadable
        }
        self.resync(unloadable)

    def recover(self) -> None:
        """Restart after a crash: updates cast while down were lost, so
        proactively resynchronise every source area."""
        super().recover()
        self.resync()

    def _handle_ingestor_update(self, src: str, update: IngestorL1Update):
        """Install an Ingestor's fresh L1 snapshot (Section III-D.3).

        Wholesale replacement per source keeps each Ingestor's fresh
        area a past state of that Ingestor, preserving per-source
        snapshot progression — the "more coordination" the paper notes
        reduces here to source-keyed replacement over FIFO channels.
        """
        self.stats.updates_received += 1
        entries = sum(len(t) for t in update.tables)
        yield from self.compute(entries * self.config.costs.install_per_entry)
        self.fresh_area[update.ingestor] = update.tables
        if self._store is not None:
            self._persist()
        self.stats.tables_installed += len(update.tables)
        return None

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _search(self, key: bytes, as_of: float | None) -> tuple[Entry | None, int]:
        # One group: sources install independently, so no fresh area,
        # Compactor area or level is known newer than another for a key
        # — resolution is purely by version.  Each area's fence index
        # narrows a level to the tables whose range contains the key.
        group = [t for run in self.fresh_area.values() for t in run]
        for level in (_L2, _L3):
            for area in self._areas.values():
                group.extend(area.tables_for_key(level, key))
        return lookup(key, [group], as_of=as_of)

    def _handle_read(self, src: str, request: ReadRequest):
        """Point read served purely from the local snapshot."""
        self.stats.reads += 1
        yield from self.compute(self.config.costs.read_base)
        entry, probes = self._search(request.key, request.as_of)
        yield from self.compute(probes * self.config.costs.probe_table)
        return ReadReply(entry, self.name)

    def _handle_range_query(self, src: str, request: RangeQuery):
        """Analytics range read over the snapshot (Figure 9b)."""
        self.stats.range_queries += 1
        yield from self.compute(self.config.costs.read_base)
        pairs = self.scan_pairs(request.lo, request.hi, request.limit)
        yield from self.compute(len(pairs) * self.config.costs.scan_per_entry)
        return RangeQueryReply(tuple(pairs))

    def scan_pairs(
        self, lo: bytes, hi: bytes, limit: int | None = None
    ) -> list[tuple[bytes, bytes]]:
        """The range-read engine behind the RPC handler (synchronous —
        the handler charges the modelled compute around it): a k-way
        merge over lazy cursors — one chained cursor per leveled area
        level, one per run of a stacked level or fresh area.  Each
        area's fence index prunes the tables outside [lo, hi), and
        nothing is materialised, so a limited query stops after
        O(limit) merged entries."""
        sources = [
            t.scan(lo, hi) for run in self.fresh_area.values() for t in run
        ]
        for area in self._areas.values():
            sources += level_sources(area, (_L2, _L3), lo, hi)
        return list(live_pairs(sources, limit))
