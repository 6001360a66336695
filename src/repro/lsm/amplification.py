"""Write/read/space amplification accounting.

The trade-offs the paper's Related Work section describes — "size-tiered
compaction ... suffers from space amplification", "leveled compaction
... suffers from high write amplification" — made measurable:

* **write amplification** — bytes (here: entries) physically written per
  user entry ingested: flushes plus every compaction rewrite.
* **space amplification** — entries physically stored per live key
  (obsolete versions and tombstones are the overhead).
* **read amplification** — sstables a point lookup may touch.

Works over an :class:`~repro.lsm.tree.LSMTree` under any compaction
policy (``"leveling"`` vs ``"tiering"`` is the comparison above), and
over CooLSM deployments (aggregate across Ingestors and Compactors).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class AmplificationReport:
    """The three amplification factors of one engine or deployment."""

    user_entries: int
    entries_flushed: int
    entries_rewritten: int  # compaction output entries
    entries_stored: int
    live_keys: int
    max_tables_probed: int

    @property
    def write_amplification(self) -> float:
        """(flushed + rewritten) / ingested — 1.0 means write-once."""
        if self.user_entries == 0:
            return 0.0
        return (self.entries_flushed + self.entries_rewritten) / self.user_entries

    @property
    def space_amplification(self) -> float:
        """stored / live — 1.0 means no obsolete versions retained."""
        if self.live_keys == 0:
            return 0.0
        return self.entries_stored / self.live_keys

    @property
    def read_amplification(self) -> int:
        """Upper bound on sstables probed by a point lookup."""
        return self.max_tables_probed


def measure_lsm_tree(tree) -> AmplificationReport:
    """Amplification of an :class:`~repro.lsm.tree.LSMTree`, whatever
    its compaction policy."""
    stats = tree.stats
    entries_flushed = stats.flushes * tree.config.memtable_entries
    entries_rewritten = sum(e.stats.entries_out for e in stats.compactions)
    entries_stored = tree.manifest.total_entries()
    live_keys = sum(1 for __ in tree.scan())
    # Worst case probes: every table of an overlapping level, one per
    # disjoint level.  For the default leveling policy (only L0
    # overlapping) this is the classic len(L0) + depth.
    overlapping = tree.manifest.overlapping_levels
    max_probed = sum(
        len(tree.manifest.level(i)) if i in overlapping else 1
        for i in range(tree.manifest.num_levels)
    )
    return AmplificationReport(
        user_entries=stats.puts + stats.deletes,
        entries_flushed=entries_flushed,
        entries_rewritten=entries_rewritten,
        entries_stored=entries_stored,
        live_keys=live_keys,
        max_tables_probed=max_probed,
    )


def measure_cluster(cluster) -> AmplificationReport:
    """Aggregate amplification of a CooLSM deployment.

    User entries are the upserts accepted at the Ingestors; physical
    writes are Ingestor flushes + minor compactions + Compactor major
    compactions; storage spans every node's levels (Readers excluded —
    they are replicas, not primary storage).
    """
    user_entries = sum(i.stats.upserts for i in cluster.ingestors)
    entries_flushed = sum(
        i.stats.flushes * cluster.config.memtable_entries for i in cluster.ingestors
    )
    # Minor compactions rewrite L0+L1 into fresh L1 runs; we approximate
    # output entries with the tables produced (tracked via timings on the
    # compactor side, exact on the compactor).
    entries_rewritten = sum(
        timing.entries_merged
        for compactor in cluster.compactors
        for timing in compactor.stats.compactions
    )
    stored = sum(
        node.manifest.total_entries()
        for node in [*cluster.ingestors, *cluster.compactors]
    )
    live = len(
        {
            entry.key
            for node in [*cluster.ingestors, *cluster.compactors]
            for level_index in range(node.manifest.num_levels)
            for table in node.manifest.level(level_index)
            for entry in table.entries
            if not entry.tombstone
        }
    )
    max_probed = max(
        (
            len(ingestor.level0) + 1 + 2  # L0 tables + L1 + L2 + L3
            for ingestor in cluster.ingestors
        ),
        default=0,
    )
    return AmplificationReport(
        user_entries=user_entries,
        entries_flushed=entries_flushed,
        entries_rewritten=entries_rewritten,
        entries_stored=stored,
        live_keys=live,
        max_tables_probed=max_probed,
    )
