"""Write/read/space amplification accounting.

The trade-offs the paper's Related Work section describes — "size-tiered
compaction ... suffers from space amplification", "leveled compaction
... suffers from high write amplification" — made measurable:

* **write amplification** — bytes (here: entries) physically written per
  user entry ingested: flushes plus every compaction rewrite.
* **space amplification** — entries physically stored per live key
  (obsolete versions and tombstones are the overhead).
* **read amplification** — sstables a point lookup may touch.

Measured over a CooLSM deployment under any compaction policy
(``"leveling"`` vs ``"tiering"`` is the comparison above), aggregated
across its Ingestors and Compactors; a single-machine engine is the
same deployment placed on one machine.
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


def _max_probes(manifest) -> int:
    """Worst-case tables a point lookup searches in ``manifest``: every
    table of an overlapping level, one per disjoint level (for leveling,
    where only L0 overlaps, the classic ``len(L0) + depth``)."""
    overlapping = manifest.overlapping_levels
    return sum(
        len(manifest.level(i)) if i in overlapping else 1
        for i in range(manifest.num_levels)
    )


def measure_cluster(cluster) -> AmplificationReport:
    """Amplification of a CooLSM deployment, whatever its compaction
    policy and however its nodes are placed.

    User entries are the upserts (tombstones included) accepted at the
    Ingestors; physical writes are the entries the Ingestors flushed
    plus every merge's output, minor and major; storage spans every
    Ingestor's and Compactor's levels (Readers excluded — they are
    replicas, not primary storage), and a key is live when its newest
    stored version is not a tombstone.  A lookup searches one
    Ingestor's levels, then one Compactor's.
    """
    ingestors, compactors = cluster.ingestors, cluster.compactors
    nodes = [*ingestors, *compactors]
    newest = {}
    for node in nodes:
        for level_index in range(node.manifest.num_levels):
            for table in node.manifest.level(level_index):
                for entry in table.entries:
                    held = newest.get(entry.key)
                    if held is None or entry.version > held.version:
                        newest[entry.key] = entry
    return AmplificationReport(
        user_entries=sum(i.stats.upserts for i in ingestors),
        entries_flushed=sum(i.stats.entries_flushed for i in ingestors),
        entries_rewritten=sum(n.stats.entries_rewritten for n in nodes),
        entries_stored=sum(n.manifest.total_entries() for n in nodes),
        live_keys=sum(1 for entry in newest.values() if not entry.tombstone),
        max_tables_probed=max(
            (_max_probes(i.manifest) for i in ingestors), default=0
        )
        + max((_max_probes(c.manifest) for c in compactors), default=0),
    )
