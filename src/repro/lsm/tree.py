"""The monolithic LSM tree: an embeddable key-value engine.

This is the classic single-machine structure of Figure 1(a): a memtable
feeding L0 (tiering into L1) with leveled compaction above.  CooLSM's
components are built from the same parts (levels, compaction policies,
merge iterators) but split across nodes; this class keeps them together
and is therefore also the "monolithic" baseline of the evaluation.

Usage::

    tree = LSMTree(LSMConfig.for_key_range(100_000))
    tree.put(b"k", b"v")
    assert tree.get(b"k") == b"v"
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from .cache import CacheStats, ReadCache
from .compaction import (
    CompactionStats,
    KeepPolicy,
    NEWEST_WINS,
    compact_step,
    pick_tables,
)
from .entry import Entry, encode_key, make_tombstone, make_upsert
from .errors import InvalidConfigError
from .manifest import LevelEdit, Manifest
from .memtable import Memtable
from .policy import make_policy, normalize_policy_name, stacked_levels
from .readpath import level_groups, level_sources, live_pairs, lookup
from .sstable import SSTable


@dataclass(frozen=True, slots=True)
class LSMConfig:
    """Structural parameters of the tree.

    The defaults follow the paper's experimental setup: four levels,
    thresholds of 10 sstables for L0 and L1, and a 10x size ratio for
    the levels above (Section II-B and IV).

    Attributes:
        memtable_entries: Batch size buffered before a flush to L0.
        sstable_entries: Entries per sstable ("the size of an sstable is
            predetermined").
        level_thresholds: Max table count per level.  A threshold of 0
            means *unbounded* on every level below L0 (the last level
            never compacts whatever its threshold) and *compact on
            every flush* at L0 — under every policy.
        cache_capacity: Entries in the shared read cache (row results
            keyed by immutable table id, so the cache never needs
            invalidation).  0 disables caching.
        compaction_policy: Which :mod:`repro.lsm.policy` rows drive
            the compaction cascade (``"leveling"`` — the paper's hybrid
            and the historical behaviour — ``"tiering"``,
            ``"lazy_leveling"``, or ``"one_leveling"``).
    """

    memtable_entries: int = 1_000
    sstable_entries: int = 100
    level_thresholds: tuple[int, ...] = (10, 10, 100, 1_000)
    cache_capacity: int = 4_096
    compaction_policy: str = "leveling"

    def __post_init__(self) -> None:
        if self.memtable_entries <= 0 or self.sstable_entries <= 0:
            raise InvalidConfigError("entry counts must be positive")
        if len(self.level_thresholds) < 2:
            raise InvalidConfigError("need at least levels L0 and L1")
        if any(t < 0 for t in self.level_thresholds):
            raise InvalidConfigError("thresholds must be non-negative")
        if self.cache_capacity < 0:
            raise InvalidConfigError("cache_capacity must be non-negative")
        normalize_policy_name(self.compaction_policy)  # raises if unknown

    @classmethod
    def for_key_range(cls, key_range: int, **overrides) -> "LSMConfig":
        """The paper's configurations: 100K and 300K key ranges.

        100K: L0/L1 hold 10 sstables, L2 100, L3 1000.
        300K: L0/L1 hold 10 sstables, L2 300, L3 3000.
        """
        if key_range >= 300_000:
            thresholds = (10, 10, 300, 3_000)
        else:
            thresholds = (10, 10, 100, 1_000)
        defaults = dict(level_thresholds=thresholds)
        defaults.update(overrides)
        return cls(**defaults)

    @property
    def num_levels(self) -> int:
        return len(self.level_thresholds)


@dataclass(slots=True)
class CompactionEvent:
    """One compaction occurrence, for stats collection (Figure 4)."""

    level: int  # target level of the merge
    stats: CompactionStats


@dataclass(slots=True)
class TreeStats:
    """Cumulative counters exposed by :attr:`LSMTree.stats`.

    ``cache`` is the same object the tree's :class:`ReadCache` updates,
    so hit/miss/eviction and bloom-probe counters are readable here
    without reaching into the cache.
    """

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    flushes: int = 0
    compactions: list[CompactionEvent] = field(default_factory=list)
    cache: CacheStats = field(default_factory=CacheStats)

    def compaction_count(self, level: int | None = None) -> int:
        if level is None:
            return len(self.compactions)
        return sum(1 for c in self.compactions if c.level == level)


class LSMTree:
    """A single-node, in-memory LSM key-value store.

    Entries are stamped by a logical counter, so a standalone tree is
    deterministic.  It has no durable store.
    """

    def __init__(self, config: LSMConfig | None = None) -> None:
        self.config = config or LSMConfig()
        self._logical_time = 0.0
        self._seqno = 0
        self._policy = make_policy(self.config.compaction_policy)
        self._steps = self._policy.tree(self.config.num_levels)
        self.manifest = Manifest(
            self.config.num_levels,
            overlapping_levels=stacked_levels(
                self._steps, range(self.config.num_levels)
            ),
        )
        self.stats = TreeStats()
        self._cache: ReadCache | None = (
            ReadCache(self.config.cache_capacity, stats=self.stats.cache)
            if self.config.cache_capacity > 0
            else None
        )
        # Per-level rotating compaction pointers (LevelDB-style sweep).
        self._compaction_pointers: list[bytes | None] = [None] * self.config.num_levels
        self._memtable = Memtable(self.config.memtable_entries)

    def _logical_clock(self) -> float:
        self._logical_time += 1.0
        return self._logical_time

    def _next_seqno(self) -> int:
        self._seqno += 1
        return self._seqno

    def _effective_keep_policy(self, bottom: bool = False) -> KeepPolicy:
        """Newest version wins; the bottom level also drops tombstones."""
        return KeepPolicy(drop_tombstones=True) if bottom else NEWEST_WINS

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def put(self, key: bytes | str | int, value: bytes | str) -> Entry:
        """Insert or overwrite a key (the paper's *upsert*)."""
        entry = make_upsert(key, value, self._next_seqno(), self._logical_clock())
        self._write(entry)
        self.stats.puts += 1
        return entry

    def delete(self, key: bytes | str | int) -> Entry:
        """Delete a key by writing a tombstone."""
        entry = make_tombstone(key, self._next_seqno(), self._logical_clock())
        self._write(entry)
        self.stats.deletes += 1
        return entry

    def put_entry(self, entry: Entry) -> None:
        """Insert a pre-built entry (used by CooLSM components, which
        assign seqnos and loose-clock timestamps themselves); later
        :meth:`put` calls number above the highest seqno seen."""
        self._seqno = max(self._seqno, entry.seqno)
        self._write(entry)
        self.stats.puts += 1

    def _write(self, entry: Entry) -> None:
        self._memtable.put(entry)
        if self._memtable.is_full():
            self.flush()

    def flush(self) -> None:
        """Freeze the memtable into a new L0 sstable and cascade
        compactions as thresholds are exceeded."""
        entries = self._memtable.entries()
        if not entries:
            return
        table = SSTable(entries)
        self.manifest.apply(LevelEdit().add(0, [table]))
        self._memtable = Memtable(self.config.memtable_entries)
        self.stats.flushes += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Cascade down the policy's rows: wherever a level is over its
        threshold, pick tables, merge them into the next level, and swap
        the result in atomically."""
        thresholds = self.config.level_thresholds
        manifest = self.manifest
        for level, step in enumerate(self._steps):
            if level and not thresholds[level]:
                continue  # 0 = unbounded below L0 (at L0: every flush)
            picked, self._compaction_pointers[level] = pick_tables(
                manifest.level(level),
                thresholds[level],
                self._compaction_pointers[level],
                step.pick,
            )
            if not picked:
                continue
            result, replaced = compact_step(
                picked,
                manifest.level(level + 1),
                step.move,
                self.config.sstable_entries,
                self._effective_keep_policy(step.bottom),
            )
            manifest.apply(
                LevelEdit()
                .remove(level, picked)
                .remove(level + 1, replaced)
                .add(level + 1, result.tables)
            )
            self.stats.compactions.append(CompactionEvent(level + 1, result.stats))

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, key: bytes | str | int) -> bytes | None:
        """Return the newest value for ``key``, or None if absent/deleted."""
        entry = self.get_entry(key)
        if entry is None or entry.tombstone:
            return None
        return entry.value

    def get_entry(self, key: bytes | str | int) -> Entry | None:
        """Newest entry for ``key`` (including tombstones), or None."""
        self.stats.gets += 1
        return self.lookup(key)[0]

    def lookup(self, key: bytes | str | int) -> tuple[Entry | None, int]:
        """``(entry, probes)`` for ``key``: its newest entry (tombstones
        included) and the number of sstables whose blocks were searched
        for it.

        Search order is the paper's read flow: memtable, then L0 newest
        table first, then each level in order through its fence index
        (one bisect and at most one probe on a disjoint level; the runs
        of a tiered level resolve by version).  Data only moves
        downward, so the first level with a hit is it.
        """
        encoded = encode_key(key)
        manifest = self.manifest
        groups = itertools.chain(
            ([table] for table in reversed(manifest.level(0))),
            level_groups(manifest, encoded, range(1, manifest.num_levels)),
        )
        return lookup(
            encoded, groups, self._memtable.versions(encoded), cache=self._cache
        )

    def scan(
        self,
        lo: bytes | str | int | None = None,
        hi: bytes | str | int | None = None,
        limit: int | None = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield (key, value) pairs with lo <= key < hi, newest versions,
        tombstones elided, at most ``limit`` of them.

        Streaming over the tables: one lazy cursor per table of an
        overlapping level plus one
        :func:`~repro.lsm.iterators.level_scan` cursor per disjoint
        level feed a k-way merge, so an early-terminated scan costs
        O(result + tables primed at the frontier), not O(level).  The
        memtable's part is a sorted list of its versions inside
        ``[lo, hi)``, taken when the iterator starts — it is bounded by
        the memtable's capacity.  The iterator reflects the tree as of
        its first element; interleaving writes with iteration is
        undefined (finish or drop the iterator before mutating).
        """
        lo_b = encode_key(lo) if lo is not None else None
        hi_b = encode_key(hi) if hi is not None else None
        levels = range(self.manifest.num_levels)
        sources = [self._memtable.range(lo_b, hi_b)]
        sources += level_sources(self.manifest, levels, lo_b, hi_b)
        yield from live_pairs(sources, limit)

    def __len__(self) -> int:
        """Exact number of live keys, counted via the streaming dedup
        iterator (O(total entries) time, O(levels) memory)."""
        return sum(1 for __ in self.scan())

    def approximate_len(self) -> int:
        """Upper bound on the key count from per-table entry counts
        alone — O(tables), no entry is touched.  Counts duplicate
        versions and tombstones, so it is exact only when every key is
        live and held once."""
        return len(self._memtable) + self.manifest.total_entries()

    @property
    def cache(self) -> ReadCache | None:
        """The shared read cache (None when disabled)."""
        return self._cache
