"""Read cache: a capacity-bounded row cache shared per tree.

LSM read performance is dominated by repeated work on hot keys: the same
bloom probes, fence-pointer bisects, and block fetches run over and over
for a zipfian read mix.  An LSM-aware cache (cf. *Re-enabling high-speed
caching for LSM-trees*, arXiv:1606.02015) removes that repetition while
staying trivially coherent, because it exploits the engine's core
invariant: **sstables are immutable**.  Every cache key is scoped by a
``table_id`` that is never reused, so a cached result can never become
stale — compactions simply stop referencing old tables and their cached
rows age out via normal eviction.  No invalidation protocol is needed.

An entry is a **row** ``(ROW, table_id, key) -> tuple[Entry, ...]``:
the result of a key lookup inside one table (all versions, newest
first; the empty tuple caches a confirmed miss after a bloom false
positive).

Eviction is classic **LRU** (ordered-dict move-to-end): O(1) on hit,
insert, and evict.

Counters (:class:`CacheStats`) record hits, misses, insertions, and
evictions, plus bloom-filter probe accounting filled in by
:meth:`~repro.lsm.sstable.SSTable.versions` — the observability surface
for the cluster monitor and the e2e benchmark's ``lsm.cache.*`` metrics.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from .errors import InvalidConfigError

#: Sentinel returned by :meth:`ReadCache.get` on a miss (``None`` is a
#: legitimate cached value: "this table does not contain the key").
MISS = object()

#: Cache-key namespace of :meth:`ReadCache.get_row` / :meth:`ReadCache.put_row`.
ROW = "row"


@dataclass(slots=True)
class CacheStats:
    """Cumulative counters of one :class:`ReadCache`.

    ``bloom_probes`` / ``bloom_negatives`` are incremented by the
    sstable lookup path when it consults a bloom filter on the way to
    (or instead of) the cache, so one stats object tells the whole
    read-path story: how often the bloom filter short-circuited, how
    often the cache absorbed the block search, and how often real work
    happened.
    """

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0
    bloom_probes: int = 0
    bloom_negatives: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when idle)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.evictions = 0
        self.bloom_probes = 0
        self.bloom_negatives = 0


class ReadCache:
    """A bounded LRU cache over hashable keys.

    Args:
        capacity: Maximum number of cached entries (> 0).
        stats: Optionally share an external :class:`CacheStats`.
    """

    __slots__ = ("capacity", "stats", "_entries")

    def __init__(self, capacity: int, stats: CacheStats | None = None) -> None:
        if capacity <= 0:
            raise InvalidConfigError("cache capacity must be positive")
        self.capacity = capacity
        self.stats = stats if stats is not None else CacheStats()
        # key -> value, ordered least-recently-used first.
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------
    # Core get/put
    # ------------------------------------------------------------------
    def get(self, key: Hashable):
        """The cached value for ``key``, or :data:`MISS`."""
        entry = self._entries.get(key, MISS)
        if entry is MISS:
            self.stats.misses += 1
            return MISS
        self.stats.hits += 1
        self._entries.move_to_end(key)
        return entry

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key``; evicts the LRU entry when full."""
        if key in self._entries:
            self._entries[key] = value
            self._entries.move_to_end(key)
            return
        while len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = value
        self.stats.inserts += 1

    def clear(self) -> None:
        """Drop every entry (counters survive; crash/recovery path)."""
        self._entries.clear()

    # ------------------------------------------------------------------
    # Namespaced helpers
    # ------------------------------------------------------------------
    def get_row(self, table_id: int, key: bytes):
        """Cached version tuple for ``key`` in table ``table_id``, or MISS."""
        return self.get((ROW, table_id, key))

    def put_row(self, table_id: int, key: bytes, versions: tuple) -> None:
        self.put((ROW, table_id, key), versions)
