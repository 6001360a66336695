"""Read cache: a capacity-bounded block-and-row cache shared per tree.

LSM read performance is dominated by repeated work on hot keys: the same
bloom probes, fence-pointer bisects, and block fetches run over and over
for a zipfian read mix.  An LSM-aware cache (cf. *Re-enabling high-speed
caching for LSM-trees*, arXiv:1606.02015) removes that repetition while
staying trivially coherent, because it exploits the engine's core
invariant: **sstables are immutable**.  Every cache key is scoped by a
``table_id`` that is never reused, so a cached result can never become
stale — compactions simply stop referencing old tables and their cached
rows age out via normal eviction.  No invalidation protocol is needed.

Two kinds of entries share one capacity budget:

* **row entries** ``(ROW, table_id, key) -> tuple[Entry, ...]`` — the
  result of a key lookup inside one table (all versions, newest first;
  the empty tuple caches a confirmed miss after a bloom false positive);
* **block entries** ``(BLOCK, table_id, block_index) -> list[Entry]`` —
  a decoded data block (used by the on-disk reader to skip file I/O).

Two eviction policies are provided: classic **LRU** (ordered-dict
move-to-end) and **CLOCK** (second-chance ring), selectable per cache.
LRU is the default; CLOCK trades a little hit rate for O(1) updates on
hit, which matters when the cache front-runs every single read.

Counters (:class:`CacheStats`) record hits, misses, insertions, and
evictions, plus bloom-filter probe accounting filled in by
:meth:`~repro.lsm.sstable.SSTable.versions` — the observability surface
for ``BENCH_read_path.json`` and the cluster monitor.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from .errors import InvalidConfigError

#: Sentinel returned by :meth:`ReadCache.get` on a miss (``None`` is a
#: legitimate cached value: "this table does not contain the key").
MISS = object()

#: Cache-key namespaces.
ROW = "row"
BLOCK = "block"


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
    """A bounded cache over hashable keys with pluggable eviction.

    Args:
        capacity: Maximum number of cached entries (> 0).
        policy: ``"lru"`` (default) or ``"clock"``.
        stats: Optionally share an external :class:`CacheStats` (the
            tree embeds the same object in :class:`~repro.lsm.tree.TreeStats`).
    """

    __slots__ = ("capacity", "policy", "stats", "_entries", "_hand")

    def __init__(
        self,
        capacity: int,
        policy: str = "lru",
        stats: CacheStats | None = None,
    ) -> None:
        if capacity <= 0:
            raise InvalidConfigError("cache capacity must be positive")
        if policy not in ("lru", "clock"):
            raise InvalidConfigError(f"unknown cache policy: {policy!r}")
        self.capacity = capacity
        self.policy = policy
        self.stats = stats if stats is not None else CacheStats()
        # LRU: key -> value, ordered oldest-first.
        # CLOCK: key -> [value, referenced_bit], insertion-ordered ring.
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._hand = 0

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
        if self.policy == "lru":
            self._entries.move_to_end(key)
            return entry
        entry[1] = True  # CLOCK: second chance
        return entry[0]

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key``; evicts per policy when full."""
        if key in self._entries:
            if self.policy == "lru":
                self._entries[key] = value
                self._entries.move_to_end(key)
            else:
                self._entries[key][0] = value
                self._entries[key][1] = True
            return
        while len(self._entries) >= self.capacity:
            self._evict_one()
        self._entries[key] = value if self.policy == "lru" else [value, False]
        self.stats.inserts += 1

    def _evict_one(self) -> None:
        if self.policy == "lru":
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            return
        # CLOCK: sweep the ring from the hand, clearing referenced bits
        # until an unreferenced victim is found.  Bounded: after one full
        # sweep every bit is clear.
        keys = list(self._entries.keys())
        hand = self._hand % len(keys)
        for _ in range(2 * len(keys)):
            key = keys[hand]
            slot = self._entries[key]
            if slot[1]:
                slot[1] = False
                hand = (hand + 1) % len(keys)
                continue
            del self._entries[key]
            self._hand = hand
            self.stats.evictions += 1
            return
        # Unreachable, but never loop forever on an inconsistent ring.
        self._entries.popitem(last=False)  # pragma: no cover
        self.stats.evictions += 1  # pragma: no cover

    def clear(self) -> None:
        """Drop every entry (counters survive; crash/recovery path)."""
        self._entries.clear()
        self._hand = 0

    # ------------------------------------------------------------------
    # Namespaced helpers
    # ------------------------------------------------------------------
    def get_row(self, table_id: int, key: bytes):
        """Cached version tuple for ``key`` in table ``table_id``, or MISS."""
        return self.get((ROW, table_id, key))

    def put_row(self, table_id: int, key: bytes, versions: tuple) -> None:
        self.put((ROW, table_id, key), versions)

    def get_block(self, table_id: int, block_index: int):
        """Cached decoded block, or MISS."""
        return self.get((BLOCK, table_id, block_index))

    def put_block(self, table_id: int, block_index: int, entries: list) -> None:
        self.put((BLOCK, table_id, block_index), entries)
