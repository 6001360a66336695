"""Unit tests for the read cache: LRU eviction order, stats."""

import pytest

from repro.lsm.cache import MISS, CacheStats, ReadCache
from repro.lsm.errors import InvalidConfigError


class TestConstruction:
    def test_rejects_zero_capacity(self):
        with pytest.raises(InvalidConfigError):
            ReadCache(0)

    def test_rejects_negative_capacity(self):
        with pytest.raises(InvalidConfigError):
            ReadCache(-1)

    def test_shares_external_stats(self):
        stats = CacheStats()
        cache = ReadCache(4, stats=stats)
        cache.get("absent")
        assert stats.misses == 1


class TestBasics:
    def test_miss_sentinel_distinct_from_none(self):
        cache = ReadCache(4)
        cache.put("k", None)
        assert cache.get("k") is None
        assert cache.get("absent") is MISS

    def test_put_get_roundtrip(self):
        cache = ReadCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert "a" in cache
        assert len(cache) == 1

    def test_put_refreshes_value(self):
        cache = ReadCache(4)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert len(cache) == 1

    def test_clear_drops_entries_keeps_counters(self):
        cache = ReadCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is MISS
        assert cache.stats.hits == 1  # counters survive a clear

    def test_capacity_bound_holds(self):
        cache = ReadCache(3)
        for i in range(50):
            cache.put(i, i)
        assert len(cache) == 3


class TestLRU:
    def test_evicts_least_recently_used(self):
        cache = ReadCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # b is now the LRU victim
        cache.put("c", 3)
        assert cache.get("b") is MISS
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_eviction_order_without_touches_is_insertion_order(self):
        cache = ReadCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") is MISS
        assert cache.get("b") == 2

    def test_put_refresh_counts_as_use(self):
        cache = ReadCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh makes b the victim
        cache.put("c", 3)
        assert cache.get("b") is MISS
        assert cache.get("a") == 10


class TestStats:
    def test_hit_miss_insert_eviction_counts(self):
        cache = ReadCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts a
        cache.get("b")
        cache.get("a")
        stats = cache.stats
        assert stats.inserts == 3
        assert stats.evictions == 1
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5

    def test_hit_rate_zero_when_idle(self):
        assert ReadCache(2).stats.hit_rate == 0.0

    def test_reset(self):
        cache = ReadCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.stats.reset()
        assert cache.stats.hits == 0
        assert cache.stats.inserts == 0


class TestNamespacedHelpers:
    def test_row_namespace_does_not_collide_with_plain_keys(self):
        cache = ReadCache(8)
        cache.put_row(1, b"k", ("row",))
        cache.put((1, b"k"), "plain")
        assert cache.get_row(1, b"k") == ("row",)
        assert cache.get((1, b"k")) == "plain"

    def test_rows_scoped_by_table_id(self):
        cache = ReadCache(8)
        cache.put_row(1, b"k", ("t1",))
        cache.put_row(2, b"k", ("t2",))
        assert cache.get_row(1, b"k") == ("t1",)
        assert cache.get_row(2, b"k") == ("t2",)
        assert cache.get_row(3, b"k") is MISS
