"""Unit tests for the memtable."""

from repro.lsm.entry import encode_key
from repro.lsm.memtable import Memtable

from tests.conftest import entry


class TestSkipList:
    """Ordering and version cases first written against a skip list,
    now run against the dict :class:`Memtable` that replaced it."""

    def test_insert_and_get(self):
        mt = Memtable(10)
        mt.put(entry("b", 1))
        mt.put(entry("a", 2))
        mt.put(entry("c", 3))
        assert mt.get(encode_key("a")).seqno == 2
        assert mt.get(encode_key("missing")) is None
        assert mt.num_keys == 3

    def test_iteration_is_key_ordered(self):
        mt = Memtable(100)
        for key in [5, 1, 9, 3, 7, 2, 8, 4, 6, 0]:
            mt.put(entry(key, key + 1))
        keys = [e.key for e in mt.entries()]
        assert keys == sorted(keys)

    def test_newer_version_replaces_older(self):
        mt = Memtable(10)
        mt.put(entry("k", 1, value="old"))
        mt.put(entry("k", 2, value="new"))
        assert mt.get(encode_key("k")).value == b"new"
        assert mt.num_keys == 1

    def test_older_version_does_not_replace_newer(self):
        mt = Memtable(10)
        mt.put(entry("k", 5, value="new"))
        mt.put(entry("k", 1, value="stale"))
        assert mt.get(encode_key("k")).value == b"new"

    def test_retain_versions_keeps_all_newest_first(self):
        mt = Memtable(10, retain_versions=True)
        mt.put(entry("k", 1))
        mt.put(entry("k", 3))
        mt.put(entry("k", 2))
        versions = [e.seqno for e in mt.entries()]
        assert versions == [3, 2, 1]

    def test_range_bounds(self):
        mt = Memtable(100)
        for key in range(10):
            mt.put(entry(key, key + 1))
        got = [e.key for e in mt.range(encode_key(3), encode_key(7))]
        assert got == [encode_key(k) for k in [3, 4, 5, 6]]

    def test_range_unbounded(self):
        mt = Memtable(100)
        for key in range(5):
            mt.put(entry(key, key + 1))
        assert len(mt.range(None, None)) == 5
        assert len(mt.range(encode_key(2), None)) == 3
        assert len(mt.range(None, encode_key(2))) == 2


class TestMemtable:
    def test_fills_at_capacity(self):
        mt = Memtable(capacity_entries=3)
        for i in range(3):
            assert not mt.is_full()
            mt.put(entry(i, i + 1))
        assert mt.is_full()
        assert len(mt) == 3

    def test_overwrites_count_toward_capacity(self):
        # Capacity is measured in writes (the paper batches *operations*),
        # not distinct keys.
        mt = Memtable(capacity_entries=2)
        mt.put(entry("k", 1))
        mt.put(entry("k", 2))
        assert mt.is_full()
        assert mt.num_keys == 1

    def test_entries_sorted_for_flush(self):
        mt = Memtable(capacity_entries=100)
        for key in [9, 2, 5, 1]:
            mt.put(entry(key, key + 1))
        keys = [e.key for e in mt.entries()]
        assert keys == sorted(keys)

    def test_get_returns_newest(self):
        mt = Memtable(capacity_entries=10)
        mt.put(entry("k", 1, value="a"))
        mt.put(entry("k", 2, value="b"))
        assert mt.get(encode_key("k")).value == b"b"

    def test_retain_versions_mode(self):
        mt = Memtable(capacity_entries=10, retain_versions=True)
        mt.put(entry("k", 1))
        mt.put(entry("k", 2))
        assert len([e for e in mt.entries() if e.key == encode_key("k")]) == 2

    def test_stale_put_is_dropped_but_counts_toward_capacity(self):
        # An older version arriving after a newer one is not stored, yet
        # the write still fills the batch.
        mt = Memtable(capacity_entries=2)
        mt.put(entry("k", 5, value="new"))
        mt.put(entry("k", 1, value="stale"))
        assert mt.is_full()
        assert len(mt) == 2
        assert mt.num_keys == 1
        assert [e.value for e in mt.entries()] == [b"new"]
        assert [e.seqno for e in mt.versions(encode_key("k"))] == [5]
