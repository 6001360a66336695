"""Unit tests for tiering and leveling compaction."""

from repro.lsm.compaction import (
    KeepPolicy,
    compact_step,
    find_overlaps,
    major_compaction,
    merge_tables,
)
from repro.lsm.entry import encode_key
from repro.lsm.sstable import SSTable

from tests.conftest import entry


def table_of(keys, seqno=1):
    return SSTable.from_entries([entry(k, seqno + i) for i, k in enumerate(keys)])


class TestMergeTables:
    def test_dedups_across_tables(self):
        newer = SSTable.from_entries([entry("k", 2, value="new")])
        older = SSTable.from_entries([entry("k", 1, value="old")])
        result = merge_tables([newer, older], run_size=10)
        assert len(result.tables) == 1
        assert result.tables[0].get(encode_key("k")).value == b"new"
        assert result.stats.entries_in == 2
        assert result.stats.entries_out == 1
        assert result.stats.entries_dropped == 1

    def test_output_cut_into_run_size(self):
        big = table_of(range(25))
        result = merge_tables([big], run_size=10)
        assert [len(t) for t in result.tables] == [10, 10, 5]

    def test_output_tables_non_overlapping(self):
        a = table_of(range(0, 20, 2))
        b = table_of(range(1, 20, 2))
        result = merge_tables([a, b], run_size=5)
        tables = sorted(result.tables, key=lambda t: t.min_key)
        for left, right in zip(tables, tables[1:]):
            assert left.max_key < right.min_key

    def test_tombstone_dropping_policy(self):
        dead = SSTable.from_entries([entry("k", 2, tombstone=True)])
        live = SSTable.from_entries([entry("k", 1)])
        result = merge_tables([dead, live], 10, KeepPolicy(drop_tombstones=True))
        assert result.tables == []
        assert result.stats.entries_out == 0


class TestMinorCompaction:
    def test_l0_wins_over_l1(self):
        l0 = [SSTable.from_entries([entry("k", 9, value="l0")])]
        l1 = [SSTable.from_entries([entry("k", 1, value="l1")])]
        result, __ = compact_step(l0, l1, "fold", run_size=10)
        assert result.tables[0].get(encode_key("k")).value == b"l0"

    def test_merges_everything(self):
        l0 = [table_of(range(0, 10)), table_of(range(5, 15), seqno=100)]
        l1 = [table_of(range(20, 30))]
        result, __ = compact_step(l0, l1, "fold", run_size=100)
        total_keys = sum(len(t) for t in result.tables)
        assert total_keys == 25  # 0..14 and 20..29


class TestMajorCompaction:
    def test_only_overlapping_tables_participate(self):
        incoming = [table_of([10, 11], seqno=100)]
        level = [table_of([0, 5]), table_of([10, 15]), table_of([20, 25])]
        result, untouched = major_compaction(incoming, level, run_size=100)
        assert result.stats.overlap_tables == 1
        assert len(untouched) == 2
        touched_keys = {e.key for t in result.tables for e in t.entries}
        assert encode_key(10) in touched_keys and encode_key(15) in touched_keys
        assert encode_key(0) not in touched_keys

    def test_incoming_wins_on_conflict(self):
        incoming = [SSTable.from_entries([entry("k", 100, value="new")])]
        level = [SSTable.from_entries([entry("k", 1, value="old")])]
        result, __ = major_compaction(incoming, level, run_size=10)
        assert result.tables[0].get(encode_key("k")).value == b"new"

    def test_empty_incoming_is_noop(self):
        level = [table_of([1, 2])]
        result, untouched = major_compaction([], level, run_size=10)
        assert result.tables == [] and untouched == level

    def test_no_overlap_just_adds(self):
        incoming = [table_of([100, 101])]
        level = [table_of([1, 2])]
        result, untouched = major_compaction(incoming, level, run_size=10)
        assert result.stats.overlap_tables == 0
        assert len(untouched) == 1


class TestFindOverlaps:
    def test_partitions_correctly(self):
        level = [table_of([0, 5]), table_of([10, 15]), table_of([20, 25])]
        overlapping, disjoint = find_overlaps(level, encode_key(4), encode_key(12))
        assert len(overlapping) == 2 and len(disjoint) == 1
