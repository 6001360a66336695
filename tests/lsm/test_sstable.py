"""Unit tests for in-memory sstables: lookup, fences, splitting."""

import pytest

from repro.lsm.entry import encode_key
from repro.lsm.errors import InvalidConfigError
from repro.lsm.sstable import SSTable, sort_run

from tests.conftest import entry


def build_table(keys):
    return SSTable.from_entries([entry(k, k + 1) for k in keys])


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(InvalidConfigError):
            SSTable([])

    def test_min_max_keys(self):
        table = build_table([5, 1, 9])
        assert table.min_key == encode_key(1)
        assert table.max_key == encode_key(9)

    def test_sort_run_orders_versions_newest_first(self):
        run = sort_run([entry("k", 1), entry("k", 3), entry("k", 2)])
        assert [e.seqno for e in run] == [3, 2, 1]

    def test_unique_table_ids(self):
        a, b = build_table([1]), build_table([2])
        assert a.table_id != b.table_id


class TestGet:
    def test_finds_every_key_across_blocks(self):
        keys = list(range(0, 300, 2))  # three blocks, the last partial
        table = build_table(keys)
        assert len(table._blocks) == 3
        for k in keys:
            found = table.get(encode_key(k))
            assert found is not None and found.key == encode_key(k)

    def test_missing_keys_return_none(self):
        table = build_table(list(range(0, 300, 2)))
        for k in range(1, 300, 2):
            assert table.get(encode_key(k)) is None

    def test_out_of_range_short_circuits(self):
        table = build_table([10, 20, 30])
        assert table.get(encode_key(5)) is None
        assert table.get(encode_key(35)) is None

    def test_returns_newest_version(self):
        table = SSTable.from_entries([entry("k", 1, value="old"), entry("k", 2, value="new")])
        assert table.get(encode_key("k")).value == b"new"

    def test_versions_returns_all_newest_first(self):
        table = SSTable.from_entries([entry("k", s) for s in (2, 5, 1)])
        assert [e.seqno for e in table.versions(encode_key("k"))] == [5, 2, 1]
        assert table.versions(encode_key("zz")) == []


class TestOverlap:
    def test_overlaps_ranges(self):
        table = build_table([10, 20])
        assert table.overlaps(encode_key(15), encode_key(25))
        assert table.overlaps(encode_key(0), encode_key(10))
        assert not table.overlaps(encode_key(21), encode_key(99))

    def test_overlaps_table(self):
        a = build_table([1, 5])
        b = build_table([5, 9])
        c = build_table([6, 9])
        assert a.overlaps_table(b)
        assert not a.overlaps_table(c)


class TestScan:
    def test_full_scan_sorted(self):
        table = build_table([3, 1, 2])
        keys = [e.key for e in table.scan()]
        assert keys == sorted(keys)

    def test_bounded_scan(self):
        table = build_table(list(range(10)))
        got = [e.key for e in table.scan(encode_key(3), encode_key(7))]
        assert got == [encode_key(k) for k in range(3, 7)]


class TestSplit:
    def test_split_covers_all_entries(self):
        table = build_table(list(range(20)))
        pieces = table.split_at([encode_key(7), encode_key(13)])
        assert len(pieces) == 3
        total = sum(len(p) for p in pieces)
        assert total == len(table)

    def test_split_respects_boundaries(self):
        table = build_table(list(range(20)))
        lo_piece, mid_piece, hi_piece = table.split_at([encode_key(7), encode_key(13)])
        assert lo_piece.max_key < encode_key(7)
        assert encode_key(7) <= mid_piece.min_key <= mid_piece.max_key < encode_key(13)
        assert hi_piece.min_key >= encode_key(13)

    def test_split_with_no_matching_boundary(self):
        table = build_table([1, 2, 3])
        pieces = table.split_at([encode_key(100)])
        assert len(pieces) == 1
        assert len(pieces[0]) == 3

    def test_split_empty_segments_skipped(self):
        table = build_table([10, 11])
        pieces = table.split_at([encode_key(1), encode_key(5)])
        assert len(pieces) == 1

    def test_split_pieces_answer_lookups(self):
        table = build_table(list(range(30)))
        pieces = table.split_at([encode_key(10), encode_key(20)])
        for k in range(30):
            piece = pieces[0 if k < 10 else 1 if k < 20 else 2]
            assert piece.get(encode_key(k)) is not None
