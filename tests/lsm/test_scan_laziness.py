"""Streaming-scan guarantees: early termination must not touch tables
beyond the merge frontier, and the streaming path must return exactly
what the old materialising path returned."""

import random
from typing import Iterator

from repro.lsm.entry import Entry, encode_key
from repro.lsm.iterators import dedup_newest, k_way_merge, level_scan
from repro.lsm.sstable import SSTable

from tests.conftest import entry
from tests.lsm.reftree import RefTree


def deep_tree(num_keys=3_000, seed=3) -> RefTree:
    """A tree whose data has cascaded into L1+ (probe and open counters
    reflect actual table work)."""
    tree = RefTree(memtable_entries=100, sstable_entries=50)
    keys = list(range(num_keys))
    random.Random(seed).shuffle(keys)
    for key in keys:
        tree.put(key, b"v-%d" % key)
    return tree


def run_of_tables(segments):
    """Disjoint tables, one per (lo, hi) key segment."""
    return [
        SSTable([entry(k) for k in range(lo, hi)]) for lo, hi in segments
    ]


class TestLevelScan:
    def test_chains_disjoint_tables_in_order(self):
        tables = run_of_tables([(0, 3), (3, 6), (6, 9)])
        keys = [e.key for e in level_scan(tables)]
        assert keys == sorted(keys)
        assert len(keys) == 9

    def test_bounds_prune_tables_entirely(self):
        tables = run_of_tables([(0, 10), (10, 20), (20, 30)])
        got = list(level_scan(tables, tables[1].min_key, tables[1].max_key))
        assert [e.key for e in got] == [e.key for e in tables[1].entries[:-1]]
        # The table past hi was never opened; the one before lo was
        # skipped by its max_key without opening a cursor.
        assert tables[0].opens == 0
        assert tables[2].opens == 0

    def test_early_termination_opens_no_later_table(self):
        tables = run_of_tables([(0, 5), (5, 10), (10, 15)])
        stream = level_scan(tables)
        for __ in range(3):  # consume only the first table's prefix
            next(stream)
        assert tables[0].opens == 1
        assert tables[1].opens == 0
        assert tables[2].opens == 0


class TestTreeScanLaziness:
    def test_early_terminated_scan_skips_far_tables(self):
        tree = deep_tree()
        for level in range(tree.manifest.num_levels):
            for table in tree.manifest.level(level):
                table.opens = 0
        taken = []
        for pair in tree.scan(0):
            taken.append(pair)
            if len(taken) >= 5:
                break
        # The merge primes exactly one cursor per level (the run's first
        # table); every later table starting beyond the consumed prefix
        # must never have been opened — the scan cost O(result), not
        # O(tree).
        frontier = taken[-1][0]
        untouched = []
        for level in range(1, tree.manifest.num_levels):
            run = tree.manifest.tables_for_range(level, None, None)
            untouched.extend(
                t for t in run[1:] if t.min_key > frontier
            )
        assert untouched, "test tree too shallow to prove anything"
        assert all(table.opens == 0 for table in untouched)

    def test_bounded_scan_only_opens_overlapping_tables(self):
        tree = deep_tree()
        for level in range(tree.manifest.num_levels):
            for table in tree.manifest.level(level):
                table.opens = 0
        list(tree.scan(100, 120))
        lo, hi = encode_key(100), encode_key(120)
        for level in range(1, tree.manifest.num_levels):
            for table in tree.manifest.level(level):
                if table.opens:
                    assert table.overlaps(lo, hi)

    def test_len_is_streaming_and_exact(self):
        tree = deep_tree(num_keys=500)
        assert len(tree) == 500
        tree.delete(3)
        assert len(tree) == 499

    def test_approximate_len_upper_bounds_exact(self):
        # Per-table entry counts alone bound the live key count.
        tree = deep_tree(num_keys=800)
        assert len(tree._memtable) + tree.manifest.total_entries() >= len(tree)


# ----------------------------------------------------------------------
# The legacy read path (pre-overhaul): the reference implementation
# TestLegacyEquivalence compares the tree's read path against
# ----------------------------------------------------------------------
def legacy_get_entry(tree: RefTree, key: bytes | str | int) -> Entry | None:
    """The pre-overhaul point lookup: linear probe over every table of
    every level (range-checked), no fence-index bisect."""
    encoded = encode_key(key)
    best = tree._memtable.get(encoded)
    for table in reversed(tree.manifest.level(0)):
        if not table.key_in_range(encoded):
            continue
        found = table.get(encoded)
        if found is not None and (best is None or found.version > best.version):
            best = found
        if best is not None:
            break
    if best is not None:
        return best
    for level in range(1, tree.manifest.num_levels):
        for table in tree.manifest.level(level):
            if not table.key_in_range(encoded):
                continue
            found = table.get(encoded)
            if found is not None:
                return found
    return None


def legacy_scan(
    tree: RefTree,
    lo: bytes | str | int | None = None,
    hi: bytes | str | int | None = None,
) -> Iterator[tuple[bytes, bytes]]:
    """The pre-overhaul scan: every overlapping table's slice is
    materialised into a list up front, so even a scan consuming one
    result pays for the whole range in every level."""
    lo_b = encode_key(lo) if lo is not None else None
    hi_b = encode_key(hi) if hi is not None else None
    sources: list = [tree._memtable.range(lo_b, hi_b)]
    for table in reversed(tree.manifest.level(0)):
        sources.append(list(table.scan(lo_b, hi_b)))
    for level in range(1, tree.manifest.num_levels):
        for table in tree.manifest.level(level):
            sources.append(list(table.scan(lo_b, hi_b)))
    for entry in dedup_newest(k_way_merge(sources)):
        if not entry.tombstone:
            yield entry.key, entry.value


class TestLegacyEquivalence:
    def test_full_scan_matches_legacy(self):
        tree = deep_tree(num_keys=1_200, seed=11)
        tree.delete(17)
        tree.delete(404)
        assert list(tree.scan()) == list(legacy_scan(tree))

    def test_bounded_scans_match_legacy(self):
        tree = deep_tree(num_keys=1_200, seed=12)
        rng = random.Random(0)
        for __ in range(20):
            lo = rng.randrange(1_200)
            hi = lo + rng.randrange(1, 200)
            assert list(tree.scan(lo, hi)) == list(legacy_scan(tree, lo, hi))

    def test_point_gets_bit_identical_to_legacy(self):
        tree = deep_tree(num_keys=1_500, seed=13)
        tree.delete(99)
        rng = random.Random(1)
        probes = [rng.randrange(1_800) for __ in range(300)]  # includes misses
        for key in probes:
            assert tree.get_entry(key) == legacy_get_entry(tree, key)
