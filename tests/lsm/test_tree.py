"""Integration tests for the single-node LSM tree."""

import random

import pytest

from repro.lsm.errors import InvalidConfigError
from repro.lsm.tree import LSMConfig, LSMTree

SMALL = LSMConfig(memtable_entries=16, sstable_entries=8, level_thresholds=(2, 2, 4, 0))


class TestConfig:
    def test_paper_presets(self):
        assert LSMConfig.for_key_range(100_000).level_thresholds == (10, 10, 100, 1_000)
        assert LSMConfig.for_key_range(300_000).level_thresholds == (10, 10, 300, 3_000)

    def test_invalid_configs_rejected(self):
        with pytest.raises(InvalidConfigError):
            LSMConfig(memtable_entries=0)
        with pytest.raises(InvalidConfigError):
            LSMConfig(level_thresholds=(5,))
        with pytest.raises(InvalidConfigError):
            LSMConfig(level_thresholds=(5, -1))


class TestBasicOps:
    def test_put_get(self):
        tree = LSMTree(SMALL)
        tree.put(b"k", b"v")
        assert tree.get(b"k") == b"v"

    def test_get_missing(self):
        assert LSMTree(SMALL).get(b"nope") is None

    def test_overwrite(self):
        tree = LSMTree(SMALL)
        tree.put("k", "v1")
        tree.put("k", "v2")
        assert tree.get("k") == b"v2"

    def test_delete(self):
        tree = LSMTree(SMALL)
        tree.put("k", "v")
        tree.delete("k")
        assert tree.get("k") is None

    def test_delete_survives_compaction(self):
        tree = LSMTree(SMALL)
        tree.put("k", "v")
        for i in range(500):
            tree.put(i, "filler-%d" % i)
        tree.delete("k")
        for i in range(500, 1000):
            tree.put(i, "filler-%d" % i)
        assert tree.get("k") is None

    def test_int_and_str_keys(self):
        tree = LSMTree(SMALL)
        tree.put(42, "int")
        tree.put("42str", "str")
        assert tree.get(42) == b"int"
        assert tree.get("42str") == b"str"


class TestCompactionBehaviour:
    def test_cascade_keeps_levels_bounded(self):
        tree = LSMTree(SMALL)
        for i in range(3_000):
            tree.put(i % 200, "v%d" % i)
        sizes = tree.manifest.level_sizes()
        assert sizes[0] <= SMALL.level_thresholds[0]
        assert sizes[1] <= SMALL.level_thresholds[1]
        assert sizes[2] <= SMALL.level_thresholds[2]

    def test_reads_correct_under_heavy_churn(self):
        tree = LSMTree(SMALL)
        rng = random.Random(42)
        oracle = {}
        for i in range(5_000):
            key = rng.randrange(300)
            if rng.random() < 0.1:
                tree.delete(key)
                oracle.pop(key, None)
            else:
                value = b"v-%d" % i
                tree.put(key, value)
                oracle[key] = value
        for key in range(300):
            assert tree.get(key) == oracle.get(key)

    def test_compaction_events_recorded(self):
        tree = LSMTree(SMALL)
        for i in range(2_000):
            tree.put(i, "v")
        assert tree.stats.compaction_count(1) > 0
        assert tree.stats.compaction_count(2) > 0

    def test_flush_empty_memtable_is_noop(self):
        tree = LSMTree(SMALL)
        tree.flush()
        assert tree.stats.flushes == 0


class TestScan:
    def test_scan_is_sorted_and_deduped(self):
        tree = LSMTree(SMALL)
        for i in range(500):
            tree.put(i % 100, "v%d" % i)
        pairs = list(tree.scan())
        keys = [k for k, __ in pairs]
        assert keys == sorted(keys)
        assert len(keys) == 100

    def test_bounded_scan(self):
        tree = LSMTree(SMALL)
        for i in range(100):
            tree.put(i, "v%d" % i)
        pairs = list(tree.scan(20, 30))
        assert len(pairs) == 10
        assert pairs[0][1] == b"v20"

    def test_scan_elides_tombstones(self):
        tree = LSMTree(SMALL)
        for i in range(50):
            tree.put(i, "v")
        tree.delete(25)
        keys = {k for k, __ in tree.scan()}
        from repro.lsm.entry import encode_key

        assert encode_key(25) not in keys

    def test_len_counts_live_keys(self):
        tree = LSMTree(SMALL)
        for i in range(30):
            tree.put(i, "v")
        tree.delete(0)
        assert len(tree) == 29
