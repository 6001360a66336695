"""The universal-compaction (RocksDB-like) reference engine is an
:class:`~repro.lsm.tree.LSMTree` under the ``tiering`` policy.  Its
read/scan results are pinned against a dict model, with every other
policy, by ``tests/test_compaction_policies.py::TestTreeDifferential``;
these tests cover what is particular to stacking runs."""

from repro.lsm.tree import LSMConfig, LSMTree

SMALL = LSMConfig(
    memtable_entries=16,
    sstable_entries=8,
    level_thresholds=(4, 4, 4, 0),
    compaction_policy="tiering",
)


class TestAcrossRuns:
    def test_overwrite_across_runs(self):
        tree = LSMTree(SMALL)
        tree.put("k", "old")
        for i in range(100):
            tree.put(i, "fill")
        tree.put("k", "new")
        for i in range(100):
            tree.put(100 + i, "fill")
        assert tree.get("k") == b"new"

    def test_delete_across_runs(self):
        tree = LSMTree(SMALL)
        tree.put("k", "v")
        for i in range(50):
            tree.put(i, "fill")
        tree.delete("k")
        for i in range(50):
            tree.put(50 + i, "fill")
        assert tree.get("k") is None


class TestCompaction:
    def test_upper_levels_bounded(self):
        tree = LSMTree(SMALL)
        for i in range(2_000):
            tree.put(i % 300, "v%d" % i)
        for level, threshold in enumerate(SMALL.level_thresholds[:-1]):
            assert len(tree.manifest.level(level)) <= threshold

    def test_compactions_recorded(self):
        tree = LSMTree(SMALL)
        for i in range(2_000):
            tree.put(i % 300, "v%d" % i)
        assert tree.stats.compactions
        assert all(e.stats.tables_in >= 2 for e in tree.stats.compactions)

    def test_space_amplification_exists(self):
        """Tiering retains duplicate versions across runs (the trade-off
        the paper's Related Work describes)."""
        tree = LSMTree(SMALL)
        for i in range(3_000):
            tree.put(i % 50, "v%d" % i)  # heavy overwrites
        live_keys = sum(1 for __ in tree.scan())
        assert tree.manifest.total_entries() > live_keys
