"""Tests for amplification accounting — including the Related Work
claims: leveling has higher write amplification, tiering higher space
amplification."""

from repro.lsm.amplification import AmplificationReport, measure_lsm_tree
from repro.lsm.tree import LSMConfig, LSMTree

SHAPE = dict(memtable_entries=16, sstable_entries=8, level_thresholds=(2, 2, 4, 0))


def tiered_tree() -> LSMTree:
    return LSMTree(LSMConfig(compaction_policy="tiering", **SHAPE))


def overwrite_workload(tree, ops=4_000, keys=300):
    for i in range(ops):
        tree.put(i % keys, b"v-%d" % i)


class TestReportMath:
    def test_empty_report(self):
        report = AmplificationReport(0, 0, 0, 0, 0, 0)
        assert report.write_amplification == 0.0
        assert report.space_amplification == 0.0

    def test_write_amplification_formula(self):
        report = AmplificationReport(100, 100, 300, 0, 0, 0)
        assert report.write_amplification == 4.0

    def test_space_amplification_formula(self):
        report = AmplificationReport(0, 0, 0, 500, 100, 0)
        assert report.space_amplification == 5.0


class TestLeveledMeasurement:
    def test_write_amplification_above_one(self):
        tree = LSMTree(LSMConfig(memtable_entries=16, sstable_entries=8, level_thresholds=(2, 2, 4, 0)))
        overwrite_workload(tree)
        report = measure_lsm_tree(tree)
        assert report.user_entries == 4_000
        assert report.write_amplification > 1.5  # rewrites happened

    def test_space_amplification_near_one(self):
        """Leveling discards obsolete versions at every merge."""
        tree = LSMTree(LSMConfig(memtable_entries=16, sstable_entries=8, level_thresholds=(2, 2, 4, 0)))
        overwrite_workload(tree)
        report = measure_lsm_tree(tree)
        assert 1.0 <= report.space_amplification < 2.0

    def test_live_keys_counted(self):
        tree = LSMTree(LSMConfig(memtable_entries=16, sstable_entries=8, level_thresholds=(2, 2, 4, 0)))
        overwrite_workload(tree, keys=250)
        assert measure_lsm_tree(tree).live_keys == 250


class TestTieredMeasurement:
    def test_space_amplification_above_one(self):
        """Tiering retains duplicates across runs."""
        tree = tiered_tree()
        overwrite_workload(tree)
        report = measure_lsm_tree(tree)
        assert report.space_amplification > 1.2


class TestRelatedWorkClaims:
    def test_leveling_higher_write_amp_tiering_higher_space_amp(self):
        """Section V: 'size-tiered compaction ... suffers from space
        amplification'; 'leveled compaction ... suffers from high write
        amplification'."""
        leveled = LSMTree(LSMConfig(**SHAPE))
        tiered = tiered_tree()
        overwrite_workload(leveled, ops=6_000, keys=400)
        overwrite_workload(tiered, ops=6_000, keys=400)
        leveled_report = measure_lsm_tree(leveled)
        tiered_report = measure_lsm_tree(tiered)
        assert leveled_report.write_amplification > tiered_report.write_amplification
        assert tiered_report.space_amplification > leveled_report.space_amplification


class TestClusterMeasurement:
    def test_cluster_report(self):
        from repro.lsm.amplification import measure_cluster

        from tests.core.conftest import fill, tiny_cluster

        cluster = tiny_cluster(num_compactors=2)
        client = cluster.add_client(colocate_with="ingestor-0")
        cluster.run_process(fill(cluster, client, 3_000, key_range=500))
        cluster.run()
        report = measure_cluster(cluster)
        assert report.user_entries == 3_000
        assert report.live_keys == 500
        assert report.write_amplification > 1.0
        assert report.space_amplification >= 1.0
