"""Tests for amplification accounting — including the Related Work
claims: leveling has higher write amplification, tiering higher space
amplification — measured on the single-machine deployment."""

from dataclasses import replace

from repro.core import MONOLITH
from repro.core import compactor as compactor_module
from repro.core import ingestor as ingestor_module
from repro.lsm.amplification import AmplificationReport, measure_cluster

from tests.core.conftest import TINY, fill, tiny_cluster

#: A 16-entry memtable: compactions every few writes under every policy.
SHAPE = replace(
    TINY,
    memtable_entries=16,
    sstable_entries=8,
    l0_threshold=2,
    l1_threshold=2,
    l2_threshold=4,
)


def overwrite_workload(policy="leveling", ops=4_000, keys=300, config=SHAPE):
    """Drain ``ops`` overwrites of ``keys`` keys through one Ingestor and
    one Compactor on one machine; returns the drained cluster."""
    cluster = tiny_cluster(
        config=replace(config, compaction_policy=policy),
        num_compactors=1,
        placement=MONOLITH,
    )
    client = cluster.add_client(colocate_with="ingestor-0", record_history=False)
    cluster.run_process(fill(cluster, client, ops, key_range=keys))
    cluster.run()
    return cluster


def measured(policy="leveling", **workload) -> AmplificationReport:
    return measure_cluster(overwrite_workload(policy, **workload))


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
        report = measured()
        assert report.user_entries == 4_000
        assert report.write_amplification > 1.5  # rewrites happened

    def test_space_amplification_near_one(self):
        """Leveling discards obsolete versions at every merge."""
        report = measured()
        assert 1.0 <= report.space_amplification < 2.0

    def test_live_keys_counted(self):
        assert measured(keys=250).live_keys == 250


class TestTieredMeasurement:
    def test_space_amplification_above_one(self):
        """Tiering retains duplicates across runs."""
        report = measured("tiering")
        assert report.space_amplification > 1.2


class TestRelatedWorkClaims:
    def test_leveling_higher_write_amp_tiering_higher_space_amp(self):
        """Section V: 'size-tiered compaction ... suffers from space
        amplification'; 'leveled compaction ... suffers from high write
        amplification'."""
        leveled_report = measured(ops=6_000, keys=400)
        tiered_report = measured("tiering", ops=6_000, keys=400)
        assert leveled_report.write_amplification > tiered_report.write_amplification
        assert tiered_report.space_amplification > leveled_report.space_amplification

    def test_stacked_runs_cost_probes(self):
        """A lookup may search every run of a stacked level, so tiering's
        worst case exceeds leveling's on the same workload."""
        leveled_report = measured(ops=6_000, keys=400)
        tiered_report = measured("tiering", ops=6_000, keys=400)
        assert tiered_report.read_amplification > leveled_report.read_amplification


class TestClusterMeasurement:
    def test_cluster_report(self):
        cluster = tiny_cluster(num_compactors=2)
        client = cluster.add_client(colocate_with="ingestor-0")
        cluster.run_process(fill(cluster, client, 3_000, key_range=500))
        cluster.run()
        report = measure_cluster(cluster)
        assert report.user_entries == 3_000
        assert report.live_keys == 500
        assert report.write_amplification > 1.0
        assert report.space_amplification >= 1.0

    def test_every_write_is_counted(self, monkeypatch):
        """Write amplification is (entries flushed + every merge's
        output, minor and major) / upserts."""
        outputs = []

        def counting(compact_step):
            def step(*args, **kwargs):
                result, replaced = compact_step(*args, **kwargs)
                outputs.append(result.stats.entries_out)
                return result, replaced

            return step

        for module in (ingestor_module, compactor_module):
            monkeypatch.setattr(module, "compact_step", counting(module.compact_step))
        cluster = overwrite_workload("tiering")
        ingestor = cluster.ingestors[0]
        flushed = 4_000 - len(ingestor._memtable)
        assert ingestor.stats.minor_compactions and cluster.compactors[0].stats.compactions
        report = measure_cluster(cluster)
        assert report.write_amplification == (flushed + sum(outputs)) / 4_000
