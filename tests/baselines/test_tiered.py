"""The universal-compaction (RocksDB-like) reference engine is the
single-machine deployment under the ``tiering`` policy.  Its read/scan
results are pinned against a dict model, with every other policy, by
``tests/test_compaction_policies.py``; these tests cover what is
particular to stacking runs."""

from dataclasses import replace

from repro.lsm.amplification import measure_cluster

from tests.baselines.test_nodes import build
from tests.core.conftest import TINY, fill

#: Small tables, so runs stack within a few hundred writes.
SMALL = replace(TINY, memtable_entries=16, sstable_entries=8, l2_threshold=4)


def rocksdb(writes=(), key_range=None):
    """A drained RocksDB-like engine after ``fill``-ing ``writes`` puts
    over ``key_range`` keys."""
    cluster, client = build("rocksdb", SMALL)
    if writes:
        cluster.run_process(fill(cluster, client, writes, key_range=key_range))
        cluster.run()
    return cluster, client


def run(cluster, client, ops):
    """Apply ``ops`` — ``(key, value)``, ``value`` None for a delete —
    then read ``"k"`` back."""

    def driver():
        for key, value in ops:
            if value is None:
                yield from client.delete(key)
            else:
                yield from client.upsert(key, value)
        return (yield from client.read("k"))

    return cluster.run_process(driver())


class TestAcrossRuns:
    def test_overwrite_across_runs(self):
        cluster, client = rocksdb()
        fills = [(i, b"fill") for i in range(100)]
        more = [(100 + i, b"fill") for i in range(100)]
        ops = [("k", b"old"), *fills, ("k", b"new"), *more]
        assert run(cluster, client, ops) == b"new"

    def test_delete_across_runs(self):
        cluster, client = rocksdb()
        fills = [(i, b"fill") for i in range(50)]
        more = [(50 + i, b"fill") for i in range(50)]
        assert run(cluster, client, [("k", b"v"), *fills, ("k", None), *more]) is None


class TestCompaction:
    def test_upper_levels_bounded(self):
        cluster, __ = rocksdb(2_000, key_range=300)
        ingestor, compactor = cluster.ingestors[0], cluster.compactors[0]
        config = ingestor.config
        assert len(ingestor.level0) <= config.l0_threshold
        assert len(ingestor.level1) <= config.l1_threshold
        assert len(compactor.level2) <= config.l2_threshold

    def test_compactions_recorded(self):
        cluster, __ = rocksdb(2_000, key_range=300)
        assert cluster.ingestors[0].stats.minor_compactions
        assert cluster.compactors[0].stats.compactions
        assert all(t.entries_merged for t in cluster.compactors[0].stats.compactions)

    def test_space_amplification_exists(self):
        """Tiering retains duplicate versions across runs (the trade-off
        the paper's Related Work describes)."""
        cluster, __ = rocksdb(3_000, key_range=50)  # heavy overwrites
        report = measure_cluster(cluster)
        assert report.entries_stored > report.live_keys
