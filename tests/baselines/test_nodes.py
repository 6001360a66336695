"""Tests for Figure 3's reference engines: the single-machine deployment
(one Ingestor and one Compactor on one machine) in LevelDB's shape,
under the leveled or the universal policy, paying a WAL fsync per write."""

import pytest

from repro.bench.experiments.fig3_write_scaling import (
    REFERENCE_POLICIES,
    WAL_SYNC_COST,
    reference_engine,
)
from repro.core import MONOLITH, ClusterSpec, build_cluster

from tests.core.conftest import TINY


def build(kind, config=TINY):
    engine = reference_engine(config, REFERENCE_POLICIES[kind])
    cluster = build_cluster(ClusterSpec(config=engine, placement=MONOLITH))
    return cluster, cluster.add_client(colocate_with="ingestor-0")


@pytest.mark.parametrize("kind", ["leveldb", "rocksdb"])
class TestEngines:
    def test_write_read_roundtrip(self, kind):
        cluster, client = build(kind)

        def driver():
            oracle = {}
            for i in range(1_500):
                key = i % 300
                value = b"%s-%d" % (kind.encode(), i)
                yield from client.upsert(key, value)
                oracle[key] = value
            misses = 0
            for key, value in oracle.items():
                got = yield from client.read(key)
                misses += got != value
            return misses

        assert cluster.run_process(driver()) == 0

    def test_write_latency_includes_sync(self, kind):
        cluster, client = build(kind)

        def driver():
            yield from client.upsert(1, b"v")

        cluster.run_process(driver())
        # One write: loopback RTT + upsert CPU + WAL fsync (~50us).
        assert client.stats.all("write")[0] >= WAL_SYNC_COST

    def test_compaction_work_charged(self, kind):
        cluster, client = build(kind)

        def driver():
            for i in range(3_000):
                yield from client.upsert(i % 400, b"x%d" % i)

        cluster.run_process(driver())
        latencies = client.stats.all("write")
        # Writes that trigger compaction are far slower than the median.
        assert max(latencies) > 10 * sorted(latencies)[len(latencies) // 2]
