"""Integration tests for the single-machine LSM tree: the paper's
monolithic baseline, one Ingestor and one Compactor placed on one
machine (:data:`repro.core.MONOLITH`), driven through a client."""

import random
from dataclasses import replace

import pytest

from repro.core import MONOLITH, ClusterSpec, CooLSMConfig, build_cluster
from repro.lsm.entry import encode_key
from repro.lsm.errors import InvalidConfigError

from tests.core.conftest import TINY

SMALL = replace(
    TINY, memtable_entries=16, sstable_entries=8, l0_threshold=2, l1_threshold=2, l2_threshold=4
)


class Tree:
    """Synchronous put/get/delete/scan over the single-machine deployment."""

    def __init__(self, config: CooLSMConfig = SMALL) -> None:
        self.cluster = build_cluster(ClusterSpec(config=config, placement=MONOLITH))
        self.client = self.cluster.add_client(colocate_with="ingestor-0")
        self.ingestor, self.compactor = self.cluster.ingestors[0], self.cluster.compactors[0]

    def _run(self, operation):
        result = self.cluster.run_process(operation)
        self.cluster.run()  # drain flushes, forwards and merges
        return result

    def put(self, key, value):
        self._run(self.client.upsert(key, value))

    def put_all(self, pairs):
        def driver():
            for key, value in pairs:
                yield from self.client.upsert(key, value)

        self._run(driver())

    def delete(self, key):
        self._run(self.client.delete(key))

    def get(self, key):
        return self._run(self.client.read(key))

    def scan(self, lo=0, hi=10_000):
        return self._run(self.client.scan(lo, hi))

    def level_sizes(self):
        return [*self.ingestor.manifest.level_sizes(), *self.compactor.manifest.level_sizes()]


class TestConfig:
    def test_paper_presets(self):
        for key_range, (l2, l3) in ((100_000, (100, 1_000)), (300_000, (300, 3_000))):
            config = CooLSMConfig.for_key_range(key_range)
            thresholds = (config.l0_threshold, config.l1_threshold)
            assert thresholds + (config.l2_threshold, config.l3_threshold) == (10, 10, l2, l3)

    def test_invalid_configs_rejected(self):
        with pytest.raises(InvalidConfigError):
            CooLSMConfig(memtable_entries=0)
        with pytest.raises(InvalidConfigError):
            CooLSMConfig(l1_threshold=0)
        with pytest.raises(InvalidConfigError):
            ClusterSpec(config=SMALL, num_compactors=0, placement=MONOLITH)


class TestBasicOps:
    def test_put_get(self):
        tree = Tree()
        tree.put(b"k", b"v")
        assert tree.get(b"k") == b"v"

    def test_get_missing(self):
        assert Tree().get(b"nope") is None

    def test_overwrite(self):
        tree = Tree()
        tree.put("k", b"v1")
        tree.put("k", b"v2")
        assert tree.get("k") == b"v2"

    def test_delete(self):
        tree = Tree()
        tree.put("k", b"v")
        tree.delete("k")
        assert tree.get("k") is None

    def test_delete_survives_compaction(self):
        tree = Tree()
        tree.put("k", b"v")
        tree.put_all((i, b"filler-%d" % i) for i in range(500))
        tree.delete("k")
        tree.put_all((i, b"filler-%d" % i) for i in range(500, 1000))
        assert tree.compactor.stats.compactions
        assert tree.get("k") is None

    def test_int_and_str_keys(self):
        tree = Tree()
        tree.put(42, b"int")
        tree.put("42str", b"str")
        assert tree.get(42) == b"int"
        assert tree.get("42str") == b"str"


class TestCompactionBehaviour:
    def test_cascade_keeps_levels_bounded(self):
        tree = Tree()
        tree.put_all((i % 200, b"v%d" % i) for i in range(3_000))
        sizes = tree.level_sizes()
        assert sizes[0] <= SMALL.l0_threshold
        assert sizes[1] <= SMALL.l1_threshold
        assert sizes[2] <= SMALL.l2_threshold

    def test_reads_correct_under_heavy_churn(self):
        tree = Tree()
        rng = random.Random(42)
        oracle = {}

        def driver():
            for i in range(5_000):
                key = rng.randrange(300)
                if rng.random() < 0.1:
                    yield from tree.client.delete(key)
                    oracle.pop(key, None)
                else:
                    value = b"v-%d" % i
                    yield from tree.client.upsert(key, value)
                    oracle[key] = value
            misses = 0
            for key in range(300):
                misses += (yield from tree.client.read(key)) != oracle.get(key)
            return misses

        assert tree._run(driver()) == 0

    def test_compaction_events_recorded(self):
        tree = Tree()
        tree.put_all((i, b"v") for i in range(2_000))
        assert tree.ingestor.stats.minor_compactions > 0
        assert {timing.level for timing in tree.compactor.stats.compactions} == {2, 3}

    def test_flush_empty_memtable_is_noop(self):
        tree = Tree()
        tree._run(tree.ingestor._flush_and_compact())
        assert tree.ingestor.stats.flushes == 0
        assert tree.level_sizes() == [0, 0, 0, 0]


class TestScan:
    def test_scan_is_sorted_and_deduped(self):
        tree = Tree()
        tree.put_all((i % 100, b"v%d" % i) for i in range(500))
        keys = [k for k, __ in tree.scan()]
        assert keys == sorted(keys)
        assert len(keys) == 100

    def test_bounded_scan(self):
        tree = Tree()
        tree.put_all((i, b"v%d" % i) for i in range(100))
        pairs = tree.scan(20, 30)
        assert len(pairs) == 10
        assert pairs[0][1] == b"v20"

    def test_scan_elides_tombstones(self):
        tree = Tree()
        tree.put_all((i, b"v") for i in range(50))
        tree.delete(25)
        assert encode_key(25) not in {k for k, __ in tree.scan()}

    def test_len_counts_live_keys(self):
        tree = Tree()
        tree.put_all((i, b"v") for i in range(30))
        tree.delete(0)
        assert len(tree.scan()) == 29
