"""Tests for the deployment builder and the monolithic baseline."""

import ast
from pathlib import Path

import pytest

import repro
from repro.core import MONOLITH, ClusterSpec, build_cluster
from repro.lsm.errors import InvalidConfigError
from repro.sim.regions import Region

from tests.core.conftest import TINY, fill, tiny_cluster


class TestBuilder:
    def test_standard_topology(self):
        cluster = tiny_cluster(num_ingestors=2, num_compactors=3, num_readers=1)
        assert len(cluster.ingestors) == 2
        assert len(cluster.compactors) == 3
        assert len(cluster.readers) == 1
        assert len(cluster.partitioning.partitions) == 3

    def test_multi_ingestor_flag_derived(self):
        assert not tiny_cluster(num_ingestors=1).spec.multi_ingestor
        assert tiny_cluster(num_ingestors=2).spec.multi_ingestor

    def test_ingestor_placement(self):
        cluster = tiny_cluster(
            num_ingestors=2,
            ingestor_regions=(Region.CALIFORNIA, Region.LONDON),
        )
        regions = [node.machine.region for node in cluster.ingestors]
        assert regions == [Region.CALIFORNIA, Region.LONDON]

    def test_compactors_in_cloud(self):
        cluster = tiny_cluster(num_compactors=2)
        for node in cluster.compactors:
            assert node.machine.region == Region.VIRGINIA

    def test_shared_ingestor_machine(self):
        shared = {f"ingestor-{i}": "m-ingestors" for i in range(3)}
        cluster = tiny_cluster(num_ingestors=3, placement=shared)
        machines = {node.machine for node in cluster.ingestors}
        assert [machine.name for machine in machines] == ["m-ingestors"]
        assert {node.machine.name for node in cluster.compactors} == {
            "m-compactor-0", "m-compactor-1"
        }

    def test_placement_names_known_nodes(self):
        with pytest.raises(InvalidConfigError, match="ingestor-1"):
            ClusterSpec(config=TINY, placement={"ingestor-1": "m-shared"})

    def test_dedicated_ingestor_machines(self):
        cluster = tiny_cluster(num_ingestors=3)
        machines = {node.machine.name for node in cluster.ingestors}
        assert len(machines) == 3

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvalidConfigError):
            build_cluster(ClusterSpec(config=TINY, num_compactors=0))
        with pytest.raises(InvalidConfigError):
            build_cluster(
                ClusterSpec(config=TINY, num_compactors=3, compactor_replicas=2)
            )

    def test_client_colocation(self):
        cluster = tiny_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")
        assert client.machine is cluster.ingestors[0].machine

    def test_client_own_machine(self):
        cluster = tiny_cluster()
        client = cluster.add_client(region=Region.LONDON)
        assert client.machine.region == Region.LONDON

    def test_distinct_clocks_per_node(self):
        cluster = tiny_cluster(num_ingestors=2)
        clocks = [node.clock for node in cluster.ingestors]
        cluster.kernel.now = 50.0
        assert clocks[0].now() != clocks[1].now()

    def test_determinism(self):
        def run_once():
            cluster = tiny_cluster(num_compactors=2, seed=7)
            client = cluster.add_client(colocate_with="ingestor-0")
            cluster.run_process(fill(cluster, client, 1_500))
            return (
                cluster.kernel.now,
                client.stats.all("write"),
                [c.manifest.level_sizes() for c in cluster.compactors],
            )

        assert run_once() == run_once()


class TestMonolithic:
    """The paper's baseline: one Ingestor and one Compactor on one
    machine, sharing its cores, over loopback."""

    def build(self):
        cluster = build_cluster(ClusterSpec(config=TINY, placement=MONOLITH))
        client = cluster.add_client(colocate_with="ingestor-0")
        return cluster, client

    def test_one_machine(self):
        cluster, client = self.build()
        assert list(cluster.machines) == ["m-monolith"]
        assert cluster.compactors[0].machine is client.machine

    def test_write_read_roundtrip(self):
        cluster, client = self.build()

        def driver():
            oracle = {}
            for i in range(2_000):
                key = i % 400
                value = b"m-%d" % i
                yield from client.upsert(key, value)
                oracle[key] = value
            misses = 0
            for key, value in oracle.items():
                got = yield from client.read(key)
                misses += got != value
            return misses

        assert cluster.run_process(driver()) == 0

    def test_tree_levels_populated(self):
        cluster, client = self.build()
        cluster.run_process(fill(cluster, client, 3_000))
        sizes = [
            *cluster.ingestors[0].manifest.level_sizes(),
            *cluster.compactors[0].manifest.level_sizes(),
        ]
        assert sum(sizes) > 0
        assert sizes[2] + sizes[3] > 0  # data reached L2/L3

    def test_compaction_delays_triggering_write(self):
        """Monolithic writes that trigger compaction are slow — the
        interference CooLSM's deconstruction removes."""
        cluster, client = self.build()
        cluster.run_process(fill(cluster, client, 3_000))
        latencies = client.stats.all("write")
        assert max(latencies) > 20 * (sum(latencies) / len(latencies))

    def test_monolithic_slower_than_distributed_on_average(self):
        cluster, client = self.build()
        cluster.run_process(fill(cluster, client, 4_000))
        mono_mean = sum(client.stats.all("write")) / 4_000

        dist = tiny_cluster(num_compactors=3)
        dist_client = dist.add_client(colocate_with="ingestor-0")
        dist.run_process(fill(dist, dist_client, 4_000))
        dist_mean = sum(dist_client.stats.all("write")) / 4_000
        assert dist_mean < mono_mean


def test_upsert_is_handled_only_by_the_ingestor():
    # One LSM engine: every deployment, the single-machine baseline
    # included, takes writes through the Ingestor's handler.
    root = Path(repro.__file__).parent
    registrars = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "on"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == "upsert"
            ):
                registrars.add(path.relative_to(root).as_posix())
    assert registrars == {"core/ingestor.py"}
