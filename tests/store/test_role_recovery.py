"""Role recovery through NodeStore, on the deterministic sim kernel.

Each test runs a workload against a cluster whose nodes have durable
stores attached, throws the whole cluster away (the SIGKILL analog:
no drain, no flush), rebuilds a fresh cluster over the same data
directories, and asserts the recovered processes carry on — no acked
write lost, dedup intact, counters monotone.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.lsm.errors import CorruptionError
from repro.store import NodeStore
from tests.core.conftest import TINY, fill, tiny_cluster


def attach_all(cluster, root) -> list[NodeStore]:
    stores = []
    for node in [*cluster.ingestors, *cluster.compactors, *cluster.readers]:
        store = NodeStore.open(
            str(root / node.name),
            node_name=node.name,
            role=node.name.rsplit("-", 1)[0],
        )
        node.attach_store(store)
        stores.append(store)
    return stores


def read_all(client, oracle):
    misses = {}
    for key, value in oracle.items():
        got = yield from client.read(key)
        if got != value:
            misses[key] = (value, got)
    return misses


@pytest.fixture
def durable_run(tmp_path):
    """First life: 300 writes against a durable cluster, then abandon."""
    cluster = tiny_cluster()
    attach_all(cluster, tmp_path)
    client = cluster.add_client(colocate_with="ingestor-0")
    oracle = cluster.run_process(fill(cluster, client, 300, key_range=120))
    return cluster, oracle, tmp_path


def test_no_acked_write_lost_across_whole_cluster_crash(durable_run):
    __, oracle, root = durable_run
    revived = tiny_cluster()
    stores = attach_all(revived, root)
    assert all(store.recovered is not None for store in stores)
    client = revived.add_client(colocate_with="ingestor-0")
    misses = revived.run_process(read_all(client, oracle))
    assert misses == {}


def test_ingestor_counters_and_clock_survive(durable_run):
    cluster, __, root = durable_run
    before = cluster.ingestors[0]
    revived = tiny_cluster()
    attach_all(revived, root)
    after = revived.ingestors[0]
    assert after._seqno == before._seqno
    assert after._batch_seq == before._batch_seq
    assert after.ts_c == before.ts_c
    # The recovered clock must stamp new writes past the pre-crash
    # watermark even though the kernel's time restarted at zero.
    assert after.clock.now() > before._max_entry_ts

    client = revived.add_client(colocate_with="ingestor-0")
    revived.run_process(client.upsert(1, b"post-crash"))
    assert after._seqno > before._seqno

    def read_one():
        return (yield from client.read(1))

    assert revived.run_process(read_one()) == b"post-crash"


def test_compactor_dedup_table_survives(durable_run):
    cluster, __, root = durable_run
    before = {
        node.name: dict(node._completed_batches) for node in cluster.compactors
    }
    assert any(before.values()), "workload must complete at least one forward"
    revived = tiny_cluster()
    attach_all(revived, root)
    for node in revived.compactors:
        assert node._completed_batches == before[node.name]
        assert node._backup_seq >= cluster_backup_seq(cluster, node.name)


def cluster_backup_seq(cluster, name: str) -> int:
    return next(n._backup_seq for n in cluster.compactors if n.name == name)


def test_unacked_forwards_are_redelivered_not_double_merged(durable_run):
    cluster, oracle, root = durable_run
    in_flight = {
        batch_id: [t.table_id for t in pieces]
        for batch_id, pieces in cluster.ingestors[0]._in_flight.items()
    }
    revived = tiny_cluster()
    attach_all(revived, root)
    assert {
        batch_id: [t.table_id for t in pieces]
        for batch_id, pieces in revived.ingestors[0]._in_flight.items()
    } == in_flight
    # Run the redelivery to completion: every respawned forward either
    # dedups against the Compactor's recovered table or merges fresh.
    client = revived.add_client(colocate_with="ingestor-0")
    misses = revived.run_process(read_all(client, oracle))
    assert misses == {}
    assert revived.ingestors[0]._in_flight == {}


def test_reader_applied_seqs_and_areas_survive(tmp_path):
    cluster = tiny_cluster(num_readers=1)
    attach_all(cluster, tmp_path)
    client = cluster.add_client(colocate_with="ingestor-0")
    cluster.run_process(fill(cluster, client, 400, key_range=150))
    cluster.run(until=cluster.kernel.now + 5.0)  # let casts land
    before = cluster.readers[0]
    assert before._next_seq, "workload must cast at least one BackupUpdate"

    revived = tiny_cluster(num_readers=1)
    attach_all(revived, tmp_path)
    after = revived.readers[0]
    assert after._next_seq == before._next_seq
    for source in before._next_seq:
        recovered_ids = [
            [t.table_id for t in run] for run in after._area(source).snapshot()
        ]
        original_ids = [
            [t.table_id for t in run] for run in before._area(source).snapshot()
        ]
        assert recovered_ids == original_ids
    # attach_store spawned a catch-up per source; run it and the Reader
    # resumes from the recovered baseline.
    revived.run(until=revived.kernel.now + 5.0)
    assert revived.readers[0].stats.catchups >= 1


def test_reader_rebuilds_an_area_its_level_shape_rejects(tmp_path):
    """A persisted area that is no state of its Compactor's level shape
    (here: a tiering Reader's stacked runs, reopened under leveling) is
    skipped on attach, and the catch-up rebuilds it from the Compactor."""

    def stacked(area):
        for level in area.snapshot():
            run = sorted(level, key=lambda t: t.min_key)
            if any(b.min_key <= a.max_key for a, b in zip(run, run[1:])):
                return True
        return False

    tiered = tiny_cluster(
        config=replace(TINY, compaction_policy="tiering"), num_readers=1
    )
    attach_all(tiered, tmp_path)
    client = tiered.add_client(colocate_with="ingestor-0")
    tiered.run_process(fill(tiered, client, 1_500, key_range=1_000))
    tiered.run(until=tiered.kernel.now + 5.0)
    assert any(stacked(area) for area in tiered.readers[0]._areas.values())

    leveled = tiny_cluster(num_readers=1)
    reader = leveled.readers[0]
    reader.attach_store(
        NodeStore.open(str(tmp_path / reader.name), node_name=reader.name, role="reader")
    )
    client = leveled.add_client(colocate_with="ingestor-0")
    oracle = leveled.run_process(fill(leveled, client, 400, key_range=150, prefix=b"w"))
    leveled.run(until=leveled.kernel.now + 5.0)
    for compactor in leveled.compactors:
        assert [
            [t.table_id for t in run] for run in reader._area(compactor.name).snapshot()
        ] == [[t.table_id for t in run] for run in compactor.manifest.snapshot()]

    # Nothing the first life wrote is served: the Reader holds only
    # (lagging) values of the second.
    def read_back():
        values = set()
        for key in oracle:
            values.add((yield from client.read_from_backup(key)))
        return values

    assert {value[:2] for value in leveled.run_process(read_back()) - {None}} == {b"w-"}


def test_simulation_identical_with_and_without_store(tmp_path):
    def run_once(root=None):
        cluster = tiny_cluster()
        if root is not None:
            attach_all(cluster, root)
        client = cluster.add_client(colocate_with="ingestor-0")
        cluster.run_process(fill(cluster, client, 250, key_range=90))
        return cluster

    plain = run_once()
    durable = run_once(tmp_path)
    # Attaching storage must not perturb the simulated schedule: same
    # virtual clock, same flush/forward counts, same final counters.
    assert durable.kernel.now == plain.kernel.now
    assert durable.ingestors[0].stats == plain.ingestors[0].stats
    assert durable.ingestors[0]._seqno == plain.ingestors[0]._seqno
    for with_store, without in zip(durable.compactors, plain.compactors):
        assert with_store.stats == without.stats
        assert with_store._backup_seq == without._backup_seq


@pytest.mark.parametrize("role", ["ingestor", "compactor"])
def test_role_refuses_a_store_another_policy_wrote(tmp_path, role):
    """``NodeStore.open(policy=None)`` checks nothing, so the policy the
    role itself persisted in its state is the last line of defence: a
    leveled node must not adopt a tiered node's overlapping runs."""
    tiered = tiny_cluster(config=replace(TINY, compaction_policy="tiering"))
    attach_all(tiered, tmp_path)
    client = tiered.add_client(colocate_with="ingestor-0")
    tiered.run_process(fill(tiered, client, 300, key_range=120))

    leveled = tiny_cluster()
    node = getattr(leveled, role + "s")[0]
    store = NodeStore.open(str(tmp_path / node.name), node_name=node.name, role=role)
    assert store.recovered is not None
    with pytest.raises(CorruptionError, match="'tiering'.*'leveling'"):
        node.attach_store(store)


def test_health_reply_carries_each_nodes_store_gauges(durable_run):
    """The per-file-class write split is readable off the health RPC of
    every durable node (and absent from a store-less node's reply)."""
    from repro.core.messages import HealthPing

    def store_gauges(cluster, node):
        client = cluster.add_client(colocate_with="ingestor-0")

        def probe():
            return (yield client.call(node.name, "health", HealthPing(1), timeout=1.0))

        gauges = cluster.run_process(probe()).gauges
        return {k: v for k, v in gauges.items() if k.startswith("store_")}

    cluster, __, ___ = durable_run
    for node in [*cluster.ingestors, *cluster.compactors, *cluster.readers]:
        assert store_gauges(cluster, node) == node._store.gauges()
    assert min(cluster.ingestors[0]._store.gauges().values()) > 0
    bare = tiny_cluster()
    assert store_gauges(bare, bare.ingestors[0]) == {}
