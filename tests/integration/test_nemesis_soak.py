"""Chaos soak: composed faults, zero acked-write loss, replayable runs.

The ISSUE's acceptance scenario: while a client keeps writing, the
nemesis crashes and restarts the Ingestor, partitions a Compactor from
the edge and heals it, crashes the Reader mid-propagation, and raises
the drop rate in a burst.  Afterwards:

* every acked write is readable (zero acked-write loss);
* the Table I checkers pass on the observed history;
* the Reader has converged back onto every Compactor's state;
* the whole run — fault log, history, network counters — replays
  bit-identically from the seed.
"""

from dataclasses import replace

from repro.core import (
    ClusterSpec,
    build_cluster,
    check_linearizable,
    check_snapshot_linearizable,
)
from repro.sim import CrashNode, DropBurst, Nemesis, PartitionPair
from repro.sim.rpc import RemoteError, RpcTimeout

from tests.core.conftest import TINY

#: Tight timeouts so failure handling (not waiting) dominates the run.
SOAK = replace(TINY, ack_timeout=0.2, client_timeout=0.5, client_retry_budget=4)

#: The combined acceptance scenario (times in simulation seconds).
SCENARIO = [
    CrashNode("ingestor-0", at=0.6, downtime=0.8),
    PartitionPair("m-compactor-0", "m-ingestor-0", at=2.0, duration=0.8),
    DropBurst(0.3, at=3.2, duration=0.8),
    CrashNode("reader-0", at=4.2, downtime=0.6),
]


def build_soak_cluster(seed):
    return build_cluster(
        ClusterSpec(
            config=SOAK,
            num_ingestors=1,
            num_compactors=2,
            num_readers=1,
            seed=seed,
            drop_probability=0.02,
        )
    )


def chaos_writer(cluster, client, ops, acked, key_range=300, pace=0.004):
    """Write ``ops`` values, retrying each until acked; records every
    acked (key, value) in ``acked``.  Retries reuse the same value, so
    an earlier attempt that was applied-but-unacked can never surface a
    value outside the recorded history.  ``pace`` spreads the workload
    across simulation time so it overlaps the fault schedule (un-paced,
    the whole run finishes before the first fault fires)."""

    def driver():
        for i in range(ops):
            key = i % key_range
            value = b"soak-%d" % i
            while True:
                try:
                    yield from client.upsert(key, value)
                    break
                except (RpcTimeout, RemoteError):
                    continue
            acked[key] = value
            yield cluster.kernel.timeout(pace)

    return driver


def run_soak(seed, ops=1_200):
    cluster = build_soak_cluster(seed)
    client = cluster.add_client(colocate_with="ingestor-0")
    nemesis = Nemesis.for_cluster(cluster)
    processes = nemesis.schedule(SCENARIO)
    acked: dict[int, bytes] = {}
    writer = cluster.kernel.spawn(chaos_writer(cluster, client, ops, acked)())

    def barrier():
        yield cluster.kernel.all_of([writer, *processes])

    cluster.run_process(barrier())
    cluster.run()  # drain: forwards, compactions, backup updates, resync
    assert nemesis.done()
    return cluster, client, nemesis, acked


def read_back(cluster, client, acked):
    def verify():
        missing = []
        for key, value in sorted(acked.items()):
            got = yield from client.read(key)
            if got != value:
                missing.append(key)
        return missing

    return cluster.run_process(verify())


class TestSoakScenario:
    def test_no_acked_write_lost(self):
        cluster, client, nemesis, acked = run_soak(seed=101)
        # The scenario actually exercised every fault family it names.
        assert nemesis.log.count("crash") == 2
        assert nemesis.log.count("recover") == 2
        assert nemesis.log.count("partition") == 1
        assert nemesis.log.count("heal") == 1
        assert nemesis.log.count("drop_burst") == 1
        # The client felt the faults (timeouts, not silent hangs)...
        assert client.stats.timeouts > 0
        # ...yet every acked write survives.
        assert read_back(cluster, client, acked) == []

    def test_cache_stays_coherent_across_chaos(self):
        """Crash/recovery must never serve stale cached rows: a second
        read pass — served largely from the post-chaos caches — must
        agree with the oracle exactly, and every node's cache counters
        must stay internally consistent and within capacity."""
        from repro.core import ClusterMonitor

        cluster, client, __, acked = run_soak(seed=104)
        assert read_back(cluster, client, acked) == []  # warms caches
        assert read_back(cluster, client, acked) == []  # served from them
        for node in (*cluster.ingestors, *cluster.compactors, *cluster.readers):
            cache = node.read_cache
            if cache is None:
                continue
            stats = cache.stats
            assert stats.lookups == stats.hits + stats.misses
            assert 0.0 <= stats.hit_rate <= 1.0
            assert len(cache) <= cache.capacity
        monitor = ClusterMonitor(cluster)
        monitor.sample_once()
        assert "cache_hits" in monitor.timeline.gauges()

    def test_table1_checkers_pass(self):
        cluster, client, __, acked = run_soak(seed=102)
        assert read_back(cluster, client, acked) == []
        report = check_linearizable(cluster.history)
        assert report.ok, report.violations[:3]

    def test_reader_converges_after_chaos(self):
        cluster, __, ___, ____ = run_soak(seed=103)
        reader = cluster.readers[0]
        for compactor in cluster.compactors:
            reader_state = {
                (e.key, e.version)
                for level_index in (0, 1)
                for t in reader._areas.get(compactor.name).level(level_index)
                for e in t.entries
            }
            compactor_state = {
                (e.key, e.version)
                for level in (compactor.level2, compactor.level3)
                for t in level
                for e in t.entries
            }
            assert reader_state == compactor_state

    def test_reader_snapshot_serves_no_garbage(self):
        """Backup reads issued *during* the chaos — including while the
        Reader crashes and catches back up — stay snapshot
        linearizable: values only ever advance along the write order."""
        from repro.core import History

        cluster = build_soak_cluster(seed=104)
        client = cluster.add_client(colocate_with="ingestor-0")
        analyst = cluster.add_client(
            region=cluster.spec.cloud_region, record_history=False
        )
        backup_history = History()
        analyst.history = backup_history
        nemesis = Nemesis.for_cluster(cluster)
        processes = nemesis.schedule(SCENARIO)
        acked: dict[int, bytes] = {}
        writer = cluster.kernel.spawn(chaos_writer(cluster, client, 1_200, acked)())

        def analyst_driver():
            for i in range(400):
                try:
                    yield from analyst.read_from_backup(i % 300)
                except (RpcTimeout, RemoteError):
                    pass  # reader down: bounded failure, try again later
                yield cluster.kernel.timeout(0.012)

        reads = cluster.kernel.spawn(analyst_driver())

        def barrier():
            yield cluster.kernel.all_of([writer, reads, *processes])

        cluster.run_process(barrier())
        cluster.run()
        report = check_snapshot_linearizable(cluster.history, backup_history)
        assert report.ok, report.violations[:3]
        served = [op for op in backup_history.reads() if op.value]
        assert served, "backup never returned data"


def soak_fingerprint(cluster, client, nemesis, acked):
    return (
        cluster.kernel.now,
        nemesis.log.fingerprint(),
        tuple(sorted(acked.items())),
        tuple(
            (op.kind, op.key, op.value, op.invoked_at, op.timestamp)
            for op in cluster.history
        ),
        (
            cluster.network.stats.messages_sent,
            cluster.network.stats.bytes_sent,
            cluster.network.stats.drops,
        ),
        (client.stats.timeouts, client.stats.failovers),
        tuple(
            (i.name, i.stats.forward_retries, i.stats.forward_failovers)
            for i in cluster.ingestors
        ),
        tuple(
            (c.name, c.stats.duplicate_forwards, c.manifest.total_entries())
            for c in cluster.compactors
        ),
        tuple(
            (r.name, r.stats.gaps_detected, r.stats.catchups)
            for r in cluster.readers
        ),
    )


class TestDeterminismUnderChaos:
    def test_same_seed_same_run(self):
        a = soak_fingerprint(*run_soak(seed=77))
        b = soak_fingerprint(*run_soak(seed=77))
        assert a == b

    def test_different_seed_different_run(self):
        a = soak_fingerprint(*run_soak(seed=77))
        b = soak_fingerprint(*run_soak(seed=78))
        assert a != b

    def test_replicated_failover_deterministic(self):
        """Determinism extends to elections: same seed, same promotion
        sequence and FailoverStats."""

        def run(seed):
            cluster = build_cluster(
                ClusterSpec(
                    config=SOAK,
                    num_compactors=1,
                    num_readers=0,
                    tolerated_failures=1,
                    seed=seed,
                )
            )
            client = cluster.add_client(colocate_with="ingestor-0")
            nemesis = Nemesis.for_cluster(cluster)
            nemesis.schedule([CrashNode("compactor-0", at=1.5)])
            acked: dict[int, bytes] = {}
            writer = cluster.kernel.spawn(
                chaos_writer(cluster, client, 800, acked)()
            )
            cluster.run(until=60.0)
            assert writer.triggered
            group = cluster.replica_groups[0]
            return (
                nemesis.log.fingerprint(),
                tuple(sorted(acked.items())),
                (group.stats.suspicions, group.stats.elections_started,
                 group.stats.promotions, tuple(group.stats.leader_changes)),
                cluster.network.stats.messages_sent,
            )

        a = run(55)
        b = run(55)
        assert a == b
        assert a[2][2] >= 1  # the crash really did cause a promotion


class TestRandomChaos:
    def test_seeded_random_scenario_safe(self):
        """A randomly drawn (but seeded) scenario over crash-restarts and
        drop bursts still loses nothing."""
        cluster = build_soak_cluster(seed=301)
        client = cluster.add_client(colocate_with="ingestor-0")
        nemesis = Nemesis.for_cluster(cluster)
        events = nemesis.random_schedule(
            horizon=4.0,
            crashes=3,
            partitions=1,
            drop_bursts=1,
            slowdowns=1,
            mean_downtime=0.4,
            crash_targets=["ingestor-0", "reader-0"],
        )
        processes = nemesis.schedule(events)
        acked: dict[int, bytes] = {}
        writer = cluster.kernel.spawn(chaos_writer(cluster, client, 800, acked)())

        def barrier():
            yield cluster.kernel.all_of([writer, *processes])

        cluster.run_process(barrier())
        cluster.run()
        assert read_back(cluster, client, acked) == []
