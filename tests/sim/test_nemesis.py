"""Unit tests for the nemesis fault-injection subsystem."""

from repro.chaos_events import expected_fingerprint
from repro.core import ClusterSpec, build_cluster
from repro.sim import (
    CrashNode,
    DropBurst,
    Nemesis,
    PartitionPair,
    SkewClock,
    SlowMachine,
    flapping_partition,
    rolling_partitions,
)

from tests.core.conftest import TINY


def small_cluster(seed=0, **overrides):
    params = dict(
        config=TINY, num_ingestors=1, num_compactors=2, num_readers=1, seed=seed
    )
    params.update(overrides)
    return build_cluster(ClusterSpec(**params))


def run_scenario(cluster, events, slack=5.0):
    nemesis = Nemesis.for_cluster(cluster)
    nemesis.schedule(events)
    horizon = max(e.at for e in events) + slack
    cluster.run(until=horizon)
    assert nemesis.done()
    return nemesis


class TestCrashNode:
    def test_crash_and_restart(self):
        cluster = small_cluster()
        node = cluster.ingestors[0]
        nemesis = run_scenario(
            cluster, [CrashNode("ingestor-0", at=1.0, downtime=2.0)]
        )
        assert not node.crashed  # restarted
        assert nemesis.log.count("crash") == 1
        assert nemesis.log.count("recover") == 1
        actions = [(r.action, r.target) for r in nemesis.log]
        assert actions == [("crash", "ingestor-0"), ("recover", "ingestor-0")]
        times = [r.time for r in nemesis.log]
        assert times == [1.0, 3.0]

    def test_permanent_crash(self):
        cluster = small_cluster()
        nemesis = run_scenario(cluster, [CrashNode("reader-0", at=0.5)])
        assert cluster.readers[0].crashed
        assert nemesis.log.count("crash") == 1
        assert nemesis.log.count("recover") == 0

    def test_overlapping_crashes_are_one_outage(self):
        # The node is down while either window is open: the first
        # window's end must not bring it back under the second.
        cluster = small_cluster()
        node = cluster.ingestors[0]
        events = [
            CrashNode("ingestor-0", at=1.0, downtime=2.0),
            CrashNode("ingestor-0", at=2.0, downtime=2.0),
        ]
        nemesis = Nemesis.for_cluster(cluster)
        nemesis.schedule(events)
        cluster.run(until=3.5)
        assert node.crashed
        cluster.run(until=6.0)
        assert not node.crashed
        assert [(r.time, r.action) for r in nemesis.log] == [
            (1.0, "crash"),
            (4.0, "recover"),
        ]
        assert nemesis.log.canonical_fingerprint() == expected_fingerprint(events)

    def test_recover_never_replays_into_an_up_node(self):
        # A node that is already up is never recovered again: the
        # second window opened while the first held it down.
        cluster = small_cluster()
        node = cluster.ingestors[0]
        recover, was_down = node.recover, []

        def checked_recover():
            was_down.append(node.crashed)
            recover()

        node.recover = checked_recover
        run_scenario(
            cluster,
            [
                CrashNode("ingestor-0", at=1.0, downtime=3.0),
                CrashNode("ingestor-0", at=2.0, downtime=0.5),
            ],
        )
        assert was_down == [True]


class TestPartitionAndDrops:
    def test_partition_applied_and_healed(self):
        cluster = small_cluster()
        nemesis = Nemesis.for_cluster(cluster)
        nemesis.schedule(
            [PartitionPair("m-ingestor-0", "m-compactor-0", at=1.0, duration=2.0)]
        )
        cluster.run(until=2.0)
        assert cluster.network.faults.is_partitioned(
            "m-ingestor-0", "m-compactor-0"
        )
        cluster.run(until=4.0)
        assert not cluster.network.faults.is_partitioned(
            "m-ingestor-0", "m-compactor-0"
        )
        assert nemesis.log.count("partition") == 1
        assert nemesis.log.count("heal") == 1

    def test_overlapping_partitions_are_one_cut(self):
        cluster = small_cluster()
        events = [
            PartitionPair("m-compactor-0", "m-compactor-1", at=1.0, duration=2.0),
            PartitionPair("m-compactor-0", "m-compactor-1", at=2.0, duration=2.0),
        ]
        nemesis = Nemesis.for_cluster(cluster)
        nemesis.schedule(events)
        cluster.run(until=3.5)
        assert cluster.network.faults.is_partitioned("m-compactor-0", "m-compactor-1")
        cluster.run(until=6.0)
        assert not cluster.network.faults.is_partitioned(
            "m-compactor-0", "m-compactor-1"
        )
        assert [(r.time, r.action) for r in nemesis.log] == [
            (1.0, "partition"),
            (4.0, "heal"),
        ]

    def test_drop_burst_restores_previous_probability(self):
        cluster = small_cluster(drop_probability=0.01)
        nemesis = Nemesis.for_cluster(cluster)
        nemesis.schedule([DropBurst(0.4, at=1.0, duration=1.0)])
        cluster.run(until=1.5)
        assert cluster.network.faults.drop_probability == 0.4
        cluster.run(until=3.0)
        assert cluster.network.faults.drop_probability == 0.01
        assert nemesis.log.count("drop_burst") == 1


class TestGrayFailures:
    def test_slow_machine_restores_speed(self):
        cluster = small_cluster()
        machine = cluster.machines["m-compactor-0"]
        original = machine.speed
        nemesis = Nemesis.for_cluster(cluster)
        nemesis.schedule([SlowMachine("m-compactor-0", at=1.0, duration=1.0, factor=4.0)])
        cluster.run(until=1.5)
        assert machine.speed == original / 4.0
        cluster.run(until=3.0)
        assert machine.speed == original
        assert nemesis.log.count("slow") == 1

    def test_overlapping_faults_revert_to_base(self):
        # A second fault of one kind starting inside the first must not
        # capture (and, ending last, re-apply) the first one's value.
        cluster = small_cluster(num_compactors=1, num_readers=0)
        machine = cluster.machines["m-compactor-0"]
        base_speed = machine.speed
        events = [
            DropBurst(0.3, at=0.0, duration=2.0),
            DropBurst(0.2, at=1.0, duration=2.0),
            SlowMachine("m-compactor-0", at=0.0, duration=2.0, factor=2.0),
            SlowMachine("m-compactor-0", at=1.0, duration=2.0, factor=4.0),
        ]
        nemesis = Nemesis.for_cluster(cluster)
        nemesis.schedule(events)
        # After the first window ends, the second still holds its value.
        cluster.run(until=2.5)
        assert cluster.network.faults.drop_probability == 0.2
        assert machine.speed == base_speed / 4.0
        cluster.run(until=5.0)
        assert cluster.network.faults.drop_probability == 0.0
        assert machine.speed == base_speed
        assert nemesis.log.canonical_fingerprint() == expected_fingerprint(events)
        assert nemesis.log.count("drop_restore") == 1
        assert nemesis.log.count("restore_speed") == 1

    def test_clock_skew_spike(self):
        cluster = small_cluster()
        clock = cluster.clocks["ingestor-0"]
        nemesis = Nemesis.for_cluster(cluster)
        nemesis.schedule([SkewClock("ingestor-0", at=1.0, duration=1.0, skew=0.5)])
        cluster.run(until=1.5)
        skewed = clock.offset()
        cluster.run(until=3.0)
        recovered = clock.offset()
        # The injected half-second dwarfs the configured drift (δ = 5 ms).
        assert skewed - recovered > 0.4
        assert nemesis.log.count("skew") == 1


class TestScenarioHelpers:
    def test_flapping_partition(self):
        events = flapping_partition("a", "b", at=1.0, up=0.5, down=0.25, flaps=3)
        assert [e.at for e in events] == [1.0, 1.75, 2.5]
        assert all(e.duration == 0.25 for e in events)

    def test_rolling_partitions(self):
        events = rolling_partitions(["a", "b", "c"], "cloud", at=0.0, duration=1.0, gap=0.5)
        assert [(e.machine_a, e.at) for e in events] == [
            ("a", 0.0),
            ("b", 1.5),
            ("c", 3.0),
        ]
        assert all(e.machine_b == "cloud" for e in events)


class TestRandomSchedule:
    def test_same_seed_same_scenario(self):
        a = Nemesis.for_cluster(small_cluster(seed=9)).random_schedule(
            horizon=5.0, crashes=3, partitions=2, drop_bursts=1, slowdowns=1, skews=1
        )
        b = Nemesis.for_cluster(small_cluster(seed=9)).random_schedule(
            horizon=5.0, crashes=3, partitions=2, drop_bursts=1, slowdowns=1, skews=1
        )
        assert a == b

    def test_different_seed_different_scenario(self):
        a = Nemesis.for_cluster(small_cluster(seed=1)).random_schedule(horizon=5.0)
        b = Nemesis.for_cluster(small_cluster(seed=2)).random_schedule(horizon=5.0)
        assert a != b

    def test_schedule_sorted_and_typed(self):
        events = Nemesis.for_cluster(small_cluster(seed=3)).random_schedule(
            horizon=5.0, crashes=2, partitions=2, drop_bursts=1, slowdowns=1, skews=1
        )
        assert [e.at for e in events] == sorted(e.at for e in events)
        kinds = {type(e).__name__ for e in events}
        assert kinds == {
            "CrashNode",
            "PartitionPair",
            "DropBurst",
            "SlowMachine",
            "SkewClock",
        }

    def test_random_scenario_runs_and_reverts(self):
        cluster = small_cluster(seed=5)
        nemesis = Nemesis.for_cluster(cluster)
        events = nemesis.random_schedule(horizon=3.0, crashes=2, partitions=1)
        nemesis.schedule(events)
        cluster.run(until=10.0)
        assert nemesis.done()
        # Everything reverted: no node still down, no partition open.
        for node in nemesis.nodes.values():
            assert not node.crashed
