"""Unit tests for the shared chaos vocabulary (:mod:`repro.chaos_events`).

The vocabulary is the contract between the two nemesis interpreters:
these tests pin the oracle (:func:`expected_records` /
:func:`expected_fingerprint`) and prove the *sim* interpreter satisfies
it; the live half of the parity claim is covered by
``tests/live/test_chaos.py`` and the chaos soak.
"""

import ast
import random
from pathlib import Path

import pytest

import repro
from repro.chaos_events import (
    CrashNode,
    DropBurst,
    FaultWindows,
    NemesisLog,
    PartitionPair,
    SkewClock,
    SlowMachine,
    check_targets,
    edges,
    expected_fingerprint,
    expected_records,
    random_schedule,
)
from repro.core import ClusterSpec, build_cluster
from repro.sim import Nemesis

from tests.core.conftest import TINY


class TestExpectedRecords:
    def test_crash_with_downtime(self):
        records = expected_records([CrashNode("ingestor-0", at=1.0, downtime=2.0)])
        assert records == [
            (1.0, "crash", "ingestor-0"),
            (3.0, "recover", "ingestor-0"),
        ]

    def test_permanent_crash_has_no_recover(self):
        assert expected_records([CrashNode("reader-0", at=0.5)]) == [
            (0.5, "crash", "reader-0")
        ]

    def test_partition_pair(self):
        records = expected_records([PartitionPair("m-a", "m-b", at=1.0, duration=0.5)])
        assert records == [
            (1.0, "partition", "m-a|m-b"),
            (1.5, "heal", "m-a|m-b"),
        ]

    def test_drop_burst_restores_base(self):
        records = expected_records(
            [DropBurst(0.4, at=1.0, duration=1.0)], base_drop_probability=0.01
        )
        assert records == [
            (1.0, "drop_burst", "p=0.4"),
            (2.0, "drop_restore", "p=0.01"),
        ]

    def test_slow_and_skew(self):
        records = expected_records(
            [
                SlowMachine("m-x", at=0.5, duration=1.0, factor=4.0),
                SkewClock("ingestor-0", at=0.125, duration=0.125, skew=0.5),
            ]
        )
        assert records == [
            (0.125, "skew", "ingestor-0"),
            (0.25, "unskew", "ingestor-0"),
            (0.5, "slow", "m-x"),
            (1.5, "restore_speed", "m-x"),
        ]

    def test_records_are_sorted(self):
        events = [
            CrashNode("b", at=2.0, downtime=0.1),
            CrashNode("a", at=1.0, downtime=5.0),
        ]
        records = expected_records(events)
        assert records == sorted(records)

    def test_unknown_event_rejected(self):
        with pytest.raises(TypeError):
            expected_records([object()])

    def test_overlapping_crashes_recover_once(self):
        records = expected_records(
            [
                CrashNode("ingestor-0", at=1.0, downtime=2.0),
                CrashNode("ingestor-0", at=2.0, downtime=2.0),
            ]
        )
        assert records == [(1.0, "crash", "ingestor-0"), (4.0, "recover", "ingestor-0")]

    def test_permanent_crash_outlasts_overlapping_window(self):
        records = expected_records(
            [
                CrashNode("reader-0", at=1.0),
                CrashNode("reader-0", at=2.0, downtime=1.0),
            ]
        )
        assert records == [(1.0, "crash", "reader-0")]

    def test_zero_length_window_opens_then_closes(self):
        events = [PartitionPair("m-a", "m-b", at=0.0, duration=0.0)]
        assert [(t, closing) for t, closing, __ in edges(events)] == [
            (0.0, False),
            (0.0, True),
        ]
        assert expected_records(events) == [
            (0.0, "heal", "m-a|m-b"),
            (0.0, "partition", "m-a|m-b"),
        ]

    def test_abutting_windows_open_before_the_close(self):
        # At one instant the sim kernel fires opens before closes, so a
        # window starting exactly when another ends keeps the node down.
        events = [
            CrashNode("x", at=2.0, downtime=1.0),
            CrashNode("x", at=1.0, downtime=1.0),
        ]
        assert expected_records(events) == [(1.0, "crash", "x"), (3.0, "recover", "x")]


class TestFaultWindows:
    def test_union_over_both_orders_of_a_pair(self):
        windows = FaultWindows()
        first = PartitionPair("m-a", "m-b", at=0.0, duration=2.0)
        second = PartitionPair("m-b", "m-a", at=1.0, duration=2.0)
        assert windows.open(first) == [("partition", "m-a|m-b", ("m-a", "m-b"))]
        assert windows.open(second) == []
        assert windows.close(first) == []
        assert windows.close(second) == [("heal", "m-b|m-a", ("m-b", "m-a"))]

    def test_latest_open_window_governs_the_value(self):
        windows = FaultWindows(base_drop_probability=0.01)
        older = DropBurst(0.3, at=0.0, duration=5.0)
        newer = DropBurst(0.2, at=1.0, duration=1.0)
        assert windows.open(older) == [("drop_burst", "p=0.3", 0.3)]
        assert windows.open(newer) == [("drop_burst", "p=0.2", 0.2)]
        # The newer window ends first: back to the older one's value.
        assert windows.close(newer) == [("drop_burst", "p=0.3", 0.3)]
        assert windows.close(older) == [("drop_restore", "p=0.01", 0.01)]

    def test_close_that_changes_nothing_is_empty(self):
        windows = FaultWindows()
        older = SlowMachine("m-x", at=0.0, duration=2.0, factor=2.0)
        newer = SlowMachine("m-x", at=1.0, duration=2.0, factor=4.0)
        same = SlowMachine("m-x", at=1.5, duration=0.5, factor=4.0)
        windows.open(older)
        windows.open(newer)
        assert windows.open(same) == []  # value already 4.0
        assert windows.close(older) == []  # not the governing window
        assert windows.close(same) == []  # newer still says 4.0
        assert windows.close(newer) == [("restore_speed", "m-x", 1.0)]

    def test_targets_are_independent(self):
        windows = FaultWindows()
        assert windows.open(SkewClock("a", at=0.0, duration=1.0, skew=0.1)) == [
            ("skew", "a", 0.1)
        ]
        assert windows.open(SkewClock("b", at=0.0, duration=1.0, skew=0.2)) == [
            ("skew", "b", 0.2)
        ]


class TestCheckTargets:
    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="unknown node 'x'"):
            check_targets([CrashNode("x", at=0.0)], nodes=["y"])
        with pytest.raises(ValueError, match="unknown machine 'm-q'"):
            check_targets(
                [PartitionPair("m-a", "m-q", at=0.0, duration=1.0)],
                machines=["m-a", "m-b"],
            )
        with pytest.raises(ValueError, match="unknown clock 'c'"):
            check_targets([SkewClock("c", 0.0, 1.0, 0.1)], clocks=["d"])

    def test_empty_table_is_not_checked(self):
        check_targets([SlowMachine("m-anything", at=0.0, duration=1.0)], nodes=["x"])

    def test_unknown_kind_rejected(self):
        with pytest.raises(TypeError):
            check_targets([object()])


class TestOnlyChaosEventsExpandsEvents:
    def test_interpreters_never_read_a_window_length(self):
        """The nemeses apply what :class:`FaultWindows` returns; working
        out when a window ends is :mod:`repro.chaos_events`'s alone."""
        root = Path(repro.__file__).parent
        for module in ("sim/nemesis.py", "live/chaos.py"):
            tree = ast.parse((root / module).read_text())
            reads = [
                node.attr
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr in ("duration", "downtime")
            ]
            assert reads == [], module


class TestNemesisLog:
    def test_wall_excluded_from_fingerprint(self):
        a, b = NemesisLog(), NemesisLog()
        a.add(1.0, "crash", "x", wall=1.0)
        b.add(1.0, "crash", "x", wall=7.3)
        assert a.fingerprint() == b.fingerprint()

    def test_canonical_fingerprint_is_order_insensitive(self):
        a, b = NemesisLog(), NemesisLog()
        a.add(1.0, "crash", "x")
        a.add(1.0, "partition", "m-a|m-b")
        b.add(1.0, "partition", "m-a|m-b")
        b.add(1.0, "crash", "x")
        assert a.fingerprint() != b.fingerprint()
        assert a.canonical_fingerprint() == b.canonical_fingerprint()


class TestRandomSchedule:
    def test_seed_determinism(self):
        draw = lambda seed: random_schedule(  # noqa: E731
            random.Random(seed),
            horizon=5.0,
            node_names=["ingestor-0", "compactor-0"],
            machine_names=["m-ingestor-0", "m-compactor-0", "m-driver"],
            crashes=2,
            partitions=2,
            drop_bursts=1,
            slowdowns=1,
        )
        assert draw(4) == draw(4)
        assert draw(4) != draw(5)

    def test_unsorted_name_order_does_not_change_draw(self):
        kwargs = dict(horizon=5.0, crashes=2, partitions=1)
        a = random_schedule(
            random.Random(1),
            node_names=["b", "a"],
            machine_names=["m-b", "m-a"],
            **kwargs,
        )
        b = random_schedule(
            random.Random(1),
            node_names=["a", "b"],
            machine_names=["m-a", "m-b"],
            **kwargs,
        )
        assert a == b


class TestSimInterpreterMatchesOracle:
    """The sim nemesis must log exactly the oracle's records."""

    def _run(self, events, drop_probability=0.0, horizon=10.0):
        cluster = build_cluster(
            ClusterSpec(
                config=TINY,
                num_ingestors=1,
                num_compactors=2,
                num_readers=1,
                drop_probability=drop_probability,
            )
        )
        nemesis = Nemesis.for_cluster(cluster)
        nemesis.schedule(events)
        cluster.run(until=horizon)
        assert nemesis.done()
        return nemesis

    def test_mixed_scenario_fingerprint(self):
        events = [
            CrashNode("ingestor-0", at=1.0, downtime=0.5),
            PartitionPair("m-ingestor-0", "m-compactor-0", at=2.0, duration=0.5),
            DropBurst(0.3, at=3.0, duration=0.5),
            SlowMachine("m-compactor-1", at=4.0, duration=0.5, factor=2.0),
        ]
        nemesis = self._run(events)
        assert nemesis.log.canonical_fingerprint() == expected_fingerprint(events)

    def test_overlapping_scenario_fingerprint(self):
        events = [
            CrashNode("ingestor-0", at=1.0, downtime=2.0),
            CrashNode("ingestor-0", at=2.0, downtime=2.0),
            CrashNode("reader-0", at=2.0, downtime=1.0),  # abuts the next
            CrashNode("reader-0", at=1.0, downtime=1.0),
            PartitionPair("m-compactor-0", "m-compactor-1", at=1.0, duration=1.0),
            PartitionPair("m-compactor-1", "m-compactor-0", at=1.5, duration=1.0),
            DropBurst(0.3, at=0.5, duration=3.0),
            DropBurst(0.2, at=1.0, duration=1.0),
            SlowMachine("m-compactor-1", at=4.0, duration=1.0, factor=2.0),
            SlowMachine("m-compactor-1", at=4.5, duration=0.0, factor=3.0),
        ]
        nemesis = self._run(events)
        assert nemesis.log.canonical_fingerprint() == expected_fingerprint(events)
        assert nemesis.log.count("recover") == nemesis.log.count("crash") == 2
        assert nemesis.log.count("heal") == nemesis.log.count("partition") == 1

    def test_fingerprint_accounts_for_base_drop_probability(self):
        events = [DropBurst(0.5, at=1.0, duration=1.0)]
        nemesis = self._run(events, drop_probability=0.02)
        assert nemesis.log.canonical_fingerprint() == expected_fingerprint(
            events, base_drop_probability=0.02
        )

    def test_replay_is_bit_identical(self):
        events = [
            CrashNode("reader-0", at=0.5, downtime=0.25),
            PartitionPair("m-ingestor-0", "m-compactor-1", at=1.0, duration=0.75),
        ]
        first = self._run(events).log.fingerprint()
        second = self._run(events).log.fingerprint()
        assert first == second == expected_fingerprint(events)
