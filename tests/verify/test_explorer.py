"""Tests for the schedule explorer: determinism, clean corpus, and
harness self-validation via an injected protocol bug.

The CI corpus here is intentionally small (seconds, not minutes); the
``verify-smoke`` CI job runs the full fixed-seed corpus via the CLI.
"""

from pathlib import Path

import pytest

from repro.verify import (
    BUGS,
    LIVE_SHAPES,
    POLICY_SHAPES,
    SHAPES,
    Explorer,
    differential_run,
    generate_schedule,
    inject_bug,
    run_schedule,
)
from repro.bench.metrics import ExplorationCounters


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        a = generate_schedule(42, ops=20, faults=2)
        b = generate_schedule(42, ops=20, faults=2)
        assert a == b
        assert generate_schedule(43, ops=20, faults=2) != a

    def test_replay_is_bit_identical(self):
        spec = generate_schedule(5, ops=20, faults=2)
        first = run_schedule(spec)
        second = run_schedule(spec)
        assert first.fingerprint() == second.fingerprint()
        assert first.violations == second.violations

    def test_report_renders_byte_identical(self):
        text = [
            Explorer(seed=3, ops_per_schedule=12, faults_per_schedule=1)
            .explore(4)
            .render()
            for __ in range(2)
        ]
        assert text[0] == text[1]
        assert "status: PASS" in text[0]


class TestFrozenFingerprints:
    def test_seed0_fingerprints_match_the_frozen_file(self):
        """Every seed-0 schedule of the three corpora executes the same
        interleaving and history as when ``seed0_fingerprints.txt`` was
        written.  A PR that means to move schedules regenerates the
        file (these same lines) in its own diff."""
        lines = [
            f"{corpus} {summary.index} {summary.shape} {summary.fingerprint}"
            for corpus, shapes in (
                ("SHAPES", SHAPES),
                ("LIVE_SHAPES", LIVE_SHAPES),
                ("POLICY_SHAPES", POLICY_SHAPES),
            )
            for summary in Explorer(seed=0, shapes=shapes).explore(12).summaries
        ]
        frozen = Path(__file__).with_name("seed0_fingerprints.txt").read_text()
        assert lines == frozen.splitlines()


class TestCleanCorpus:
    def test_small_corpus_has_no_violations(self):
        report = Explorer(seed=0, ops_per_schedule=25).explore(6)
        assert report.ok, report.render()
        assert report.counters.schedules == 6
        assert report.counters.checker_calls > 0
        assert report.counters.operations > 0

    def test_differential_three_way_agreement(self):
        result = differential_run(7, ops=60)
        assert result["mismatches"] == []
        assert result["reads"] > 0
        assert result["cluster"] == result["model"]
        assert result["monolith"] == result["model"]


class TestInjectedBug:
    def test_unknown_bug_name_rejected(self):
        with pytest.raises(ValueError):
            with inject_bug("no-such-bug"):
                pass

    def test_none_is_a_no_op(self):
        with inject_bug(None):
            pass  # must not raise, must not patch anything

    def test_trust_phase1_found_by_corpus(self):
        """Disabling the two-phase read's ts_h/ts_c comparison must be
        caught by the fixed CI seed corpus (harness self-validation:
        the checkers are demonstrably able to see a real protocol bug)."""
        assert "trust-phase1" in BUGS
        with inject_bug("trust-phase1"):
            report = Explorer(seed=0).explore(4)
        assert not report.ok
        assert report.counters.violations > 0
        # ...and the identical corpus is clean without the bug.
        assert Explorer(seed=0).explore(4).ok


class TestCounters:
    def test_merge_sums_fields(self):
        a = ExplorationCounters(schedules=1, operations=10, violations=2)
        b = ExplorationCounters(schedules=2, operations=5, faults=3)
        a.merge(b)
        assert a.schedules == 3
        assert a.operations == 15
        assert a.faults == 3
        assert a.violations == 2
        assert a.as_dict()["schedules"] == 3


class TestLiveShapeCorpus:
    """The live scale-out topology, model-checked: sharded Ingestors
    with an online shard split mid-schedule, under focused nemeses
    (split-under-load, split-during-partition, split-with-crash)."""

    def test_corpus_covers_the_three_split_scenarios(self):
        assert [shape.fault_focus for shape in LIVE_SHAPES] == [
            "none", "partition", "crash"
        ]
        for shape in LIVE_SHAPES:
            assert shape.sharded and shape.spares >= 1
            assert shape.reconfig == "shard-split"
            # One owner per key => the plain linearizability matrix row.
            assert shape.guarantee == "linearizable"

    @pytest.mark.parametrize("index", range(len(LIVE_SHAPES)))
    def test_split_schedules_run_clean(self, index):
        shape = LIVE_SHAPES[index]
        for seed in (11, 12):
            spec = generate_schedule(
                seed, ops=40, faults=2, shapes=(shape,)
            )
            outcome = run_schedule(spec)
            assert not outcome.violations, (shape.label, outcome.violations)
            # The split really ran: all four protocol phases marked.
            labels = [mark.label for mark in outcome.history.marks]
            for label in ("shard.fence", "shard.drain",
                          "shard.activate", "shard.done"):
                assert label in labels, (shape.label, labels)

    @pytest.mark.parametrize("index", range(len(LIVE_SHAPES)))
    def test_fingerprints_replay_identically(self, index):
        """NemesisLog and kernel-dispatch fingerprints are replay-
        stable for the split schedules — the equality that lets the
        live runtime be diffed against the sim run of one seed."""
        spec = generate_schedule(
            21 + index, ops=40, faults=2, shapes=(LIVE_SHAPES[index],)
        )
        first = run_schedule(spec)
        second = run_schedule(spec)
        assert first.nemesis_log == second.nemesis_log
        assert first.schedule_digest == second.schedule_digest
        assert first.events_dispatched == second.events_dispatched
        assert first.fingerprint() == second.fingerprint()

    def test_focused_nemesis_generates_the_right_families(self):
        partition_spec = generate_schedule(
            31, ops=40, faults=3, shapes=(LIVE_SHAPES[1],)
        )
        assert partition_spec.faults
        assert {type(e).__name__ for e in partition_spec.faults} == {
            "PartitionPair"
        }
        crash_spec = generate_schedule(
            32, ops=40, faults=3, shapes=(LIVE_SHAPES[2],)
        )
        assert crash_spec.faults
        assert {type(e).__name__ for e in crash_spec.faults} == {"CrashNode"}
        load_spec = generate_schedule(
            33, ops=40, faults=3, shapes=(LIVE_SHAPES[0],)
        )
        assert load_spec.faults == ()

    def test_main_corpus_seed_mapping_untouched(self):
        """LIVE_SHAPES is a separate corpus: the main SHAPES tuple (and
        with it every historical seed -> shape assignment) is frozen."""
        assert len(SHAPES) == 6
        assert all(not shape.sharded for shape in SHAPES)
