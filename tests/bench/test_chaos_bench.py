"""Chaos-bench pure helpers: SLA scan, regression gate.

The full benchmark (real subprocesses behind the proxy) runs in the CI
chaos-smoke job; these tests pin the analysis and gating logic on
synthetic documents so a gate bug cannot hide behind a slow run.
"""

import json

from repro.bench import chaos_bench
from repro.bench.chaos_bench import (
    SLA_WINDOW_S,
    _recovery_to_sla,
    check_regression,
)


def _document(**overrides) -> dict:
    document = {
        "config": {
            "topology": {"ingestors": 1, "compactors": 2, "readers": 0},
            "ops": 400,
            "phase_seconds": 2.0,
            "key_range": 100,
            "seed": 0,
            "sla_fraction": 0.5,
        },
        "lost_writes": 0,
        "crash_recovered": True,
        "drained_exit_codes": {"ingestor-0": 0, "compactor-0": 0},
        "phases": {
            "baseline": {"throughput": 800.0},
            "drop": {"throughput": 400.0, "ratio": 0.5},
            "latency": {"throughput": 200.0, "ratio": 0.25},
            "partition": {"throughput": 0.0, "recovery_to_sla_s": 2.0},
            "crash": {"throughput": 0.0, "recovery_to_sla_s": 1.5},
        },
    }
    for key, value in overrides.items():
        if key in document["phases"]:
            document["phases"][key].update(value)
        else:
            document[key] = value
    return document


class TestRecoveryToSla:
    def test_immediate_recovery(self):
        # Full rate from the heal instant onward.
        acks = [i * 0.01 for i in range(1000)]
        assert _recovery_to_sla(acks, healed_at=1.0, baseline_rate=100.0) == 0.0

    def test_delayed_recovery(self):
        # Nothing for 2s after the heal, then full rate.
        acks = [3.0 + i * 0.01 for i in range(1000)]
        measured = _recovery_to_sla(acks, healed_at=1.0, baseline_rate=100.0)
        assert measured is not None
        assert 1.5 <= measured <= 2.1

    def test_never_recovers(self):
        # A trickle far below half the baseline rate.
        acks = [i * 2.0 for i in range(30)]
        assert _recovery_to_sla(acks, healed_at=0.0, baseline_rate=100.0) is None

    def test_sustained_window_required(self):
        # A single burst shorter than the window does not count as
        # recovery when the rest of the horizon is silent.
        needed = int(100.0 * 0.5 * SLA_WINDOW_S)
        acks = [5.0 + i * 1e-4 for i in range(needed // 2)]
        assert _recovery_to_sla(acks, healed_at=0.0, baseline_rate=100.0) is None


class TestCheckRegression:
    def test_healthy_run_passes(self):
        assert check_regression(_document(), _document()) == []

    def test_no_baseline_checks_absolutes_only(self):
        assert check_regression(_document(), None) == []
        failures = check_regression(_document(lost_writes=3), None)
        assert any("lost" in f for f in failures)

    def test_lost_writes_absolute(self):
        failures = check_regression(_document(lost_writes=1), _document())
        assert any("acked writes lost" in f for f in failures)

    def test_missing_recovery_line(self):
        failures = check_regression(_document(crash_recovered=False), None)
        assert any("RECOVERED" in f for f in failures)

    def test_unclean_drain(self):
        failures = check_regression(
            _document(drained_exit_codes={"ingestor-0": 137}), None
        )
        assert any("drain" in f for f in failures)

    def test_sla_never_reattained_is_absolute(self):
        failures = check_regression(
            _document(partition={"recovery_to_sla_s": None}), None
        )
        assert any("never returned" in f for f in failures)

    def test_ratio_regression_gated(self):
        current = _document(drop={"ratio": 0.1})
        failures = check_regression(current, _document(), max_regression=2.5)
        assert any("drop regressed" in f for f in failures)

    def test_tiny_baseline_ratios_not_gated(self):
        # Ratios below the 5% noise floor never trip the gate.
        baseline = _document(drop={"ratio": 0.004})
        current = _document(drop={"ratio": 0.001})
        assert check_regression(current, baseline, max_regression=2.5) == []

    def test_recovery_regression_gated(self):
        current = _document(crash={"recovery_to_sla_s": 30.0})
        failures = check_regression(current, _document(), max_regression=2.5)
        assert any("recovery-to-SLA after crash" in f for f in failures)

    def test_subsecond_recovery_baseline_floored(self):
        # base 0.2s with a 2s current must NOT fail: the floor treats
        # sub-second baselines as 1s before applying the factor.
        baseline = _document(crash={"recovery_to_sla_s": 0.2})
        current = _document(crash={"recovery_to_sla_s": 2.0})
        assert check_regression(current, baseline, max_regression=2.5) == []

    def test_different_shapes_not_compared(self):
        baseline = _document()
        baseline["config"] = dict(baseline["config"], ops=999)
        current = _document(drop={"ratio": 0.01})
        assert check_regression(current, baseline, max_regression=2.5) == []


class TestRunAndReport:
    def test_baseline_is_read_before_out_is_written(self, tmp_path, monkeypatch):
        """With ``--out`` and ``--check`` on one file, the gate compares
        the run with the checked-in baseline, not with itself."""
        path = tmp_path / "BENCH_chaos.json"
        path.write_text(json.dumps(_document()))
        slow = _document(crash={"recovery_to_sla_s": 30.0})
        slow.update(total_acked_ops=1, client_retries=0, baseline_throughput=800.0)
        for phase in slow["phases"].values():
            phase.update(ack_p50_s=0.001, ack_p99_s=0.002)
        monkeypatch.setattr(chaos_bench, "run", lambda ops, seed: slow)
        code = chaos_bench.run_and_report(out=str(path), check=str(path))
        assert code == 1
        assert json.loads(path.read_text()) == slow
