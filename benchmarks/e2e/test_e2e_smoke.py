"""Smoke test of the e2e benchmark's plumbing (about a minute).

Not in the tier-1 ``testpaths``; run it with
``python -m pytest benchmarks/e2e/test_e2e_smoke.py``.  It proves the
names in BENCHMARK.json are the names ``run.py`` emits, that every
output check passes on a small run, and that recording spans does not
change what the cluster stores.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
#: Workloads with one writer of load keys, so two runs of one seed store
#: exactly the same values.  (The two writers of ``ingest_sat`` write the
#: same keys every run, but share the counter their values carry.)
FIXED_WORK = ("upsert_paced", "read_mix", "analytics")


@pytest.fixture(scope="module")
def contract() -> dict:
    with open(REPO / "BENCHMARK.json") as source:
        return json.load(source)


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory) -> dict[int, list[dict]]:
    """One ``--smoke`` pass untraced (0) and one traced (1)."""
    out = {}
    for trace in (0, 1):
        path = tmp_path_factory.mktemp("e2e") / f"smoke-{trace}.json"
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", str(trace),
             "--out", str(path)],
            check=True, cwd=REPO, timeout=600, capture_output=True,
        )
        with open(path) as source:
            out[trace] = json.load(source)["runs"]
    return out


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_emits_every_listed_metric(contract, smoke_runs, trace, kind):
    listed = [m["name"] for m in contract[kind]]
    runs = smoke_runs[trace]
    assert [r["workload"] for r in runs] == [w["name"] for w in contract["workloads"]]
    for run in runs:
        assert sorted(run["metrics"]) == sorted(listed)
        assert sorted(run[kind]) == sorted(listed)
        for name, value in run[kind].items():
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
            if value is None:  # only a per-layer metric, and it says why
                assert kind == "per_layer" and run["null_reasons"][name], name
                continue
            assert math.isfinite(value) and run["metrics"][name]["value"] == value, name
            if kind == "end_to_end":
                assert value > 0, name


def test_output_checks_pass(smoke_runs):
    for runs in smoke_runs.values():
        for run in runs:
            assert run["correct"], (run["workload"], run["problems"])
            assert run["failed"] == 0 and run["attempted"] > 0
            assert set(run["exit_codes"].values()) == {0}


def test_tracing_does_not_change_what_is_stored(smoke_runs):
    untraced = {r["workload"]: r["readback_digest"] for r in smoke_runs[0]}
    traced = {r["workload"]: r["readback_digest"] for r in smoke_runs[1]}
    for workload in FIXED_WORK:
        assert untraced[workload] == traced[workload], workload


def test_every_wrapped_name_resolves(smoke_runs):
    for run in smoke_runs[1]:
        assert run["per_layer"]["trace.unresolved"] == 0
        assert not any("resolves" in why for why in run["null_reasons"].values())


def test_workload_reasons_match(contract):
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    assert {w["name"]: w["why"] for w in contract["workloads"]} == workloads.WORKLOADS
