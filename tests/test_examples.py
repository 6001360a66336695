"""Smoke tests: every example script runs to completion and prints what
its docstring promises."""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

CASES = [
    ("quickstart.py", ["Embedded LSM engine", "CooLSM cluster", "mean write latency"]),
    ("smart_traffic.py", ["Real-time V2X", "explorations", "Analytics via the Reader"]),
    ("edge_cloud_deployment.py", ["edge=london", "Linearizable+Concurrent check: PASS"]),
    ("failover_demo.py", ["promotions: 1", "read misses: 0"]),
    ("reconfiguration_demo.py", ["after split", "after replace", "0 misses"]),
    ("lsm_tradeoffs.py", ["write-amp", "peak in-flight"]),
]


@pytest.mark.parametrize("script,expectations", CASES, ids=[c[0] for c in CASES])
def test_example_runs(script, expectations):
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    for expected in expectations:
        assert expected in result.stdout, (
            f"{script}: missing {expected!r} in output:\n{result.stdout[-2000:]}"
        )
