#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json [B.json]

(With one file, A is compared with itself: medians and spreads only.)
For every workload and end-to-end metric prints each side's median,
min-max and relative spread, and a verdict against the metric's bound in
BENCHMARK.json: ``ok`` (B's median is not worse than A's by more than
the bound), ``worse``, or ``unresolved`` when either side's own spread
exceeds the bound, so the two medians cannot be told apart.  Per-layer
metrics, when both files have them, are listed without a verdict
(``null`` where no run of a side has a value).  If A is untraced and B
traced, the change is the tracing overhead.

Exit status 1 if any pairing is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def spread(values: list[float]) -> float:
    """Distance between the quartiles over the median; with fewer than
    four runs there are no quartiles, so the whole range."""
    median = statistics.median(values)
    if not median or len(values) < 2:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def load_runs(path: str) -> list[dict]:
    with open(path) as source:
        runs = json.load(source)["runs"]
    for run in runs:
        if not run["correct"]:
            print(f"note: {path} has an incorrect {run['workload']} run: {run['problems'][:2]}")
        if not run["valid"]:
            print(f"note: {path}: an invalid {run['workload']} run (late open loop) is left out")
    return [run for run in runs if run["valid"]]


def by_workload(runs: list[dict], kind: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> the values of every run that has one."""
    out: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        for name, value in run[kind].items():
            values = out.setdefault(run["workload"], {}).setdefault(name, [])
            if value is not None:
                values.append(value)
    return out


def median_or_null(values: list[float]) -> str:
    return f"{statistics.median(values):>14.4f}" if values else f"{'null':>14}"


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__)
        return 2
    runs_a = load_runs(argv[1])
    runs_b = load_runs(argv[2]) if len(argv) == 3 else runs_a
    with open(REPO / "BENCHMARK.json") as source:
        contract = json.load(source)
    gated = {m["name"]: m for m in contract["end_to_end"]}
    side_a, side_b = by_workload(runs_a, "end_to_end"), by_workload(runs_b, "end_to_end")
    overhead = runs_b[0]["traced"] and not runs_a[0]["traced"]
    worse = 0
    print(f"{'workload':<13}{'metric':<15}{'A median':>12} {'A range':>23} {'A spr':>6}"
          f"{'B median':>12} {'B range':>23} {'B spr':>6} {'change':>8}  verdict")
    for workload in side_a:
        for name, values_a in side_a[workload].items():
            values_b = side_b.get(workload, {}).get(name)
            if not values_b:
                continue
            meta = gated[name]
            median_a, median_b = statistics.median(values_a), statistics.median(values_b)
            change = (median_b - median_a) / median_a if median_a else 0.0
            regress = change if meta["better"] == "lower" else -change
            spread_a, spread_b = spread(values_a), spread(values_b)
            if max(spread_a, spread_b) > meta["bound"]:
                verdict = "unresolved"
            elif regress > meta["bound"]:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(
                f"{workload:<13}{name:<15}{median_a:>12.4f} "
                f"{min(values_a):>11.4f}-{max(values_a):<11.4f} {spread_a:>6.1%}"
                f"{median_b:>12.4f} {min(values_b):>11.4f}-{max(values_b):<11.4f} "
                f"{spread_b:>6.1%} {change:>+8.1%}  {verdict} (bound {meta['bound']:.0%})"
            )
            if overhead and name in ("ops_s", "op_p50_ms"):
                print(f"{workload:<13}trace.overhead_pct on {name}: {regress * 100:+.1f} %")
    layers_a, layers_b = by_workload(runs_a, "per_layer"), by_workload(runs_b, "per_layer")
    for workload in layers_a:
        for name, values_a in layers_a[workload].items():
            values_b = layers_b.get(workload, {}).get(name)
            if values_b is not None:
                print(
                    f"{workload:<13}{name:<46}{median_or_null(values_a)}"
                    f"{median_or_null(values_b)}"
                )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
