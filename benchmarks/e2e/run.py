#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--repeat N] [--seeds N] [--out FILE]
                                  [--smoke]

Boots a real durable localhost cluster per workload, drives it, checks
what came back, and prints every metric by name with its unit.  The
last line of each run is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics of BENCHMARK.json, or
with ``--trace 1`` its per-layer metrics from a run with spans recorded.
``--seconds`` sizes the measured phase: the duration of the time-bound
loads, and 13 000 upserts per second of it for ``ingest_sat``, whose
work is a count.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import gc
import itertools
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(REPO / "src"))

import harness  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

#: The paper's Table II row this cluster is held to on ``upsert_paced``.
UPSERT_P99_LIMIT_MS = 50.0
#: The contract's last line must carry a number for every metric; there
#: a null reads as this, which no measured time, count or ratio can.
NO_VALUE = -1.0


def load_contract() -> dict:
    with open(REPO / "BENCHMARK.json") as source:
        return json.load(source)


def units_of(contract: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}


def stamp(seed: int, scale: workloads.Scale) -> dict:
    """What a result must carry to be compared with another."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"  # the driver's checkout is not a git repository
    config = dataclasses.asdict(harness.bench_config())
    config.pop("costs")
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": rev,
        "seed": seed,
        "scale": dataclasses.asdict(scale),
        "config": config,
    }


def document(run: workloads.Run, contract: dict) -> dict:
    """Everything one run measured, as plain JSON."""
    units = units_of(contract)
    e2e = metrics.end_to_end(run)
    trace = metrics.Trace(run.dumps) if run.traced else None
    layers, null_reasons = metrics.per_layer(run, trace) if run.traced else ({}, {})
    for kind, values in (("end_to_end", e2e), ("per_layer", layers)):
        listed = {m["name"] for m in contract[kind]}
        if values and set(values) != listed:
            raise SystemExit(
                f"BENCHMARK.json {kind} and run.py disagree: "
                f"{sorted(listed ^ set(values))}"
            )
    attempted = run.check_attempted + sum(s.attempted for s in run.streams.values())
    failed = run.check_failed + sum(s.failed for s in run.streams.values())
    problems = list(run.problems)
    notes = []
    if not metrics.valid(run):
        # A statement about the measurement, not about the program's
        # outputs: it does not make the run incorrect.
        notes.append(
            f"INVALID: the open loop ran more than {workloads.MAX_LATE_P99_S * 1e3:g} ms late"
            " (p99) in over half of its windows; do not quote this run"
        )
    reported = layers if run.traced else e2e
    out = {
        "workload": run.workload,
        "seed": run.seed,
        "traced": run.traced,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": NO_VALUE if value is None else value, "unit": units[name]}
            for name, value in reported.items()
        },
        "end_to_end": e2e,
        "per_layer": layers,
        "null_reasons": null_reasons,
        "detail": metrics.detail(run),
        "problems": problems,
        "notes": notes,
        "setup_s": [setup.seconds for setup in run.setups],
        "data_root_fs": run.data_root_fs,
        "device_noisy": run.data_root_fs != "tmpfs",
        "valid": metrics.valid(run),
        "late_p99_ms": metrics.late_s(run, 0.99) * 1e3,
        "user_ops": metrics.user_ops(run),
        "write_ops": metrics.write_ops(run),
        "host": metrics.host_load(run),
        "readback_digest": run.readback_digest,
        "exit_codes": run.exit_codes,
    }
    if run.traced:
        try:
            out["blocking_path_us"] = metrics.blocking_path(run, trace)
        except metrics.NoValue as missing:
            out["blocking_path_us"] = {}
            notes.append(f"no blocking path: {missing}")
    return out


def report(doc: dict, contract: dict) -> None:
    units = units_of(contract)
    mode = "traced" if doc["traced"] else "untraced"
    print(f"== {doc['workload']} seed={doc['seed']} ({mode}, data on {doc['data_root_fs']})")
    for name, value in {**doc["end_to_end"], **doc["per_layer"]}.items():
        if value is None:
            print(f"  {name:<46} {'null':>14} ({doc['null_reasons'][name]})")
        else:
            print(f"  {name:<46} {value:>14.4f} {units[name]}")
    host = doc["host"]
    print(
        f"  machine speed {host['speed']:.3f} x reference, steal {host['steal_pct']:.1f} %,"
        f" {len(host['kept_windows'])}/{len(host['window_steal_pct'])} windows on time"
    )
    for name, stream in doc["detail"].items():
        if "p50_ms" in stream:
            print(
                f"  [{name}] n={stream['samples']} whole-run p50 {stream['p50_ms']:.3f} ms"
                f" p99 {stream['p99_ms']:.3f} ms"
            )
    if doc["workload"] == "upsert_paced":
        p99 = doc["detail"]["upsert"]["p99_ms"]
        verdict = "pass" if p99 <= UPSERT_P99_LIMIT_MS else "FAIL"
        print(f"  latency limit: p99 {p99:.2f} ms <= {UPSERT_P99_LIMIT_MS:g} ms: {verdict}")
    path = doc.get("blocking_path_us")
    if path:
        print("  blocking path of one primary request (mean us):")
        for step, value in path.items():
            print(f"    {step:<44} {value:>10.1f}")
    for problem in doc["problems"] + doc["notes"]:
        print(f"  !! {problem}")
    print(f"  attempted {doc['attempted']}  failed {doc['failed']}  correct {doc['correct']}")


def main() -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, same seed")
    parser.add_argument(
        "--seeds", type=int, default=1,
        help="seeds per workload: SEED, SEED+1, ... (how spread is measured)",
    )
    parser.add_argument("--out", help="also write every run's document to this file")
    parser.add_argument(
        "--smoke", action="store_true",
        help="2-second phases, a fifth of the keys: checks the plumbing",
    )
    args = parser.parse_args()
    # A terminated run must still stop its servers and spinners.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    scale = workloads.Scale.smoke() if args.smoke else workloads.Scale.full(args.seconds)
    tracer = None
    if args.trace:
        sys.path.insert(0, str(harness.TRACEHOOK))
        import coolsm_spans

        coolsm_spans.install()
        tracer = coolsm_spans.REC
    documents = []
    selected = names if args.workload == "all" else [args.workload]
    try:
        with harness.AwakeCpus():
            for workload, offset, __ in itertools.product(
                selected, range(args.seeds), range(args.repeat)
            ):
                gc.collect()  # or the last run's garbage pauses this one's driver
                run = asyncio.run(
                    workloads.run_workload(
                        workload, args.seed + offset, scale, bool(args.trace), tracer
                    )
                )
                doc = document(run, contract)
                documents.append(doc)
                report(doc, contract)
                print(json.dumps(
                    {k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}
                ))
    finally:
        harness.clean_scratch()
    if args.out:
        with open(args.out, "w") as sink:
            json.dump({"stamp": stamp(args.seed, scale), "runs": documents}, sink, indent=1)
            sink.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
