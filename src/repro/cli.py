"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro.cli list                 # show available experiments
    python -m repro.cli run fig3             # one experiment
    python -m repro.cli run fig3 fig8        # several
    python -m repro.cli run all              # everything
    python -m repro.cli run fig3 --ops 20000 # bigger run
    python -m repro.cli run fig3 --scale 1   # paper-sized configuration
    python -m repro.cli verify --seed 42     # model-checking exploration
    python -m repro.cli serve --spec cluster.toml --node ingestor-0
    python -m repro.cli chaos-proxy --links links.json
    python -m repro.cli chaos-bench --check BENCH_chaos.json

Each experiment prints its series/tables in the paper's shape followed
by paper-vs-measured checks (see EXPERIMENTS.md).

``verify`` runs the deterministic model-checking harness
(:mod:`repro.verify`): a seeded corpus of schedules over operation
interleavings, nemesis faults, and cluster shapes, each checked with
the matrix-appropriate Table I checker plus the sequential reference
model.  Its report is byte-identical across runs of the same seed; a
failing schedule is delta-debugged to a minimal counterexample when
``--shrink`` is given.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.experiments import (
    ablations,
    table1_consistency,
    fig3_write_scaling,
    fig4_compaction,
    fig5_client_scaling,
    fig6_read_latency,
    fig7_backup_reads,
    fig8_edge_cloud,
    fig9_smart_traffic,
    table2_latency,
    table3_realtime,
)


def _run_fig7(ops, scale):
    points = fig7_backup_reads.run(scale=scale)
    replication = fig7_backup_reads.run_replication_overhead(
        ops=ops or 10_000, scale=scale
    )
    fig7_backup_reads.report(points, replication)


#: name -> (description, runner(ops, scale))
EXPERIMENTS = {
    "table1": (
        "Table I: consistency matrix, machine-checked",
        lambda ops, scale: table1_consistency.report(
            table1_consistency.run(ops=ops or 300, scale=scale)
        ),
    ),
    "fig3": (
        "Figure 3: write latency/throughput vs #compactors (+ baselines)",
        lambda ops, scale: fig3_write_scaling.report(
            fig3_write_scaling.run(ops=ops or 10_000, scale=scale)
        ),
    ),
    "table2": (
        "Table II: write latency percentiles (1 Ingestor, 5 Compactors)",
        lambda ops, scale: table2_latency.report(
            table2_latency.run(ops=ops or 20_000, scale=scale)
        ),
    ),
    "fig4": (
        "Figure 4: L2/L3 compaction latency vs #compactors",
        lambda ops, scale: fig4_compaction.report(
            fig4_compaction.run(ops=ops or 12_000, scale=scale)
        ),
    ),
    "fig5": (
        "Figure 5: client scaling (distributed/colocated/multithreaded)",
        lambda ops, scale: fig5_client_scaling.report(
            fig5_client_scaling.run(ops_per_client=ops or 6_000, scale=scale)
        ),
    ),
    "fig6": (
        "Figure 6: read latency vs read percentage",
        lambda ops, scale: fig6_read_latency.report(
            fig6_read_latency.run(ops=ops or 2_000, scale=scale)
        ),
    ),
    "fig7": (
        "Figure 7: reads with/without backup + replication overhead",
        lambda ops, scale: _run_fig7(ops, scale),
    ),
    "fig8": (
        "Figure 8: edge-cloud write performance by edge location",
        lambda ops, scale: fig8_edge_cloud.report(
            fig8_edge_cloud.run(ops=ops or 8_000, scale=scale)
        ),
    ),
    "table3": (
        "Table III: real-time V2X action latency by placement",
        lambda ops, scale: table3_realtime.report(
            table3_realtime.run(rounds=ops or 200, scale=scale)
        ),
    ),
    "fig9": (
        "Figure 9: smart traffic benchmark (exploration + analytics)",
        lambda ops, scale: fig9_smart_traffic.report(
            fig9_smart_traffic.run(rounds=ops or 30, scale=scale)
        ),
    ),
    "ablations": (
        "Design-choice ablations (delta, batch size, in-flight cap, overlap)",
        lambda ops, scale: ablations.report(ablations.run(scale=scale)),
    ),
}


def _cmd_list() -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, (description, __) in EXPERIMENTS.items():
        print(f"  {name.ljust(width)}  {description}")
    return 0


def _cmd_run(names: list[str], ops: int | None, scale: int) -> int:
    if "all" in names:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("use `python -m repro.cli list`", file=sys.stderr)
        return 2
    for name in names:
        description, runner = EXPERIMENTS[name]
        started = time.time()
        runner(ops, scale)
        print(f"\n[{name}] done in {time.time() - started:.1f}s wall time")
    return 0


def _cmd_verify(args) -> int:
    # Imported lazily so `list`/`run` never pay for the harness.
    from repro.verify import Explorer, inject_bug, render_timeline, shrink_schedule

    explorer = Explorer(
        seed=args.seed,
        ops_per_schedule=args.ops or 40,
        faults_per_schedule=args.faults,
    )
    chunks: list[str] = []
    with inject_bug(args.inject):
        report = explorer.explore(args.schedules)
        chunks.append(report.render())
        if not report.ok and args.shrink:
            from repro.verify import generate_schedule

            failing_seed = report.failing_seeds[0]
            spec = generate_schedule(
                failing_seed, ops=args.ops or 40, faults=args.faults
            )
            result = shrink_schedule(spec)
            chunks.append(
                f"\n# Shrink — seed {failing_seed}: "
                f"{len(result.original.ops)} ops / {len(result.original.faults)} faults"
                f" -> {len(result.shrunk.ops)} ops / {len(result.shrunk.faults)} faults"
                f" in {result.runs} runs\n\n"
            )
            chunks.append(render_timeline(result.outcome))
    text = "".join(chunks)
    # No wall-clock anywhere: the report is byte-identical per seed.
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as sink:
            sink.write(text)
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    # Imported lazily so list/run never pay for the live runtime.
    import logging

    from repro.live.node import serve_main

    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    return serve_main(args.spec, args.node, data_dir=args.data_dir)


def _cmd_chaos_proxy(args) -> int:
    import logging

    from repro.live.chaos import proxy_main

    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    return proxy_main(args.links)


def _cmd_chaos_bench(args) -> int:
    from repro.bench.chaos_bench import run_and_report

    return run_and_report(
        out=args.out,
        ops=args.ops,
        seed=args.seed,
        check=args.check,
        max_regression=args.max_regression,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate the CooLSM paper's tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    run_parser = subparsers.add_parser("run", help="run experiments")
    run_parser.add_argument("names", nargs="+", help="experiment names, or 'all'")
    run_parser.add_argument(
        "--ops", type=int, default=None, help="operation count (experiment-specific default)"
    )
    run_parser.add_argument(
        "--scale",
        type=int,
        default=10,
        help="configuration shrink factor (1 = paper-sized; default 10)",
    )
    verify_parser = subparsers.add_parser(
        "verify", help="run the deterministic model-checking harness"
    )
    verify_parser.add_argument("--seed", type=int, default=0, help="root seed")
    verify_parser.add_argument(
        "--schedules", type=int, default=20, help="schedules to explore"
    )
    verify_parser.add_argument(
        "--ops", type=int, default=None, help="operations per schedule (default 40)"
    )
    verify_parser.add_argument(
        "--faults", type=int, default=2, help="nemesis faults per schedule"
    )
    verify_parser.add_argument(
        "--inject",
        default=None,
        help="inject a known protocol bug by name (harness self-validation); "
        "see repro.verify.BUGS",
    )
    verify_parser.add_argument(
        "--shrink",
        action="store_true",
        help="delta-debug the first failing schedule to a minimal counterexample",
    )
    verify_parser.add_argument(
        "--out", default=None, help="also write the report to this file"
    )
    serve_parser = subparsers.add_parser(
        "serve", help="run one live node over real TCP until SIGTERM"
    )
    serve_parser.add_argument(
        "--spec", required=True, help="cluster spec file (.toml or .json)"
    )
    serve_parser.add_argument(
        "--node", required=True, help="node name from the spec (e.g. ingestor-0)"
    )
    serve_parser.add_argument(
        "--log-level", default="info", help="logging level (default info)"
    )
    serve_parser.add_argument(
        "--data-dir",
        default=None,
        help="durable storage root; the node persists to <data-dir>/<node> "
        "and recovers from it on restart (default: in-memory only)",
    )
    chaos_proxy_parser = subparsers.add_parser(
        "chaos-proxy",
        help="run the per-link TCP fault proxy until SIGTERM",
    )
    chaos_proxy_parser.add_argument(
        "--links", required=True, help="links JSON file (see repro.live.chaos)"
    )
    chaos_proxy_parser.add_argument(
        "--log-level", default="info", help="logging level (default info)"
    )
    chaos_bench_parser = subparsers.add_parser(
        "chaos-bench",
        help="benchmark a real cluster under a seeded fault schedule",
    )
    chaos_bench_parser.add_argument(
        "--out", default="BENCH_chaos.json", help="output JSON path"
    )
    chaos_bench_parser.add_argument(
        "--ops", type=int, default=400, help="workload size per phase"
    )
    chaos_bench_parser.add_argument("--seed", type=int, default=0, help="workload seed")
    chaos_bench_parser.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="compare against a baseline BENCH_chaos.json and fail on regression",
    )
    chaos_bench_parser.add_argument(
        "--max-regression",
        type=float,
        default=2.5,
        help="allowed ratio-of-ratios degradation vs baseline (default 2.5)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "chaos-proxy":
        return _cmd_chaos_proxy(args)
    if args.command == "chaos-bench":
        return _cmd_chaos_bench(args)
    return _cmd_run(args.names, args.ops, args.scale)


if __name__ == "__main__":
    raise SystemExit(main())
