"""Benchmark a real localhost CooLSM cluster (``repro.cli live-bench``).

Launches the standard smoke topology (1 Ingestor, 2 Compactors,
1 Reader) as subprocesses, then drives a **saturation sweep**: the
cross product of client counts and pipelining depths, measuring
wall-clock upsert/read latency (p50/p99/p999) through the real client
stack — wire codec, TCP, asyncio interpreter — and throughput per
point.  Results land in ``BENCH_live.json``.

Depth 0 is the legacy synchronous path (one blocking RPC per op): it
anchors the machine-relative ``pipelined_speedup`` — best pipelined
throughput over best synchronous throughput — which is what the CI
``--check`` gate compares against the checked-in baseline (ratios
transfer across machines; absolute ops/s do not).

Pipelined points write through :class:`~repro.core.client.ClientPipeline`
(auto-batching into ``UpsertBatchRequest``, up to ``depth`` batches in
flight), so one wire round-trip amortises over many acks.  The clusters
run without ``--data-dir``; the durable write path is measured by
``benchmarks/e2e``.

These are *real seconds on whatever machine runs the bench*, not the
simulator's modelled seconds: use them to track live-runtime overhead
across changes, not to reproduce the paper's figures (that is the
simulator's job).
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import sys
import tempfile
import time

from repro.core.client import ClientPipeline
from repro.core.config import CooLSMConfig
from repro.core.history import History

from repro.live.harness import ClientPool, LocalCluster, localhost_spec
from repro.live.node import LiveSpec

from .metrics import LatencySummary, throughput

#: Synchronous point reads per client, probed AFTER the write phase
#: drains: the write sweep saturates the write path without a blocking
#: read serialising the pipeline, and the probe still reports read
#: latency (and verifies the writes landed) at every point.
READ_PROBES = 50
#: Default sweep shape: every client count at every pipelining depth
#: (0 = the synchronous one-RPC-per-op reference path).
DEFAULT_CLIENTS = (1, 2, 4, 8, 16)
DEFAULT_DEPTHS = (0, 4, 16)
DEFAULT_MAX_BATCH = 128
#: Shard-scaling sweep: aggregate pipelined write throughput per
#: Ingestor count, clients routing by the shard map.
DEFAULT_SHARDS = (1, 2, 4)
SHARD_SWEEP_CLIENTS = 4
SHARD_SWEEP_DEPTH = 4
#: Expected-scaling efficiency: at ``min(shards, cpus)`` ideal speedup,
#: a healthy run keeps at least this fraction (0.625 * 4 = the 2.5x
#: floor at 4 Ingestors on a >= 4-core machine).
SHARD_SCALING_EFFICIENCY = 0.625


def _sync_workload(client, rng, key_range: int, ops: int, samples: dict):
    """Depth 0: one blocking RPC per upsert (the pre-pipelining path)."""
    for _ in range(ops):
        key = str(rng.randrange(key_range)).encode()
        started = time.perf_counter()
        yield from client.upsert(key, b"v" + key)
        samples["upsert"].append(time.perf_counter() - started)
    return ops


def _pipelined_workload(
    client, rng, key_range: int, ops: int, samples: dict, max_batch: int, depth: int
):
    """Writes through the auto-batching pipeline; per-op latency is
    submit -> ack of the covering batch, so queueing delay inside the
    window is charged to the op (the honest pipelining tradeoff)."""
    pipeline = ClientPipeline(client, max_batch=max_batch, depth=depth)
    for _ in range(ops):
        key = str(rng.randrange(key_range)).encode()
        yield from pipeline.put(key, b"v" + key)
    yield from pipeline.drain()
    samples["upsert"].extend(pipeline.latencies)
    return ops


def _read_probe(client, rng, key_range: int, samples: dict):
    """Post-drain synchronous reads: latency under a quiescent cluster
    plus a spot-check that the batched writes are actually readable."""
    for _ in range(READ_PROBES):
        key = str(rng.randrange(key_range)).encode()
        started = time.perf_counter()
        value = yield from client.read(key)
        samples["read"].append(time.perf_counter() - started)
        if value is not None and value != b"v" + key:
            raise AssertionError(f"read {key!r} returned foreign value {value!r}")
    return READ_PROBES


async def _drive(
    spec: LiveSpec,
    num_clients: int,
    ops_per_client: int,
    seed: int,
    max_batch: int,
    depth: int,
):
    import random

    samples: dict[str, list[float]] = {"upsert": [], "read": []}
    history = History()
    async with ClientPool(spec, num_clients=num_clients, history=history) as pool:
        started = time.perf_counter()
        workloads = []
        for index, client in enumerate(pool.clients):
            rng = random.Random(seed + index)
            if depth > 0:
                workload = _pipelined_workload(
                    client, rng, spec.config.key_range, ops_per_client,
                    samples, max_batch, depth,
                )
            else:
                workload = _sync_workload(
                    client, rng, spec.config.key_range, ops_per_client, samples
                )
            workloads.append(pool.run(workload, f"bench-{index}"))
        await asyncio.gather(*workloads)
        elapsed = time.perf_counter() - started
        # Read latency is probed after the write phase drains, outside
        # the timed window (the sweep's throughput is the write path's).
        await asyncio.gather(
            *(
                pool.run(
                    _read_probe(
                        client, random.Random(seed + 7_000 + i),
                        spec.config.key_range, samples,
                    ),
                    f"probe-{i}",
                )
                for i, client in enumerate(pool.clients[:num_clients])
            )
        )
    return samples, elapsed, len(history)


def _latency_doc(summary: LatencySummary) -> dict:
    return {
        "p50": round(summary.ms("p50"), 3),
        "p99": round(summary.ms("p99"), 3),
        "p999": round(summary.ms("p999"), 3),
        "mean": round(summary.ms("mean"), 3),
        "count": summary.count,
    }


def run_shard_sweep(
    shard_counts: list[int],
    ops_per_client: int = 400,
    seed: int = 0,
    max_batch: int = DEFAULT_MAX_BATCH,
) -> dict:
    """Aggregate write throughput per Ingestor count, sharded routing.

    Each point boots a *sharded* cluster of ``n`` Ingestors (disjoint
    uniform key ranges) and drives a fixed pipelined client fleet whose
    random keys spray across every shard, so the measured ops/s is the
    fleet's aggregate.  The headline ``scaling_ratio`` — best multi-
    shard throughput over the 1-shard point — is machine-relative: on
    an ``n``-core box the ideal is ``min(shards, cpus)``, which is why
    ``cpus`` rides along in the document and the ``--check`` gate
    scales its floor by it.
    """
    config = CooLSMConfig().scaled_down(10)
    points = []
    for num_shards in shard_counts:
        spec = localhost_spec(
            num_shards,
            2,
            0,
            num_clients=SHARD_SWEEP_CLIENTS,
            config=config,
            seed=seed,
            sharded=True,
        )
        with tempfile.TemporaryDirectory(prefix="coolsm-shard-bench-") as work:
            with LocalCluster(spec, work) as cluster:
                cluster.wait_ready()
                samples, elapsed, recorded = asyncio.run(
                    _drive(
                        spec,
                        SHARD_SWEEP_CLIENTS,
                        ops_per_client,
                        seed,
                        max_batch,
                        SHARD_SWEEP_DEPTH,
                    )
                )
                exit_codes = cluster.stop()
        total_ops = SHARD_SWEEP_CLIENTS * ops_per_client
        points.append(
            {
                "shards": num_shards,
                "clients": SHARD_SWEEP_CLIENTS,
                "depth": SHARD_SWEEP_DEPTH,
                "ops": total_ops,
                "recorded_ops": recorded,
                "elapsed_s": round(elapsed, 4),
                "throughput_ops_s": round(throughput(total_ops, elapsed), 1),
                "upsert_ms": _latency_doc(
                    LatencySummary.from_samples(samples["upsert"])
                ),
                "drained_exit_codes": exit_codes,
            }
        )
    single = next((p for p in points if p["shards"] == 1), None)
    best_multi = max(
        (p for p in points if p["shards"] > 1),
        key=lambda p: p["throughput_ops_s"],
        default=None,
    )
    ratio = None
    if single and best_multi and single["throughput_ops_s"] > 0:
        ratio = round(
            best_multi["throughput_ops_s"] / single["throughput_ops_s"], 2
        )
    return {
        "shard_counts": list(shard_counts),
        "clients": SHARD_SWEEP_CLIENTS,
        "depth": SHARD_SWEEP_DEPTH,
        "points": points,
        "scaling_ratio": ratio,
        "scaling_at_shards": best_multi["shards"] if best_multi else None,
    }


def run(
    client_counts: list[int] | None = None,
    ops_per_client: int = 400,
    seed: int = 0,
    depths: list[int] | None = None,
    max_batch: int = DEFAULT_MAX_BATCH,
    shard_counts: list[int] | None = None,
) -> dict:
    """Run the saturation sweep; returns the BENCH_live.json document."""
    client_counts = list(client_counts or DEFAULT_CLIENTS)
    depths = list(depths if depths is not None else DEFAULT_DEPTHS)
    config = CooLSMConfig().scaled_down(10)
    points = []
    for depth in depths:
        for num_clients in client_counts:
            spec = localhost_spec(
                1, 2, 1, num_clients=max(num_clients, 1), config=config, seed=seed
            )
            with tempfile.TemporaryDirectory(prefix="coolsm-live-bench-") as work:
                with LocalCluster(spec, work) as cluster:
                    cluster.wait_ready()
                    samples, elapsed, recorded = asyncio.run(
                        _drive(
                            spec, num_clients, ops_per_client, seed, max_batch, depth
                        )
                    )
                    exit_codes = cluster.stop()
            total_ops = num_clients * ops_per_client
            points.append(
                {
                    "clients": num_clients,
                    "depth": depth,
                    "max_batch": max_batch if depth > 0 else 1,
                    "ops": total_ops,
                    "recorded_ops": recorded,
                    "elapsed_s": round(elapsed, 4),
                    "throughput_ops_s": round(throughput(total_ops, elapsed), 1),
                    "upsert_ms": _latency_doc(
                        LatencySummary.from_samples(samples["upsert"])
                    ),
                    "read_ms": _latency_doc(
                        LatencySummary.from_samples(samples["read"])
                    ),
                    "drained_exit_codes": exit_codes,
                }
            )
    best = max(points, key=lambda p: p["throughput_ops_s"])
    sync_points = [p for p in points if p["depth"] == 0]
    sync_best = (
        max(p["throughput_ops_s"] for p in sync_points) if sync_points else None
    )
    return {
        "bench": "live",
        "topology": {"ingestors": 1, "compactors": 2, "readers": 1},
        "ops_per_client": ops_per_client,
        "read_probes": READ_PROBES,
        "seed": seed,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "sweep": {"clients": client_counts, "depths": depths, "max_batch": max_batch},
        "points": points,
        "best": {
            "clients": best["clients"],
            "depth": best["depth"],
            "throughput_ops_s": best["throughput_ops_s"],
        },
        "sync_baseline_ops_s": sync_best,
        "pipelined_speedup": (
            round(best["throughput_ops_s"] / sync_best, 2)
            if sync_best
            else None
        ),
        "shard_sweep": (
            run_shard_sweep(list(shard_counts), ops_per_client, seed, max_batch)
            if shard_counts
            else None
        ),
    }


def check_regression(
    current: dict, baseline: dict | None, max_regression: float = 2.0
) -> list[str]:
    """Failures (empty when healthy).  Correctness is absolute — every
    node must have drained cleanly at every point; speed is the
    machine-relative ``pipelined_speedup`` (best pipelined / best
    synchronous throughput on the SAME machine) vs the baseline's, so
    the gate travels across hardware."""
    failures: list[str] = []
    for point in current["points"]:
        if any(code != 0 for code in point["drained_exit_codes"].values()):
            failures.append(
                f"clients={point['clients']} depth={point['depth']}: "
                f"non-zero drain exits {point['drained_exit_codes']}"
            )
    if baseline is not None and _comparable(current, baseline):
        base = baseline.get("pipelined_speedup") or 0.0
        cur = current.get("pipelined_speedup") or 0.0
        if base > 0 and cur < base / max_regression:
            failures.append(
                f"pipelined_speedup regressed {base:.2f}x -> {cur:.2f}x "
                f"(allowed factor {max_regression}x)"
            )
    failures.extend(check_shard_scaling(current))
    return failures


def check_shard_scaling(current: dict) -> list[str]:
    """Machine-relative shard-scaling gate.

    The ideal aggregate speedup of an ``n``-shard fleet on this machine
    is ``min(n, cpus)`` (the Ingestors are CPU-bound processes); a
    healthy run keeps at least ``SHARD_SCALING_EFFICIENCY`` of it.  On
    a >= 4-core box that is the paper-style ">= 2.5x at 4 Ingestors";
    on a 1-core box the floor degrades to ~parity instead of demanding
    impossible parallelism.  No cross-machine baseline is consulted —
    the ratio is already relative to the same machine's 1-shard point.
    """
    sweep = current.get("shard_sweep")
    if not sweep:
        return []
    failures = []
    for point in sweep["points"]:
        if any(code != 0 for code in point["drained_exit_codes"].values()):
            failures.append(
                f"shards={point['shards']}: non-zero drain exits "
                f"{point['drained_exit_codes']}"
            )
    ratio = sweep.get("scaling_ratio")
    at_shards = sweep.get("scaling_at_shards")
    if ratio is not None and at_shards:
        cpus = current.get("cpus") or 1
        floor = SHARD_SCALING_EFFICIENCY * min(at_shards, cpus)
        if ratio < floor:
            failures.append(
                f"shard scaling {ratio:.2f}x at {at_shards} shards is below "
                f"the machine-relative floor {floor:.2f}x "
                f"({SHARD_SCALING_EFFICIENCY} * min({at_shards} shards, "
                f"{cpus} cpus))"
            )
    return failures


def _comparable(current: dict, baseline: dict) -> bool:
    """Speedups only compare between runs of the same sweep shape."""
    keys = ("sweep", "topology", "ops_per_client", "read_probes")
    return all(current.get(k) == baseline.get(k) for k in keys)


def run_and_report(
    out: str = "BENCH_live.json",
    client_counts: list[int] | None = None,
    ops_per_client: int = 400,
    seed: int = 0,
    depths: list[int] | None = None,
    max_batch: int = DEFAULT_MAX_BATCH,
    check: str | None = None,
    max_regression: float = 2.0,
    shard_counts: list[int] | None = None,
) -> int:
    """CLI entrypoint: run, print a table, write JSON, gate vs baseline."""
    document = run(
        client_counts, ops_per_client, seed, depths, max_batch, shard_counts
    )
    print(
        f"live bench — {document['topology']} — {ops_per_client} ops/client, "
        f"cpus={document['cpus']}"
    )
    header = (
        f"{'clients':>8} {'depth':>6} {'thru ops/s':>11} {'upsert p50':>11} "
        f"{'upsert p99':>11} {'p999':>9} {'read p50':>9} {'read p99':>9}"
    )
    print(header)
    for point in document["points"]:
        print(
            f"{point['clients']:>8} {point['depth']:>6} "
            f"{point['throughput_ops_s']:>11} "
            f"{point['upsert_ms']['p50']:>10.2f}ms {point['upsert_ms']['p99']:>10.2f}ms "
            f"{point['upsert_ms']['p999']:>8.2f}ms "
            f"{point['read_ms']['p50']:>8.2f}ms {point['read_ms']['p99']:>8.2f}ms"
        )
    best = document["best"]
    print(
        f"best: {best['throughput_ops_s']} ops/s at clients={best['clients']} "
        f"depth={best['depth']} (sync baseline {document['sync_baseline_ops_s']} "
        f"ops/s, speedup {document['pipelined_speedup']}x)"
    )
    sweep = document.get("shard_sweep")
    if sweep:
        print(
            f"shard scaling — {sweep['clients']} clients, depth "
            f"{sweep['depth']}, sharded routing"
        )
        print(f"{'shards':>8} {'thru ops/s':>11} {'upsert p50':>11} {'p99':>9}")
        for point in sweep["points"]:
            print(
                f"{point['shards']:>8} {point['throughput_ops_s']:>11} "
                f"{point['upsert_ms']['p50']:>10.2f}ms "
                f"{point['upsert_ms']['p99']:>8.2f}ms"
            )
        print(
            f"scaling: {sweep['scaling_ratio']}x at "
            f"{sweep['scaling_at_shards']} shards "
            f"(ideal min(shards, {document['cpus']} cpus))"
        )
    with open(out, "w") as sink:
        json.dump(document, sink, indent=2)
        sink.write("\n")
    print(f"wrote {out}")
    baseline = None
    if check is not None:
        with open(check) as source:
            baseline = json.load(source)
    failures = check_regression(document, baseline, max_regression)
    for failure in failures:
        print(f"  !! {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run_and_report())
