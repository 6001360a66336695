"""Long-run write-stability benchmark (``repro.cli stability-bench``).

Luo & Carey ("On Performance Stability in LSM-based Storage Systems")
argue that LSM write benchmarks reporting *means* hide the failure mode
that matters: periodic write stalls when compaction debt catches up
with the ingest rate.  This bench measures stability the way they do —
percentiles **over time windows**, not aggregates — and uses it to
prove the flow-control subsystem (:mod:`repro.core.flow`) earns its
keep:

* **sim phase** — the identical open-loop write schedule (same keys,
  same per-op intended issue times: equal offered load, deliberately
  above compaction capacity) is driven twice through a simulated
  1 Ingestor + 2 Compactor cluster: once with ``flow_control=False``
  and once with ``flow_control=True``.  Latency is measured against
  each op's *intended* issue time (coordinated omission correction), so
  a stall shows up in every op it delays, not just the one that hit it.
  The document records per-window throughput/p50/p99/p999 plus the
  Ingestor's stall ledger, and the gate requires flow-on to beat
  flow-off on both the worst-window p999/overall-p50 ratio and total
  stall time.  The simulator is deterministic, so this comparison is
  exactly reproducible and trivially machine-relative.
* **live phase** — a real multi-process durable cluster over localhost
  TCP runs a continuous retry-until-ack writer with flow control
  enabled; the document records wall-clock windows and the gate is zero
  acked-write loss (admission control must shed *requests*, never
  acked data).

Gates follow the repo's convention (:mod:`repro.bench.chaos_bench`):
correctness and the on-beats-off comparison are absolute within one
run; cross-run speed comparisons against a baseline document are
ratio-based so heterogeneous CI machines do not flake.
"""

from __future__ import annotations

import asyncio
import json
import platform
import sys
import tempfile
import time
from dataclasses import replace

from repro.bench.metrics import LatencySummary
from repro.core import ClusterSpec, CooLSMConfig, build_cluster
from repro.core.history import History
from repro.sim.rpc import RemoteError, RpcTimeout

#: Sim-phase window width (simulated seconds).
SIM_WINDOW_S = 0.2
#: Live-phase window width (wall seconds).
LIVE_WINDOW_S = 0.5
#: Windows with fewer acks than this have meaningless p999s; they are
#: reported but excluded from the worst-window scan.
MIN_WINDOW_OPS = 20

#: Sim-phase cluster: aggressive thresholds so a few thousand writes
#: produce many minor compactions, forwards, and inflight-ack waits —
#: the stall mechanics — in a fraction of a simulated second per window.
SIM_CONFIG = CooLSMConfig(
    key_range=4_096,
    memtable_entries=8,
    sstable_entries=8,
    l0_threshold=2,
    l1_threshold=2,
    l2_threshold=4,
    l3_threshold=16,
    max_inflight_tables=4,
    delta=0.002,
    ack_timeout=0.5,
    client_timeout=1.0,
)
#: Open-loop writers in the sim phase.  Each writer issues bursts of
#: ``SIM_BURST_OPS`` at ``SIM_BURST_PACE_S`` (within-burst the fleet
#: offers ~20k ops/s, far above what the 30us/entry merge pipeline
#: absorbs at these thresholds), separated by ``SIM_GAP_S`` idle gaps
#: that bring the *average* offered load back under capacity.  Bursty
#: above-capacity load is where flow control earns its keep: without it
#: every burst lands as compaction debt and pops as a stall; with it
#: the burst is spread into the gap.
SIM_CLIENTS = 4
SIM_BURST_OPS = 100
SIM_BURST_PACE_S = 0.0002
SIM_GAP_S = 0.1


def _window_stats(
    acks: list[tuple[float, float]], window_s: float
) -> list[dict]:
    """Bucket (ack_time, latency) pairs into fixed-width windows.

    Returns one dict per window from the first ack to the last, with
    throughput and the latency percentiles the stability story needs.
    """
    if not acks:
        return []
    ordered = sorted(acks)
    start = ordered[0][0]
    windows: list[dict] = []
    bucket: list[float] = []
    edge = start + window_s
    for at, latency in ordered:
        while at >= edge:
            windows.append(_one_window(len(windows), bucket, window_s))
            bucket = []
            edge += window_s
        bucket.append(latency)
    windows.append(_one_window(len(windows), bucket, window_s))
    return windows


def _one_window(index: int, latencies: list[float], window_s: float) -> dict:
    summary = LatencySummary.from_samples(latencies)
    return {
        "window": index,
        "ops": summary.count,
        "throughput": round(summary.count / window_s, 2),
        "p50_s": round(summary.p50, 6),
        "p99_s": round(summary.p99, 6),
        "p999_s": round(summary.p999, 6),
    }


def _summarise(acks: list[tuple[float, float]], window_s: float) -> dict:
    """Windows + the headline stability numbers derived from them."""
    windows = _window_stats(acks, window_s)
    overall = LatencySummary.from_samples([latency for __, latency in acks])
    full = [w for w in windows if w["ops"] >= MIN_WINDOW_OPS]
    worst_p999 = max((w["p999_s"] for w in full), default=None)
    overall_p50 = round(overall.p50, 6)
    tail_ratio = None
    if worst_p999 is not None and overall_p50:
        tail_ratio = round(worst_p999 / overall_p50, 3)
    return {
        "acked_ops": len(acks),
        "duration_s": round(acks[-1][0] - acks[0][0], 4) if acks else 0.0,
        "overall_p50_s": overall_p50,
        "overall_p99_s": round(overall.p99, 6),
        "overall_p999_s": round(overall.p999, 6),
        "worst_window_p999_s": worst_p999,
        "tail_ratio": tail_ratio,
        "windows": windows,
    }


# ----------------------------------------------------------------------
# Sim phase: flow-off vs flow-on at equal offered load
# ----------------------------------------------------------------------
def _run_sim_phase(flow_control: bool, ops: int, seed: int) -> dict:
    """One deterministic simulated run of the fixed write schedule."""
    config = replace(SIM_CONFIG, flow_control=flow_control)
    cluster = build_cluster(
        ClusterSpec(config=config, num_ingestors=1, num_compactors=2, seed=seed)
    )
    kernel = cluster.kernel
    clients = [
        cluster.add_client(colocate_with="ingestor-0", record_history=False)
        for __ in range(SIM_CLIENTS)
    ]
    per_client = max(1, ops // SIM_CLIENTS)
    acks: list[tuple[float, float]] = []

    def writer(client, index):
        def gen():
            start = kernel.now
            burst_span = SIM_BURST_OPS * SIM_BURST_PACE_S + SIM_GAP_S
            for i in range(per_client):
                # Open-loop schedule: latency is measured against the
                # op's intended issue time, so queueing delay caused by
                # a stall is charged to every op it pushes back.
                intended = (
                    start
                    + (i // SIM_BURST_OPS) * burst_span
                    + (i % SIM_BURST_OPS) * SIM_BURST_PACE_S
                )
                if kernel.now < intended:
                    yield kernel.timeout(intended - kernel.now)
                key = (index * per_client + i) % config.key_range
                value = b"st-%d-%d" % (index, i)
                while True:
                    try:
                        yield from client.upsert(key, value)
                        break
                    except (RpcTimeout, RemoteError):
                        continue
                acks.append((kernel.now, kernel.now - intended))

        return gen

    processes = [
        kernel.spawn(writer(client, i)(), f"stability-writer-{i}")
        for i, client in enumerate(clients)
    ]

    def barrier():
        yield kernel.all_of(processes)

    cluster.run_process(barrier())
    cluster.run()

    admission = cluster.ingestors[0].admission
    summary = _summarise(acks, SIM_WINDOW_S)
    summary.update(
        {
            "flow_control": flow_control,
            "offered_ops": per_client * SIM_CLIENTS,
            "stall_events": len(admission.stall_events),
            "stall_time_s": round(admission.stall_time, 6),
            "admission_rejections": admission.rejected,
            "admission_delays": admission.delayed,
            "admission_delay_time_s": round(admission.delay_time, 6),
            "backpressure_retries": sum(
                client.stats.backpressure_retries for client in clients
            ),
        }
    )
    return summary


# ----------------------------------------------------------------------
# Live phase: real sockets, flow control on, zero acked-write loss
# ----------------------------------------------------------------------
def _run_live_phase(seconds: float, seed: int) -> dict:
    """Write-heavy load on a real durable cluster with flow control on."""
    from repro.live.harness import ClientPool, LocalCluster, localhost_spec
    from repro.sim.kernel import SimError

    config = replace(
        CooLSMConfig().scaled_down(10),
        ack_timeout=1.0,
        client_timeout=1.5,
        flow_control=True,
    )
    spec = localhost_spec(1, 2, 0, num_clients=2, config=config, seed=seed)
    acked: dict[bytes, bytes] = {}
    acks: list[tuple[float, float]] = []
    stop = {"flag": False}
    retries = {"count": 0}

    def writer(client):
        index = 0
        while not stop["flag"]:
            key = index % config.key_range
            value = b"stab-%d" % index
            op_started = time.perf_counter()
            while True:
                try:
                    yield from client.upsert(key, value)
                    break
                except SimError:
                    retries["count"] += 1
                    if stop["flag"]:
                        return index
            acked[str(key).encode()] = value
            acks.append((time.perf_counter(), time.perf_counter() - op_started))
            index += 1
        return index

    def read_all(client):
        lost = 0
        for key, expected in sorted(acked.items()):
            got = None
            for __ in range(10):
                try:
                    got = yield from client.read(int(key))
                    break
                except SimError:
                    continue
            lost += got != expected
        return lost

    with tempfile.TemporaryDirectory(prefix="coolsm-stability-bench-") as work:
        with LocalCluster(spec, work, data_dir=f"{work}/data") as cluster:
            cluster.wait_ready()

            async def drive():
                async with ClientPool(spec, 1, history=History()) as pool:
                    load = asyncio.ensure_future(
                        pool.run(writer(pool.clients[0]), "stability-load")
                    )
                    await asyncio.sleep(seconds)
                    stop["flag"] = True
                    total_ops = await load
                    lost = await pool.run(read_all(pool.clients[0]), "readback")
                    bp = pool.clients[0].stats.backpressure_retries
                return total_ops, lost, bp

            total_ops, lost, bp = asyncio.run(drive())
            cluster.stop()

    summary = _summarise(acks, LIVE_WINDOW_S)
    summary.update(
        {
            "flow_control": True,
            "seconds": seconds,
            "total_acked_ops": total_ops,
            "acked_keys": len(acked),
            "client_retries": retries["count"],
            "backpressure_retries": bp,
            "lost_writes": lost,
        }
    )
    return summary


# ----------------------------------------------------------------------
# Document, gates, CLI entry
# ----------------------------------------------------------------------
def run(ops: int = 12000, seed: int = 0, live_seconds: float = 4.0) -> dict:
    """Run both phases; returns the BENCH_stability.json document.

    ``live_seconds <= 0`` skips the live phase (pure-sim smoke).
    """
    flow_off = _run_sim_phase(False, ops, seed)
    flow_on = _run_sim_phase(True, ops, seed)
    live = _run_live_phase(live_seconds, seed) if live_seconds > 0 else None
    return {
        "bench": "stability",
        "config": {
            "topology": {"ingestors": 1, "compactors": 2, "readers": 0},
            "sim_ops": ops,
            "sim_clients": SIM_CLIENTS,
            "sim_burst_ops": SIM_BURST_OPS,
            "sim_burst_pace_s": SIM_BURST_PACE_S,
            "sim_gap_s": SIM_GAP_S,
            "sim_window_s": SIM_WINDOW_S,
            "live_window_s": LIVE_WINDOW_S,
            "seed": seed,
        },
        "python": platform.python_version(),
        "sim": {"flow_off": flow_off, "flow_on": flow_on},
        "live": live,
    }


def check_regression(
    current: dict, baseline: dict | None, max_regression: float = 2.5
) -> list[str]:
    """Failures (empty when healthy).

    The flow-on-beats-flow-off comparison and zero-loss are absolute —
    both sides were measured in THIS run at equal offered load, so no
    machine normalisation is needed.  The baseline document only gates
    the flow-on tail ratio against genuine cross-run degradation.
    """
    failures: list[str] = []
    off = current["sim"]["flow_off"]
    on = current["sim"]["flow_on"]
    if on["offered_ops"] != off["offered_ops"]:
        failures.append(
            f"offered load differs between runs: "
            f"{off['offered_ops']} vs {on['offered_ops']}"
        )
    if on["acked_ops"] != on["offered_ops"]:
        failures.append(
            f"flow-on run dropped writes: acked {on['acked_ops']} "
            f"of {on['offered_ops']} (admission must delay, not lose)"
        )
    if off["tail_ratio"] is None or on["tail_ratio"] is None:
        failures.append("too few acks per window to compute tail ratios")
    elif on["tail_ratio"] >= off["tail_ratio"]:
        failures.append(
            f"flow control did not improve worst-window p999/p50: "
            f"on {on['tail_ratio']} vs off {off['tail_ratio']}"
        )
    if on["stall_time_s"] > off["stall_time_s"]:
        failures.append(
            f"flow control increased total stall time: "
            f"on {on['stall_time_s']}s vs off {off['stall_time_s']}s"
        )
    live = current.get("live")
    if live is not None and live["lost_writes"]:
        failures.append(f"{live['lost_writes']} acked writes lost in live phase")
    if baseline is not None and _comparable(current, baseline):
        base_on = baseline["sim"]["flow_on"]
        if base_on.get("tail_ratio") and on.get("tail_ratio"):
            if on["tail_ratio"] > base_on["tail_ratio"] * max_regression:
                failures.append(
                    f"flow-on tail ratio regressed "
                    f"{base_on['tail_ratio']} -> {on['tail_ratio']} "
                    f"(allowed factor {max_regression}x)"
                )
    return failures


def _comparable(current: dict, baseline: dict) -> bool:
    """Sim numbers only compare between runs of the same schedule."""
    return current.get("config") == baseline.get("config")


def run_and_report(
    out: str = "BENCH_stability.json",
    ops: int = 12000,
    seed: int = 0,
    live_seconds: float = 4.0,
    check: str | None = None,
    max_regression: float = 2.5,
) -> int:
    """CLI entrypoint: run, print, write JSON, gate against a baseline."""
    document = run(ops=ops, seed=seed, live_seconds=live_seconds)
    for name in ("flow_off", "flow_on"):
        phase = document["sim"][name]
        print(
            f"sim {name:<8} {phase['acked_ops']} acks in "
            f"{phase['duration_s']}s — p50 {phase['overall_p50_s']}s, "
            f"worst-window p999 {phase['worst_window_p999_s']}s "
            f"(tail ratio {phase['tail_ratio']}), "
            f"stalls {phase['stall_events']} for {phase['stall_time_s']}s, "
            f"rejected {phase['admission_rejections']}"
        )
    live = document["live"]
    if live is not None:
        print(
            f"live flow_on  {live['total_acked_ops']} acks in "
            f"{live['seconds']}s — p50 {live['overall_p50_s']}s, "
            f"worst-window p999 {live['worst_window_p999_s']}s, "
            f"lost={live['lost_writes']}"
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
