"""Benchmark a real cluster under live fault injection
(``repro.cli chaos-bench``).

Launches a 1 Ingestor + 2 Compactor durable cluster behind the chaos
proxy and drives a continuous retry-until-ack writer through five
phases::

    baseline   no faults — the reference throughput B
    drop       30% of frames dropped on every link
    latency    50ms one-way latency injected on the Ingestor's machine
    partition  driver <-> Ingestor link cut, then healed
    crash      Ingestor SIGKILLed, restarted from its data dir

Two families of numbers land in ``BENCH_chaos.json``:

* **under-fault throughput ratios** — phase throughput / B for the
  degraded-but-available faults (drop, latency).  A healthy stack
  keeps making progress through retries; a ratio collapsing toward
  zero means the fault path serialises or livelocks.
* **recovery time to SLA** — for the outage faults (partition, crash),
  seconds from the heal until a sliding window first sustains 50% of
  B again.  This is the paper's availability story measured on real
  sockets: reconnect backoff + client retry + (for crash) WAL replay.

The absolute gate is zero acked-write loss across every phase; speed
gates are ratio-of-ratios against a baseline document, so
heterogeneous CI machines do not flake.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import platform
import sys
import tempfile
import time
from dataclasses import replace

from repro.bench.metrics import LatencySummary
from repro.core.config import CooLSMConfig
from repro.core.history import History
from repro.live.chaos import ChaosControl
from repro.live.harness import ClientPool, LocalCluster, localhost_spec
from repro.sim.kernel import SimError

#: Throughput fraction of baseline that counts as "recovered".
SLA_FRACTION = 0.5
#: Sliding-window width used when scanning for SLA re-attainment.
SLA_WINDOW_S = 0.5
#: Give up scanning for recovery after this long past the heal.
SLA_HORIZON_S = 20.0


def _recovery_to_sla(
    acks: list[float], healed_at: float, baseline_rate: float
) -> float | None:
    """Seconds from ``healed_at`` until a ``SLA_WINDOW_S`` window first
    carries ``SLA_FRACTION`` of the baseline rate; None if never."""
    needed = max(1, int(baseline_rate * SLA_FRACTION * SLA_WINDOW_S))
    step = SLA_WINDOW_S / 5.0
    start = healed_at
    while start <= healed_at + SLA_HORIZON_S:
        lo = bisect.bisect_left(acks, start)
        hi = bisect.bisect_left(acks, start + SLA_WINDOW_S)
        if hi - lo >= needed:
            return round(start - healed_at, 4)
        start += step
    return None


def run(ops: int = 400, seed: int = 0) -> dict:
    """Run the chaos benchmark; returns the BENCH_chaos.json document.

    ``ops`` sets the per-phase duration indirectly: each phase lasts
    ``max(1.5, ops / 200)`` seconds, so the default 400 spends 2s per
    phase.
    """
    phase_seconds = max(1.5, ops / 200.0)
    config = replace(
        CooLSMConfig().scaled_down(10), ack_timeout=1.0, client_timeout=1.5
    )
    spec = localhost_spec(1, 2, 0, num_clients=2, config=config, seed=seed)
    key_range = max(ops // 4, 20)
    acked: dict[bytes, bytes] = {}
    acks: list[float] = []
    #: Per-acked-op latency (including client-side retries), parallel
    #: to ``acks``.
    lats: list[float] = []
    stop = {"flag": False}
    retries = {"count": 0}

    def writer(client):
        index = 0
        while not stop["flag"]:
            key = index % key_range
            value = b"cb-%d" % index
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
            acks.append(time.perf_counter())
            lats.append(acks[-1] - op_started)
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

    with tempfile.TemporaryDirectory(prefix="coolsm-chaos-bench-") as work:
        data_dir = f"{work}/data"
        with LocalCluster(
            spec, work, data_dir=data_dir, chaos=True, chaos_seed=seed
        ) as cluster:
            cluster.wait_ready()

            async def drive():
                control = ChaosControl(cluster.control_address)
                phases: dict[str, dict] = {}

                async def window(name, fault=None, heal=None):
                    if fault is not None:
                        await fault()
                    started = time.perf_counter()
                    before = len(acks)
                    await asyncio.sleep(phase_seconds)
                    duration = time.perf_counter() - started
                    done = len(acks) - before
                    summary = LatencySummary.from_samples(lats[before:before + done])
                    # Recovery clocks start when healing *begins*: for
                    # a crash the heal is the blocking restart, so WAL
                    # replay and relaunch count toward time-to-SLA.
                    healed_at = time.perf_counter()
                    if heal is not None:
                        await heal()
                    phases[name] = {
                        "ops": done,
                        "duration_s": round(duration, 4),
                        "throughput": round(done / duration, 2),
                        "ack_p50_s": round(summary.p50, 5),
                        "ack_p99_s": round(summary.p99, 5),
                        "healed_at": healed_at,
                    }

                async with ClientPool(
                    cluster.driver_spec, 1, history=History()
                ) as pool:
                    load = asyncio.ensure_future(
                        pool.run(writer(pool.clients[0]), "chaos-load")
                    )
                    try:
                        await window("baseline")
                        await window(
                            "drop",
                            fault=lambda: control.set_drop(0.3),
                            heal=lambda: control.set_drop(0.0),
                        )
                        await window(
                            "latency",
                            fault=lambda: control.set_latency(
                                "m-ingestor-0", 0.05
                            ),
                            heal=lambda: control.set_latency(
                                "m-ingestor-0", 0.0
                            ),
                        )
                        await window(
                            "partition",
                            fault=lambda: control.cut(
                                "m-driver", "m-ingestor-0"
                            ),
                            heal=lambda: control.heal(
                                "m-driver", "m-ingestor-0"
                            ),
                        )

                        await window(
                            "crash",
                            fault=lambda: asyncio.to_thread(
                                cluster.kill9, "ingestor-0"
                            ),
                            heal=lambda: asyncio.to_thread(
                                cluster.restart, "ingestor-0"
                            ),
                        )
                        # Let the tail of the crash recovery register.
                        await asyncio.sleep(2.0 * SLA_WINDOW_S)
                    finally:
                        stop["flag"] = True
                        total_ops = await load
                    lost = await pool.run(
                        read_all(pool.clients[0]), "readback"
                    )
                proxy_stats = (await control.stats())["stats"]
                await control.close()
                return phases, total_ops, lost, proxy_stats

            phases, total_ops, lost, proxy_stats = asyncio.run(drive())
            exit_codes = cluster.stop()
        ingestor_log = cluster.log_path("ingestor-0").read_text()

    baseline_rate = phases["baseline"]["throughput"]
    for name in ("drop", "latency"):
        phases[name]["ratio"] = round(
            phases[name]["throughput"] / baseline_rate if baseline_rate else 0.0,
            4,
        )
    for name in ("partition", "crash"):
        phases[name]["recovery_to_sla_s"] = _recovery_to_sla(
            acks, phases[name]["healed_at"], baseline_rate
        )
    for phase in phases.values():
        del phase["healed_at"]

    return {
        "bench": "chaos",
        "config": {
            "topology": {"ingestors": 1, "compactors": 2, "readers": 0},
            "ops": ops,
            "phase_seconds": round(phase_seconds, 3),
            "key_range": key_range,
            "seed": seed,
            "sla_fraction": SLA_FRACTION,
        },
        "python": platform.python_version(),
        "baseline_throughput": baseline_rate,
        "phases": phases,
        "total_acked_ops": total_ops,
        "acked_keys": len(acked),
        "client_retries": retries["count"],
        "lost_writes": lost,
        "crash_recovered": "RECOVERED" in ingestor_log,
        "proxy": {
            "frames_forwarded": proxy_stats["frames_forwarded"],
            "frames_dropped": proxy_stats["frames_dropped"],
            "cuts": proxy_stats["cuts"],
            "heals": proxy_stats["heals"],
        },
        "drained_exit_codes": exit_codes,
    }


def check_regression(
    current: dict, baseline: dict | None, max_regression: float = 2.5
) -> list[str]:
    """Failures (empty when healthy).  Correctness and recovery are
    absolute; speed compares machine-relative ratios to the baseline
    document's, so only genuine degradation trips the gate."""
    failures: list[str] = []
    if current["lost_writes"]:
        failures.append(
            f"{current['lost_writes']} acked writes lost under chaos"
        )
    if not current["crash_recovered"]:
        failures.append("crashed Ingestor never logged a RECOVERED line")
    if any(code != 0 for code in current["drained_exit_codes"].values()):
        failures.append(
            f"non-zero drain exits: {current['drained_exit_codes']}"
        )
    for name in ("partition", "crash"):
        if current["phases"][name]["recovery_to_sla_s"] is None:
            failures.append(
                f"throughput never returned to "
                f"{current['config']['sla_fraction']:.0%} of baseline "
                f"after {name}"
            )
    if baseline is not None and _comparable(current, baseline):
        for name in ("drop", "latency"):
            base = baseline["phases"][name].get("ratio", 0.0)
            cur = current["phases"][name]["ratio"]
            # Ratios below 5% of baseline are dominated by timeout
            # quantization (a handful of ops per window) — too noisy
            # to gate on; the absolute gates above still apply.
            if base >= 0.05 and cur < base / max_regression:
                failures.append(
                    f"under-fault ratio for {name} regressed "
                    f"{base:.3f} -> {cur:.3f} "
                    f"(allowed factor {max_regression}x)"
                )
        for name in ("partition", "crash"):
            base = baseline["phases"][name].get("recovery_to_sla_s")
            cur = current["phases"][name]["recovery_to_sla_s"]
            if base is not None and cur is not None:
                # Floor tiny baselines: sub-second recoveries are noise.
                allowed = max(base, 1.0) * max_regression
                if cur > allowed:
                    failures.append(
                        f"recovery-to-SLA after {name} regressed "
                        f"{base:.2f}s -> {cur:.2f}s "
                        f"(allowed {allowed:.2f}s)"
                    )
    return failures


def _comparable(current: dict, baseline: dict) -> bool:
    """Ratios only compare between runs of the same workload shape."""
    return current.get("config") == baseline.get("config")


def run_and_report(
    out: str = "BENCH_chaos.json",
    ops: int = 400,
    seed: int = 0,
    check: str | None = None,
    max_regression: float = 2.5,
) -> int:
    """CLI entrypoint: run, print, write JSON, gate against a baseline.

    The baseline is read before ``out`` is written, so ``--out`` and
    ``--check`` may name the same file."""
    baseline = None
    if check is not None:
        with open(check) as source:
            baseline = json.load(source)
    document = run(ops=ops, seed=seed)
    phases = document["phases"]
    print(
        f"chaos bench — {document['total_acked_ops']} acked ops across "
        f"5 phases, {document['client_retries']} client retries, "
        f"lost={document['lost_writes']}"
    )
    base = phases["baseline"]
    print(
        f"  baseline  {document['baseline_throughput']:.1f} ops/s "
        f"(p50 {base['ack_p50_s']}s p99 {base['ack_p99_s']}s)"
    )
    for name in ("drop", "latency"):
        print(
            f"  {name:<9} {phases[name]['throughput']:.1f} ops/s "
            f"(ratio {phases[name]['ratio']:.3f}, "
            f"p99 {phases[name]['ack_p99_s']}s)"
        )
    for name in ("partition", "crash"):
        sla = phases[name]["recovery_to_sla_s"]
        rendered = f"{sla:.2f}s" if sla is not None else "never"
        print(
            f"  {name:<9} {phases[name]['throughput']:.1f} ops/s "
            f"(recovery to SLA {rendered})"
        )
    with open(out, "w") as sink:
        json.dump(document, sink, indent=2)
        sink.write("\n")
    print(f"wrote {out}")
    failures = check_regression(document, baseline, max_regression)
    for failure in failures:
        print(f"  !! {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run_and_report())
