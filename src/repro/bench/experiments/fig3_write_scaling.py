"""Figure 3: write latency (a) and throughput (b) vs number of
Compactors, for 100K and 300K key ranges, with the monolithic CooLSM
and the LevelDB/RocksDB-like engines as reference points.

All three reference points are one deployment: CooLSM's Ingestor and
Compactor placed on one machine (:data:`~repro.core.MONOLITH`).  The
reference engines are that deployment under another configuration."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.bench.harness import SCALE, drive, scaled_config
from repro.bench.reporting import paper_vs_measured, print_header, print_series
from repro.core import MONOLITH, ClusterSpec, CooLSMConfig, build_cluster
from repro.workloads import write_only

COMPACTOR_COUNTS = (1, 2, 3, 5, 7)
KEY_RANGES = (100_000, 300_000)

#: Modelled synchronous-WAL fsync of the reference engines: "we run
#: both with configuration to persist and sync to disk".
WAL_SYNC_COST = 50e-6

#: The reference engines and the compaction policy each runs.
REFERENCE_POLICIES = {"leveldb": "leveling", "rocksdb": "tiering"}


def reference_engine(config: CooLSMConfig, policy: str) -> CooLSMConfig:
    """``config`` in LevelDB's shape — L0 compacts past 4 tables, L1
    holds 10 — under ``policy`` (``"leveling"`` for the LevelDB-like
    engine, ``"tiering"`` for the RocksDB-like one), every write paying
    the WAL fsync on its core."""
    costs = config.costs
    return replace(
        config,
        l0_threshold=4,
        l1_threshold=10,
        compaction_policy=policy,
        costs=replace(costs, upsert_cpu=costs.upsert_cpu + WAL_SYNC_COST),
    )


@dataclass(slots=True)
class Fig3Result:
    """One (system, key range) point: mean write latency and throughput."""

    system: str
    key_range: int
    mean_write: float
    throughput: float


def _run(system: str, key_range: int, spec: ClusterSpec, ops: int) -> Fig3Result:
    cluster = build_cluster(spec)
    client = cluster.add_client(colocate_with="ingestor-0", record_history=False)
    result = drive(cluster, [write_only(client, ops=ops)])
    return Fig3Result(system, key_range, result.writes.mean, result.write_throughput)


def run(ops: int = 10_000, scale: int = SCALE) -> list[Fig3Result]:
    """Run the full Figure 3 sweep; returns one row per point.

    ``ops`` is the operation count for the 100K key range; the 300K
    runs issue proportionally more so both trees reach a comparable
    fill level (as the paper's longer 300K runs do).
    """
    rows: list[Fig3Result] = []
    for key_range in KEY_RANGES:
        range_ops = ops * key_range // KEY_RANGES[0]
        config = scaled_config(key_range, scale)
        systems = [("monolithic", ClusterSpec(config=config, placement=MONOLITH))]
        systems += [
            (f"coolsm-{count}c", ClusterSpec(config=config, num_compactors=count))
            for count in COMPACTOR_COUNTS
        ]
        systems += [
            (kind, ClusterSpec(config=reference_engine(config, policy), placement=MONOLITH))
            for kind, policy in REFERENCE_POLICIES.items()
        ]
        for system, spec in systems:
            rows.append(_run(system, key_range, spec, range_ops))
    return rows


def report(rows: list[Fig3Result]) -> None:
    print_header(
        "Figure 3 — write performance vs number of Compactors",
        "(scaled configuration; absolute numbers are model-calibrated)",
    )
    for key_range in KEY_RANGES:
        points = [r for r in rows if r.key_range == key_range]
        print_series(
            f"Fig 3(a) write latency, key range {key_range // 1000}K",
            [p.system for p in points],
            [p.mean_write * 1_000 for p in points],
            "system",
            "mean write latency (ms)",
        )
        print_series(
            f"Fig 3(b) write throughput, key range {key_range // 1000}K",
            [p.system for p in points],
            [p.throughput for p in points],
            "system",
            "throughput (ops/s)",
            fmt="{:.0f}",
        )

    by = {(r.system, r.key_range): r for r in rows}
    mono = by[("monolithic", 100_000)].mean_write
    three = by[("coolsm-3c", 100_000)].mean_write
    five = by[("coolsm-5c", 100_000)].mean_write
    seven = by[("coolsm-7c", 100_000)].mean_write
    paper_vs_measured(
        "~50% latency reduction from monolithic to 3 compactors",
        f"{(1 - three / mono) * 100:.0f}% reduction",
        three < mono,
    )
    paper_vs_measured(
        "reduction not significant after 5 compactors",
        f"5c {five * 1e3:.4f}ms vs 7c {seven * 1e3:.4f}ms",
        abs(five - seven) / five < 0.15,
    )
    lat_300 = by[("coolsm-1c", 300_000)].mean_write
    lat_100 = by[("coolsm-1c", 100_000)].mean_write
    paper_vs_measured(
        "300K key range slower than 100K (bigger tree)",
        f"{lat_300 * 1e3:.4f}ms vs {lat_100 * 1e3:.4f}ms",
        lat_300 > lat_100,
    )
    thr_10 = [by[(f"coolsm-{c}c", 100_000)].throughput for c in COMPACTOR_COUNTS]
    paper_vs_measured(
        "throughput increases with the number of compactors",
        " -> ".join(f"{t:.0f}" for t in thr_10),
        all(b >= a * 0.98 for a, b in zip(thr_10, thr_10[1:])),
    )
