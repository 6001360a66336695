"""Figure 5: throughput while increasing the number of clients, three
ways — distributed (client+Ingestor per machine), colocated (all
client+Ingestor pairs on one machine), and multithreaded (clients share
one Ingestor)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import SCALE, drive, scaled_config
from repro.bench.reporting import paper_vs_measured, print_header, print_series
from repro.core import ClusterSpec, build_cluster
from repro.workloads import write_only

CLIENT_COUNTS = (1, 2, 3, 4)
MODES = ("distributed", "colocated", "multithreaded")


@dataclass(slots=True)
class Fig5Point:
    mode: str
    clients: int
    throughput: float


def _run_one(mode: str, clients: int, ops_per_client: int, scale: int) -> Fig5Point:
    # Looser flow control than the latency experiments: the scaled-down
    # in-flight cap would otherwise throttle the aggregate of several
    # clients long before the Compactors saturate.
    config = scaled_config(100_000, scale, max_inflight_tables=48)
    if mode == "multithreaded":
        spec = ClusterSpec(config=config, num_ingestors=1, num_compactors=5)
    else:
        # Colocated: every Ingestor (and so every client) on one machine.
        shared = {f"ingestor-{i}": "m-ingestors" for i in range(clients)}
        spec = ClusterSpec(
            config=config,
            num_ingestors=clients,
            num_compactors=5,
            placement=shared if mode == "colocated" else {},
        )
    cluster = build_cluster(spec)
    drivers = []
    for index in range(clients):
        ingestor = "ingestor-0" if mode == "multithreaded" else f"ingestor-{index}"
        client = cluster.add_client(
            colocate_with=ingestor,
            ingestors=[ingestor],
            record_history=False,
        )
        drivers.append(write_only(client, ops=ops_per_client, seed=index))
    result = drive(cluster, drivers)
    return Fig5Point(mode, clients, result.write_throughput)


def run(ops_per_client: int = 6_000, scale: int = SCALE) -> list[Fig5Point]:
    return [
        _run_one(mode, clients, ops_per_client, scale)
        for mode in MODES
        for clients in CLIENT_COUNTS
    ]


def report(points: list[Fig5Point]) -> None:
    print_header("Figure 5 — throughput while increasing the number of clients")
    series = {}
    for mode in MODES:
        mode_points = [p for p in points if p.mode == mode]
        series[mode] = [p.throughput for p in mode_points]
        print_series(
            f"{mode} scaling",
            [p.clients for p in mode_points],
            series[mode],
            "#clients",
            "throughput (ops/s)",
            fmt="{:.0f}",
        )
    paper_vs_measured(
        "distributed scaling increases performance with more clients",
        f"{series['distributed'][0]:.0f} -> {series['distributed'][-1]:.0f} ops/s",
        series["distributed"][-1] > 1.5 * series["distributed"][0],
    )
    paper_vs_measured(
        "colocated scaling also increases performance (shared machine)",
        f"{series['colocated'][0]:.0f} -> {series['colocated'][-1]:.0f} ops/s",
        series["colocated"][-1] > 1.2 * series["colocated"][0],
    )
    multithreaded = series["multithreaded"]
    distributed = series["distributed"]
    paper_vs_measured(
        "multithreaded scaling does not scale (one client saturates one Ingestor)",
        f"{' -> '.join(f'{t:.0f}' for t in multithreaded)} ops/s "
        "(no growth beyond 2 clients, well below distributed scaling)",
        multithreaded[-1] <= multithreaded[1] * 1.05
        and multithreaded[-1] / multithreaded[0] < distributed[-1] / distributed[0],
    )
    paper_vs_measured(
        "the 1->2 client increase is the most significant",
        "see the distributed series above",
        (series["distributed"][1] - series["distributed"][0])
        >= (series["distributed"][3] - series["distributed"][2]) * 0.8,
    )
