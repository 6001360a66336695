"""LSM design trade-offs: compaction disciplines, measured.

Measures write/space amplification of leveled vs universal compaction
on identical workloads (each on the single-machine engine: one Ingestor
and one Compactor on one machine), then watches a CooLSM deployment's
compaction waves through the cluster monitor.

Run with:  python examples/lsm_tradeoffs.py
"""

from dataclasses import replace

from repro.core import MONOLITH, ClusterMonitor, ClusterSpec, CooLSMConfig, build_cluster
from repro.lsm import measure_cluster
from repro.workloads import Trace, replay_trace


def compaction_tradeoffs() -> None:
    print("== Compaction trade-offs: leveled vs universal ==")
    shape = replace(
        CooLSMConfig.paper_100k().scaled_down(10),
        memtable_entries=32,
        sstable_entries=16,
        l0_threshold=3,
        l1_threshold=3,
        l2_threshold=8,
    )
    for name, policy in (("leveled  ", "leveling"), ("universal", "tiering")):
        # The single-machine engine: one Ingestor + one Compactor.
        config = replace(shape, compaction_policy=policy)
        cluster = build_cluster(ClusterSpec(config=config, placement=MONOLITH))
        client = cluster.add_client(colocate_with="ingestor-0", record_history=False)

        def overwrites():
            for i in range(10_000):
                yield from client.upsert(i % 600, b"v-%d" % i)

        cluster.run_process(overwrites())
        cluster.run()
        report = measure_cluster(cluster)
        print(
            f"   {name}: write-amp {report.write_amplification:5.2f}  "
            f"space-amp {report.space_amplification:4.2f}  "
            f"max probes {report.read_amplification}"
        )
    print()


def watch_compaction_waves() -> None:
    print("== Watching a CooLSM deployment through the monitor ==")
    config = CooLSMConfig.paper_100k().scaled_down(10)
    cluster = build_cluster(ClusterSpec(config=config, num_compactors=2))
    client = cluster.add_client(colocate_with="ingestor-0")
    monitor = ClusterMonitor(cluster, interval=0.05)
    monitor.start()
    trace = Trace.synthesize(6_000, key_range=config.key_range, seed=5)
    cluster.run_process(replay_trace(client, trace))
    monitor.stop()
    cluster.run()
    timeline = monitor.timeline
    for node in sorted(timeline.nodes()):
        if node.startswith("compactor"):
            series = timeline.series(node, "entries")
            print(
                f"   {node}: entries {series[0][1]:.0f} -> {series[-1][1]:.0f} "
                f"over {series[-1][0]:.2f}s sim time"
            )
    peak = timeline.peak("ingestor-0", "inflight_tables")
    print(
        f"   ingestor-0 peak in-flight tables: {peak:.0f} "
        f"(stall threshold {config.max_inflight_tables}; one forwarding "
        "burst may overshoot it before the next compaction stalls)"
    )


if __name__ == "__main__":
    compaction_tradeoffs()
    watch_compaction_waves()
