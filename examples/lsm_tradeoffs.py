"""LSM design trade-offs: compaction disciplines, measured.

Measures write/space amplification of leveled vs universal compaction
on identical workloads, then watches a CooLSM deployment's compaction
waves through the cluster monitor.

Run with:  python examples/lsm_tradeoffs.py
"""

from repro.core import ClusterMonitor, ClusterSpec, CooLSMConfig, build_cluster
from repro.lsm import LSMConfig, LSMTree, measure_lsm_tree
from repro.workloads import Trace, replay_trace


def compaction_tradeoffs() -> None:
    print("== Compaction trade-offs: leveled vs universal ==")
    shape = dict(memtable_entries=32, sstable_entries=16, level_thresholds=(3, 3, 8, 0))
    leveled = LSMTree(LSMConfig(**shape))
    tiered = LSMTree(LSMConfig(compaction_policy="tiering", **shape))
    for i in range(10_000):
        key = i % 600
        leveled.put(key, b"v-%d" % i)
        tiered.put(key, b"v-%d" % i)
    for name, report in (
        ("leveled  ", measure_lsm_tree(leveled)),
        ("universal", measure_lsm_tree(tiered)),
    ):
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
