"""Amplification study: the Related Work's compaction trade-offs,
measured on the single-machine deployment (one Ingestor and one
Compactor on one machine) under each policy."""

from dataclasses import replace

from repro.bench.reporting import paper_vs_measured, print_header, print_table
from repro.core import MONOLITH, ClusterSpec, build_cluster
from repro.lsm.amplification import measure_cluster

from tests.core.conftest import TINY

SHAPE = replace(
    TINY, memtable_entries=32, sstable_entries=16, l0_threshold=3, l1_threshold=3, l2_threshold=8
)


def run_engine(policy, ops, keys):
    config = replace(SHAPE, compaction_policy=policy)
    cluster = build_cluster(ClusterSpec(config=config, placement=MONOLITH))
    client = cluster.add_client(colocate_with="ingestor-0", record_history=False)

    def driver():
        for i in range(ops):
            yield from client.upsert(i % keys, b"v-%d" % i)

    cluster.run_process(driver())
    cluster.run()
    return measure_cluster(cluster)


def run_engines(ops=12_000, keys=800):
    return run_engine("leveling", ops, keys), run_engine("tiering", ops, keys)


def test_compaction_tradeoffs(run_once, show):
    leveled, tiered = run_once(run_engines)

    def report():
        print_header(
            "Amplification — leveled vs universal compaction (Related Work, Section V)"
        )
        print_table(
            ("engine", "write amp", "space amp", "read amp (max probes)"),
            [
                (
                    "leveled (LevelDB-like)",
                    f"{leveled.write_amplification:.2f}",
                    f"{leveled.space_amplification:.2f}",
                    leveled.read_amplification,
                ),
                (
                    "universal (RocksDB-like)",
                    f"{tiered.write_amplification:.2f}",
                    f"{tiered.space_amplification:.2f}",
                    tiered.read_amplification,
                ),
            ],
        )
        paper_vs_measured(
            "leveled compaction suffers from high write amplification",
            f"{leveled.write_amplification:.2f} vs {tiered.write_amplification:.2f}",
            leveled.write_amplification > tiered.write_amplification,
        )
        paper_vs_measured(
            "size-tiered compaction suffers from space amplification",
            f"{tiered.space_amplification:.2f} vs {leveled.space_amplification:.2f}",
            tiered.space_amplification > leveled.space_amplification,
        )

    show(report)
    assert leveled.write_amplification > tiered.write_amplification
    assert tiered.space_amplification > leveled.space_amplification
