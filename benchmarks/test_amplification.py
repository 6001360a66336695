"""Amplification study: the Related Work's compaction trade-offs,
measured on our engines."""

from repro.bench.reporting import paper_vs_measured, print_header, print_table
from repro.lsm.amplification import measure_lsm_tree
from repro.lsm.tree import LSMConfig, LSMTree


def run_engines(ops=12_000, keys=800):
    shape = dict(memtable_entries=32, sstable_entries=16, level_thresholds=(3, 3, 8, 0))
    leveled = LSMTree(LSMConfig(**shape))
    tiered = LSMTree(LSMConfig(compaction_policy="tiering", **shape))
    for i in range(ops):
        key = i % keys
        leveled.put(key, b"v-%d" % i)
        tiered.put(key, b"v-%d" % i)
    return measure_lsm_tree(leveled), measure_lsm_tree(tiered)


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
