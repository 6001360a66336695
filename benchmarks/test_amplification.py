"""Amplification study: the Related Work's compaction trade-offs,
measured on our engines and cross-checked against the analytic model."""

from repro.bench.reporting import paper_vs_measured, print_header, print_table
from repro.lsm.amplification import measure_lsm_tree
from repro.lsm.tree import LSMConfig, LSMTree
from repro.lsm.tuning import (
    LSMShape,
    expected_zero_result_probes,
    optimal_bloom_allocation,
    uniform_bloom_allocation,
)


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


def test_monkey_bloom_allocation(run_once, show):
    """Monkey's tuning result: skewing bloom memory toward small levels
    lowers expected zero-result probes at equal total memory."""

    def run():
        shape = LSMShape(total_entries=1_000_000, buffer_entries=1_000, size_ratio=10.0)
        levels = shape.level_entries()
        total_bits = 8.0 * sum(levels)
        uniform = uniform_bloom_allocation(total_bits, levels)
        optimal = optimal_bloom_allocation(total_bits, levels)
        return (
            levels,
            expected_zero_result_probes(uniform, levels),
            expected_zero_result_probes(optimal, levels),
            [b / n for b, n in zip(optimal, levels)],
        )

    levels, uniform_cost, optimal_cost, per_entry = run_once(run)

    def report():
        print_header("Bloom memory tuning (Monkey-style, cited in Section V)")
        print_table(
            ("level entries", "optimal bits/entry"),
            [(n, f"{b:.2f}") for n, b in zip(levels, per_entry)],
        )
        paper_vs_measured(
            "optimal allocation beats uniform at equal memory",
            f"expected probes {uniform_cost:.4f} -> {optimal_cost:.4f}",
            optimal_cost < uniform_cost,
        )

    show(report)
    assert optimal_cost < uniform_cost
    # Smaller levels get more bits per entry.
    assert per_entry[0] > per_entry[-1]
