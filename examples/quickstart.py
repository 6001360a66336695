"""Quickstart: the single-machine LSM engine and a first CooLSM cluster.

Run with:  python examples/quickstart.py
"""

from repro.core import MONOLITH, ClusterSpec, CooLSMConfig, build_cluster


def embedded_engine() -> None:
    """Part 1 — one Ingestor and one Compactor placed on one machine
    (the paper's monolithic baseline), used as a key-value store."""
    print("== Embedded LSM engine: one Ingestor + one Compactor, one machine ==")
    config = CooLSMConfig.paper_100k().scaled_down(10)
    cluster = build_cluster(ClusterSpec(config=config, placement=MONOLITH))
    client = cluster.add_client(colocate_with="ingestor-0")

    def driver():
        for i in range(2_000):
            yield from client.upsert(i % 200, f"value-{i}")
        yield from client.delete(7)
        five = yield from client.read(5)
        seven = yield from client.read(7)
        pairs = yield from client.scan(10, 14)
        return five, seven, pairs

    five, seven, pairs = cluster.run_process(driver())
    cluster.run()  # let the last forwards and merges land
    ingestor, compactor = cluster.ingestors[0], cluster.compactors[0]
    compactions = ingestor.stats.minor_compactions + len(compactor.stats.compactions)
    print("get(5)        ->", five)
    print("get(7)        ->", seven, "(deleted)")
    print("scan(10, 14)  ->", pairs)
    print("level sizes   ->", ingestor.manifest.level_sizes() + compactor.manifest.level_sizes())
    print("compactions   ->", compactions)
    print()


def coolsm_cluster() -> None:
    """Part 2 — a deconstructed CooLSM deployment: one Ingestor, three
    partitioned Compactors, one Reader, all in a simulated cloud."""
    print("== CooLSM cluster ==")
    config = CooLSMConfig.paper_100k().scaled_down(10)
    cluster = build_cluster(
        ClusterSpec(config=config, num_ingestors=1, num_compactors=3, num_readers=1)
    )
    client = cluster.add_client(colocate_with="ingestor-0")

    def driver():
        # Writes go to the Ingestor; overflow flows to the Compactors
        # (partitioned over the key space) and on to the Reader.
        step = config.key_range // 1_000
        for i in range(5_000):
            yield from client.upsert((i % 1_000) * step, f"v-{i}")
        fresh = yield from client.read(999 * step)
        stale_ok = yield from client.read_from_backup(42 * step)
        return fresh, stale_ok

    fresh, backup_value = cluster.run_process(driver())
    print("read(999) via Ingestor       ->", fresh)
    print("read(42) via Reader (backup) ->", backup_value)
    print("simulated time               -> %.3f s" % cluster.kernel.now)
    for compactor in cluster.compactors:
        sizes = compactor.manifest.level_sizes()
        print(f"{compactor.name}: L2={sizes[0]} tables, L3={sizes[1]} tables")
    reader = cluster.readers[0]
    print(f"{reader.name}: holds {reader.manifest.total_entries()} entries")
    mean_write = sum(client.stats.all("write")) / len(client.stats.all("write"))
    print("mean write latency           -> %.4f ms" % (mean_write * 1e3))


if __name__ == "__main__":
    embedded_engine()
    coolsm_cluster()
