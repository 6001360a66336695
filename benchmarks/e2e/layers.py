#!/usr/bin/env python3
"""In-process layer microbenchmark: no sockets, under 20 seconds.

    python3 benchmarks/e2e/layers.py [--traced FILE]

Times the same public functions the traced run wraps, with inputs shaped
like the workloads' (a single-upsert envelope and a 128-op batch
envelope, a 500-entry memtable fill, ...).  With ``--traced FILE`` (a
``run.py --trace 1 --out FILE`` result) it prints the traced run's value
beside each, and holds the ``upsert_paced`` blocking path against the
latency the client observed: the steps are measured independently, so
whatever their sum leaves unexplained is the client-side runtime.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro.core.messages import UpsertBatchRequest, UpsertRequest  # noqa: E402
from repro.live import wire  # noqa: E402
from repro.lsm.compaction import merge_tables  # noqa: E402
from repro.lsm.entry import Entry, encode_key  # noqa: E402
from repro.lsm.memtable import Memtable  # noqa: E402
from repro.lsm.sortedview import SortedView  # noqa: E402
from repro.lsm.sstable import SSTable  # noqa: E402
from repro.sim.rpc import _Request  # noqa: E402  (what an RPC envelope carries)
from repro.store.node_store import NodeStore  # noqa: E402

from harness import clean_scratch, scratch_root  # noqa: E402

#: The blocking path may leave this share of the client-observed latency
#: unexplained before the breakdown is called incomplete.
UNEXPLAINED_LIMIT = 0.15


def entries(count: int, start: int = 0, stride: int = 1, seqno: int = 1) -> list[Entry]:
    return [
        Entry(encode_key(start + i * stride), seqno + i, float(seqno + i), b"%016d" % i)
        for i in range(count)
    ]


def timed(fn, budget_s: float = 0.6, least: int = 5) -> float:
    """Median seconds of one call of ``fn`` over about ``budget_s``."""
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < least or time.perf_counter() < deadline:
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def measure(directory: Path) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, the traced metric it corresponds to)."""
    out = {}
    single = _Request(1, "upsert", UpsertRequest(encode_key(7), b"v" * 16), 80)
    batch = _Request(
        2, "upsert_batch",
        UpsertBatchRequest(
            tuple(UpsertRequest(encode_key(i), b"v" * 16) for i in range(128))
        ),
        6000,
    )
    for label, message, ops in (("single upsert", single, 1), ("128-op batch", batch, 128)):
        payload = bytes(wire.encode_envelope_buffer(1, "client-1", "ingestor-0", message))
        out[f"wire encode, {label}"] = (
            timed(lambda: wire.encode_envelope_buffer(1, "client-1", "ingestor-0", message))
            * 1e6, "us", "live.wire.encode_us_per_op",
        )
        out[f"wire decode, {label}"] = (
            timed(lambda: wire.decode_envelope(memoryview(payload))) * 1e6, "us",
            "live.wire.decode_us_per_op",
        )
        out[f"wire bytes, {label}"] = (len(payload) / ops, "B/op", "live.wire.bytes_per_op")

    batch_entries = entries(500, stride=199)
    arrival = sorted(batch_entries, key=lambda e: e.seqno * 7919 % 500)  # not key order

    def fill():
        memtable = Memtable(500)
        for entry in arrival:
            memtable.put(entry)

    out["memtable put (500-entry fill)"] = (timed(fill) / 500 * 1e6, "us", "lsm.memtable.put_us")
    out["SSTable build, 500 entries"] = (
        timed(lambda: SSTable(batch_entries)) / 500 * 1e6, "us/entry", "lsm.sstable.build_us_per_entry"
    )

    store = NodeStore.open(str(directory / "store"), "layers", "ingestor")
    one, many = entries(1), entries(128)
    out["NodeStore.log_entries(1)"] = (
        timed(lambda: store.log_entries(one)) * 1e6, "us", "store.node_store.log_entries_us"
    )
    out["NodeStore.log_entries(128)"] = (
        timed(lambda: store.log_entries(many)) * 1e6, "us", "store.node_store.log_entries_us"
    )
    live: list[SSTable] = []

    def commit_ten():
        live.extend(SSTable(entries(500, start=len(live) * 500)) for __ in range(10))
        del live[:-20]  # keep the directory small; dropped tables are deleted
        started = time.perf_counter()
        store.commit(live, {})
        return time.perf_counter() - started

    commits = [commit_ten() for __ in range(8)]
    out["NodeStore.commit, 10 new 500-entry tables"] = (
        statistics.median(commits) * 1e3, "ms", "store.node_store.commit_ms"
    )
    store.close()

    sources = [SSTable(entries(500, start=i, stride=10, seqno=1 + i * 500)) for i in range(10)]
    merged = timed(lambda: merge_tables(sources, 100))
    out["merge_tables, 10 x 500 (with output build)"] = (
        merged / 5000 * 1e6, "us/entry", "lsm.iterators.merge_us_per_entry"
    )
    out["SortedView.build, 10 x 500 entries"] = (
        timed(lambda: SortedView.build(sources)) * 1e3, "ms", "lsm.sortedview.refresh_ms"
    )
    view = SortedView.build(sources)
    tables = {t.table_id: t for t in sources}
    lo, hi = encode_key(1000), encode_key(1100)
    out["SortedView.scan, 100 keys"] = (
        timed(lambda: list(view.scan(lo, hi, tables))) * 1e6, "us", "lsm.sortedview.scan_us"
    )
    return out


def traced_runs(path: str) -> dict[str, dict]:
    with open(path) as source:
        runs = json.load(source)["runs"]
    return {run["workload"]: run for run in runs if run["traced"]}


def blocking_path_check(run: dict) -> bool:
    """Do the traced steps of one upsert add up to what the client saw?"""
    path = dict(run["blocking_path_us"])
    if not path:
        print("\nupsert_paced: the traced run has no blocking path (see its notes)")
        return False
    round_trip = path.pop("round trip")
    observed = run["detail"]["upsert"]["from_send_mean_ms"] * 1e3
    explained = sum(path.values())
    print(f"\nupsert_paced blocking path (mean us per request), seed {run['seed']}:")
    for step, value in path.items():
        print(f"  {step:<46}{value:>10.1f}")
    print(f"  {'sum of the steps':<46}{explained:>10.1f}")
    print(f"  {'round trip seen at the codec':<46}{round_trip:>10.1f}")
    print(f"  {'client-observed, from send (mean)':<46}{observed:>10.1f}")
    print(
        f"  {'client-observed, from send (p50)':<46}"
        f"{run['detail']['upsert']['from_send_p50_ms'] * 1e3:>10.1f}"
    )
    gap = (observed - explained) / observed
    print(
        f"  unexplained: {observed - explained:.1f} us ({gap:.1%}) — the client's own"
        " generator and event-loop hops before encode and after decode"
    )
    print(
        "  live.runtime.rpc_overhead_us (round trip - handler wall): "
        f"{run['per_layer']['live.runtime.rpc_overhead_us']}"
    )
    ok = abs(gap) <= UNEXPLAINED_LIMIT
    print(f"  within {UNEXPLAINED_LIMIT:.0%} of the client-observed latency: {'yes' if ok else 'NO'}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--traced", help="result file of run.py --trace 1 --out FILE")
    args = parser.parse_args()
    traced = traced_runs(args.traced) if args.traced else {}
    directory = scratch_root() / "layers"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    started = time.perf_counter()
    try:
        results = measure(directory)
    finally:
        clean_scratch()
    heading = "".join(f"{w:>16}" for w in traced)
    print(f"{'in-process (median)':<44}{'value':>10} {'unit':<9}{'traced metric':<36}{heading}")
    for label, (value, unit, metric) in results.items():
        beside = "".join(
            f"{'null':>16}" if run["per_layer"][metric] is None
            else f"{run['per_layer'][metric]:>16.2f}"
            for run in traced.values()
        )
        print(f"{label:<44}{value:>10.2f} {unit:<9}{metric:<36}{beside}")
    print(f"({time.perf_counter() - started:.1f} s)")
    if "upsert_paced" in traced:
        return 0 if blocking_path_check(traced["upsert_paced"]) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
