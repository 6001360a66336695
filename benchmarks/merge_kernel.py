"""In-process merge microbench: what one record costs a leveling merge.

One merge shaped like the Compactor's L2 -> L3 step: ten 100-entry
incoming tables (1,000 entries, one in ten of the level's keys, each a
newer version) merged into a level run of a hundred 100-entry tables
(10,000 entries), with 100-entry outputs.  Two cases:

* ``built``: the incoming tables and the level run are merge outputs
  built in this process, as the Compactor's L2 and L3 tables are;
* ``received``: the incoming tables are images adopted through
  ``decode_sstable``, as a forward lands in L2; the level run is built.

Reported per input record: the whole ``merge_tables`` call, then the
same merge split into read (parse each input block's records), sort,
keep, build (the outputs' blocks and images) and filter (the outputs'
bloom filters); and the key digests computed per input record.  The
``sha256`` line covers every output image, so two commits that must
build byte-equal outputs can be compared by it.

``--check`` exits 1 when the ``built`` merge hashes more than 0.2 keys
per input record: a count, so the gate holds on any machine.

    python3 benchmarks/merge_kernel.py [--repeats 7] [--check]
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.lsm import bloom as bloom_module  # noqa: E402
from repro.lsm import compaction  # noqa: E402
from repro.lsm.bloom import BloomFilter  # noqa: E402
from repro.lsm.compaction import NEWEST_WINS, merge_tables  # noqa: E402
from repro.lsm.entry import Entry, encode_key  # noqa: E402
from repro.lsm.sstable import SSTable, next_table_id  # noqa: E402
from repro.lsm.sstable_io import decode_sstable  # noqa: E402

TABLE_ENTRIES = 100
LEVEL_ENTRIES = 10_000
INCOMING_ENTRIES = 1_000
#: Key digests one input record of the ``built`` merge may cost.
MAX_DIGESTS_PER_RECORD = 0.2
STAGES = ("read", "sort", "keep", "build", "filter")


def _value(key: int, seqno: int) -> bytes:
    return b"%06d%010d" % (key % 1_000_000, seqno)


def _run_of(entries: list[Entry]) -> list[SSTable]:
    """``entries`` as merge outputs of ``TABLE_ENTRIES`` entries each."""
    return merge_tables([SSTable.from_entries(entries)], TABLE_ENTRIES).tables


def inputs(case: str) -> tuple[list[SSTable], list[SSTable]]:
    """``(incoming, level run)`` for ``case``."""
    level = _run_of(
        [Entry(encode_key(k), k + 1, float(k + 1), _value(k, k + 1)) for k in range(LEVEL_ENTRIES)]
    )
    stride = LEVEL_ENTRIES // INCOMING_ENTRIES
    fresh = LEVEL_ENTRIES + 1
    incoming = _run_of(
        [
            Entry(encode_key(k), fresh + k, float(fresh + k), _value(k, fresh + k))
            for k in range(0, LEVEL_ENTRIES, stride)
        ]
    )
    if case == "received":
        incoming = [decode_sstable(t._image, next_table_id()) for t in incoming]
    return incoming, level


@contextmanager
def counting_digests():
    """Count :func:`~repro.lsm.bloom.key_digest` calls, under every name
    an ``repro.lsm`` module holds it by."""
    original = bloom_module.key_digest
    calls = [0]

    def counted(key: bytes) -> bytes:
        calls[0] += 1
        return original(key)

    holders = [
        module
        for name, module in list(sys.modules.items())
        if name.startswith("repro.lsm") and getattr(module, "key_digest", None) is original
    ]
    for module in holders:
        module.key_digest = counted
    try:
        yield calls
    finally:
        for module in holders:
            module.key_digest = original


@contextmanager
def timing_filters():
    """Accumulate the seconds spent in ``BloomFilter.from_digests``."""
    original = BloomFilter.__dict__["from_digests"]
    spent = [0.0]

    def timed(cls, digests, false_positive_rate=0.01):
        started = time.perf_counter()
        try:
            return original.__func__(cls, digests, false_positive_rate)
        finally:
            spent[0] += time.perf_counter() - started

    BloomFilter.from_digests = classmethod(timed)
    try:
        yield spent
    finally:
        BloomFilter.from_digests = original


def staged(incoming: list[SSTable], level: list[SSTable]) -> dict[str, float]:
    """Seconds per stage of the merge ``merge_tables`` runs, step by step."""
    with timing_filters() as filters:
        t0 = time.perf_counter()
        records: list[tuple] = []
        for source, table in enumerate(incoming + level):
            records += compaction._records_of(table, source)
        t1 = time.perf_counter()
        records.sort()
        t2 = time.perf_counter()
        kept = compaction._keep(records, NEWEST_WINS)
        t3 = time.perf_counter()
        for start, stop in compaction._runs(kept, TABLE_ENTRIES):
            compaction._build(kept[start:stop])
        t4 = time.perf_counter()
    return {
        "read": t1 - t0,
        "sort": t2 - t1,
        "keep": t3 - t2,
        "build": t4 - t3 - filters[0],
        "filter": filters[0],
    }


def measure(case: str, repeats: int) -> dict:
    incoming, level = inputs(case)
    records = sum(map(len, incoming)) + sum(map(len, level))
    with counting_digests() as calls:
        result = merge_tables(incoming, TABLE_ENTRIES, level_run=level)
    outputs = hashlib.sha256(b"".join(t._image for t in result.tables)).hexdigest()
    totals, stages = [], {stage: [] for stage in STAGES}
    for __ in range(repeats):
        started = time.perf_counter()
        merge_tables(incoming, TABLE_ENTRIES, level_run=level)
        totals.append(time.perf_counter() - started)
        for stage, seconds in staged(incoming, level).items():
            stages[stage].append(seconds)
    per_record = 1e6 / records
    return {
        "records": records,
        "outputs": len(result.tables),
        "sha256": outputs,
        "digests_per_record": calls[0] / records,
        "merge_us": statistics.median(totals) * per_record,
        "stages_us": {stage: statistics.median(s) * per_record for stage, s in stages.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if the built merge hashes more than "
                        f"{MAX_DIGESTS_PER_RECORD} keys per input record")
    args = parser.parse_args(argv)
    reports = {case: measure(case, args.repeats) for case in ("built", "received")}
    print(
        f"merge kernel: {INCOMING_ENTRIES:,} incoming entries into {LEVEL_ENTRIES:,}, "
        f"{TABLE_ENTRIES}-entry tables, median of {args.repeats}"
    )
    for case, report in reports.items():
        stages = "  ".join(f"{stage} {us:.2f}" for stage, us in report["stages_us"].items())
        print(
            f"  {case:<8} merge {report['merge_us']:.2f} us/record ({stages})"
            f"  digests {report['digests_per_record']:.3f}/record"
        )
        print(f"  {'':<8} {report['outputs']} outputs, sha256 {report['sha256'][:16]}")
    if not args.check:
        return 0
    digests = reports["built"]["digests_per_record"]
    if digests > MAX_DIGESTS_PER_RECORD:
        print(f"  !! built: {digests:.3f} key digests per record > {MAX_DIGESTS_PER_RECORD:g}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
