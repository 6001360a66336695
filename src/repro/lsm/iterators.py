"""Merge iterators over entry streams: what the read path merges with.

Both minor compaction (Ingestor, L0+L1 tiering) and major compaction
(Compactor, L2/L3 leveling) are "k-way merge operations ... removing any
redundancies by only keeping the most recent key-value pair of each key"
(Section III-C); compaction does that over raw records
(:func:`~repro.lsm.compaction.merge_tables`).  Range reads do it over
entries with these generators:

:func:`k_way_merge`
    Merge sorted entry streams into one stream in sstable order, with a
    deterministic tie-break that prefers streams listed earlier (callers
    list newer sources first).

:func:`dedup_newest`
    Collapse a merged stream to the newest version per key.

:func:`level_scan`
    A lazy cursor over a whole sorted level: chains the per-table scans
    of non-overlapping tables (sorted by min key) into one sorted
    stream, opening each table only when the cursor reaches it.  This is
    the REMIX-style cross-run sorted view that lets an early-terminated
    scan cost O(result) instead of O(level): a k-way merge over one
    ``level_scan`` per level primes one entry per *level*, not one per
    table, and tables beyond the cursor frontier are never touched.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from .entry import Entry


def level_scan(
    tables: "Iterable",
    lo: bytes | None = None,
    hi: bytes | None = None,
) -> Iterator[Entry]:
    """Lazily scan a run of non-overlapping tables in min-key order.

    ``tables`` must be sorted by ``min_key`` and pairwise disjoint (a
    leveled level, or :meth:`Manifest.tables_for_range` output), so
    simple chaining yields globally sorted output.  Tables outside
    ``[lo, hi)`` are skipped via their fence metadata without opening a
    cursor on them; iteration stops at the first table past ``hi``.
    """
    for table in tables:
        if hi is not None and table.min_key >= hi:
            return
        if lo is not None and table.max_key < lo:
            continue
        yield from table.scan(lo, hi)


def k_way_merge(streams: list[Iterable[Entry]]) -> Iterator[Entry]:
    """Merge sorted streams into one stream sorted by (key, version desc).

    Each input stream must already be in sstable order.  Between equal
    (key, version) pairs, entries from earlier streams win, so callers
    should pass newer sources first.  Once a single stream is left it is
    yielded straight through.
    """
    heap: list[tuple[bytes, float, int, int, Entry, Iterator[Entry]]] = []
    for index, stream in enumerate(streams):
        iterator = iter(stream)
        first = next(iterator, None)
        if first is not None:
            heap.append(_heap_item(first, index, iterator))
    heapq.heapify(heap)
    while len(heap) > 1:
        __, __, __, index, entry, iterator = heap[0]
        yield entry
        nxt = next(iterator, None)
        if nxt is None:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, _heap_item(nxt, index, iterator))
    # One stream left: nothing to order it against.
    if heap:
        __, __, __, __, entry, iterator = heap[0]
        yield entry
        yield from iterator


def _heap_item(entry: Entry, index: int, iterator: Iterator[Entry]):
    # Sort by key asc, then version desc (newest first), then stream index.
    return (entry.key, -entry.timestamp, -entry.seqno, index, entry, iterator)


def dedup_newest(merged: Iterable[Entry]) -> Iterator[Entry]:
    """Keep only the newest version of each key from a merged stream."""
    last_key: bytes | None = None
    for entry in merged:
        if entry.key != last_key:
            yield entry
            last_key = entry.key
