"""A REMIX-style sorted view (arXiv:2010.12734) over immutable runs.

**Leftover, kept for one caller.**  Readers once served range queries
from this structure behind a config flag.  Measured end to end
it lost: the merge it saves is ~100 µs of a 1.07 ms scan round trip,
while every ``BackupUpdate`` install paid a view refresh (DESIGN.md
§19), so the Reader integration, incremental rebuild, persistence and
block-range caching were removed.  What remains is exactly what
``benchmarks/e2e/layers.py`` imports and times at module scope —
:meth:`SortedView.build` and :meth:`SortedView.scan` — because that
directory is frozen for non-benchmark PRs.  A later ``benchmark`` PR
that drops the two ``lsm.sortedview.*`` rows can delete this module.

The view is a list of :class:`ViewSegment`\\ s, each a bounded run of
``(key, table_id, offset)`` anchors — one per distinct key, pointing at
the entry ``dedup_newest(k_way_merge(...))`` would have yielded for that
key (the globally newest version, ties broken by stream order).
Tombstone winners are anchored too, so a scan shadows older live
versions exactly as the streaming merge does.  A scan bisects the
segment fence keys once and walks anchors forward.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from typing import Iterable, Iterator

from .entry import Entry
from .sstable import SSTable

#: Anchors per segment.
SEGMENT_ENTRIES = 256


def _merge_winners(runs: list[SSTable]) -> Iterator[tuple[bytes, int, int]]:
    """Yield the ``(key, table_id, offset)`` anchor of the newest
    version of each distinct key across ``runs``.

    The heap ordering replicates :func:`~repro.lsm.iterators.k_way_merge`
    exactly — key ascending, version descending, then stream index (so
    runs listed earlier win exact-version ties) — and the first entry
    per key is the winner, replicating ``dedup_newest``.
    """
    heap: list = []
    for index, table in enumerate(runs):
        iterator = enumerate(table.entries)
        first = next(iterator, None)
        if first is not None:
            offset, entry = first
            heap.append(
                (entry.key, -entry.timestamp, -entry.seqno, index, offset,
                 table.table_id, iterator)
            )
    heapq.heapify(heap)
    last_key: bytes | None = None
    while heap:
        key, __, __, index, offset, table_id, iterator = heapq.heappop(heap)
        if key != last_key:
            yield key, table_id, offset
            last_key = key
        nxt = next(iterator, None)
        if nxt is not None:
            offset, entry = nxt
            heapq.heappush(
                heap,
                (entry.key, -entry.timestamp, -entry.seqno, index, offset,
                 table_id, iterator),
            )


def _cut_segments(
    anchors: Iterable[tuple[bytes, int, int]]
) -> Iterator["ViewSegment"]:
    """Chunk an anchor stream into segments of ``SEGMENT_ENTRIES``
    (one anchor per key, so segments never split a key)."""
    anchors = iter(anchors)
    while pointers := list(itertools.islice(anchors, SEGMENT_ENTRIES)):
        yield ViewSegment(pointers)


class ViewSegment:
    """A bounded, immutable, non-empty run of ``(key, table_id,
    offset)`` anchors; ``lo`` / ``hi`` are its fence keys (first and
    last anchored key, both inclusive)."""

    __slots__ = ("pointers", "lo", "hi", "_keys")

    def __init__(self, pointers: list[tuple[bytes, int, int]]) -> None:
        self.pointers = pointers
        self.lo = pointers[0][0]
        self.hi = pointers[-1][0]
        self._keys = [key for key, __, __ in pointers]

    def resolve(
        self, lo: bytes | None, hi: bytes | None, tables: dict[int, SSTable]
    ) -> Iterator[Entry]:
        """Yield the anchored entries with lo <= key < hi."""
        start = 0 if lo is None else bisect.bisect_left(self._keys, lo)
        for key, table_id, offset in itertools.islice(self.pointers, start, None):
            if hi is not None and key >= hi:
                return
            yield tables[table_id].entries[offset]


class SortedView:
    """An immutable compacted sorted view over a fixed set of runs."""

    __slots__ = ("segments", "_segment_his")

    def __init__(self, segments: list[ViewSegment]) -> None:
        self.segments = segments
        self._segment_his = [segment.hi for segment in segments]

    @classmethod
    def build(cls, runs: list[SSTable]) -> "SortedView":
        """Build over ``runs``, listed in merge-source order (which
        fixes exact-version tie-breaks)."""
        return cls(list(_cut_segments(_merge_winners(runs))))

    def scan(
        self, lo: bytes | None, hi: bytes | None, tables: dict[int, SSTable]
    ) -> Iterator[Entry]:
        """Winner entries with lo <= key < hi, in key order, resolved
        through ``tables`` (table id -> the run it names).

        One bisect finds the entry segment; from there the scan walks
        anchors forward.  Tombstone winners are yielded (callers filter),
        exactly as ``dedup_newest`` would.
        """
        start = 0 if lo is None else bisect.bisect_left(self._segment_his, lo)
        for segment in itertools.islice(self.segments, start, None):
            if hi is not None and segment.lo >= hi:
                return
            yield from segment.resolve(lo, hi, tables)
