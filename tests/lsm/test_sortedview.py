"""Unit tests for what is left of ``repro.lsm.sortedview``: the full
build and the scan ``benchmarks/e2e/layers.py`` times.

The contract: for any run set and any range, the view's winner stream is
**bit-identical** to ``dedup_newest(k_way_merge(...))`` over the same
runs in the same order.
"""

from __future__ import annotations

import random

from repro.lsm.entry import encode_key
from repro.lsm.iterators import dedup_newest, k_way_merge
from repro.lsm.sortedview import SEGMENT_ENTRIES, SortedView
from repro.lsm.sstable import SSTable

from tests.conftest import entry

KEY_SPACE = 1_200


def make_runs(seed: int, num_runs: int = 6, per_run: int = 300):
    """Overlapping runs with colliding keys, distinct versions, and a
    sprinkle of tombstones — the Reader-area regime, several segments
    wide."""
    rng = random.Random(seed)
    runs = []
    seqno = 0
    for r in range(num_runs):
        keys = sorted(rng.sample(range(KEY_SPACE), per_run))
        entries = []
        for key in keys:
            seqno += 1
            entries.append(
                entry(
                    key,
                    seqno=seqno,
                    ts=float(r + 1),
                    tombstone=rng.random() < 0.1,
                )
            )
        runs.append(SSTable.from_entries(entries))
    return runs


def reference(runs, lo=None, hi=None):
    return list(dedup_newest(k_way_merge([t.scan(lo, hi) for t in runs])))


def view_winners(view, runs, lo=None, hi=None):
    return list(view.scan(lo, hi, {t.table_id: t for t in runs}))


class TestBuild:
    def test_bit_identity_over_random_ranges(self):
        rng = random.Random(11)
        runs = make_runs(1)
        view = SortedView.build(runs)
        assert len(view.segments) > 2
        ranges = [(None, None)]
        for __ in range(40):
            a, b = sorted(rng.sample(range(KEY_SPACE + 1), 2))
            ranges.append((encode_key(a), encode_key(b)))
        for lo, hi in ranges:
            assert view_winners(view, runs, lo, hi) == reference(runs, lo, hi)

    def test_tombstone_winners_are_anchored(self):
        live = SSTable.from_entries([entry(k, seqno=1, ts=1.0) for k in range(8)])
        deletes = SSTable.from_entries(
            [entry(k, seqno=10, ts=2.0, tombstone=True) for k in range(4)]
        )
        view = SortedView.build([deletes, live])
        winners = view_winners(view, [deletes, live])
        assert [w.tombstone for w in winners] == [True] * 4 + [False] * 4

    def test_empty_run_set(self):
        view = SortedView.build([])
        assert view.segments == []
        assert view_winners(view, []) == []

    def test_segment_fences_ordered_and_sized(self):
        runs = make_runs(2)
        view = SortedView.build(runs)
        flat = [k for s in view.segments for k in (s.lo, s.hi)]
        assert flat == sorted(flat)
        sizes = [len(s.pointers) for s in view.segments]
        assert all(size == SEGMENT_ENTRIES for size in sizes[:-1])
        assert sum(sizes) == len(reference(runs))
