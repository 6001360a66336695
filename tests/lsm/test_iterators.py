"""Unit tests for merge iterators, and for the version retention,
tombstone and run-cutting rules of the merge (Section III-E's GC rule)."""

from repro.lsm.compaction import NEWEST_WINS, KeepPolicy, merge_tables
from repro.lsm.entry import encode_key
from repro.lsm.iterators import dedup_newest, k_way_merge
from repro.lsm.sstable import SSTable, sort_run

from tests.conftest import entry


def merged_runs(stream, policy=NEWEST_WINS, run_size=1_000):
    """The entries of each table ``merge_tables`` cuts from one table of ``stream``."""
    result = merge_tables([SSTable.from_entries(stream)], run_size, policy)
    return [t.entries for t in result.tables]


def retain_versions_above(stream, horizon):
    return [e for run in merged_runs(stream, KeepPolicy(retain_horizon=horizon)) for e in run]


class TestKWayMerge:
    def test_merges_sorted_streams(self):
        a = sort_run([entry(k, 1) for k in (1, 4, 7)])
        b = sort_run([entry(k, 2) for k in (2, 5, 8)])
        c = sort_run([entry(k, 3) for k in (3, 6, 9)])
        merged = list(k_way_merge([a, b, c]))
        keys = [e.key for e in merged]
        assert keys == sorted(keys)
        assert len(merged) == 9

    def test_same_key_newest_version_first(self):
        a = [entry("k", 5)]
        b = [entry("k", 3)]
        merged = list(k_way_merge([b, a]))
        assert [e.seqno for e in merged] == [5, 3]

    def test_empty_streams(self):
        assert list(k_way_merge([])) == []
        assert list(k_way_merge([[], []])) == []

    def test_equal_versions_earlier_stream_wins(self):
        newer = [entry("k", 1, ts=1.0, value="new")]
        older = [entry("k", 1, ts=1.0, value="old")]
        merged = list(k_way_merge([newer, older]))
        assert merged[0].value == b"new"


class TestDedup:
    def test_keeps_newest_per_key(self):
        stream = [entry("a", 3), entry("a", 1), entry("b", 2)]
        out = list(dedup_newest(stream))
        assert [(e.key, e.seqno) for e in out] == [
            (encode_key("a"), 3),
            (encode_key("b"), 2),
        ]

    def test_keeps_tombstones(self):
        stream = [entry("a", 3, tombstone=True), entry("a", 1)]
        out = list(dedup_newest(stream))
        assert len(out) == 1 and out[0].tombstone


class TestRetention:
    def test_retains_versions_needed_by_reads(self):
        # Newest version ts=10 > horizon=5, so the version it supersedes
        # (ts=3) must be retained: a read with read-ts in (5, 10) needs it.
        stream = [entry("k", 2, ts=10.0), entry("k", 1, ts=3.0)]
        out = list(retain_versions_above(stream, horizon=5.0))
        assert [e.timestamp for e in out] == [10.0, 3.0]

    def test_collects_versions_superseded_before_horizon(self):
        # Superseding version ts=4 <= horizon=5: no current/future read
        # can want the older version; it is garbage collected.
        stream = [entry("k", 2, ts=4.0), entry("k", 1, ts=2.0)]
        out = list(retain_versions_above(stream, horizon=5.0))
        assert [e.timestamp for e in out] == [4.0]

    def test_chain_of_versions(self):
        stream = [
            entry("k", 4, ts=10.0),
            entry("k", 3, ts=8.0),
            entry("k", 2, ts=4.0),
            entry("k", 1, ts=2.0),
        ]
        out = list(retain_versions_above(stream, horizon=5.0))
        # ts=10 kept (newest); ts=8 kept (superseded by 10 > 5);
        # ts=4 kept (superseded by 8 > 5); ts=2 dropped (superseded by 4 <= 5).
        assert [e.timestamp for e in out] == [10.0, 8.0, 4.0]

    def test_newest_always_kept(self):
        stream = [entry("k", 1, ts=1.0)]
        assert len(list(retain_versions_above(stream, horizon=100.0))) == 1


class TestHelpers:
    def test_drop_tombstones(self):
        stream = [entry("a", 1), entry("b", 2, tombstone=True)]
        [kept] = merged_runs(stream, KeepPolicy(drop_tombstones=True))
        assert [e.key for e in kept] == [encode_key("a")]

    def test_chunking_sizes(self):
        stream = sort_run([entry(k, 1) for k in range(10)])
        chunks = merged_runs(stream, run_size=3)
        assert [len(c) for c in chunks] == [3, 3, 3, 1]

    def test_chunking_never_splits_key_versions(self):
        stream = sort_run(
            [entry(0, 1), entry(1, 1), entry(1, 2), entry(1, 3), entry(2, 1)]
        )
        chunks = merged_runs(stream, KeepPolicy(retain_horizon=0.0), run_size=2)
        assert sum(len(c) for c in chunks) == 5
        for chunk in chunks:
            # all versions of a key stay in one chunk
            for other in chunks:
                if other is not chunk:
                    assert not {e.key for e in chunk} & {e.key for e in other}
