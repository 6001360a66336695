"""Property-based tests (hypothesis) for core LSM invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.bloom import BloomFilter
from repro.lsm.block import decode_entries, encode_entries
from repro.lsm.entry import Entry, encode_key
from repro.lsm.compaction import KeepPolicy, merge_tables
from repro.lsm.iterators import dedup_newest, k_way_merge
from repro.lsm.memtable import Memtable
from repro.lsm.sstable import SSTable, sort_run

from tests.lsm.reftree import RefTree

keys_st = st.binary(min_size=1, max_size=12)
values_st = st.binary(max_size=32)


def entries_st(min_size=0, max_size=40):
    return st.lists(
        st.builds(
            Entry,
            key=keys_st,
            seqno=st.integers(min_value=1, max_value=1_000),
            timestamp=st.floats(min_value=0, max_value=1e6, allow_nan=False),
            value=values_st,
            tombstone=st.booleans(),
        ),
        min_size=min_size,
        max_size=max_size,
    )


@given(entries_st())
def test_block_codec_roundtrip(entries):
    assert decode_entries(encode_entries(entries)) == entries


@given(st.lists(keys_st, min_size=1, max_size=200))
def test_bloom_never_false_negative(keys):
    bloom = BloomFilter.build(keys)
    assert all(bloom.might_contain(k) for k in keys)


@given(entries_st(min_size=1))
def test_sstable_order_invariant(entries):
    table = SSTable.from_entries(entries)
    run = table.entries
    for left, right in zip(run, run[1:]):
        assert (left.key, -left.timestamp, -left.seqno) <= (
            right.key,
            -right.timestamp,
            -right.seqno,
        )


@given(entries_st(min_size=1))
def test_sstable_get_finds_newest_version(entries):
    table = SSTable.from_entries(entries)
    by_key = {}
    for e in entries:
        if e.key not in by_key or e.version > by_key[e.key].version:
            by_key[e.key] = e
    for key, newest in by_key.items():
        found = table.get(key)
        assert found is not None
        assert found.version == newest.version


@given(st.lists(entries_st(max_size=20), min_size=0, max_size=5))
def test_k_way_merge_is_sorted_and_complete(streams):
    sorted_streams = [sort_run(s) for s in streams]
    merged = list(k_way_merge(sorted_streams))
    assert len(merged) == sum(len(s) for s in streams)
    for left, right in zip(merged, merged[1:]):
        assert (left.key, -left.timestamp, -left.seqno) <= (
            right.key,
            -right.timestamp,
            -right.seqno,
        )


@given(entries_st())
def test_dedup_keeps_exactly_one_version_per_key(entries):
    merged = sort_run(entries)
    out = list(dedup_newest(merged))
    keys = [e.key for e in out]
    assert len(keys) == len(set(keys))
    assert set(keys) == {e.key for e in entries}


@given(entries_st(), st.floats(min_value=0, max_value=1e6, allow_nan=False))
def test_retention_is_superset_of_dedup(entries, horizon):
    """Horizon retention never drops the newest version of any key."""
    merged = sort_run(entries)
    deduped = {(e.key, e.version) for e in dedup_newest(merged)}
    retained = set()
    if entries:
        result = merge_tables(
            [SSTable.from_entries(entries)], 1_000, KeepPolicy(retain_horizon=horizon)
        )
        retained = {(e.key, e.version) for t in result.tables for e in t.entries}
    assert deduped <= retained


@st.composite
def arrivals_st(draw):
    """Writes with unique seqnos and timestamps, each drawn out of
    arrival order, over a key space small enough to collide."""
    ops = draw(
        st.lists(
            st.tuples(st.binary(min_size=1, max_size=2), values_st, st.booleans()),
            max_size=60,
        )
    )
    seqnos = draw(st.permutations(range(1, len(ops) + 1)))
    stamps = draw(st.permutations(range(1, len(ops) + 1)))
    return [
        Entry(key, seqno, float(stamp), value, tombstone)
        for (key, value, tombstone), seqno, stamp in zip(ops, seqnos, stamps)
    ]


bound_st = st.none() | st.binary(min_size=1, max_size=2)


@given(arrivals_st(), bound_st, bound_st)
def test_memtable_matches_sorted_model(arrivals, lo, hi):
    """The memtable holds what sorting the arrivals once would: every
    version in retain mode, else the newest per key."""
    run = sort_run(arrivals)
    newest = [e for i, e in enumerate(run) if i == 0 or run[i - 1].key != e.key]
    keys = {e.key for e in arrivals} | {b"absent"}
    for retain, model in ((False, newest), (True, run)):
        mt = Memtable(len(arrivals) + 1, retain_versions=retain)
        for e in arrivals:
            mt.put(e)
        assert mt.entries() == model
        for key in keys:
            held = [e for e in model if e.key == key]
            assert mt.versions(key) == held
            assert mt.get(key) == (held[0] if held else None)
        assert mt.range(lo, hi) == [
            e for e in model if (lo is None or e.key >= lo) and (hi is None or e.key < hi)
        ]
        assert len(mt) == len(arrivals)
        assert mt.num_keys == len(keys) - 1


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50),
            st.sampled_from(["put", "delete"]),
        ),
        min_size=1,
        max_size=300,
    )
)
def test_tree_matches_dict_model(ops):
    """The LSM tree behaves exactly like a dict under put/delete/get."""
    tree = RefTree(memtable_entries=8, sstable_entries=4, thresholds=(2, 2, 3, 0))
    model = {}
    for i, (key, op) in enumerate(ops):
        if op == "put":
            value = b"v-%d" % i
            tree.put(key, value)
            model[key] = value
        else:
            tree.delete(key)
            model.pop(key, None)
    for key in range(51):
        assert tree.get(key) == model.get(key)
    scanned = dict(tree.scan())
    assert scanned == {encode_key(k): v for k, v in model.items()}


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_tree_random_workload_reads_correct(seed):
    rng = random.Random(seed)
    tree = RefTree(memtable_entries=10, sstable_entries=5, thresholds=(2, 2, 3, 0))
    model = {}
    for i in range(400):
        key = rng.randrange(60)
        value = b"x%d" % i
        tree.put(key, value)
        model[key] = value
    for key, value in model.items():
        assert tree.get(key) == value
