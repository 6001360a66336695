"""The merge over raw block records, against the ``Entry`` merge it replaced.

``merge_tables`` sorts and filters the records of its inputs' images and
builds each output image by concatenating them.  The ``Entry``-stream
body it replaced is kept below as the reference twin — a heap
``k_way_merge``, then ``KeepPolicy.apply``, ``chunk_into_runs`` and one
``SSTable`` per chunk — and a Hypothesis differential holds the two to
byte-equal output images, equal stats, replaced tables and table-id
sequence, over every keep-policy shape, every move and the rows of all
four compaction policies, from inputs that are built tables, adopted
images and earlier merge outputs; every output keeps the digests of its
keys.  Then: adopted inputs encode no entry, every
output round-trips through ``decode_sstable``, a damaged input block
stops the merge before any output exists, and forwarding a merge-built
table never decodes it.
"""

import math
from dataclasses import replace
from typing import Iterable, Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import block, compaction
from repro.lsm import sstable as sstable_module
from repro.lsm.bloom import BloomFilter, _hash_pair, key_digest
from repro.lsm.compaction import (
    NEWEST_WINS,
    CompactionResult,
    CompactionStats,
    KeepPolicy,
    compact_step,
    merge_tables,
)
from repro.lsm.entry import Entry
from repro.lsm.errors import CorruptionError
from repro.lsm.iterators import dedup_newest, k_way_merge, level_scan
from repro.lsm.policy import POLICIES
from repro.lsm.sstable import SSTable, next_table_id
from repro.lsm.sstable_io import decode_sstable

from tests.core.conftest import tiny_cluster
from tests.core.test_ingestor import run_fill


# ----------------------------------------------------------------------
# The reference twin: the Entry-stream merge, verbatim
# ----------------------------------------------------------------------
def retain_versions_above(merged: Iterable[Entry], horizon: float) -> Iterator[Entry]:
    last_key = None
    superseding_ts = 0.0
    for entry in merged:
        if entry.key != last_key:
            yield entry
            last_key = entry.key
            superseding_ts = entry.timestamp
        elif superseding_ts > horizon:
            yield entry
            superseding_ts = entry.timestamp


def drop_tombstones(stream: Iterable[Entry]) -> Iterator[Entry]:
    return (entry for entry in stream if not entry.tombstone)


def keep_apply(policy: KeepPolicy, merged: Iterable[Entry]) -> Iterable[Entry]:
    if policy.retain_horizon is None:
        stream = dedup_newest(merged)
    else:
        stream = retain_versions_above(merged, policy.retain_horizon)
    if policy.drop_tombstones:
        stream = drop_tombstones(stream)
    return stream


def chunk_into_runs(stream: Iterable[Entry], run_size: int) -> Iterator[list[Entry]]:
    chunk: list[Entry] = []
    for entry in stream:
        if len(chunk) >= run_size and chunk[-1].key != entry.key:
            yield chunk
            chunk = []
        chunk.append(entry)
    if chunk:
        yield chunk


def reference_merge_tables(tables, run_size, policy=NEWEST_WINS, level_run=None):
    level_run = level_run or []
    stats = CompactionStats(
        entries_in=sum(len(t) for t in tables) + sum(len(t) for t in level_run),
        tables_in=len(tables) + len(level_run),
    )
    streams: list = [t.entries for t in tables]
    if level_run:
        streams.append(level_scan(level_run))
    merged = k_way_merge(streams)
    kept = keep_apply(policy, merged)
    out_tables = [SSTable(chunk) for chunk in chunk_into_runs(kept, run_size)]
    stats.entries_out = sum(len(t) for t in out_tables)
    stats.tables_out = len(out_tables)
    return CompactionResult(out_tables, stats)


def reference_bloom_build(keys, false_positive_rate=0.01):
    """``BloomFilter.build`` before it was split into hash, then set bits."""
    key_list = list(keys)
    bloom = BloomFilter.for_keys(len(key_list), false_positive_rate)
    bits, m, hashes = bloom._bits, bloom.num_bits, range(bloom.num_hashes)
    for key in key_list:
        h1, h2 = _hash_pair(key)
        pos, step = h1 % m, h2 % m
        for __ in hashes:
            bits[pos >> 3] |= 1 << (pos & 7)
            pos += step
            if pos >= m:
                pos -= m
    bloom._count = len(key_list)
    return bloom


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
#: Short keys and keys of >= 128 bytes (a two-byte varint length).
KEYS = [b"k%02d" % i for i in range(12)] + [b"L%02d" % i + b"x" * 140 for i in range(4)]
KEYS.sort()

entry_st = st.builds(
    Entry,
    key=st.sampled_from(KEYS),
    seqno=st.integers(min_value=1, max_value=40),
    # Few timestamps, so versions tie and straddle the horizons below.
    timestamp=st.sampled_from([0.0, 1.0, 2.5, 4.0, 7.0]),
    value=st.one_of(st.binary(max_size=12), st.binary(min_size=128, max_size=200)),
    tombstone=st.booleans(),
)


@st.composite
def entries_st(draw):
    """Up to 150 entries: up to thirty drawn, cycled under fresh seqnos —
    tables of one to three 64-entry blocks, the last often partial."""
    drawn = draw(st.lists(entry_st, min_size=1, max_size=30))
    count = draw(st.integers(min_value=1, max_value=150))
    return [
        replace(drawn[i % len(drawn)], seqno=drawn[i % len(drawn)].seqno + 40 * (i // len(drawn)))
        for i in range(count)
    ]


#: Every shape of keep policy: newest-wins, horizon retention (below,
#: at, between and above the timestamps), with and without tombstones.
KEEPS = [
    KeepPolicy(retain_horizon=horizon, drop_tombstones=drop)
    for horizon in (None, -1.0, 2.5, 5.0, math.inf)
    for drop in (False, True)
]

#: Each distinct ``move`` a row of the four policies asks of compact_step.
ROWS = sorted(
    {
        (name, step.move, step.bottom)
        for name, policy in POLICIES.items()
        for step in policy.pipeline
    }
)


def as_kind(table: SSTable, kind: str) -> SSTable:
    """``table`` as a built table, an adopted image, or — already — a
    merge output."""
    if kind == "built":
        return SSTable(table.entries)
    if kind == "adopted":
        return decode_sstable(table._image, next_table_id())
    return table


def merge_built(entries: list[Entry], run_size: int) -> list[SSTable]:
    return merge_tables([SSTable.from_entries(entries)], run_size).tables


@st.composite
def picked_table(draw):
    """A built table, an adopted image of one, or an earlier merge's output."""
    kind = draw(st.sampled_from(["built", "adopted", "merged"]))
    if kind == "merged":
        return merge_built(draw(entries_st()), 1000)[0]
    return as_kind(SSTable.from_entries(draw(entries_st())), kind)


@st.composite
def merge_inputs(draw):
    picked = draw(st.lists(picked_table(), min_size=1, max_size=4))
    # A target level: a disjoint sorted run, as leveling keeps one.
    target = merge_built(draw(st.lists(entry_st, max_size=40)) or [draw(entry_st)], 4)
    target_kind = draw(st.sampled_from(["merged", "built", "adopted"]))
    target = [as_kind(t, target_kind) for t in target]
    if not draw(st.booleans()):
        target = []
    return picked, target, draw(st.sampled_from([1, 3, 5, 64, 100]))


def compare(new, ref, new_first, ref_first):
    """The two results hold byte-equal tables, under the same stats and id sequence."""
    assert new.stats == ref.stats
    assert [t._image for t in new.tables] == [t._image for t in ref.tables]
    assert [t.table_id - new_first for t in new.tables] == [
        t.table_id - ref_first for t in ref.tables
    ]
    assert [t.table_id - new_first for t in new.tables] == list(range(1, len(new.tables) + 1))
    for table, twin in zip(new.tables, ref.tables):
        assert table.high_ts == max(e.timestamp for e in twin.entries)
        assert table.bloom.to_bytes() == reference_bloom_build(twin._keys).to_bytes()
        assert_keeps_its_digests(table)


def assert_keeps_its_digests(table):
    """A merge output keeps its keys' digests, in table order."""
    assert table._digests == b"".join(map(key_digest, table._keys))


@settings(max_examples=12, deadline=None)
@given(inputs=merge_inputs())
@pytest.mark.parametrize("row", ROWS, ids=lambda row: "-".join(map(str, row)))
@pytest.mark.parametrize("keep", KEEPS, ids=repr)
def test_image_merge_is_byte_equal_to_the_entry_merge(row, keep, inputs):
    __, move, __ = row
    picked, target, run_size = inputs
    new_first = next_table_id()
    new, new_replaced = compact_step(picked, target, move, run_size, keep)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compaction, "merge_tables", reference_merge_tables)
        ref_first = next_table_id()
        ref, ref_replaced = compact_step(picked, target, move, run_size, keep)
    compare(new, ref, new_first, ref_first)
    assert [t.table_id for t in new_replaced] == [t.table_id for t in ref_replaced]
    # The outputs are the next merge's input: merging them again agrees
    # with merging adopted copies of their images.
    if new.tables:
        again = merge_tables(new.tables, run_size, keep)
        fresh = merge_tables([as_kind(t, "adopted") for t in new.tables], run_size, keep)
        assert [t._image for t in again.tables] == [t._image for t in fresh.tables]
        for table in again.tables + fresh.tables:
            assert_keeps_its_digests(table)


@settings(max_examples=60, deadline=None)
@given(keys=st.lists(st.sampled_from(KEYS) | st.binary(max_size=200), max_size=80))
def test_bloom_build_is_byte_equal_to_the_one_it_replaced(keys):
    for fp_rate in (0.01, 0.3):
        assert (
            BloomFilter.build(iter(keys), fp_rate).to_bytes()
            == reference_bloom_build(keys, fp_rate).to_bytes()
        )


# ----------------------------------------------------------------------
# Robustness
# ----------------------------------------------------------------------
def sample_tables(count=3, per=150):
    return [
        SSTable.from_entries(
            [
                Entry(b"key-%05d" % (i * count + n), n + 1, float(i), b"v" * (i % 200))
                for i in range(per)
            ]
        )
        for n in range(count)
    ]


def adopted(table: SSTable) -> SSTable:
    return decode_sstable(table._image, next_table_id())


def test_merge_over_adopted_inputs_encodes_no_entry(monkeypatch):
    inputs = [adopted(t) for t in sample_tables()]
    calls = []

    def counting(entries):
        calls.append(len(entries))
        return block.encode_entries(entries)

    monkeypatch.setattr(block, "encode_entries", counting)
    monkeypatch.setattr(sstable_module, "encode_entries", counting)
    result = merge_tables(inputs, 100)
    assert len(result.tables) == 5
    assert calls == []


def test_every_output_round_trips_through_decode_sstable():
    result = merge_tables(sample_tables(), 100)
    result = merge_tables(result.tables[:2], 70)  # merge-built inputs too
    for table in result.tables:
        back = decode_sstable(table._image, table.table_id)
        assert len(back) == len(table)
        assert (back.min_key, back.max_key) == (table.min_key, table.max_key)
        assert back.bloom.to_bytes() == table.bloom.to_bytes()
        assert back.entries == table.entries


@pytest.mark.parametrize("where", ["first block", "last block"])
def test_damaged_input_block_raises_and_emits_no_table(where):
    good = sample_tables(count=2)
    source = sample_tables(count=1)[0]
    image = bytearray(source._image)
    __, offset, length = source._blocks[0 if where == "first block" else -1]
    image[offset + length - 3] ^= 0x40  # inside a record, past the block header
    damaged = SSTable.adopt(
        bytes(image), source._blocks, len(source), source.max_key, next_table_id(), source.bloom
    )
    before = next_table_id()
    with pytest.raises(CorruptionError, match="checksum"):
        merge_tables(good + [damaged], 100)
    assert next_table_id() == before + 1, "no output table was built"


def test_index_that_disagrees_with_its_blocks_raises():
    source = sample_tables(count=1)[0]
    image = source._image
    (first_key, offset, length), *rest = source._blocks
    shifted = [(first_key + b"!", offset, length), *rest]
    for blocks, count, what in ((shifted, len(source), "fence"), (source._blocks, 7, "index")):
        table = SSTable.adopt(image, blocks, count, source.max_key, next_table_id(), source.bloom)
        with pytest.raises(CorruptionError, match=what):
            merge_tables([table], 100)


def test_forwarding_merge_built_tables_never_decodes_them(monkeypatch):
    built, decoded = set(), []
    original_build, original_getattr = compaction._build, SSTable.__getattr__

    def building(run):
        table = original_build(run)
        built.add(table.table_id)
        return table

    def watching(self, name):
        if self.table_id in built:
            decoded.append((self.table_id, name))
        return original_getattr(self, name)

    monkeypatch.setattr(compaction, "_build", building)
    monkeypatch.setattr(SSTable, "__getattr__", watching)
    cluster = tiny_cluster(num_compactors=1)
    run_fill(cluster, 3_000)
    cluster.run()
    assert cluster.ingestors[0].stats.forwarded_tables > 0
    assert cluster.compactors[0].level2
    assert decoded == []
