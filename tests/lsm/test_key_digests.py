"""Where a table's key digests come from, and what a merge hashes.

A table built on this node — from entries (a flush, a ``split_at``
piece) or by a merge — keeps the ``key_digest`` of each of its keys, in
table order, as one GC-untracked ``bytes``.  A table adopted from an
image (``decode_sstable``, the wire) or rebuilt at recovery carries
none.  A merge slices the digests its inputs carry and hashes only the
keys of inputs that carry none.
"""

import gc
import sys
from contextlib import contextmanager

import pytest

from repro.live import wire
from repro.lsm import bloom as bloom_module
from repro.lsm.bloom import key_digest
from repro.lsm.compaction import KeepPolicy, merge_tables
from repro.lsm.entry import Entry, encode_key
from repro.lsm.sstable import SSTable, next_table_id
from repro.lsm.sstable_io import decode_sstable
from repro.store import NodeStore


def entries(count: int, start: int = 0, versions: int = 1) -> list[Entry]:
    """``count`` keys from ``start``, each in ``versions`` versions, every
    third newest version a tombstone."""
    out = []
    for i in range(start, start + count):
        for v in range(versions, 0, -1):
            tomb = v == versions and i % 3 == 0
            out.append(Entry(encode_key(i), 10 * i + v, float(v), b"" if tomb else b"v%d" % i, tomb))
    return out


def hashed(table: SSTable) -> bytes:
    return b"".join(map(key_digest, table._keys))


def assert_carries_its_digests(table: SSTable) -> None:
    digests = table._digests
    assert type(digests) is bytes
    assert len(digests) == 16 * len(table)
    assert not gc.is_tracked(digests)
    assert digests == hashed(table)


def adopted(table: SSTable) -> SSTable:
    return decode_sstable(table._image, next_table_id())


@contextmanager
def counting_digests():
    """Count ``key_digest`` calls under every name a ``repro.lsm`` module
    holds it by."""
    original = bloom_module.key_digest
    calls = []

    def counted(key):
        calls.append(key)
        return original(key)

    holders = [
        module
        for name, module in list(sys.modules.items())
        if name.startswith("repro.lsm") and getattr(module, "key_digest", None) is original
    ]
    with pytest.MonkeyPatch.context() as patch:
        for module in holders:
            patch.setattr(module, "key_digest", counted)
        yield calls


# ----------------------------------------------------------------------
# Every way a table comes to exist
# ----------------------------------------------------------------------
def test_a_table_built_from_entries_keeps_its_digests():
    assert_carries_its_digests(SSTable(entries(150, versions=2)))
    assert_carries_its_digests(SSTable.from_entries(entries(70)[::-1]))


def test_split_pieces_keep_their_own_digests():
    table = SSTable(entries(200))
    pieces = table.split_at([encode_key(50), encode_key(120)])
    assert [len(p) for p in pieces] == [50, 70, 80]
    for piece in pieces:
        assert_carries_its_digests(piece)


def test_merge_outputs_keep_their_digests():
    sources = [SSTable(entries(150, start=i * 40, versions=2)) for i in range(3)]
    sources.append(adopted(SSTable(entries(90, start=7))))
    for policy in (KeepPolicy(), KeepPolicy(retain_horizon=1.5, drop_tombstones=True)):
        result = merge_tables(sources, 64, policy)
        assert len(result.tables) > 1
        for table in result.tables:
            assert_carries_its_digests(table)


def test_adopted_tables_carry_no_digests():
    table = SSTable(entries(100))
    assert adopted(table)._digests is None
    merged = merge_tables([table], 1000).tables[0]
    assert adopted(merged)._digests is None


def test_tables_off_the_wire_carry_no_digests():
    out = bytearray()
    wire.encode_value(SSTable(entries(100)), out)
    decoded, __ = wire.decode_value(bytes(out))
    assert isinstance(decoded, SSTable)
    assert decoded._digests is None


def test_recovered_tables_carry_no_digests(tmp_path):
    built = SSTable(entries(100))
    merged = merge_tables([SSTable(entries(80, start=500))], 1000).tables[0]
    with NodeStore.open(str(tmp_path / "n"), node_name="compactor-0", role="compactor") as store:
        store.commit([built, merged], {})
    with NodeStore.open(str(tmp_path / "n"), node_name="compactor-0", role="compactor") as store:
        recovered = store.recovered.tables
    assert sorted(recovered) == sorted([built.table_id, merged.table_id])
    for table in recovered.values():
        assert table._digests is None
        assert table.bloom.to_bytes() == SSTable(table.entries).bloom.to_bytes()


# ----------------------------------------------------------------------
# What a merge hashes
# ----------------------------------------------------------------------
def test_merging_tables_that_carry_digests_hashes_no_key():
    flushed = [SSTable(entries(150, start=i * 60, versions=2)) for i in range(3)]
    level = merge_tables([SSTable(entries(400, start=1000))], 100).tables
    with counting_digests() as calls:
        result = merge_tables(flushed, 100, level_run=level)
        again = merge_tables(result.tables, 100)
    assert calls == []
    assert [t._image for t in again.tables] == [
        t._image for t in merge_tables([adopted(t) for t in result.tables], 100).tables
    ]


def test_merging_adopted_tables_hashes_each_record_once():
    received = [adopted(SSTable(entries(150, start=i * 60, versions=2))) for i in range(3)]
    level = merge_tables([SSTable(entries(400, start=1000))], 100).tables
    with counting_digests() as calls:
        result = merge_tables(received, 100, level_run=level)
    assert len(calls) == sum(map(len, received))
    assert sorted(calls) == sorted(key for t in received for key in t._keys)
    for table in result.tables:
        assert_carries_its_digests(table)
