"""Property tests for on-disk formats (sstable files and WAL)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.entry import Entry
from repro.lsm.sstable import SSTable
from repro.lsm.sstable_io import SSTableReader, decode_sstable, write_sstable
from repro.lsm.wal import WriteAheadLog, replay

keys_st = st.binary(min_size=1, max_size=16)
values_st = st.binary(max_size=48)

entry_st = st.builds(
    Entry,
    key=keys_st,
    seqno=st.integers(min_value=1, max_value=10**6),
    timestamp=st.floats(min_value=0, max_value=1e9, allow_nan=False),
    value=values_st,
    tombstone=st.booleans(),
)
entries_st = st.lists(entry_st, min_size=1, max_size=60)


#: Tables of one to three 64-entry blocks, the last often partial.
table_entries_st = st.integers(min_value=1, max_value=160).flatmap(
    lambda n: st.lists(entry_st, min_size=n, max_size=n)
)


@settings(max_examples=40, deadline=None)
@given(entries=table_entries_st)
def test_sstable_file_roundtrip(tmp_path_factory, entries):
    table = SSTable.from_entries(entries)
    path = str(tmp_path_factory.mktemp("sst") / "t.sst")
    write_sstable(table, path)
    with open(path, "rb") as f:
        assert decode_sstable(f.read(), table.table_id).entries == table.entries
    with SSTableReader(path) as reader:
        assert list(reader.scan()) == table.entries


@settings(max_examples=25, deadline=None)
@given(entries=table_entries_st)
def test_sstable_file_point_lookups(tmp_path_factory, entries):
    table = SSTable.from_entries(entries)
    path = str(tmp_path_factory.mktemp("sst") / "t.sst")
    write_sstable(table, path)
    with open(path, "rb") as f:
        adopted = decode_sstable(f.read(), table.table_id)
    for entry in table.entries:
        found = adopted.get(entry.key)
        assert found is not None
        assert found.key == entry.key
        # The lookup returns the newest version in the file.
        assert found.version >= entry.version


@settings(max_examples=30, deadline=None)
@given(batches=st.lists(entries_st, min_size=1, max_size=5))
def test_wal_roundtrip(tmp_path_factory, batches):
    path = str(tmp_path_factory.mktemp("wal") / "wal.log")
    with WriteAheadLog(path) as wal:
        for batch in batches:
            wal.append_batch(batch)
    replayed = list(replay(path))
    expected = [entry for batch in batches for entry in batch]
    assert replayed == expected


@settings(max_examples=20, deadline=None)
@given(entries=entries_st, cut=st.integers(min_value=1, max_value=200))
def test_wal_torn_tail_loses_at_most_last_batch(tmp_path_factory, entries, cut):
    path = str(tmp_path_factory.mktemp("wal") / "wal.log")
    with WriteAheadLog(path) as wal:
        wal.append_batch(entries)
        wal.append_batch(entries)
    import os

    size = os.path.getsize(path)
    with open(path, "r+b") as f:
        f.truncate(max(0, size - cut))
    replayed = list(replay(path))
    # Either both batches, one batch, or none — never garbage.
    assert len(replayed) in (0, len(entries), 2 * len(entries))
