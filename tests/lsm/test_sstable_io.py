"""Unit tests for the on-disk sstable format."""

import io
import os
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import sstable as sstable_module
from repro.lsm import sstable_io
from repro.lsm.block import decode_entries, encode_entries, encode_varint
from repro.lsm.compaction import KeepPolicy, merge_tables
from repro.lsm.entry import encode_key
from repro.lsm.errors import ClosedError, CorruptionError
from repro.lsm.sstable import BLOCK_ENTRIES, SSTable, next_table_id, sort_run
from repro.lsm.sstable_io import SSTableReader, decode_sstable, write_sstable

from tests.conftest import entry


@pytest.fixture
def table():
    # 132 entries: two full 64-entry blocks and a last block of four.
    return SSTable.from_entries([entry(k, k + 1) for k in range(132)])


def read_file(path: str, table_id: int) -> SSTable:
    with open(path, "rb") as f:
        return decode_sstable(f.read(), table_id)


@pytest.fixture
def decodes(monkeypatch):
    """One item per data block decoded, by the file reader or a table."""
    calls = []

    def counting(data):
        calls.append(1)
        return decode_entries(data)

    monkeypatch.setattr(sstable_module, "decode_entries", counting)
    monkeypatch.setattr(sstable_io, "decode_entries", counting)
    return calls


def test_roundtrip(tmp_path, table):
    path = str(tmp_path / "t.sst")
    write_sstable(table, path)
    assert read_file(path, table.table_id).entries == table.entries
    with SSTableReader(path) as reader:
        assert list(reader.scan()) == table.entries


def test_point_lookup_without_full_load(tmp_path, table, decodes):
    path = str(tmp_path / "t.sst")
    write_sstable(table, path)
    adopted = read_file(path, table.table_id)
    assert adopted.get(encode_key(1000)) is None
    assert decodes == [], "out of range: nothing decoded"
    for k in range(132):
        assert adopted.get(encode_key(k)).key == encode_key(k)


def test_bloom_filter_persisted(tmp_path, table):
    path = str(tmp_path / "t.sst")
    write_sstable(table, path)
    with SSTableReader(path) as reader:
        assert all(reader.bloom.might_contain(encode_key(k)) for k in range(132))


def test_scan_is_sorted(tmp_path, table):
    path = str(tmp_path / "t.sst")
    write_sstable(table, path)
    with SSTableReader(path) as reader:
        keys = [e.key for e in reader.scan()]
    assert keys == sorted(keys)
    assert len(keys) == 132


def test_closed_reader_raises(tmp_path, table):
    path = str(tmp_path / "t.sst")
    write_sstable(table, path)
    reader = SSTableReader(path)
    reader.close()
    with pytest.raises(ClosedError):
        list(reader.scan())


def test_bad_magic_detected(tmp_path, table):
    path = str(tmp_path / "t.sst")
    write_sstable(table, path)
    with open(path, "r+b") as f:
        f.seek(-4, os.SEEK_END)
        f.write(b"XXXX")
    with pytest.raises(CorruptionError):
        SSTableReader(path)


def test_footer_corruption_detected(tmp_path, table):
    path = str(tmp_path / "t.sst")
    write_sstable(table, path)
    with open(path, "r+b") as f:
        f.seek(-20, os.SEEK_END)
        f.write(b"\xff\xff")
    with pytest.raises(CorruptionError):
        SSTableReader(path)


def test_data_block_corruption_detected(tmp_path, table):
    path = str(tmp_path / "t.sst")
    write_sstable(table, path)
    with open(path, "r+b") as f:
        f.seek(20)
        byte = f.read(1)
        f.seek(20)
        f.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(CorruptionError):
        read_file(path, table.table_id)
    with pytest.raises(CorruptionError):
        with SSTableReader(path) as reader:
            list(reader.scan())


def test_truncated_file_detected(tmp_path, table):
    path = str(tmp_path / "t.sst")
    write_sstable(table, path)
    with open(path, "r+b") as f:
        f.truncate(10)
    with pytest.raises(CorruptionError):
        SSTableReader(path)


def test_write_is_atomic_no_tmp_left_behind(tmp_path, table):
    path = str(tmp_path / "t.sst")
    write_sstable(table, path)
    assert not os.path.exists(path + ".tmp")


# ----------------------------------------------------------------------
# The image: encoded once, at birth, and adopted verbatim
# ----------------------------------------------------------------------
def test_image_is_the_file_and_is_memoised(tmp_path, table, monkeypatch):
    """The table holds its image from birth; a write installs those bytes
    and encodes nothing."""
    monkeypatch.setattr(sstable_module, "encode_entries", None)  # any encode fails
    path = str(tmp_path / "t.sst")
    assert write_sstable(table, path) == os.path.getsize(path)
    with open(path, "rb") as f:
        assert f.read() == table._image
    assert write_sstable(table, path) == len(table._image)
    assert [length for __, __, length in table._blocks] == [
        len(encode_entries(table.entries[start : start + BLOCK_ENTRIES]))
        for start in (0, 64, 128)
    ]


def test_decode_adopts_the_image(table):
    image = table._image
    adopted = decode_sstable(memoryview(image), 77)
    assert adopted.entries == table.entries
    assert adopted.table_id == 77
    assert adopted.bloom.to_bytes() == table.bloom.to_bytes()
    assert adopted._image == image


def _damaged_images(image: bytes):
    for pos in range(len(image)):
        for mask in (0x01, 0xFF):
            damaged = bytearray(image)
            damaged[pos] ^= mask
            yield f"flip {mask:#04x} at {pos}", bytes(damaged)
    for length in range(len(image)):
        yield f"truncated to {length}", image[:length]


def test_any_flipped_byte_or_truncation_is_corruption(tmp_path):
    """Every byte of the image is under a CRC that is checked before the
    byte is used — by the file reader and by the network's decoder alike:
    never another exception type, never a hang, never a wrong read."""
    # Two blocks, the last partial, with the shortest records there are.
    small = SSTable.from_entries([entry(k, k + 1, value=b"") for k in range(66)])
    image = small._image
    assert len(small._blocks) == 2
    path = str(tmp_path / "t.sst")
    for what, damaged in _damaged_images(image):
        with pytest.raises(CorruptionError):
            decode_sstable(damaged, small.table_id)
            pytest.fail(f"decode_sstable accepted image {what}")
        with open(path, "wb") as f:
            f.write(damaged)
        with pytest.raises(CorruptionError):
            with SSTableReader(path) as reader:
                list(reader.scan())
            pytest.fail(f"SSTableReader scanned image {what}")


# ----------------------------------------------------------------------
# Adoption: the received image stays undecoded until something reads it
# ----------------------------------------------------------------------
def test_adoption_decodes_nothing(table, decodes):
    image = table._image
    adopted = decode_sstable(image, 77)
    assert decodes == []
    assert len(adopted) == len(table)
    assert (adopted.min_key, adopted.max_key) == (table.min_key, table.max_key)
    assert adopted._blocks == table._blocks
    assert adopted.bloom.to_bytes() == table.bloom.to_bytes()
    assert adopted._image is image
    assert decodes == []


@pytest.mark.parametrize("first_read", ["get", "scan", "entries"])
def test_first_read_decodes_each_block_once(table, decodes, first_read):
    adopted = decode_sstable(table._image, 77)
    key = encode_key(42)
    if first_read == "get":
        assert adopted.get(key) == table.get(key)
    elif first_read == "scan":
        assert next(adopted.scan(key)) == table.get(key)
    else:
        assert adopted.entries == table.entries
    assert len(decodes) == len(table._blocks) == 3
    assert list(adopted.scan()) == table.entries
    assert adopted.versions(encode_key(7)) == table.versions(encode_key(7))
    assert [p.entries for p in adopted.split_at([key])] == [
        p.entries for p in table.split_at([key])
    ]
    assert len(decodes) == 3, "later reads decode nothing"


_keys = st.integers(min_value=1, max_value=40)
_bound = st.none() | st.integers(min_value=0, max_value=41).map(encode_key)


_entry = st.builds(
    entry,
    key=_keys,
    seqno=st.integers(min_value=1, max_value=60),
    tombstone=st.booleans(),
)
#: One to three blocks, the last often partial: sizes straddle 64 and 128.
_runs = st.integers(min_value=1, max_value=150).flatmap(
    lambda n: st.lists(_entry, min_size=n, max_size=n)
)


@settings(max_examples=60, deadline=None)
@given(
    # Forty keys and up to 150 entries: several versions of most keys,
    # and versions of one key spanning block boundaries.
    entries=_runs,
    ranges=st.lists(st.tuples(_bound, _bound), max_size=4),
    cuts=st.lists(_keys.map(encode_key), max_size=3),
)
def test_adopted_table_reads_like_the_built_one(entries, ranges, cuts):
    built = SSTable(sort_run(entries))
    adopted = decode_sstable(built._image, built.table_id)
    # 0 and 41 fall outside every table; gaps in 1..40 are absent keys.
    for k in range(42):
        assert adopted.versions(encode_key(k)) == built.versions(encode_key(k))
    for lo, hi in ranges:
        assert list(adopted.scan(lo, hi)) == list(built.scan(lo, hi))
    boundaries = sorted(set(cuts))
    assert [p.entries for p in adopted.split_at(boundaries)] == [
        p.entries for p in built.split_at(boundaries)
    ]
    assert (adopted.probes, adopted.opens) == (built.probes, built.opens)


def _forge_count(image: bytes, block: int, count: int) -> bytes:
    """``image`` with data block ``block`` claiming ``count`` entries,
    its CRC recomputed: every checksum in the image still holds."""
    fences, __, __ = sstable_io._load_meta(io.BytesIO(image), "forged")
    __, offset, length = fences[block]
    forged = bytearray(image)
    struct.pack_into("<I", forged, offset + 4, count)
    struct.pack_into("<I", forged, offset, zlib.crc32(forged[offset + 4 : offset + length]))
    return bytes(forged)


@pytest.mark.parametrize("count", [3, 5])
def test_forged_last_block_count_fails_on_first_read(table, count):
    # 132 entries at 64 a block: the last of 3 blocks holds 4.
    forged = _forge_count(table._image, 2, count)
    adopted = decode_sstable(forged, 77)
    assert len(adopted) == 128 + count
    with pytest.raises(CorruptionError):
        adopted.entries
    with pytest.raises(CorruptionError):
        adopted.get(table.max_key)


@pytest.mark.parametrize(
    "block, count", [(1, 63), (2, 0), (2, 65)], ids=["inner-short", "last-empty", "last-over"]
)
def test_forged_block_cut_is_refused_at_adoption(table, block, count):
    forged = _forge_count(table._image, block, count)
    with pytest.raises(CorruptionError, match="not cut at 64 entries"):
        decode_sstable(forged, 77)


def _reindex(image: bytes, edit) -> bytes:
    """``image`` with its fence pointers passed through ``edit`` and the
    footer CRC recomputed: a forged index that every checksum agrees with."""
    fences, last_key, bloom = sstable_io._load_meta(io.BytesIO(image), "forged")
    data_end = fences[-1][1] + fences[-1][2]
    index, bloom_block = sstable_io._encode_index(edit(fences), last_key), bloom.to_bytes()
    meta = index + bloom_block + struct.pack(
        "<QIQI", data_end, len(index), data_end + len(index), len(bloom_block)
    )
    return image[:data_end] + meta + struct.pack("<I", zlib.crc32(meta)) + b"COOLSST3"


@pytest.mark.parametrize(
    "edit",
    [
        lambda fences: fences[:-1],  # the last block is left out
        lambda fences: [fences[0], (fences[1][0], fences[1][1] + 1, fences[1][2])] + fences[2:],
    ],
    ids=["gap", "overlap"],
)
def test_fences_that_do_not_tile_the_data_are_refused(tmp_path, table, edit):
    image = table._image
    assert _reindex(image, list) == image
    forged = _reindex(image, edit)
    with pytest.raises(CorruptionError, match="do not tile"):
        decode_sstable(forged, 77)
    path = str(tmp_path / "forged.sst")
    with open(path, "wb") as f:
        f.write(forged)
    with pytest.raises(CorruptionError, match="do not tile"):
        SSTableReader(path)


def test_image_cut_at_another_block_size_is_refused(table):
    """An image whose every checksum holds but whose blocks are cut at 7
    entries, not 64, is not adopted: a table's fences assume full blocks."""
    entries = table.entries
    starts = range(0, len(entries), 7)
    image, __ = sstable_io.assemble_image(
        [encode_entries(entries[start : start + 7]) for start in starts],
        [entries[start].key for start in starts],
        table.max_key,
        table.bloom,
    )
    with pytest.raises(CorruptionError, match="not cut at 64 entries"):
        decode_sstable(image, 77)


def _coolsst2_image(table: SSTable) -> bytes:
    """The previous format, byte for byte: the index ends after the
    fence pointers (no last key) and the magic is ``COOLSST2``."""
    entries = table.entries
    data, index = bytearray(), bytearray(encode_varint(-(-len(entries) // BLOCK_ENTRIES)))
    for start in range(0, len(entries), BLOCK_ENTRIES):
        block = encode_entries(entries[start : start + BLOCK_ENTRIES])
        index += encode_varint(len(entries[start].key)) + entries[start].key
        index += struct.pack("<QI", len(data), len(block))
        data += block
    bloom = table.bloom.to_bytes()
    meta = bytes(index) + bloom + struct.pack(
        "<QIQI", len(data), len(index), len(data) + len(index), len(bloom)
    )
    return bytes(data) + meta + struct.pack("<I", zlib.crc32(meta)) + b"COOLSST2"


def test_previous_format_is_refused_not_misread(tmp_path, table):
    image = _coolsst2_image(table)
    with pytest.raises(CorruptionError, match="bad magic"):
        decode_sstable(image, 77)
    path = str(tmp_path / "old.sst")
    with open(path, "wb") as f:
        f.write(image)
    with pytest.raises(CorruptionError, match="bad magic"):
        SSTableReader(path)


# ----------------------------------------------------------------------
# Every kind of table is its image
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(entries=_runs, cut=_keys.map(encode_key))
def test_every_kind_of_table_is_its_image(tmp_path_factory, entries, cut):
    """A table built from entries, a merge output, a ``split_at`` piece
    and an adopted table all read back from their image, and a write
    puts exactly that image on disk."""
    built = SSTable(sort_run(entries))
    merged = merge_tables([built], len(built), KeepPolicy(retain_horizon=-1.0)).tables
    pieces = built.split_at([cut])
    adopted = decode_sstable(built._image, next_table_id())
    path = str(tmp_path_factory.mktemp("sst") / "t.sst")
    for table in (built, *merged, *pieces, adopted):
        assert decode_sstable(table._image, next_table_id()).entries == table.entries
        assert write_sstable(table, path) == len(table._image)
        with open(path, "rb") as f:
            assert f.read() == table._image
    assert merged[0].entries == built.entries, "a horizon below every version keeps them all"
