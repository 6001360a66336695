"""Unit tests for the on-disk sstable format."""

import os

import pytest

from repro.lsm.entry import encode_key
from repro.lsm.errors import ClosedError, CorruptionError
from repro.lsm.sstable import SSTable
from repro.lsm.sstable_io import (
    SSTableReader,
    decode_sstable,
    encode_sstable,
    read_sstable,
    write_sstable,
)

from tests.conftest import entry


@pytest.fixture
def table():
    return SSTable.from_entries([entry(k, k + 1) for k in range(100)], block_entries=8)


def test_roundtrip(tmp_path, table):
    path = str(tmp_path / "t.sst")
    write_sstable(table, path, block_entries=8)
    loaded = read_sstable(path)
    assert loaded.entries == table.entries


def test_point_lookup_without_full_load(tmp_path, table):
    path = str(tmp_path / "t.sst")
    write_sstable(table, path, block_entries=8)
    with SSTableReader(path) as reader:
        for k in range(100):
            assert reader.get(encode_key(k)).key == encode_key(k)
        assert reader.get(encode_key(1000)) is None


def test_bloom_filter_persisted(tmp_path, table):
    path = str(tmp_path / "t.sst")
    write_sstable(table, path)
    with SSTableReader(path) as reader:
        assert all(reader.bloom.might_contain(encode_key(k)) for k in range(100))


def test_scan_is_sorted(tmp_path, table):
    path = str(tmp_path / "t.sst")
    write_sstable(table, path, block_entries=8)
    with SSTableReader(path) as reader:
        keys = [e.key for e in reader.scan()]
    assert keys == sorted(keys)
    assert len(keys) == 100


def test_closed_reader_raises(tmp_path, table):
    path = str(tmp_path / "t.sst")
    write_sstable(table, path)
    reader = SSTableReader(path)
    reader.close()
    with pytest.raises(ClosedError):
        reader.get(encode_key(1))


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
    write_sstable(table, path, block_entries=8)
    with open(path, "r+b") as f:
        f.seek(20)
        byte = f.read(1)
        f.seek(20)
        f.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(CorruptionError):
        read_sstable(path)


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
# The image: one encoding, memoised, adopted verbatim
# ----------------------------------------------------------------------
def test_image_is_the_file_and_is_memoised(tmp_path, table):
    path = str(tmp_path / "t.sst")
    assert write_sstable(table, path, block_entries=8) == os.path.getsize(path)
    with open(path, "rb") as f:
        assert f.read() == encode_sstable(table, 8)
    assert encode_sstable(table, 8) is encode_sstable(table, 8)
    # Another granularity is a different image and leaves the memo alone.
    assert encode_sstable(table, 16) != encode_sstable(table, 8)
    assert encode_sstable(table, 8) is table._image


def test_decode_adopts_the_image(table):
    image = encode_sstable(table, 8)
    adopted = decode_sstable(memoryview(image), 77, 8, 0.05)
    assert adopted.entries == table.entries
    assert (adopted.table_id, adopted._block_entries, adopted.bloom_fp_rate) == (77, 8, 0.05)
    assert adopted.bloom.to_bytes() == table.bloom.to_bytes()
    assert encode_sstable(adopted, 8) == image


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
    small = SSTable.from_entries(
        [entry(k, k + 1) for k in range(20)], block_entries=8
    )
    expected = {e.key: e for e in small.entries}
    image = encode_sstable(small, 8)
    path = str(tmp_path / "t.sst")
    for what, damaged in _damaged_images(image):
        with pytest.raises(CorruptionError):
            decode_sstable(damaged, small.table_id, 8, 0.01)
            pytest.fail(f"decode_sstable accepted image {what}")
        with open(path, "wb") as f:
            f.write(damaged)
        with pytest.raises(CorruptionError):
            with SSTableReader(path) as reader:
                list(reader.scan())
            pytest.fail(f"SSTableReader scanned image {what}")
        try:
            with SSTableReader(path) as reader:
                for key, entry_ in expected.items():
                    try:
                        assert reader.get(key) == entry_, what
                    except CorruptionError:
                        pass  # the one damaged block
        except CorruptionError:
            pass  # refused at open: footer, index or bloom damage
