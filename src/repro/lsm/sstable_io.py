"""On-disk sstable format — and the one serialised form of a table.

CooLSM's simulated deployments keep sstables in memory (the simulator
models I/O cost explicitly), but the library is also usable as a real
embedded LSM store, so sstables can be written to and read from disk.

File layout::

    [data block 0][data block 1]...[data block N-1]
    [index block]          # fence pointers: (first_key, offset, length)*,
                           # then the table's last key
    [bloom block]          # serialised BloomFilter
    [footer]               # fixed size, at end of file:
        u64 index_offset | u32 index_length
        u64 bloom_offset | u32 bloom_length
        u32 crc32 of index block + bloom block + the 24 bytes above
        8-byte magic "COOLSST3"

Data blocks use :mod:`repro.lsm.block` encoding (per-block CRC32) and
the footer CRC covers every other byte, so a flipped bit anywhere is
detected by one or the other, each checked before what it covers is parsed.

Every :class:`~repro.lsm.sstable.SSTable` holds its image from birth:
a table built from entries assembles it (:func:`assemble_image`), a
merge's output is assembled from raw records, and a received table is
the image it arrived as.  The image is also a table's wire form
(:mod:`repro.live.wire`): :func:`write_sstable` installs those bytes,
and :func:`decode_sstable` lets a receiver verify and adopt them, so the
file it then writes is the sender's, byte for byte.  Adoption decodes no
entry: the count comes from the block headers, the key range from the
index, the filter from the bloom block, and the entries are decoded on
the table's first read (:meth:`SSTable.adopt`).
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from typing import BinaryIO, Iterator

from repro.store.fsutil import atomic_write_bytes

from . import sstable  # imports this module back: names resolve at call time
from .block import decode_entries, decode_varint, encode_varint, verified_count
from .bloom import BloomFilter
from .entry import Entry
from .errors import ClosedError, CorruptionError

_MAGIC = b"COOLSST3"
_FIELDS = struct.Struct("<QIQI")  # index_off, index_len, bloom_off, bloom_len
_CRC = struct.Struct("<I")
_FOOTER_SIZE = _FIELDS.size + _CRC.size + len(_MAGIC)
_FENCE = struct.Struct("<QI")  # block offset, block length


def assemble_image(
    blocks: list[bytes], first_keys: list[bytes], last_key: bytes, bloom: BloomFilter
) -> tuple[bytes, list[tuple[bytes, int, int]]]:
    """A table's image from its encoded data blocks, each block's first
    key, the table's last key and its filter: ``(image, fence pointers)``."""
    out = bytearray()
    fences: list[tuple[bytes, int, int]] = []
    for first_key, block in zip(first_keys, blocks):
        fences.append((first_key, len(out), len(block)))
        out += block
    index_block = _encode_index(fences, last_key)
    bloom_block = bloom.to_bytes()
    meta = index_block + bloom_block + _FIELDS.pack(
        len(out), len(index_block), len(out) + len(index_block), len(bloom_block)
    )
    out += meta
    out += _CRC.pack(zlib.crc32(meta))
    out += _MAGIC
    return bytes(out), fences


def write_sstable(table: sstable.SSTable, path: str) -> int:
    """Persist ``table``'s image to ``path`` (atomic via rename plus
    directory fsync); returns the number of bytes written."""
    return atomic_write_bytes(path, table._image)


def decode_sstable(image: bytes, table_id: int) -> sstable.SSTable:
    """A table's image back as the table, minus the entries: check the
    layout, the footer CRC and every block CRC (:class:`CorruptionError`
    on any damage, or on blocks not cut at
    :data:`~repro.lsm.sstable.BLOCK_ENTRIES`), and adopt the image —
    count from the block headers, bloom filter from its block.  Entries
    are decoded on the table's first read; writing or re-sending it
    encodes nothing."""
    image = bytes(image)
    what = f"sstable {table_id}"
    fences, last_key, bloom = _load_meta(io.BytesIO(image), what)
    view = memoryview(image)
    counts = [verified_count(view[offset : offset + length]) for __, offset, length in fences]
    # Every block but the last is full, as a built table's are, and none
    # is empty.
    full = sstable.BLOCK_ENTRIES
    if any(n != full for n in counts[:-1]) or not 0 < counts[-1] <= full:
        raise CorruptionError(f"{what}: blocks not cut at {full} entries")
    return sstable.SSTable.adopt(image, fences, sum(counts), last_key, table_id, bloom)


def _load_meta(
    file: BinaryIO, what: str
) -> tuple[list[tuple[bytes, int, int]], bytes, BloomFilter]:
    """Verify the footer of the image in ``file`` (an open sstable, or a
    received image) and parse what it covers: (fence pointers, last key,
    bloom).  The fences must tile the data region."""
    meta_end = file.seek(0, os.SEEK_END) - _FOOTER_SIZE
    if meta_end < 0:
        raise CorruptionError(f"{what}: too small for footer")
    file.seek(meta_end)
    footer = file.read(_FOOTER_SIZE)
    if footer[-len(_MAGIC) :] != _MAGIC:
        raise CorruptionError(f"{what}: bad magic")
    index_off, index_len, bloom_off, bloom_len = _FIELDS.unpack_from(footer)
    # Index, bloom and footer are contiguous; checking that first bounds
    # the read below by the file size whatever the fields claim.
    if index_off + index_len != bloom_off or bloom_off + bloom_len != meta_end:
        raise CorruptionError(f"{what}: footer does not match the file layout")
    file.seek(index_off)
    meta = file.read(meta_end - index_off)
    (crc,) = _CRC.unpack_from(footer, _FIELDS.size)
    if zlib.crc32(footer[: _FIELDS.size], zlib.crc32(meta)) != crc:
        raise CorruptionError(f"{what}: footer checksum mismatch")
    fences, last_key = _decode_index(meta[:index_len])
    if not fences:
        raise CorruptionError(f"{what}: empty index")
    end = 0
    for __, offset, length in fences:
        if offset != end:
            raise CorruptionError(f"{what}: data blocks do not tile the file")
        end += length
    if end != index_off:
        raise CorruptionError(f"{what}: data blocks do not tile the file")
    return fences, last_key, BloomFilter.from_bytes(meta[index_len:])


def _encode_index(fences: list[tuple[bytes, int, int]], last_key: bytes) -> bytes:
    out = bytearray(encode_varint(len(fences)))
    for first_key, offset, length in fences:
        out += encode_varint(len(first_key))
        out += first_key
        out += _FENCE.pack(offset, length)
    out += encode_varint(len(last_key))
    out += last_key
    return bytes(out)


def _decode_index(data: bytes) -> tuple[list[tuple[bytes, int, int]], bytes]:
    count, offset = decode_varint(data, 0)
    fences = []
    for _ in range(count):
        key_len, offset = decode_varint(data, offset)
        key = bytes(data[offset : offset + key_len])
        offset += key_len
        block_offset, block_len = _FENCE.unpack_from(data, offset)
        offset += _FENCE.size
        fences.append((key, block_offset, block_len))
    key_len, offset = decode_varint(data, offset)
    return fences, bytes(data[offset : offset + key_len])


class SSTableReader:
    """Sequential access to an on-disk sstable, one data block at a
    time: what a restart rebuilds its tables from.  Point lookups go
    through the in-memory :class:`~repro.lsm.sstable.SSTable`."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._file = open(path, "rb")
        self._closed = False
        try:
            self._blocks, __, self.bloom = _load_meta(self._file, path)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if not self._closed:
            self._file.close()
            self._closed = True

    def __enter__(self) -> "SSTableReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def scan(self) -> Iterator[Entry]:
        """Iterate all entries in sstable order, reading a block at a time."""
        if self._closed:
            raise ClosedError("reader is closed")
        for __, offset, length in self._blocks:
            self._file.seek(offset)
            yield from decode_entries(self._file.read(length))
