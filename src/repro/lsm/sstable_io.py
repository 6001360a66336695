"""On-disk sstable format — and the one serialised form of a table.

CooLSM's simulated deployments keep sstables in memory (the simulator
models I/O cost explicitly), but the library is also usable as a real
embedded LSM store, so sstables can be written to and read from disk.

File layout::

    [data block 0][data block 1]...[data block N-1]
    [index block]          # fence pointers: (first_key, offset, length)*
    [bloom block]          # serialised BloomFilter
    [footer]               # fixed size, at end of file:
        u64 index_offset | u32 index_length
        u64 bloom_offset | u32 bloom_length
        u32 crc32 of index block + bloom block + the 24 bytes above
        8-byte magic "COOLSST2"

Data blocks use :mod:`repro.lsm.block` encoding (per-block CRC32) and
the footer CRC covers every other byte, so a flipped bit anywhere is
detected by one or the other, each checked before what it covers is parsed.

The image is also a table's wire form (:mod:`repro.live.wire`):
:func:`encode_sstable` builds it once per table, :func:`write_sstable`
installs those bytes, and :func:`decode_sstable` lets a receiver verify
and adopt them, so the file it then writes is the sender's, byte for byte.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from typing import BinaryIO, Iterator

from repro.store.fsutil import atomic_write_bytes

from .block import decode_entries, decode_varint, encode_entries, encode_varint
from .bloom import BloomFilter
from .cache import MISS, ReadCache
from .entry import Entry
from .errors import ClosedError, CorruptionError
from .sstable import DEFAULT_BLOCK_ENTRIES, SSTable, next_table_id

_MAGIC = b"COOLSST2"
_FIELDS = struct.Struct("<QIQI")  # index_off, index_len, bloom_off, bloom_len
_CRC = struct.Struct("<I")
_FOOTER_SIZE = _FIELDS.size + _CRC.size + len(_MAGIC)
_FENCE = struct.Struct("<QI")  # block offset, block length


def encode_sstable(table: SSTable, block_entries: int) -> bytes:
    """The complete file image of ``table``, memoised on it when
    ``block_entries`` is the table's own granularity (what ``NodeStore``
    and the wire both ask for): one encoding serves the local disk and
    every peer the table is sent to."""
    own = block_entries == table._block_entries
    if own and table._image is not None:
        return table._image
    out = bytearray()
    fences: list[tuple[bytes, int, int]] = []
    entries = table.entries
    for start in range(0, len(entries), block_entries):
        encoded = encode_entries(entries[start : start + block_entries])
        fences.append((entries[start].key, len(out), len(encoded)))
        out += encoded
    index_block = _encode_index(fences)
    bloom_block = table.bloom.to_bytes()
    meta = index_block + bloom_block + _FIELDS.pack(
        len(out), len(index_block), len(out) + len(index_block), len(bloom_block)
    )
    out += meta
    out += _CRC.pack(zlib.crc32(meta))
    out += _MAGIC
    image = bytes(out)
    if own:
        table._image = image
    return image


def write_sstable(table: SSTable, path: str, block_entries: int = DEFAULT_BLOCK_ENTRIES) -> int:
    """Persist an in-memory sstable to ``path`` (atomic via rename plus
    directory fsync); returns the number of bytes written."""
    return atomic_write_bytes(path, encode_sstable(table, block_entries))


def decode_sstable(
    image: bytes, table_id: int, block_entries: int, bloom_fp_rate: float
) -> SSTable:
    """Inverse of :func:`encode_sstable`: check the footer CRC and every
    block CRC (:class:`CorruptionError` on any damage), take the bloom
    filter from the image instead of rebuilding it, and keep the image on
    the table so writing or re-sending it encodes nothing."""
    image = bytes(image)
    fences, bloom = _load_meta(io.BytesIO(image), f"sstable {table_id}")
    view = memoryview(image)
    entries: list[Entry] = []
    for __, offset, length in fences:
        entries += decode_entries(view[offset : offset + length])
    table = SSTable(entries, block_entries, bloom_fp_rate, table_id, bloom)
    table._image = image
    return table


def _load_meta(file: BinaryIO, what: str) -> tuple[list[tuple[bytes, int, int]], BloomFilter]:
    """Verify the footer of the image in ``file`` (an open sstable, or a
    received image) and parse what it covers: (fence pointers, bloom)."""
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
    fences = _decode_index(meta[:index_len])
    if not fences:
        raise CorruptionError(f"{what}: empty index")
    return fences, BloomFilter.from_bytes(meta[index_len:])


def _encode_index(fences: list[tuple[bytes, int, int]]) -> bytes:
    out = bytearray(encode_varint(len(fences)))
    for first_key, offset, length in fences:
        out += encode_varint(len(first_key))
        out += first_key
        out += _FENCE.pack(offset, length)
    return bytes(out)


def _decode_index(data: bytes) -> list[tuple[bytes, int, int]]:
    count, offset = decode_varint(data, 0)
    fences = []
    for _ in range(count):
        key_len, offset = decode_varint(data, offset)
        key = bytes(data[offset : offset + key_len])
        offset += key_len
        block_offset, block_len = _FENCE.unpack_from(data, offset)
        offset += _FENCE.size
        fences.append((key, block_offset, block_len))
    return fences


class SSTableReader:
    """Random and sequential access to an on-disk sstable.

    Reads one data block per point lookup, guided by the on-disk fence
    pointers and bloom filter — the same read path as the in-memory
    :class:`~repro.lsm.sstable.SSTable`.

    With a :class:`~repro.lsm.cache.ReadCache`, decoded blocks are
    cached under a per-reader id, so hot blocks skip both the file read
    and the CRC-checked decode.
    """

    def __init__(self, path: str, cache: ReadCache | None = None) -> None:
        self.path = path
        self.cache = cache
        self._cache_id = next_table_id()
        self._file = open(path, "rb")
        self._closed = False
        try:
            self._load_footer()
        except BaseException:
            self.close()
            raise

    def _load_footer(self) -> None:
        self._fences, self.bloom = _load_meta(self._file, self.path)

    def close(self) -> None:
        if not self._closed:
            self._file.close()
            self._closed = True

    def __enter__(self) -> "SSTableReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ClosedError("reader is closed")

    def _read_block(self, index: int) -> list[Entry]:
        if self.cache is not None:
            cached = self.cache.get_block(self._cache_id, index)
            if cached is not MISS:
                return cached
        __, offset, length = self._fences[index]
        self._file.seek(offset)
        entries = decode_entries(self._file.read(length))
        if self.cache is not None:
            self.cache.put_block(self._cache_id, index, entries)
        return entries

    def get(self, key: bytes) -> Entry | None:
        """Newest version of ``key``, reading at most two data blocks.

        Versions are newest-first per key, so the newest version is the
        key's *first* occurrence in the file.  That occurrence lives in
        the last block whose first key is strictly below ``key``, or —
        when the key's versions start exactly at a block boundary — in
        the first block whose first key equals ``key``.
        """
        self._check_open()
        if not self.bloom.might_contain(key):
            return None
        # lower_bound over block first-keys.
        lo, hi = 0, len(self._fences)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._fences[mid][0] < key:
                lo = mid + 1
            else:
                hi = mid
        # Block before the bound may hold the first occurrence.
        if lo > 0:
            for entry in self._read_block(lo - 1):
                if entry.key == key:
                    return entry
        # Otherwise the occurrence starts exactly at block `lo`.
        if lo < len(self._fences) and self._fences[lo][0] == key:
            for entry in self._read_block(lo):
                if entry.key == key:
                    return entry
        return None

    def scan(self) -> Iterator[Entry]:
        """Iterate all entries in sstable order."""
        self._check_open()
        for index in range(len(self._fences)):
            yield from self._read_block(index)

    def load(self) -> SSTable:
        """Materialise the whole file as an in-memory :class:`SSTable`,
        reusing the deserialised bloom filter instead of rebuilding it."""
        return SSTable(list(self.scan()), bloom=self.bloom)


def read_sstable(path: str) -> SSTable:
    """Load an on-disk sstable fully into memory."""
    with SSTableReader(path) as reader:
        return reader.load()
