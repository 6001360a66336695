"""Binary encoding of sorted entry blocks.

An sstable's data is split into fixed-fanout *blocks* of consecutive
entries.  Each block is encoded and checksummed independently, so a
reader can verify and decode one block at a time (the fence pointers in
:mod:`repro.lsm.sstable` record each block's first key).

Layout of one encoded block::

    u32   crc32 of everything after this field
    u32   entry count
    entry*:
        varint key_len | key bytes
        u64    seqno
        f64    timestamp
        u8     tombstone flag
        varint value_len | value bytes

Varints are LEB128 (unsigned).  All fixed-width integers little-endian.

A record is self-contained (no prefix compression), so a merge reads a
block's records raw (:func:`read_records`) and builds a block by
concatenating them (:func:`pack_records`) without an :class:`Entry`.
"""

from __future__ import annotations

import struct
import zlib

from .bloom import DIGEST_SIZE, key_digest
from .entry import Entry
from .errors import CorruptionError

_FIXED = struct.Struct("<Qd B")  # seqno, timestamp, tombstone
_U32 = struct.Struct("<I")
_HEADER = struct.Struct("<II")  # crc32, entry count


def encode_varint(value: int) -> bytes:
    """LEB128-encode a non-negative integer."""
    if value < 0:
        raise ValueError("varints are unsigned")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int) -> tuple[int, int]:
    """Decode a LEB128 varint at ``offset``; return (value, next_offset)."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CorruptionError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise CorruptionError("varint too long")


def encode_entries(entries: list[Entry]) -> bytes:
    """Encode entries (already sorted by the caller) into one block."""
    body = bytearray(_U32.pack(len(entries)))
    pack_fixed = _FIXED.pack
    for entry in entries:
        key, value = entry.key, entry.value
        # A length below 128 is its own one-byte LEB128.
        if len(key) < 128:
            body.append(len(key))
        else:
            body += encode_varint(len(key))
        body += key
        body += pack_fixed(entry.seqno, entry.timestamp, 1 if entry.tombstone else 0)
        if len(value) < 128:
            body.append(len(value))
        else:
            body += encode_varint(len(value))
        body += value
    return _U32.pack(zlib.crc32(body)) + body


def pack_records(records: list[bytes]) -> bytes:
    """One block over already-encoded records, in order: what
    :func:`encode_entries` returns for their entries."""
    body = _U32.pack(len(records)) + b"".join(records)
    return _U32.pack(zlib.crc32(body)) + body


def verified_count(data: bytes) -> int:
    """The entry count of a block, once its checksum holds: what
    :func:`decode_entries` checks first, without decoding an entry."""
    if len(data) < 8:
        raise CorruptionError("block too short")
    stored_crc, count = _HEADER.unpack_from(data, 0)
    if zlib.crc32(memoryview(data)[4:]) != stored_crc:
        raise CorruptionError("block checksum mismatch")
    return count


def decode_entries(data: bytes) -> list[Entry]:
    """Decode a block produced by :func:`encode_entries`."""
    count = verified_count(data)
    # One copy, so every key and value below is a plain ``bytes`` slice.
    body = bytes(data[4:])
    offset, end = 4, len(body)
    unpack_fixed, fixed_size = _FIXED.unpack_from, _FIXED.size
    entries: list[Entry] = []
    append = entries.append
    try:
        for _ in range(count):
            key_len = body[offset]
            if key_len < 128:
                offset += 1
            else:
                key_len, offset = decode_varint(body, offset)
            key = body[offset : offset + key_len]
            offset += key_len
            if offset + fixed_size > end:
                raise CorruptionError("truncated entry header")
            seqno, timestamp, tomb = unpack_fixed(body, offset)
            offset += fixed_size
            value_len = body[offset]
            if value_len < 128:
                offset += 1
            else:
                value_len, offset = decode_varint(body, offset)
            value = body[offset : offset + value_len]
            if len(value) != value_len:
                raise CorruptionError("truncated entry value")
            offset += value_len
            append(Entry(key, seqno, timestamp, value, tombstone=bool(tomb)))
    except IndexError:
        raise CorruptionError("truncated varint") from None
    return entries


def read_records(
    image: bytes, offset: int, length: int, source: int, digests: bytes | None, at: int
) -> list[tuple]:
    """The records of the block at ``image[offset : offset + length]``,
    once its checksum holds, each as ``(key, -timestamp, -seqno, source,
    start, end, tombstone, image, key digest)``: what a merge sorts on —
    ``source`` ranks the block's table among the merge's inputs and
    ``start`` is unique within it, so records order as tuples without
    comparing past them — where the record's bytes lie, what a merge
    filters on, and the key's :func:`~repro.lsm.bloom.key_digest`.  The
    digests are sliced from ``digests`` (a table's carried digests, the
    block's first record's at byte ``at``), or hashed when there are
    none.  Each key and digest is a new ``bytes``; a record's other
    bytes stay in ``image``."""
    count = verified_count(memoryview(image)[offset : offset + length])
    pos, end = offset + _HEADER.size, offset + length
    unpack_fixed, fixed_size, digest_size = _FIXED.unpack_from, _FIXED.size, DIGEST_SIZE
    records: list[tuple] = []
    append = records.append
    try:
        for _ in range(count):
            start = pos
            key_len = image[pos]
            if key_len < 128:
                pos += 1
            else:
                key_len, pos = decode_varint(image, pos)
            key = image[pos : pos + key_len]
            seqno, timestamp, tomb = unpack_fixed(image, pos + key_len)
            pos += key_len + fixed_size
            value_len = image[pos]
            if value_len < 128:
                pos += 1
            else:
                value_len, pos = decode_varint(image, pos)
            pos += value_len
            if digests is None:
                digest = key_digest(key)
            else:
                digest = digests[at : at + digest_size]
                at += digest_size
            append((key, -timestamp, -seqno, source, start, pos, tomb, image, digest))
    except (IndexError, struct.error):
        raise CorruptionError("truncated block record") from None
    # Every length is checked at once: the records must end at the block's end.
    if pos != end:
        raise CorruptionError("block records do not fill the block")
    return records
