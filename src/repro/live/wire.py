"""Binary wire codec for the live runtime.  No dependencies.

Two layers:

**Values.**  A tagged, recursive encoding of every payload CooLSM nodes
exchange: ``None``, bools, 64-bit ints, doubles, bytes, str, tuples,
lists, dicts, :class:`~repro.lsm.entry.Entry`,
:class:`~repro.lsm.sstable.SSTable`, and every registered message
dataclass.  Entries get a dedicated compact form; an sstable — the
unit that dominates traffic — travels as its checksummed
:mod:`repro.lsm.sstable_io` file image behind ``table_id``,
``block_entries``, ``bloom_fp_rate`` and the image length: the bytes the
sender wrote to its disk, verified and adopted by the receiver (bloom
filter included, nothing rebuilt) and written to its disk unchanged.

**Frames.**  Length-prefixed with a magic and a CRC32 over the payload::

    +-------+----------+---------+--------------------+
    | magic | length u32 | crc u32 | payload (length B) |
    +-------+----------+---------+--------------------+

A length word above :data:`MAX_FRAME_BYTES` (any of its top bits set
included) is rejected before anything is allocated.  A corrupted or
truncated frame raises :class:`WireError`; the
transport closes the connection (TCP already protects in flight — the
CRC guards against framing bugs and partial writes around reconnects).

Hot-path framing is zero-copy: :func:`encode_frame_into` appends the
header and payload to a caller-owned ``bytearray`` (the transport
reuses one scratch buffer per peer and drains many frames into a
single socket write), and the decode path slices a ``memoryview`` of
the received payload so nested values never copy the buffer before
their final ``bytes`` materialisation.  :func:`encode_frame` remains
as the one-shot convenience used by tests and the chaos proxy.

**Registry.**  Message dataclasses are registered with *explicit* type
ids so every process agrees on the numbering regardless of import
order.  :func:`missing_codecs` reflects over a module and reports any
message dataclass (or field type) the codec cannot carry — the
completeness guard test fails the build when a new message is added
without wire support.
"""

from __future__ import annotations

import dataclasses
import struct
import types
import typing
import zlib

from repro.lsm.entry import Entry
from repro.lsm.errors import CorruptionError
from repro.lsm.sstable import SSTable
from repro.lsm.sstable_io import decode_sstable, encode_sstable

__all__ = [
    "WireError",
    "MAGIC",
    "HEADER_SIZE",
    "MAX_FRAME_BYTES",
    "encode_value",
    "decode_value",
    "encode_frame",
    "encode_frame_into",
    "decode_header",
    "check_payload",
    "encode_envelope",
    "encode_envelope_buffer",
    "decode_envelope",
    "message_registry",
    "missing_codecs",
]


class WireError(Exception):
    """Malformed frame or unencodable value."""


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
MAGIC = b"CoL1"
_HEADER = struct.Struct(">4sII")  # magic, payload length, crc32(payload)
HEADER_SIZE = _HEADER.size
#: Upper bound on one frame's payload; a forwarded batch of sstables is
#: the largest message and stays far below this in any sane deployment.
MAX_FRAME_BYTES = 256 * 1024 * 1024


def encode_frame_into(out: bytearray, payload: bytes) -> None:
    """Append one framed payload to ``out`` without intermediate copies.

    The transport writer drains its whole queue through this into one
    reused scratch buffer, then issues a single socket write.
    """
    length = len(payload)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame too large: {length} bytes")
    out += _HEADER.pack(MAGIC, length, zlib.crc32(payload))
    out += payload


def encode_frame(payload: bytes) -> bytes:
    """Wrap an encoded payload in a length+CRC header (one-shot form)."""
    out = bytearray()
    encode_frame_into(out, payload)
    return bytes(out)


def decode_header(header: bytes) -> tuple[int, int]:
    """Parse and validate a frame header; returns (length, crc)."""
    if len(header) != HEADER_SIZE:
        raise WireError(f"short header: {len(header)} bytes")
    magic, length, crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireError(f"bad magic: {magic!r}")
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame too large: {length} bytes")
    return length, crc


def check_payload(payload: bytes, crc: int) -> None:
    """Raise :class:`WireError` unless the payload matches its CRC."""
    actual = zlib.crc32(payload)
    if actual != crc:
        raise WireError(f"crc mismatch: expected {crc:#010x}, got {actual:#010x}")


# ----------------------------------------------------------------------
# Tagged values
# ----------------------------------------------------------------------
_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3
_T_FLOAT = 4
_T_BYTES = 5
_T_STR = 6
_T_TUPLE = 7
_T_LIST = 8
_T_DICT = 9
_T_ENTRY = 10
_T_SSTABLE = 11
_T_MSG = 12
# Dedicated forms for the pipelined write path: a batch of upserts (and
# its per-op replies) is the hot message under load, so each gets a
# packed block encoding instead of one recursive _T_MSG per op.
_T_UPSERT_BATCH = 13
_T_UPSERT_BATCH_REPLY = 14

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U16 = struct.Struct(">H")
_ENTRY_FIXED = struct.Struct(">qdB")  # seqno, timestamp, tombstone
_SSTABLE_FIXED = struct.Struct(">qIdI")  # table_id, block_entries, fp_rate, image length
_REPLY_FIXED = struct.Struct(">dq")  # timestamp, seqno

#: Bound to the batch message classes once the registry loads (late, to
#: avoid importing repro.core.messages at module import time).
_BATCH_REQUEST_CLS: type | None = None
_BATCH_REPLY_CLS: type | None = None
_UPSERT_REQUEST_CLS: type | None = None
_UPSERT_REPLY_CLS: type | None = None

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: message class -> explicit type id (and the inverse).
_MESSAGE_IDS: dict[type, int] = {}
_MESSAGE_BY_ID: dict[int, type] = {}


def register_message(cls: type, type_id: int) -> type:
    """Register a dataclass under an explicit wire type id."""
    if not (dataclasses.is_dataclass(cls) and isinstance(cls, type)):
        raise WireError(f"{cls!r} is not a dataclass type")
    existing = _MESSAGE_BY_ID.get(type_id)
    if existing is not None and existing is not cls:
        raise WireError(f"type id {type_id} already bound to {existing.__name__}")
    _MESSAGE_IDS[cls] = type_id
    _MESSAGE_BY_ID[type_id] = cls
    return cls


def message_registry() -> dict[type, int]:
    """A copy of the registered message classes and their type ids."""
    return dict(_MESSAGE_IDS)


def _encode_entry_body(entry: Entry, out: bytearray) -> None:
    out += _U32.pack(len(entry.key))
    out += entry.key
    out += _ENTRY_FIXED.pack(entry.seqno, entry.timestamp, 1 if entry.tombstone else 0)
    out += _U32.pack(len(entry.value))
    out += entry.value


def _decode_entry_body(buf: bytes, pos: int) -> tuple[Entry, int]:
    (key_len,) = _U32.unpack_from(buf, pos)
    pos += 4
    key = bytes(buf[pos : pos + key_len])
    pos += key_len
    seqno, timestamp, tombstone = _ENTRY_FIXED.unpack_from(buf, pos)
    pos += _ENTRY_FIXED.size
    (value_len,) = _U32.unpack_from(buf, pos)
    pos += 4
    value = bytes(buf[pos : pos + value_len])
    pos += value_len
    return Entry(key, seqno, timestamp, value, tombstone=bool(tombstone)), pos


def encode_value(value: typing.Any, out: bytearray) -> None:
    """Append the tagged encoding of ``value`` to ``out``."""
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise WireError(f"int out of 64-bit range: {value}")
        out.append(_T_INT)
        out += _I64.pack(value)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, bytes):
        out.append(_T_BYTES)
        out += _U32.pack(len(value))
        out += value
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out.append(_T_STR)
        out += _U32.pack(len(encoded))
        out += encoded
    elif isinstance(value, Entry):
        out.append(_T_ENTRY)
        _encode_entry_body(value, out)
    elif isinstance(value, SSTable):
        image = encode_sstable(value, value._block_entries)
        out.append(_T_SSTABLE)
        out += _SSTABLE_FIXED.pack(
            value.table_id, value._block_entries, value.bloom_fp_rate, len(image)
        )
        out += image
    elif type(value) is _BATCH_REQUEST_CLS:
        out.append(_T_UPSERT_BATCH)
        out += _U32.pack(len(value.ops))
        for op in value.ops:
            out += _U32.pack(len(op.key))
            out += op.key
            out += _U32.pack(len(op.value))
            out += op.value
            out.append(1 if op.tombstone else 0)
    elif type(value) is _BATCH_REPLY_CLS:
        out.append(_T_UPSERT_BATCH_REPLY)
        out += _U32.pack(len(value.replies))
        for reply in value.replies:
            out += _REPLY_FIXED.pack(reply.timestamp, reply.seqno)
    elif type(value) in _MESSAGE_IDS:
        out.append(_T_MSG)
        out += _U16.pack(_MESSAGE_IDS[type(value)])
        field_values = [
            getattr(value, f.name) for f in dataclasses.fields(value)
        ]
        out += _U16.pack(len(field_values))
        for item in field_values:
            encode_value(item, out)
    elif isinstance(value, tuple):
        out.append(_T_TUPLE)
        out += _U32.pack(len(value))
        for item in value:
            encode_value(item, out)
    elif isinstance(value, list):
        out.append(_T_LIST)
        out += _U32.pack(len(value))
        for item in value:
            encode_value(item, out)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        out += _U32.pack(len(value))
        for key, item in value.items():
            encode_value(key, out)
            encode_value(item, out)
    else:
        raise WireError(f"unencodable value of type {type(value).__name__}")


def decode_value(buf: bytes, pos: int = 0) -> tuple[typing.Any, int]:
    """Decode one tagged value starting at ``pos``; returns (value, end)."""
    try:
        return _decode(buf, pos)
    except (struct.error, IndexError) as error:
        raise WireError(f"truncated value at offset {pos}") from error
    except CorruptionError as error:
        raise WireError(f"corrupt sstable image: {error}") from error


def _decode(buf: bytes, pos: int) -> tuple[typing.Any, int]:
    tag = buf[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT:
        (value,) = _I64.unpack_from(buf, pos)
        return value, pos + 8
    if tag == _T_FLOAT:
        (value,) = _F64.unpack_from(buf, pos)
        return value, pos + 8
    if tag in (_T_BYTES, _T_STR):
        (length,) = _U32.unpack_from(buf, pos)
        pos += 4
        if pos + length > len(buf):
            raise WireError("truncated bytes/str value")
        raw = bytes(buf[pos : pos + length])
        pos += length
        return (raw if tag == _T_BYTES else raw.decode("utf-8")), pos
    if tag == _T_ENTRY:
        return _decode_entry_body(buf, pos)
    if tag == _T_SSTABLE:
        table_id, block_entries, fp_rate, length = _SSTABLE_FIXED.unpack_from(buf, pos)
        pos += _SSTABLE_FIXED.size
        table = decode_sstable(buf[pos : pos + length], table_id, block_entries, fp_rate)
        return table, pos + length
    if tag == _T_UPSERT_BATCH:
        (count,) = _U32.unpack_from(buf, pos)
        pos += 4
        ops = []
        for __ in range(count):
            (key_len,) = _U32.unpack_from(buf, pos)
            pos += 4
            key = bytes(buf[pos : pos + key_len])
            pos += key_len
            (value_len,) = _U32.unpack_from(buf, pos)
            pos += 4
            value = bytes(buf[pos : pos + value_len])
            pos += value_len
            tombstone = buf[pos]
            pos += 1
            ops.append(_UPSERT_REQUEST_CLS(key, value, tombstone=bool(tombstone)))
        return _BATCH_REQUEST_CLS(tuple(ops)), pos
    if tag == _T_UPSERT_BATCH_REPLY:
        (count,) = _U32.unpack_from(buf, pos)
        pos += 4
        replies = []
        for __ in range(count):
            timestamp, seqno = _REPLY_FIXED.unpack_from(buf, pos)
            pos += _REPLY_FIXED.size
            replies.append(_UPSERT_REPLY_CLS(timestamp, seqno))
        return _BATCH_REPLY_CLS(tuple(replies)), pos
    if tag == _T_MSG:
        (type_id,) = _U16.unpack_from(buf, pos)
        pos += 2
        cls = _MESSAGE_BY_ID.get(type_id)
        if cls is None:
            raise WireError(f"unknown message type id {type_id}")
        (count,) = _U16.unpack_from(buf, pos)
        pos += 2
        declared = dataclasses.fields(cls)
        if count != len(declared):
            raise WireError(
                f"{cls.__name__}: expected {len(declared)} fields, frame has {count}"
            )
        values = []
        for __ in range(count):
            value, pos = _decode(buf, pos)
            values.append(value)
        return cls(*values), pos
    if tag in (_T_TUPLE, _T_LIST):
        (count,) = _U32.unpack_from(buf, pos)
        pos += 4
        items = []
        for __ in range(count):
            item, pos = _decode(buf, pos)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), pos
    if tag == _T_DICT:
        (count,) = _U32.unpack_from(buf, pos)
        pos += 4
        result: dict = {}
        for __ in range(count):
            key, pos = _decode(buf, pos)
            value, pos = _decode(buf, pos)
            result[key] = value
        return result, pos
    raise WireError(f"unknown value tag {tag}")


# ----------------------------------------------------------------------
# Envelopes: what actually travels between processes
# ----------------------------------------------------------------------
def encode_envelope_buffer(
    frame_id: int, src: str, dst: str, message: typing.Any
) -> bytearray:
    """Encode one routed message as an (unframed) payload buffer.

    Returns the working ``bytearray`` itself so the hot path skips the
    final ``bytes()`` materialisation — the transport frames it with
    :func:`encode_frame_into` without another copy.
    """
    out = bytearray()
    encode_value((frame_id, src, dst, message), out)
    return out


def encode_envelope(frame_id: int, src: str, dst: str, message: typing.Any) -> bytes:
    """Encode one routed message as an (unframed) payload."""
    return bytes(encode_envelope_buffer(frame_id, src, dst, message))


def decode_envelope(payload: bytes) -> tuple[int, str, str, typing.Any]:
    """Decode a payload produced by :func:`encode_envelope`.

    Accepts ``bytes`` or a ``memoryview`` — the transport hands in a
    memoryview so nested slices stay zero-copy until each leaf value's
    final ``bytes`` materialisation.
    """
    value, end = decode_value(payload, 0)
    if end != len(payload):
        raise WireError(f"{len(payload) - end} trailing bytes after envelope")
    if not (isinstance(value, tuple) and len(value) == 4):
        raise WireError("envelope is not a 4-tuple")
    frame_id, src, dst, message = value
    if not isinstance(frame_id, int) or not isinstance(src, str) or not isinstance(dst, str):
        raise WireError("malformed envelope header")
    return frame_id, src, dst, message


# ----------------------------------------------------------------------
# Registry contents
# ----------------------------------------------------------------------
def _register_all() -> None:
    from repro.core import messages, shard
    from repro.sim import rpc

    protocol = [
        (1, messages.UpsertRequest),
        (2, messages.UpsertReply),
        (3, messages.ReadRequest),
        (4, messages.ReadReply),
        (5, messages.Phase1Request),
        (6, messages.IngestorReadResult),
        (7, messages.Phase1Reply),
        (8, messages.ForwardRequest),
        (9, messages.ForwardReply),
        (10, messages.BackupUpdate),
        (11, messages.AreaSnapshot),
        (12, messages.IngestorL1Update),
        (13, messages.RangeQuery),
        (14, messages.RangeQueryReply),
        (15, messages.NodeStats),
        (16, messages.HealthPing),
        (17, messages.HealthReply),
        (18, messages.UpsertBatchRequest),
        (19, messages.UpsertBatchReply),
        # Shard-map / membership layer (live scale-out).
        (20, shard.Shard),
        (21, shard.ShardMap),
        (22, messages.ShardMapRequest),
        (23, messages.ShardMapReply),
        (24, messages.InstallShardMap),
        (25, messages.InstallShardMapReply),
        (26, messages.ShardDrainRequest),
        (27, messages.ShardDrainReply),
        # RPC envelopes (the request/response/cast framing the RpcNode
        # layer wraps around every payload).
        (64, rpc._Request),
        (65, rpc._Response),
        (66, rpc._Cast),
    ]
    for type_id, cls in protocol:
        register_message(cls, type_id)
    # Hot-path classes for the packed batch forms (the registry entries
    # above keep the generic _T_MSG encoding decodable too).
    global _BATCH_REQUEST_CLS, _BATCH_REPLY_CLS
    global _UPSERT_REQUEST_CLS, _UPSERT_REPLY_CLS
    _BATCH_REQUEST_CLS = messages.UpsertBatchRequest
    _BATCH_REPLY_CLS = messages.UpsertBatchReply
    _UPSERT_REQUEST_CLS = messages.UpsertRequest
    _UPSERT_REPLY_CLS = messages.UpsertReply


_register_all()


# ----------------------------------------------------------------------
# Completeness guard
# ----------------------------------------------------------------------
_ATOM_TYPES = {bytes, str, int, float, bool, type(None), Entry, SSTable}


def _type_carriable(tp: typing.Any) -> bool:
    """Can values of annotation ``tp`` travel over this codec?"""
    if tp in _ATOM_TYPES:
        return True
    if tp is dict or tp is list or tp is tuple or tp is typing.Any:
        return True
    if isinstance(tp, type) and tp in _MESSAGE_IDS:
        return True
    origin = typing.get_origin(tp)
    if origin is typing.Union or origin is types.UnionType:
        return all(_type_carriable(arg) for arg in typing.get_args(tp))
    if origin in (tuple, list, set):
        args = [a for a in typing.get_args(tp) if a is not Ellipsis]
        return origin is not set and all(_type_carriable(arg) for arg in args)
    if origin is dict:
        return all(_type_carriable(arg) for arg in typing.get_args(tp))
    return False


def missing_codecs(module) -> list[str]:
    """Reflect over ``module`` and report every message dataclass that
    is not registered, and every field annotation the codec cannot
    carry.  Empty list == the wire protocol is complete for the module.
    """
    problems: list[str] = []
    for name in sorted(vars(module)):
        obj = getattr(module, name)
        if not (isinstance(obj, type) and dataclasses.is_dataclass(obj)):
            continue
        if obj.__module__ != module.__name__:
            continue  # re-exported from elsewhere
        if obj not in _MESSAGE_IDS:
            problems.append(f"{name}: no registered wire codec")
            continue
        hints = typing.get_type_hints(obj)
        for field in dataclasses.fields(obj):
            annotation = hints.get(field.name, typing.Any)
            if not _type_carriable(annotation):
                problems.append(
                    f"{name}.{field.name}: uncarriable type {annotation!r}"
                )
    return problems
