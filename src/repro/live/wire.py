"""Binary wire codec for the live runtime.  No dependencies.

Two layers:

**Values.**  A tagged, recursive encoding of every payload CooLSM nodes
exchange: ``None``, bools, 64-bit ints, doubles, bytes, str, tuples,
lists, dicts, :class:`~repro.lsm.entry.Entry`,
:class:`~repro.lsm.sstable.SSTable`, and every registered message
dataclass.  Entries get a dedicated compact form; an sstable — the
unit that dominates traffic — travels as its checksummed
:mod:`repro.lsm.sstable_io` file image behind ``table_id`` and the image
length: the bytes the sender wrote to its disk, verified and adopted by
the receiver (bloom filter included, nothing rebuilt) and written to its
disk unchanged.  The three hot messages — an upsert batch, its per-op
replies and a range scan's reply — each travel as one packed block
with no per-op or per-pair tags.

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
frames a whole pending list into one buffer for a single socket
write), and the decode path slices a ``memoryview`` of the received
payload so nested values never copy the buffer before their final
``bytes`` materialisation.  :func:`encode_frame` remains as the
one-shot convenience used by tests and the chaos proxy.

Both directions dispatch through tables: the encoder on the value's
exact type (each registered message class gets an encoder holding its
field names, read once at registration), the decoder on the tag.  A
subclass of a carriable type falls back to an ``isinstance`` scan.

**Registry.**  Message dataclasses are registered with *explicit* type
ids so every process agrees on the numbering regardless of import
order.  :func:`missing_codecs` reflects over a module and reports any
message dataclass (or field type) the codec cannot carry — the
completeness guard test fails the build when a new message is added
without wire support.
"""

from __future__ import annotations

import dataclasses
import itertools
import struct
import types
import typing
import zlib

from repro.lsm.entry import Entry
from repro.lsm.errors import CorruptionError
from repro.lsm.sstable import SSTable
from repro.lsm.sstable_io import decode_sstable

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

    The transport frames a whole pending list through this into one
    buffer, then issues a single socket write.
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
# Dedicated forms for the hot messages: a batch of upserts (and its
# per-op replies) under write load, a range scan's pairs under analytics
# load.  Each gets a packed block encoding instead of one recursive
# _T_MSG per op or pair.
_T_UPSERT_BATCH = 13
_T_UPSERT_BATCH_REPLY = 14
_T_RANGE_REPLY = 15

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U16 = struct.Struct(">H")
_ENTRY_FIXED = struct.Struct(">qdB")  # seqno, timestamp, tombstone
_SSTABLE_FIXED = struct.Struct(">qI")  # table_id, image length
_REPLY_FIXED = struct.Struct(">dq")  # timestamp, seqno

#: Bound to the packed-form message classes once the registry loads
#: (late, to avoid importing repro.core.messages at module import time).
_BATCH_REQUEST_CLS: type | None = None
_BATCH_REPLY_CLS: type | None = None
_UPSERT_REQUEST_CLS: type | None = None
_UPSERT_REPLY_CLS: type | None = None
_RANGE_REPLY_CLS: type | None = None

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: message class -> explicit type id (and the inverse).
_MESSAGE_IDS: dict[type, int] = {}
_MESSAGE_BY_ID: dict[int, type] = {}
#: message class -> its field names, read once at registration.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def register_message(cls: type, type_id: int) -> type:
    """Register a dataclass under an explicit wire type id."""
    if not (dataclasses.is_dataclass(cls) and isinstance(cls, type)):
        raise WireError(f"{cls!r} is not a dataclass type")
    existing = _MESSAGE_BY_ID.get(type_id)
    if existing is not None and existing is not cls:
        raise WireError(f"type id {type_id} already bound to {existing.__name__}")
    _MESSAGE_IDS[cls] = type_id
    _MESSAGE_BY_ID[type_id] = cls
    names = tuple(f.name for f in dataclasses.fields(cls))
    _FIELD_NAMES[cls] = names
    _ENCODERS[cls] = _message_encoder(type_id, names)
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


# Encoders, one per form: ``(value, out) -> None``.
def _encode_none(value: None, out: bytearray) -> None:
    out.append(_T_NONE)


def _encode_bool(value: bool, out: bytearray) -> None:
    out.append(_T_TRUE if value else _T_FALSE)


def _encode_int(value: int, out: bytearray) -> None:
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise WireError(f"int out of 64-bit range: {value}")
    out.append(_T_INT)
    out += _I64.pack(value)


def _encode_float(value: float, out: bytearray) -> None:
    out.append(_T_FLOAT)
    out += _F64.pack(value)


def _encode_bytes(value: bytes, out: bytearray) -> None:
    out.append(_T_BYTES)
    out += _U32.pack(len(value))
    out += value


def _encode_str(value: str, out: bytearray) -> None:
    encoded = value.encode("utf-8")
    out.append(_T_STR)
    out += _U32.pack(len(encoded))
    out += encoded


def _encode_entry(value: Entry, out: bytearray) -> None:
    out.append(_T_ENTRY)
    _encode_entry_body(value, out)


def _encode_sstable(value: SSTable, out: bytearray) -> None:
    out.append(_T_SSTABLE)
    out += _SSTABLE_FIXED.pack(value.table_id, len(value._image))
    out += value._image


def _encode_tuple(value: tuple, out: bytearray) -> None:
    out.append(_T_TUPLE)
    out += _U32.pack(len(value))
    for item in value:
        encode_value(item, out)


def _encode_list(value: list, out: bytearray) -> None:
    out.append(_T_LIST)
    out += _U32.pack(len(value))
    for item in value:
        encode_value(item, out)


def _encode_dict(value: dict, out: bytearray) -> None:
    out.append(_T_DICT)
    out += _U32.pack(len(value))
    for key, item in value.items():
        encode_value(key, out)
        encode_value(item, out)


def _encode_upsert_batch(value: typing.Any, out: bytearray) -> None:
    out.append(_T_UPSERT_BATCH)
    out += _U32.pack(len(value.ops))
    for op in value.ops:
        out += _U32.pack(len(op.key))
        out += op.key
        out += _U32.pack(len(op.value))
        out += op.value
        out.append(1 if op.tombstone else 0)


def _encode_upsert_batch_reply(value: typing.Any, out: bytearray) -> None:
    out.append(_T_UPSERT_BATCH_REPLY)
    out += _U32.pack(len(value.replies))
    for reply in value.replies:
        out += _REPLY_FIXED.pack(reply.timestamp, reply.seqno)


def _encode_range_reply(value: typing.Any, out: bytearray) -> None:
    """The pair count, every key's and value's length, then their bytes
    back to back: one ``struct`` call for the lengths, one join for the
    data, so a decoder reads both regions whole."""
    pairs = value.pairs
    lengths: list[int] = []
    try:
        for key, item in pairs:
            if not (isinstance(key, bytes) and isinstance(item, bytes)):
                raise TypeError
            lengths.append(len(key))
            lengths.append(len(item))
    except (TypeError, ValueError):
        raise WireError("RangeQueryReply pairs must be (bytes, bytes)") from None
    out.append(_T_RANGE_REPLY)
    out += struct.pack(f">I{len(lengths)}I", len(pairs), *lengths)
    out += b"".join(itertools.chain.from_iterable(pairs))


def _message_encoder(type_id: int, names: tuple[str, ...]):
    header = bytes([_T_MSG]) + _U16.pack(type_id) + _U16.pack(len(names))

    def encode(value: typing.Any, out: bytearray) -> None:
        out += header
        for name in names:
            encode_value(getattr(value, name), out)

    return encode


#: Exact type -> encoder; registered message classes join at
#: registration, the hot ones with their packed forms.
_ENCODERS: dict[type, typing.Callable[[typing.Any, bytearray], None]] = {
    type(None): _encode_none,
    bool: _encode_bool,
    int: _encode_int,
    float: _encode_float,
    bytes: _encode_bytes,
    str: _encode_str,
    Entry: _encode_entry,
    SSTable: _encode_sstable,
    tuple: _encode_tuple,
    list: _encode_list,
    dict: _encode_dict,
}
#: The fallback for a subclass of a carriable type, first match wins.
_SUBCLASS_ENCODERS = (
    (int, _encode_int),
    (float, _encode_float),
    (bytes, _encode_bytes),
    (str, _encode_str),
    (Entry, _encode_entry),
    (SSTable, _encode_sstable),
    (tuple, _encode_tuple),
    (list, _encode_list),
    (dict, _encode_dict),
)


def encode_value(value: typing.Any, out: bytearray) -> None:
    """Append the tagged encoding of ``value`` to ``out``."""
    encoder = _ENCODERS.get(type(value))
    if encoder is None:
        for base, fallback in _SUBCLASS_ENCODERS:
            if isinstance(value, base):
                encoder = fallback
                break
        else:
            raise WireError(f"unencodable value of type {type(value).__name__}")
    encoder(value, out)


def decode_value(buf: bytes, pos: int = 0) -> tuple[typing.Any, int]:
    """Decode one tagged value starting at ``pos``; returns (value, end)."""
    try:
        return _decode(buf, pos)
    except (struct.error, IndexError) as error:
        raise WireError(f"truncated value at offset {pos}") from error
    except CorruptionError as error:
        raise WireError(f"corrupt sstable image: {error}") from error


def _decode(buf: bytes, pos: int) -> tuple[typing.Any, int]:
    return _DECODERS[buf[pos]](buf, pos + 1)


# Decoders, one per tag: ``(buf, pos after the tag) -> (value, end)``.
def _decode_int(buf: bytes, pos: int) -> tuple[int, int]:
    return _I64.unpack_from(buf, pos)[0], pos + 8


def _decode_float(buf: bytes, pos: int) -> tuple[float, int]:
    return _F64.unpack_from(buf, pos)[0], pos + 8


def _decode_raw(buf: bytes, pos: int) -> tuple[bytes, int]:
    (length,) = _U32.unpack_from(buf, pos)
    pos += 4
    if pos + length > len(buf):
        raise WireError("truncated bytes/str value")
    return bytes(buf[pos : pos + length]), pos + length


def _decode_str(buf: bytes, pos: int) -> tuple[str, int]:
    raw, pos = _decode_raw(buf, pos)
    return raw.decode("utf-8"), pos


def _decode_sstable(buf: bytes, pos: int) -> tuple[SSTable, int]:
    table_id, length = _SSTABLE_FIXED.unpack_from(buf, pos)
    pos += _SSTABLE_FIXED.size
    table = decode_sstable(buf[pos : pos + length], table_id)
    return table, pos + length


def _decode_upsert_batch(buf: bytes, pos: int) -> tuple[typing.Any, int]:
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


def _decode_upsert_batch_reply(buf: bytes, pos: int) -> tuple[typing.Any, int]:
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    replies = []
    for __ in range(count):
        timestamp, seqno = _REPLY_FIXED.unpack_from(buf, pos)
        pos += _REPLY_FIXED.size
        replies.append(_UPSERT_REPLY_CLS(timestamp, seqno))
    return _BATCH_REPLY_CLS(tuple(replies)), pos


def _decode_range_reply(buf: bytes, pos: int) -> tuple[typing.Any, int]:
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    fields = 2 * count
    if pos + 4 * fields > len(buf):
        raise WireError(f"truncated range reply: {count} pairs declared")
    lengths = struct.unpack_from(f">{fields}I", buf, pos)
    pos += 4 * fields
    end = pos + sum(lengths)
    if end > len(buf):
        raise WireError("truncated range reply data")
    # One copy of the data region; every key and value is a slice of it.
    data = bytes(buf[pos:end])
    offsets = list(itertools.accumulate(lengths, initial=0))
    items = iter([data[start:stop] for start, stop in zip(offsets, offsets[1:])])
    return _RANGE_REPLY_CLS(tuple(zip(items, items))), end


def _decode_message(buf: bytes, pos: int) -> tuple[typing.Any, int]:
    (type_id,) = _U16.unpack_from(buf, pos)
    pos += 2
    cls = _MESSAGE_BY_ID.get(type_id)
    if cls is None:
        raise WireError(f"unknown message type id {type_id}")
    (count,) = _U16.unpack_from(buf, pos)
    pos += 2
    declared = len(_FIELD_NAMES[cls])
    if count != declared:
        raise WireError(f"{cls.__name__}: expected {declared} fields, frame has {count}")
    values = []
    for __ in range(count):
        value, pos = _decode(buf, pos)
        values.append(value)
    return cls(*values), pos


def _decode_items(buf: bytes, pos: int) -> tuple[list, int]:
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    items = []
    for __ in range(count):
        item, pos = _decode(buf, pos)
        items.append(item)
    return items, pos


def _decode_tuple(buf: bytes, pos: int) -> tuple[tuple, int]:
    items, pos = _decode_items(buf, pos)
    return tuple(items), pos


def _decode_dict(buf: bytes, pos: int) -> tuple[dict, int]:
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    result: dict = {}
    for __ in range(count):
        key, pos = _decode(buf, pos)
        value, pos = _decode(buf, pos)
        result[key] = value
    return result, pos


def _decode_unknown(buf: bytes, pos: int) -> typing.NoReturn:
    raise WireError(f"unknown value tag {buf[pos - 1]}")


#: Tag -> decoder, for every byte value.
_DECODERS = [_decode_unknown] * 256
for _tag, _decoder in (
    (_T_NONE, lambda buf, pos: (None, pos)),
    (_T_TRUE, lambda buf, pos: (True, pos)),
    (_T_FALSE, lambda buf, pos: (False, pos)),
    (_T_INT, _decode_int),
    (_T_FLOAT, _decode_float),
    (_T_BYTES, _decode_raw),
    (_T_STR, _decode_str),
    (_T_TUPLE, _decode_tuple),
    (_T_LIST, _decode_items),
    (_T_DICT, _decode_dict),
    (_T_ENTRY, _decode_entry_body),
    (_T_SSTABLE, _decode_sstable),
    (_T_MSG, _decode_message),
    (_T_UPSERT_BATCH, _decode_upsert_batch),
    (_T_UPSERT_BATCH_REPLY, _decode_upsert_batch_reply),
    (_T_RANGE_REPLY, _decode_range_reply),
):
    _DECODERS[_tag] = _decoder


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
        (12, messages.IngestorL1Update),
        (13, messages.RangeQuery),
        (14, messages.RangeQueryReply),
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
    # Hot-path classes travel in their packed forms (the registry entries
    # above keep the generic _T_MSG encoding decodable too).
    global _BATCH_REQUEST_CLS, _BATCH_REPLY_CLS
    global _UPSERT_REQUEST_CLS, _UPSERT_REPLY_CLS, _RANGE_REPLY_CLS
    _BATCH_REQUEST_CLS = messages.UpsertBatchRequest
    _BATCH_REPLY_CLS = messages.UpsertBatchReply
    _UPSERT_REQUEST_CLS = messages.UpsertRequest
    _UPSERT_REPLY_CLS = messages.UpsertReply
    _RANGE_REPLY_CLS = messages.RangeQueryReply
    _ENCODERS[_BATCH_REQUEST_CLS] = _encode_upsert_batch
    _ENCODERS[_BATCH_REPLY_CLS] = _encode_upsert_batch_reply
    _ENCODERS[_RANGE_REPLY_CLS] = _encode_range_reply


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
