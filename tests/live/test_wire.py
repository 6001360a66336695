"""Wire codec: completeness guard, round-trips, frame integrity."""

from __future__ import annotations

import dataclasses

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import messages
from repro.lsm import sstable as sstable_module
from repro.lsm import sstable_io
from repro.lsm.block import encode_entries
from repro.lsm.bloom import BloomFilter
from repro.lsm.entry import Entry, encode_key
from repro.lsm.sstable import SSTable, sort_run
from repro.live import wire
from repro.sim import rpc
from repro.store import NodeStore

from tests.core.conftest import tiny_cluster


def roundtrip(value):
    out = bytearray()
    wire.encode_value(value, out)
    decoded, end = wire.decode_value(bytes(out))
    assert end == len(out), "decoder must consume the whole encoding"
    return decoded


def make_entry(key=1, seqno=1, ts=1.0, value=b"v", tombstone=False) -> Entry:
    return Entry(encode_key(key), seqno, ts, value, tombstone=tombstone)


def make_table(keys=range(4), table_id=None) -> SSTable:
    entries = sort_run([make_entry(k, seqno=k + 1, ts=float(k + 1)) for k in keys])
    return SSTable(entries, table_id=table_id)


def assert_entries_equal(a: Entry, b: Entry) -> None:
    assert (a.key, a.seqno, a.timestamp, a.value, a.tombstone) == (
        b.key,
        b.seqno,
        b.timestamp,
        b.value,
        b.tombstone,
    )


def assert_tables_equal(a: SSTable, b: SSTable) -> None:
    assert a.table_id == b.table_id
    assert len(a.entries) == len(b.entries)
    for x, y in zip(a.entries, b.entries):
        assert_entries_equal(x, y)
    assert a.min_key == b.min_key and a.max_key == b.max_key


# ----------------------------------------------------------------------
# Completeness guard (the satellite): every message dataclass in
# core/messages.py must have a codec, and every field must be carriable.
# ----------------------------------------------------------------------
class TestCompletenessGuard:
    def test_core_messages_fully_covered(self):
        assert wire.missing_codecs(messages) == []

    def test_rpc_envelopes_registered(self):
        registry = wire.message_registry()
        assert rpc._Request in registry
        assert rpc._Response in registry
        assert rpc._Cast in registry

    def test_guard_flags_unregistered_dataclass(self):
        import types as types_mod

        @dataclasses.dataclass
        class Rogue:
            x: int

        fake = types_mod.ModuleType("fake_messages")
        Rogue.__module__ = "fake_messages"
        fake.Rogue = Rogue
        problems = wire.missing_codecs(fake)
        assert problems == ["Rogue: no registered wire codec"]

    def test_guard_flags_uncarriable_field(self):
        import types as types_mod

        @dataclasses.dataclass
        class BadField:
            handle: object

        fake = types_mod.ModuleType("fake_messages")
        BadField.__module__ = "fake_messages"
        fake.BadField = BadField
        wire.register_message(BadField, 999)
        try:
            problems = wire.missing_codecs(fake)
            assert len(problems) == 1 and "uncarriable" in problems[0]
        finally:
            wire._MESSAGE_IDS.pop(BadField, None)
            wire._MESSAGE_BY_ID.pop(999, None)

    def test_registry_rejects_id_collision(self):
        @dataclasses.dataclass
        class Impostor:
            x: int

        with pytest.raises(wire.WireError):
            wire.register_message(Impostor, 1)  # taken by UpsertRequest


# ----------------------------------------------------------------------
# Value round-trips
# ----------------------------------------------------------------------
class TestScalarRoundTrips:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**63 - 1,
            -(2**63),
            0.0,
            -3.25,
            1e300,
            b"",
            b"\x00\xffraw",
            "",
            "text",
            "naïve δ ∞",
            (),
            (1, "two", None),
            [],
            [b"a", [1, 2]],
            {},
            {"a": 1, 2: (True, None)},
        ],
    )
    def test_atoms_and_containers(self, value):
        assert roundtrip(value) == value

    def test_bool_identity_preserved(self):
        # True must come back as True, not 1 (bool is a subtype of int).
        decoded = roundtrip(True)
        assert decoded is True

    def test_int_out_of_64_bit_range_rejected(self):
        with pytest.raises(wire.WireError):
            roundtrip(2**63)

    def test_unencodable_type_rejected(self):
        with pytest.raises(wire.WireError):
            roundtrip(object())


class TestEntryAndSSTable:
    def test_entry_round_trip(self):
        entry = make_entry(42, seqno=7, ts=3.5, value=b"payload")
        assert_entries_equal(roundtrip(entry), entry)

    def test_tombstone_round_trip(self):
        tomb = make_entry(9, value=b"", tombstone=True)
        decoded = roundtrip(tomb)
        assert decoded.tombstone is True
        assert_entries_equal(decoded, tomb)

    def test_sstable_round_trip_ships_structures(self, monkeypatch):
        table = SSTable(
            make_table(range(200)).entries,
            block_entries=7,
            bloom_fp_rate=0.05,
            table_id=123456789,
        )
        builds = []
        original = BloomFilter.build.__func__
        monkeypatch.setattr(
            BloomFilter,
            "build",
            classmethod(lambda cls, *a, **kw: builds.append(1) or original(cls, *a, **kw)),
        )
        decoded = roundtrip(table)
        assert builds == [], "the filter is taken from the image, not rebuilt"
        assert_tables_equal(decoded, table)
        assert decoded._block_entries == 7 and decoded.bloom_fp_rate == 0.05
        assert decoded.bloom.to_bytes() == table.bloom.to_bytes()
        assert decoded._fences == table._fences
        assert decoded.get(encode_key(17)) is not None

    def test_same_table_is_encoded_once(self, monkeypatch):
        table = SSTable(make_table(range(200)).entries, block_entries=64)
        blocks = []
        monkeypatch.setattr(
            sstable_io,
            "encode_entries",
            lambda entries: blocks.append(len(entries)) or encode_entries(entries),
        )
        first, second = bytearray(), bytearray()
        wire.encode_value(messages.BackupUpdate(2, (table,), "compactor-0"), first)
        wire.encode_value(messages.ForwardRequest((table,), 0.0, 1, "ingestor-0"), second)
        assert blocks == [64, 64, 64, 8], "one encode_entries call per block in total"

    def test_corrupt_image_is_a_wire_error(self):
        out = bytearray()
        wire.encode_value(make_table(range(50)), out)
        out[40] ^= 0x01  # inside the first data block
        with pytest.raises(wire.WireError, match="corrupt sstable image"):
            wire.decode_value(bytes(out))
        with pytest.raises(wire.WireError):
            wire.decode_value(bytes(out[:-5]))

    def test_sstable_table_id_beyond_32_bits(self):
        # Live processes namespace ids into high bits (namespace << 40).
        table = make_table(range(2), table_id=(3 << 40) + 1)
        assert roundtrip(table).table_id == (3 << 40) + 1

    def test_multi_version_table_round_trip(self):
        entries = sort_run(
            [make_entry(1, seqno=s, ts=float(s), value=b"v%d" % s) for s in (1, 2, 3)]
        )
        table = SSTable(entries)
        assert_tables_equal(roundtrip(table), table)


_wire_entries = st.lists(
    st.builds(
        Entry,
        # Few distinct keys, so runs hold several versions of one key;
        # the 300-byte key and value take the multi-byte varint path.
        key=st.sampled_from([b"a", b"b", b"k" * 127, b"K" * 128, b"x" * 300]),
        seqno=st.integers(min_value=1, max_value=10**6),
        timestamp=st.floats(min_value=0, max_value=1e9, allow_nan=False),
        value=st.sampled_from([b"", b"v", b"w" * 127, b"W" * 128, b"y" * 300]),
        tombstone=st.booleans(),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=40, deadline=None)
@given(entries=_wire_entries, block_entries=st.sampled_from([1, 7, 64]))
def test_sstable_round_trip_inside_messages(entries, block_entries):
    table = SSTable(sort_run(entries), block_entries=block_entries, bloom_fp_rate=0.02)
    backup = roundtrip(messages.BackupUpdate(3, (table, table), "compactor-0"))
    forward = roundtrip(messages.ForwardRequest((table,), 1.5, 9, "ingestor-0"))
    for decoded in (*backup.tables, *forward.tables):
        assert decoded.entries == table.entries
        assert decoded.table_id == table.table_id
        assert decoded._block_entries == block_entries
        assert decoded.bloom_fp_rate == 0.02
        assert decoded.bloom.to_bytes() == table.bloom.to_bytes()
        for entry in entries:
            assert decoded.get(entry.key) == table.get(entry.key)


def test_backup_update_is_installed_and_persisted_undecoded(tmp_path, monkeypatch):
    """Wire → Reader install → NodeStore: a received table stays its
    image until read, and a read decodes only what its filter admits."""
    cluster = tiny_cluster(num_compactors=1, num_readers=1)
    reader = cluster.readers[0]
    store = NodeStore.open(str(tmp_path), node_name=reader.name, role="reader")
    reader.attach_store(store)
    # Three disjoint tables of two 64-entry blocks each.
    sent = [make_table(range(start, start + 100)) for start in (0, 100, 200)]
    update = messages.BackupUpdate(2, tuple(sent), "compactor-0")
    payload = wire.encode_envelope_buffer(
        0, "compactor-0", reader.name, rpc._Cast("backup_update", update)
    )
    decodes = []
    decode_entries = sstable_module.decode_entries
    monkeypatch.setattr(
        sstable_module,
        "decode_entries",
        lambda data: decodes.append(1) or decode_entries(data),
    )
    __, src, __, cast = wire.decode_envelope(payload)
    cluster.run_process(reader._handle_backup_update(src, cast.payload))
    assert decodes == [], "neither install nor _persist decodes an entry"
    assert len(reader.level2) == 3
    for table in sent:
        with open(tmp_path / store._table_meta[table.table_id]["file"], "rb") as f:
            assert f.read() == sstable_io.encode_sstable(table, 64)
    key = encode_key(150)
    admitted = [
        t for t in reader.level2 if t.key_in_range(key) and t.bloom.might_contain(key)
    ]
    reply = cluster.run_process(reader._handle_read("client", messages.ReadRequest(key)))
    assert reply.entry == sent[1].get(key)
    assert len(decodes) == sum(len(t._fences) for t in admitted) == 2
    store.close()


class TestMessageRoundTrips:
    @pytest.mark.parametrize(
        "message",
        [
            messages.UpsertRequest(b"k", b"v"),
            messages.UpsertRequest(b"k", b"", tombstone=True),
            messages.UpsertReply(1.5, 9),
            messages.ReadRequest(b"k"),
            messages.ReadRequest(b"k", as_of=2.25),
            messages.ReadReply(None, "reader-0"),
            messages.Phase1Request(b"k"),
            messages.IngestorReadResult(None, 0.5, "ingestor-1"),
            messages.Phase1Reply(1.0, ()),
            messages.ForwardRequest((), 0.0, 1, "ingestor-0"),  # empty batch
            messages.ForwardReply(4, 100),
            messages.BackupUpdate(2, (), "compactor-0"),
            messages.BackupUpdate(3, (), "compactor-1", (1, 2, 3), 17),
            messages.AreaSnapshot(5, (), (), "compactor-0"),
            messages.IngestorL1Update((), "ingestor-0"),
            messages.RangeQuery(b"a", b"z"),
            messages.RangeQuery(b"a", b"z", limit=10),
            messages.RangeQueryReply(((b"k", b"v"), (b"k2", b"v2"))),
            messages.NodeStats("n", (1, 2), 3, {"x": 1}),
            rpc._Request(7, "upsert", messages.UpsertRequest(b"k", b"v"), 256),
            rpc._Response(7, messages.UpsertReply(1.0, 1), None),
            rpc._Response(7, None, "boom"),
            rpc._Cast("backup_update", messages.BackupUpdate(2, (), "c")),
        ],
    )
    def test_flat_messages(self, message):
        assert roundtrip(message) == message

    def test_forward_request_with_tables(self):
        request = messages.ForwardRequest(
            (make_table(range(5)), make_table(range(5, 10))), 9.5, 3, "ingestor-0"
        )
        decoded = roundtrip(request)
        assert decoded.high_ts == 9.5 and decoded.batch_id == 3
        assert len(decoded.tables) == 2
        for a, b in zip(decoded.tables, request.tables):
            assert_tables_equal(a, b)

    def test_read_reply_with_entry(self):
        reply = messages.ReadReply(make_entry(5), "compactor-1")
        decoded = roundtrip(reply)
        assert decoded.source == "compactor-1"
        assert_entries_equal(decoded.entry, reply.entry)

    def test_phase1_reply_nested(self):
        reply = messages.Phase1Reply(
            2.5,
            (
                messages.IngestorReadResult(make_entry(1), 2.0, "ingestor-0"),
                messages.IngestorReadResult(None, 2.1, "ingestor-1"),
            ),
        )
        decoded = roundtrip(reply)
        assert decoded.read_ts == 2.5
        assert decoded.results[1].entry is None
        assert_entries_equal(decoded.results[0].entry, reply.results[0].entry)


# ----------------------------------------------------------------------
# Frames and envelopes
# ----------------------------------------------------------------------
class TestFrames:
    def test_frame_round_trip(self):
        payload = wire.encode_envelope(1, "a", "b", messages.UpsertReply(1.0, 1))
        frame = wire.encode_frame(payload)
        length, crc = wire.decode_header(frame[: wire.HEADER_SIZE])
        body = frame[wire.HEADER_SIZE :]
        assert length == len(body)
        wire.check_payload(body, crc)  # must not raise

    def test_crc_detects_corruption(self):
        payload = wire.encode_envelope(1, "a", "b", messages.UpsertReply(1.0, 1))
        frame = bytearray(wire.encode_frame(payload))
        frame[-1] ^= 0xFF
        length, crc = wire.decode_header(bytes(frame[: wire.HEADER_SIZE]))
        with pytest.raises(wire.WireError, match="crc"):
            wire.check_payload(bytes(frame[wire.HEADER_SIZE :]), crc)

    def test_bad_magic_rejected(self):
        frame = bytearray(wire.encode_frame(b"x"))
        frame[0] = 0
        with pytest.raises(wire.WireError, match="magic"):
            wire.decode_header(bytes(frame[: wire.HEADER_SIZE]))

    def test_short_header_rejected(self):
        with pytest.raises(wire.WireError, match="short header"):
            wire.decode_header(b"CoL1")

    def test_oversize_length_rejected_without_allocation(self):
        import struct
        import zlib

        header = struct.pack(
            ">4sII", wire.MAGIC, wire.MAX_FRAME_BYTES + 1, zlib.crc32(b"")
        )
        with pytest.raises(wire.WireError, match="too large"):
            wire.decode_header(header)

    def test_oversize_payload_rejected_on_encode(self):
        class HugeBytes(bytes):
            def __len__(self):
                return wire.MAX_FRAME_BYTES + 1

        with pytest.raises(wire.WireError, match="too large"):
            wire.encode_frame(HugeBytes())

    def test_max_size_frame_accepted(self):
        # A frame exactly at the cap passes header validation.
        import struct
        import zlib

        header = struct.pack(
            ">4sII", wire.MAGIC, wire.MAX_FRAME_BYTES, zlib.crc32(b"")
        )
        length, __ = wire.decode_header(header)
        assert length == wire.MAX_FRAME_BYTES

    def test_truncated_value_raises(self):
        out = bytearray()
        wire.encode_value((1, "abc", b"xyz"), out)
        for cut in range(1, len(out)):
            with pytest.raises(wire.WireError):
                wire.decode_value(bytes(out[:cut]))


class TestFrameFlags:
    """The header's length word carries nothing but the length: a frame
    is exactly magic, length, CRC, payload."""

    def test_top_length_bits_rejected_as_too_large(self):
        import struct
        import zlib

        for bit in (29, 30, 31):
            header = struct.pack(">4sII", wire.MAGIC, 1 << bit, zlib.crc32(b""))
            with pytest.raises(wire.WireError, match="too large"):
                wire.decode_header(header)

    def test_flagless_frames_unchanged(self):
        import struct
        import zlib

        expected = struct.pack(">4sII", wire.MAGIC, 3, zlib.crc32(b"abc")) + b"abc"
        assert wire.encode_frame(b"abc") == expected

    def test_encode_frame_into_appends(self):
        out = bytearray(b"prefix")
        wire.encode_frame_into(out, b"one")
        first_end = len(out)
        wire.encode_frame_into(out, b"two")
        assert out[:6] == b"prefix"
        assert bytes(out[6:first_end]) == wire.encode_frame(b"one")
        assert bytes(out[first_end:]) == wire.encode_frame(b"two")


class TestBatchMessages:
    def test_upsert_batch_round_trip(self):
        request = messages.UpsertBatchRequest(
            (
                messages.UpsertRequest(b"k1", b"v1"),
                messages.UpsertRequest(b"k2", b"", tombstone=True),
            )
        )
        assert roundtrip(request) == request

    def test_upsert_batch_reply_round_trip(self):
        reply = messages.UpsertBatchReply(
            (messages.UpsertReply(1.0, 1), messages.UpsertReply(1.5, 2))
        )
        assert roundtrip(reply) == reply

    def test_empty_batch_round_trip(self):
        assert roundtrip(messages.UpsertBatchRequest(())) == messages.UpsertBatchRequest(())


class TestEnvelopes:
    def test_envelope_round_trip(self):
        message = rpc._Request(3, "read", messages.ReadRequest(b"k"), 128)
        payload = wire.encode_envelope(77, "client-1", "ingestor-0", message)
        frame_id, src, dst, decoded = wire.decode_envelope(payload)
        assert (frame_id, src, dst) == (77, "client-1", "ingestor-0")
        assert decoded == message

    def test_trailing_bytes_rejected(self):
        payload = wire.encode_envelope(1, "a", "b", None)
        with pytest.raises(wire.WireError, match="trailing"):
            wire.decode_envelope(payload + b"\x00")

    def test_non_tuple_envelope_rejected(self):
        out = bytearray()
        wire.encode_value("not an envelope", out)
        with pytest.raises(wire.WireError):
            wire.decode_envelope(bytes(out))

    def test_encode_envelope_buffer_matches_bytes_variant(self):
        message = rpc._Request(3, "read", messages.ReadRequest(b"k"), 128)
        buffer = wire.encode_envelope_buffer(77, "client-1", "ingestor-0", message)
        assert isinstance(buffer, bytearray)
        assert bytes(buffer) == wire.encode_envelope(77, "client-1", "ingestor-0", message)

    def test_decode_envelope_accepts_memoryview(self):
        message = messages.UpsertBatchRequest((messages.UpsertRequest(b"k", b"v"),))
        payload = wire.encode_envelope(5, "a", "b", message)
        frame_id, src, dst, decoded = wire.decode_envelope(memoryview(payload))
        assert (frame_id, src, dst) == (5, "a", "b")
        assert decoded == message
