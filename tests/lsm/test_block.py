"""Unit tests for block encoding."""

import struct

import pytest

from repro.lsm.block import decode_entries, decode_varint, encode_entries, encode_varint
from repro.lsm.errors import CorruptionError

from tests.conftest import entry


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**63 - 1])
    def test_roundtrip(self, value):
        encoded = encode_varint(value)
        decoded, offset = decode_varint(encoded, 0)
        assert decoded == value
        assert offset == len(encoded)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_truncated_raises(self):
        with pytest.raises(CorruptionError):
            decode_varint(b"\x80", 0)


class TestBlockCodec:
    def test_roundtrip_preserves_everything(self):
        entries = [
            entry("a", 1, ts=1.5, value="hello"),
            entry("b", 2, ts=2.5, value=""),
            entry("c", 3, tombstone=True),
        ]
        decoded = decode_entries(encode_entries(entries))
        assert decoded == entries

    def test_roundtrip_empty_block(self):
        assert decode_entries(encode_entries([])) == []

    def test_binary_safe_keys_and_values(self):
        from repro.lsm.entry import Entry

        e = Entry(b"\x00\xff\x01", 9, 0.0, b"\x00" * 100)
        assert decode_entries(encode_entries([e])) == [e]

    def test_corrupt_crc_detected(self):
        data = bytearray(encode_entries([entry("a", 1)]))
        data[10] ^= 0xFF
        with pytest.raises(CorruptionError):
            decode_entries(bytes(data))

    def test_truncated_block_detected(self):
        data = encode_entries([entry("a", 1), entry("b", 2)])
        with pytest.raises(CorruptionError):
            decode_entries(data[:6])

    def test_crc_mismatch_after_bitflip_anywhere(self):
        data = encode_entries([entry("key-%d" % i, i + 1) for i in range(20)])
        for pos in range(4, len(data), 37):
            corrupted = bytearray(data)
            corrupted[pos] ^= 0x01
            with pytest.raises(CorruptionError):
                decode_entries(bytes(corrupted))

    def test_large_values(self):
        big = entry("k", 1, value="x" * 1_000_000)
        assert decode_entries(encode_entries([big]))[0].value == big.value

    def test_count_field_matches(self):
        data = encode_entries([entry(i, i + 1) for i in range(7)])
        (count,) = struct.unpack_from("<I", data, 4)
        assert count == 7

    def test_golden_bytes(self):
        """The format the WAL and sstables share, frozen: lengths 0 and
        127 are one-byte varints, 128 and 300 two-byte ones."""
        from repro.lsm.entry import Entry

        entries = [
            Entry(b"", 1, 1.0, b"a" * 127),
            Entry(b"k" * 127, 2, 2.0, b"", tombstone=True),
            Entry(b"K" * 128, 3, 3.0, b"v" * 300),
            Entry(b"x" * 300, 2**40, 0.5, b"V" * 128),
        ]
        golden = (
            "8c9e7ceb" "04000000"  # crc, count
            "00" "0100000000000000" "000000000000f03f" "00" "7f" + "61" * 127
            + "7f" + "6b" * 127 + "0200000000000000" "0000000000000040" "01" "00"
            + "8001" + "4b" * 128 + "0300000000000000" "0000000000000840" "00"
            + "ac02" + "76" * 300
            + "ac02" + "78" * 300 + "0000000000010000" "000000000000e03f" "00"
            + "8001" + "56" * 128
        )
        assert encode_entries(entries).hex() == golden
        assert decode_entries(bytes.fromhex(golden)) == entries

    def test_overstated_count_is_corruption_not_index_error(self):
        """A checksum-valid body that ends where a length byte (key or
        value) should be: the one-byte fast path must still report it."""
        import zlib

        whole = encode_entries([entry("a", 1, value="v")])[4:]
        for body in (whole[:4], whole[:-2]):  # ends at key_len / at value_len
            data = struct.pack("<I", zlib.crc32(body)) + body
            with pytest.raises(CorruptionError):
                decode_entries(data)
