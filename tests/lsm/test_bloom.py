"""Unit tests for the bloom filter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.bloom import BloomFilter, optimal_num_bits, optimal_num_hashes
from repro.lsm.errors import CorruptionError, InvalidConfigError


class TestConstruction:
    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(InvalidConfigError):
            BloomFilter(0, 3)
        with pytest.raises(InvalidConfigError):
            BloomFilter(100, 0)

    def test_rejects_bad_fp_rate(self):
        with pytest.raises(InvalidConfigError):
            optimal_num_bits(10, 0.0)
        with pytest.raises(InvalidConfigError):
            optimal_num_bits(10, 1.5)

    def test_for_keys_sizes_scale_with_key_count(self):
        small = BloomFilter.for_keys(100)
        large = BloomFilter.for_keys(10_000)
        assert large.num_bits > small.num_bits

    def test_optimal_hash_count_is_positive(self):
        assert optimal_num_hashes(1000, 100) >= 1
        assert optimal_num_hashes(100, 0) == 1


class TestMembership:
    def test_no_false_negatives(self):
        keys = [b"key-%d" % i for i in range(2_000)]
        bloom = BloomFilter.build(keys, false_positive_rate=0.01)
        assert all(bloom.might_contain(k) for k in keys)

    def test_empty_filter_contains_nothing(self):
        bloom = BloomFilter.for_keys(100)
        assert not bloom.might_contain(b"anything")
        assert bloom.expected_false_positive_rate() == 0.0

    def test_false_positive_rate_near_target(self):
        keys = [b"in-%d" % i for i in range(5_000)]
        bloom = BloomFilter.build(keys, false_positive_rate=0.01)
        probes = [b"out-%d" % i for i in range(20_000)]
        fp = sum(1 for p in probes if bloom.might_contain(p)) / len(probes)
        # Generous bound: 3x the target rate.
        assert fp < 0.03

    def test_contains_dunder_matches_might_contain(self):
        bloom = BloomFilter.build([b"a", b"b"])
        assert (b"a" in bloom) == bloom.might_contain(b"a")
        assert len(bloom) == 2


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.binary(max_size=24), max_size=120),
    fp_rate=st.sampled_from([0.5, 0.05, 0.01, 0.0001]),
)
def test_build_is_byte_equal_to_repeated_add(keys, fp_rate):
    """``build`` inlines the probe loop; ``add`` is its definition."""
    reference = BloomFilter.for_keys(len(keys), fp_rate)
    for key in keys:
        reference.add(key)
    built = BloomFilter.build(iter(keys), fp_rate)
    assert built.to_bytes() == reference.to_bytes()
    assert len(built) == len(keys)


class TestSerialisation:
    def test_roundtrip_preserves_membership(self):
        keys = [b"k%d" % i for i in range(500)]
        bloom = BloomFilter.build(keys)
        restored = BloomFilter.from_bytes(bloom.to_bytes())
        assert all(restored.might_contain(k) for k in keys)
        assert restored.num_bits == bloom.num_bits
        assert restored.num_hashes == bloom.num_hashes
        assert len(restored) == len(bloom)

    def test_rejects_bad_magic(self):
        with pytest.raises(CorruptionError):
            BloomFilter.from_bytes(b"XXXX" + b"\x00" * 32)

    def test_rejects_truncated_bits(self):
        data = BloomFilter.build([b"a"]).to_bytes()
        with pytest.raises(CorruptionError):
            BloomFilter.from_bytes(data[:-1])
