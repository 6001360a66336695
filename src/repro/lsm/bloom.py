"""Bloom filter, built from scratch.

CooLSM (like LevelDB/RocksDB) attaches a bloom filter to every sstable so
that point reads can skip tables that definitely do not contain the key.
The paper credits bloom filters (together with fence pointers) for the
flat read latency across tree sizes (Section IV-C / Figure 6).

The implementation uses the standard Kirsch–Mitzenmacher double-hashing
scheme: ``k`` probe positions are derived from two independent 64-bit
hashes, giving the same asymptotic false-positive rate as ``k``
independent hash functions.
"""

from __future__ import annotations

import hashlib
import math
import struct

from .errors import CorruptionError, InvalidConfigError

_MAGIC = b"BLM1"
_PAIR = struct.Struct("<QQ")

#: Bytes of one :func:`key_digest`.
DIGEST_SIZE = _PAIR.size


def key_digest(key: bytes) -> bytes:
    """The 16-byte blake2b digest a key's two probe hashes are read from.
    A table built on a node keeps its keys' digests, which its builder
    hashed for the filter, so a merge of it rehashes none of its keys
    (:attr:`~repro.lsm.sstable.SSTable._digests`)."""
    return hashlib.blake2b(key, digest_size=DIGEST_SIZE).digest()


def _hash_pair(data: bytes) -> tuple[int, int]:
    """Two independent 64-bit hashes of ``data`` (from one blake2b call)."""
    h1, h2 = _PAIR.unpack(key_digest(data))
    # h2 must be odd so successive probes cycle through all positions.
    return h1, h2 | 1


def optimal_num_bits(num_keys: int, false_positive_rate: float) -> int:
    """Bits needed for ``num_keys`` at the target false-positive rate."""
    if not 0.0 < false_positive_rate < 1.0:
        raise InvalidConfigError("false_positive_rate must be in (0, 1)")
    if num_keys <= 0:
        return 8
    bits = -num_keys * math.log(false_positive_rate) / (math.log(2) ** 2)
    return max(8, int(math.ceil(bits)))


def optimal_num_hashes(num_bits: int, num_keys: int) -> int:
    """Probe count minimising the false-positive rate."""
    if num_keys <= 0:
        return 1
    return max(1, int(round(num_bits / num_keys * math.log(2))))


class BloomFilter:
    """A fixed-size bloom filter over byte-string keys.

    Args:
        num_bits: Size of the bit array (rounded up to a whole byte).
        num_hashes: Number of probe positions per key.
    """

    __slots__ = ("num_bits", "num_hashes", "_bits", "_count")

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        if num_bits <= 0 or num_hashes <= 0:
            raise InvalidConfigError("num_bits and num_hashes must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray((num_bits + 7) // 8)
        self._count = 0

    @classmethod
    def for_keys(cls, num_keys: int, false_positive_rate: float = 0.01) -> "BloomFilter":
        """Size a filter for an expected key count and target FP rate."""
        num_bits = optimal_num_bits(num_keys, false_positive_rate)
        return cls(num_bits, optimal_num_hashes(num_bits, num_keys))

    @classmethod
    def build(cls, keys, false_positive_rate: float = 0.01) -> "BloomFilter":
        """Build a filter over an iterable of keys: hash each, then
        :meth:`from_digests`."""
        return cls.from_digests(b"".join(map(key_digest, keys)), false_positive_rate)

    @classmethod
    def from_digests(cls, digests: bytes, false_positive_rate: float = 0.01) -> "BloomFilter":
        """A filter over the keys whose :func:`key_digest` values are
        concatenated in ``digests``: what repeated :meth:`add` sets.  A
        key's probes ``(h1 + i * h2) % m`` are taken unwrapped, as one
        strided slice of ``k * m`` ASCII slots, and folded mod ``m`` at the
        end, so the per-key work is one slice assignment."""
        count = len(digests) // _PAIR.size
        bloom = cls.for_keys(count, false_positive_rate)
        m, k = bloom.num_bits, bloom.num_hashes
        slots = bytearray(b"0") * (k * m)
        ones = b"1" * k
        for h1, h2 in _PAIR.iter_unpack(digests):
            start = h1 % m
            step = (h2 | 1) % m or m  # a zero step probes one position k times
            slots[start : start + k * step : step] = ones
        slots.reverse()  # bit ``pos`` is the ``pos``-th binary digit from the right
        folded = 0
        for wrap in range(k):
            folded |= int(slots[wrap * m : (wrap + 1) * m], 2)
        bloom._bits = bytearray(folded.to_bytes(len(bloom._bits), "little"))
        bloom._count = count
        return bloom

    def __len__(self) -> int:
        return self._count

    def add(self, key: bytes) -> None:
        """Insert a key."""
        h1, h2 = _hash_pair(key)
        for i in range(self.num_hashes):
            pos = (h1 + i * h2) % self.num_bits
            self._bits[pos >> 3] |= 1 << (pos & 7)
        self._count += 1

    def might_contain(self, key: bytes) -> bool:
        """Return False only if the key was definitely never added."""
        h1, h2 = _hash_pair(key)
        for i in range(self.num_hashes):
            pos = (h1 + i * h2) % self.num_bits
            if not self._bits[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    def __contains__(self, key: bytes) -> bool:
        return self.might_contain(key)

    def expected_false_positive_rate(self) -> float:
        """The theoretical FP rate given the current fill level."""
        if self._count == 0:
            return 0.0
        exponent = -self.num_hashes * self._count / self.num_bits
        return (1.0 - math.exp(exponent)) ** self.num_hashes

    def to_bytes(self) -> bytes:
        """Serialise for embedding in an sstable footer."""
        header = _MAGIC + struct.pack("<IIQ", self.num_bits, self.num_hashes, self._count)
        return header + bytes(self._bits)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        """Deserialise a filter produced by :meth:`to_bytes`."""
        if len(data) < 20 or data[:4] != _MAGIC:
            raise CorruptionError("bad bloom filter header")
        num_bits, num_hashes, count = struct.unpack("<IIQ", data[4:20])
        bloom = cls(num_bits, num_hashes)
        bits = data[20:]
        if len(bits) != (num_bits + 7) // 8:
            raise CorruptionError("bloom filter bit array truncated")
        bloom._bits = bytearray(bits)
        bloom._count = count
        return bloom
