"""Analytic LSM cost model and bloom-memory tuning.

The paper's Related Work points to Monkey and Dostoevsky for "a detailed
mathematical analysis of tuning LSM trees hyperparameters".  This module
provides that analysis for our engines:

* :class:`LSMShape` — derive the level structure (level count, per-level
  capacities) from entry count, buffer size, and size ratio.
* :func:`leveled_write_cost` / :func:`tiered_write_cost` — expected
  write amplification of the two compaction disciplines (the classic
  O(T·L) vs O(L) result).
* :func:`point_lookup_cost` — expected sstable probes per lookup given
  per-level bloom false-positive rates.
* :func:`optimal_bloom_allocation` — Monkey's headline idea: skew bloom
  memory toward smaller levels.  With equal bits everywhere the FP rate
  is uniform; reallocating the same total memory lowers the *sum* of
  per-level FP rates, i.e. the expected probes for a zero-result lookup.

The formulas are standard: a bloom filter with ``bits`` bits over ``n``
keys has false-positive rate ``exp(-(bits/n) * ln(2)^2)`` at the optimal
hash count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidConfigError

_LN2_SQ = math.log(2) ** 2


@dataclass(frozen=True, slots=True)
class LSMShape:
    """The level structure implied by (entries, buffer, ratio).

    Attributes:
        total_entries: Data set size, entries.
        buffer_entries: Memtable/L0 capacity, entries.
        size_ratio: Capacity ratio between adjacent levels (paper: 10).
    """

    total_entries: int
    buffer_entries: int
    size_ratio: float = 10.0

    def __post_init__(self) -> None:
        if self.total_entries <= 0 or self.buffer_entries <= 0:
            raise InvalidConfigError("entry counts must be positive")
        if self.size_ratio <= 1.0:
            raise InvalidConfigError("size_ratio must exceed 1")

    @property
    def num_levels(self) -> int:
        """Levels needed so the last one holds the residual data."""
        levels = 1
        capacity = self.buffer_entries
        while capacity < self.total_entries:
            capacity *= self.size_ratio
            levels += 1
        return max(1, levels - 1)

    def level_entries(self) -> list[int]:
        """Entries held per on-disk level when the tree is full, largest
        level last."""
        levels = self.num_levels
        return [
            min(
                self.total_entries,
                int(self.buffer_entries * self.size_ratio ** (i + 1)),
            )
            for i in range(levels)
        ]


def leveled_write_cost(shape: LSMShape) -> float:
    """Expected write amplification under leveling.

    Each entry is rewritten on average ``ratio/2`` times per level it
    descends through (it is merged into a level that is, on average,
    half full of its own data), plus the initial flush.
    """
    return 1.0 + shape.num_levels * shape.size_ratio / 2.0


def tiered_write_cost(shape: LSMShape) -> float:
    """Expected write amplification under tiering/universal compaction:
    one rewrite per level plus the flush."""
    return 1.0 + shape.num_levels


def lazy_leveling_write_cost(shape: LSMShape) -> float:
    """Expected write amplification under lazy leveling (Dostoevsky):
    tiering on every level but the last, leveling only at the largest.

    An entry pays the flush, one rewrite per tiered level it descends
    through (``L - 1`` of them), and the leveled merge into the last
    level (``ratio/2`` on average) — the leveled term is paid once, not
    per level, which is the whole point of the hybrid.
    """
    return 1.0 + max(0, shape.num_levels - 1) + shape.size_ratio / 2.0


def one_leveling_write_cost(shape: LSMShape) -> float:
    """Expected write amplification with a single leveled level.

    Every buffer flush is merged into the one on-disk level, rewriting
    it wholesale; by the time the data set reaches ``total`` entries the
    level has been rewritten once per flush at an average size of half
    the final one, so each entry is copied ``total / (2 * buffer)``
    times on top of its flush.
    """
    return 1.0 + shape.total_entries / (2.0 * shape.buffer_entries)


def leveled_space_amplification(shape: LSMShape) -> float:
    """Obsolete data is bounded by the next-to-last level: ~1 + 1/ratio."""
    return 1.0 + 1.0 / shape.size_ratio


def tiered_space_amplification(shape: LSMShape) -> float:
    """Up to ``ratio`` overlapping runs per level may hold stale
    versions of the same key: O(ratio) in the worst case; 2.0 is the
    standard planning number for ratio >= 2."""
    return 2.0


def lazy_leveling_space_amplification(shape: LSMShape) -> float:
    """The last (leveled) level holds ~``1 - 1/ratio`` of the data with
    no duplicates; only the tiered upper levels (a ``~1/ratio``
    fraction, up to ``ratio`` runs each) can hold stale versions —
    roughly twice the leveled bound."""
    return 1.0 + 2.0 / shape.size_ratio


def one_leveling_space_amplification(shape: LSMShape) -> float:
    """A single leveled level is fully deduplicated at every merge;
    stale versions survive only in the not-yet-merged buffer residue."""
    return 1.0 + shape.buffer_entries / shape.total_entries


#: Analytic (write_cost, space_amplification) estimators per compaction
#: policy name — the keys of :data:`repro.lsm.policy.POLICIES`.
POLICY_COST_MODELS: dict[str, tuple] = {
    "leveling": (leveled_write_cost, leveled_space_amplification),
    "tiering": (tiered_write_cost, tiered_space_amplification),
    "lazy_leveling": (lazy_leveling_write_cost, lazy_leveling_space_amplification),
    "one_leveling": (one_leveling_write_cost, one_leveling_space_amplification),
}


def policy_write_cost(policy: str, shape: LSMShape) -> float:
    """Expected write amplification of ``policy`` (any accepted alias)
    at ``shape``."""
    from .policy import normalize_policy_name

    return POLICY_COST_MODELS[normalize_policy_name(policy)][0](shape)


def policy_space_amplification(policy: str, shape: LSMShape) -> float:
    """Expected space amplification of ``policy`` at ``shape``."""
    from .policy import normalize_policy_name

    return POLICY_COST_MODELS[normalize_policy_name(policy)][1](shape)


def bloom_false_positive_rate(bits_per_entry: float) -> float:
    """FP rate of a bloom filter at the optimal hash count."""
    if bits_per_entry < 0:
        raise InvalidConfigError("bits_per_entry must be non-negative")
    return math.exp(-bits_per_entry * _LN2_SQ)


def point_lookup_cost(level_fp_rates: list[float], hit: bool = False) -> float:
    """Expected sstable probes for a point lookup.

    A zero-result lookup probes each level with probability equal to its
    bloom FP rate; a hit additionally pays one true probe.
    """
    cost = sum(level_fp_rates)
    return cost + (1.0 if hit else 0.0)


def uniform_bloom_allocation(total_bits: float, level_entries: list[int]) -> list[float]:
    """The baseline every system used before Monkey: the same
    bits-per-entry everywhere."""
    total_entries = sum(level_entries)
    if total_entries == 0:
        return [0.0] * len(level_entries)
    per_entry = total_bits / total_entries
    return [per_entry * n for n in level_entries]


def optimal_bloom_allocation(
    total_bits: float, level_entries: list[int], iterations: int = 200
) -> list[float]:
    """Monkey-style memory allocation minimising Σ per-level FP rates.

    Minimise ``Σ exp(-(b_i/n_i)·ln2²)`` s.t. ``Σ b_i = total_bits``.
    By Lagrange multipliers the optimum equalises the marginal benefit
    ``(ln2²/n_i)·exp(-(b_i/n_i)·ln2²)`` across levels, giving

        b_i/n_i = (1/ln2²) · ln(ln2² / (λ n_i))   (clamped at 0)

    We solve for λ by bisection.  Smaller levels end up with more bits
    per entry — their filters are cheap to make near-perfect — while the
    largest level absorbs most of the FP budget.
    """
    if total_bits < 0:
        raise InvalidConfigError("total_bits must be non-negative")
    if not level_entries:
        return []
    if any(n <= 0 for n in level_entries):
        raise InvalidConfigError("level entry counts must be positive")

    def bits_for(lam: float) -> list[float]:
        out = []
        for n in level_entries:
            ratio = _LN2_SQ / (lam * n)
            per_entry = math.log(ratio) / _LN2_SQ if ratio > 1.0 else 0.0
            out.append(per_entry * n)
        return out

    # λ large -> allocate nothing; λ small -> allocate a lot.  Bisection
    # on total allocated bits (monotone decreasing in λ).
    lo, hi = 1e-18, 1e6
    for __ in range(iterations):
        mid = math.sqrt(lo * hi)  # geometric: λ spans many decades
        allocated = sum(bits_for(mid))
        if allocated > total_bits:
            lo = mid
        else:
            hi = mid
    allocation = bits_for(hi)
    scale = total_bits / sum(allocation) if sum(allocation) > 0 else 0.0
    return [b * scale for b in allocation]


def expected_zero_result_probes(allocation: list[float], level_entries: list[int]) -> float:
    """Σ per-level FP rates under a given bits allocation."""
    return sum(
        bloom_false_positive_rate(bits / n)
        for bits, n in zip(allocation, level_entries)
    )


@dataclass(frozen=True, slots=True)
class TuningComparison:
    """Leveling vs tiering at one shape, for reports and tests."""

    shape: LSMShape
    leveled_write: float
    tiered_write: float
    leveled_space: float
    tiered_space: float

    @classmethod
    def for_shape(cls, shape: LSMShape) -> "TuningComparison":
        return cls(
            shape,
            leveled_write_cost(shape),
            tiered_write_cost(shape),
            leveled_space_amplification(shape),
            tiered_space_amplification(shape),
        )
