"""Latency/throughput statistics for the evaluation harness.

Table II reports percentiles (0.99 / 0.999 / 0.9999), average, maximum,
and an operations-over-threshold count; every experiment module reuses
:class:`LatencySummary` so the numbers are computed one way.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class LatencySummary:
    """Exact (sorted-sample) latency statistics, seconds."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p99: float
    p999: float
    p9999: float

    @classmethod
    def from_samples(cls, samples: list[float]) -> "LatencySummary":
        if not samples:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = sorted(samples)
        return cls(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            minimum=ordered[0],
            maximum=ordered[-1],
            p50=percentile(ordered, 0.50),
            p99=percentile(ordered, 0.99),
            p999=percentile(ordered, 0.999),
            p9999=percentile(ordered, 0.9999),
        )

    def ms(self, field: str) -> float:
        """A statistic converted to milliseconds."""
        return getattr(self, field) * 1_000.0


def percentile(ordered: list[float], q: float) -> float:
    """Exact percentile of a pre-sorted sample (nearest-rank)."""
    if not ordered:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
    return ordered[rank]


def count_above(samples: list[float], threshold: float) -> int:
    """Operations slower than ``threshold`` seconds (Table II's
    'latency>50ms' row)."""
    return sum(1 for s in samples if s > threshold)


def throughput(ops: int, duration: float) -> float:
    """Operations per second over a measured duration."""
    if duration <= 0:
        return 0.0
    return ops / duration


@dataclass(slots=True)
class ExplorationCounters:
    """Work counters for the model-checking harness (repro.verify).

    One instance accumulates across an exploration run: how many
    schedules were executed, how much work they contained, and what the
    checkers concluded.  Reports embed :meth:`as_dict`, so the counter
    set is also the schema of the ``verify`` CLI report.
    """

    schedules: int = 0
    operations: int = 0
    faults: int = 0
    reconfigs: int = 0
    checker_calls: int = 0
    violations: int = 0
    model_mismatches: int = 0
    failing_schedules: int = 0
    shrink_runs: int = 0

    def merge(self, other: "ExplorationCounters") -> None:
        """Fold another run's counters into this one."""
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}
