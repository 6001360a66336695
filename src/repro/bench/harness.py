"""The experiment runner shared by every table/figure reproduction.

An experiment builds a cluster from a :class:`~repro.core.ClusterSpec`,
drives one or more client coroutines, and collects an
:class:`ExperimentResult` — per-kind latency summaries, throughput over
the drivers' wall-span (simulated), and node-side statistics such as
compaction timings.

Scaled-down defaults: the experiments run the paper's configurations
shrunk by :data:`SCALE` (10x) so a full benchmark pass finishes in
minutes on a laptop while preserving the paper's level-size ratios and
therefore the dynamics.  Pass ``scale=1`` for paper-sized runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core import Cluster, ClusterSpec, CooLSMConfig, build_cluster

from .metrics import LatencySummary, throughput

#: Default shrink factor for experiment configurations.
SCALE = 10


def scaled_config(key_range: int, scale: int = SCALE, **overrides) -> CooLSMConfig:
    """The paper's configuration for ``key_range``, shrunk by ``scale``."""
    config = CooLSMConfig.for_key_range(key_range)
    if scale > 1:
        config = config.scaled_down(scale)
    if overrides:
        config = replace(config, **overrides)
    return config


@dataclass(slots=True)
class ExperimentResult:
    """Everything an experiment measured."""

    label: str
    duration: float  # simulated seconds spanned by the drivers
    ops: int
    writes: LatencySummary
    reads: LatencySummary
    backup_reads: LatencySummary
    extras: dict = field(default_factory=dict)

    @property
    def write_throughput(self) -> float:
        return throughput(self.writes.count, self.duration)


def drive(cluster: Cluster, drivers: list, label: str = "") -> ExperimentResult:
    """Spawn all driver coroutines, wait for them, and collect results.

    ``drivers`` is a list of generator objects (typically workload
    coroutines bound to clients).  Throughput is measured over the span
    from the first spawn to the last completion — pending background
    timers (RPC timeout timers etc.) do not inflate the duration.
    """
    kernel = cluster.kernel
    started = kernel.now
    processes = [kernel.spawn(driver) for driver in drivers]

    def barrier():
        yield kernel.all_of(processes)
        return kernel.now

    ended = cluster.run_process(barrier(), name="bench-barrier")
    write_samples: list[float] = []
    read_samples: list[float] = []
    backup_samples: list[float] = []
    for client in cluster.clients:
        write_samples.extend(client.stats.all("write"))
        read_samples.extend(client.stats.all("read"))
        backup_samples.extend(client.stats.all("backup_read"))
    total_ops = len(write_samples) + len(read_samples) + len(backup_samples)
    return ExperimentResult(
        label=label,
        duration=max(ended - started, 1e-12),
        ops=total_ops,
        writes=LatencySummary.from_samples(write_samples),
        reads=LatencySummary.from_samples(read_samples),
        backup_reads=LatencySummary.from_samples(backup_samples),
    )


def compaction_summary(cluster: Cluster) -> dict[int, LatencySummary]:
    """Per-level (paper numbering: 2 and 3) compaction-time summaries
    across all Compactors (drives Figure 4)."""
    by_level: dict[int, list[float]] = {2: [], 3: []}
    for compactor in cluster.compactors:
        for timing in compactor.stats.compactions:
            by_level.setdefault(timing.level, []).append(timing.duration)
    return {
        level: LatencySummary.from_samples(samples)
        for level, samples in by_level.items()
    }


def build(spec: ClusterSpec) -> Cluster:
    """Alias of :func:`repro.core.build_cluster` for experiment modules."""
    return build_cluster(spec)
