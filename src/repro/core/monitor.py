"""Observability: periodic sampling of node state during a run.

A :class:`ClusterMonitor` spawns a sampling process that records, at a
fixed simulated interval, each node's key gauges — level sizes, total
entries, the Ingestor's in-flight table count, machine core queueing —
producing a timeline that makes compaction waves and backpressure
episodes visible.  Used by the ablation notebooks-style reports and by
tests that assert *when* things happen, not just that they happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Sample:
    """One gauge reading."""

    time: float
    node: str
    gauge: str
    value: float


@dataclass(slots=True)
class Timeline:
    """All samples of one run, queryable by node and gauge."""

    samples: list[Sample] = field(default_factory=list)

    def add(self, time: float, node: str, gauge: str, value: float) -> None:
        self.samples.append(Sample(time, node, gauge, value))

    def series(self, node: str, gauge: str) -> list[tuple[float, float]]:
        """(time, value) points for one node's gauge, in time order."""
        return [
            (s.time, s.value)
            for s in self.samples
            if s.node == node and s.gauge == gauge
        ]

    def peak(self, node: str, gauge: str) -> float:
        values = [v for __, v in self.series(node, gauge)]
        return max(values) if values else 0.0

    def nodes(self) -> set[str]:
        return {s.node for s in self.samples}

    def gauges(self) -> set[str]:
        return {s.gauge for s in self.samples}


class ClusterMonitor:
    """Samples a cluster's nodes every ``interval`` simulated seconds.

    Start it before driving the workload::

        monitor = ClusterMonitor(cluster, interval=0.05)
        monitor.start()
        ...drive...
        monitor.stop()
        timeline = monitor.timeline
    """

    def __init__(self, cluster, interval: float = 0.05) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.cluster = cluster
        self.interval = interval
        self.timeline = Timeline()
        self._running = False
        self._process = None

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._process = self.cluster.kernel.spawn(self._loop(), "monitor")

    def stop(self) -> None:
        self._running = False

    def _loop(self):
        while self._running:
            self.sample_once()
            yield self.cluster.kernel.timeout(self.interval)

    def sample_once(self) -> None:
        """Record one reading of every gauge (callable directly too)."""
        now = self.cluster.kernel.now
        timeline = self.timeline
        for ingestor in self.cluster.ingestors:
            timeline.add(now, ingestor.name, "l0_tables", len(ingestor.level0))
            timeline.add(now, ingestor.name, "l1_tables", len(ingestor.level1))
            timeline.add(now, ingestor.name, "inflight_tables", ingestor.inflight_tables)
            timeline.add(
                now, ingestor.name, "entries", ingestor.manifest.total_entries()
            )
        for compactor in self.cluster.compactors:
            timeline.add(now, compactor.name, "l2_tables", len(compactor.level2))
            timeline.add(now, compactor.name, "l3_tables", len(compactor.level3))
            timeline.add(
                now,
                compactor.name,
                "l2_debt",
                len(compactor.level2) / max(1, compactor.config.l2_threshold),
            )
            timeline.add(
                now, compactor.name, "entries", compactor.manifest.total_entries()
            )
            timeline.add(
                now,
                compactor.name,
                "core_queue",
                compactor.machine.cores.queue_length,
            )
        for reader in self.cluster.readers:
            timeline.add(now, reader.name, "entries", reader.manifest.total_entries())
        for node in (
            *self.cluster.ingestors,
            *self.cluster.compactors,
            *self.cluster.readers,
        ):
            self._sample_transport(now, node)

    def _sample_transport(self, now: float, node) -> None:
        """TCP transport gauges (live runtime only — the sim fabric has
        no transport attribute).  Surfaces backpressure: queue high
        water, frames dropped by overflow policy, reconnect counts."""
        transport = getattr(node.network, "transport", None)
        if transport is None:
            return
        timeline = self.timeline
        for gauge, value in transport.stats.as_gauges().items():
            timeline.add(now, node.name, gauge, value)
