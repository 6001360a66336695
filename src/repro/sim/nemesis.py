"""The nemesis: deterministic, composable, replayable fault scenarios.

The fault-tolerance claims of Section III-H (and the guarantees of
Table I) are only credible if they survive *composed* faults — a crash
in the middle of a forward, a partition during an election, a machine
that is slow but not dead.  The nemesis makes fault schedules
first-class data; the **event vocabulary, schedule generator, and
applied-action log live in** :mod:`repro.chaos_events`, shared with the
live runtime's :class:`repro.live.chaos.LiveNemesis`, so one seeded
scenario runs under the simulation kernel *and* against real processes
and produces the same :class:`~repro.chaos_events.NemesisLog`
fingerprint (the schedule-portability guarantee).

This module is the **sim interpreter** of that vocabulary:

* :meth:`Nemesis.schedule` turns a scenario into kernel processes that
  apply each fault at its time and revert it after its duration;
* every applied action is appended to the log with its *scheduled*
  time (the virtual clock lands on it exactly), so
  :meth:`~repro.chaos_events.NemesisLog.fingerprint` is identical
  across replays of a seed;
* :meth:`Nemesis.random_schedule` draws a scenario from a named,
  seeded RNG stream — a failing seed is a reproducible bug report.

The module deliberately knows nothing about CooLSM node types: targets
are any objects with ``crash()``/``recover()`` (fault-stop),
:class:`~repro.sim.machine.Machine` instances (slowdowns, partitions),
or :class:`~repro.sim.clock.LooseClock` instances (skew spikes).
:meth:`Nemesis.for_cluster` wires all three maps from a built cluster
by duck typing, keeping ``sim`` free of ``core`` imports.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Sequence

from repro import chaos_events
from repro.chaos_events import (
    CrashNode,
    DropBurst,
    NemesisEvent,
    NemesisLog,
    NemesisRecord,
    NemesisStats,
    PartitionPair,
    SkewClock,
    SlowMachine,
    flapping_partition,
    rolling_partitions,
)

from .kernel import Kernel, Process
from .machine import Machine
from .network import Network

__all__ = [
    "CrashNode",
    "DropBurst",
    "Nemesis",
    "NemesisEvent",
    "NemesisLog",
    "NemesisRecord",
    "NemesisStats",
    "PartitionPair",
    "SkewClock",
    "SlowMachine",
    "flapping_partition",
    "rolling_partitions",
]


class Nemesis:
    """Schedules fault scenarios against a running simulation.

    Args:
        kernel: The simulation kernel events run on.
        network: The network whose fault plan is manipulated.
        nodes: name -> object with ``crash()``/``recover()``.
        machines: name -> :class:`Machine` (slowdowns; names are also
            what :class:`PartitionPair` refers to).
        clocks: name -> :class:`~repro.sim.clock.LooseClock`.
        rng: Seeded stream for :meth:`random_schedule` draws.
    """

    def __init__(
        self,
        kernel: Kernel,
        network: Network,
        nodes: dict[str, Any] | None = None,
        machines: dict[str, Machine] | None = None,
        clocks: dict[str, Any] | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.kernel = kernel
        self.network = network
        self.nodes = dict(nodes or {})
        self.machines = dict(machines or {})
        self.clocks = dict(clocks or {})
        self.rng = rng or random.Random(0)
        # Faults revert to the values seen when the nemesis was built,
        # not to whatever was current when the fault began: an
        # overlapping fault of the same kind would otherwise capture
        # (and later re-apply) the first fault's value.  The live
        # nemesis and the oracle assume the same.
        self.base_drop_probability = network.faults.drop_probability
        self.base_speeds = {name: m.speed for name, m in self.machines.items()}
        self.log = NemesisLog()
        self.stats = NemesisStats()
        self._processes: list[Process] = []

    @classmethod
    def for_cluster(cls, cluster) -> "Nemesis":
        """Wire a nemesis from a built cluster (duck-typed: any object
        with kernel/network/rngs plus the standard node lists works)."""
        nodes: dict[str, Any] = {}
        for group in (
            getattr(cluster, "ingestors", []),
            getattr(cluster, "compactors", []),
            getattr(cluster, "readers", []),
        ):
            for node in group:
                nodes[node.name] = node
        for replica_group in getattr(cluster, "replica_groups", []):
            for replica in replica_group.replicas:
                nodes[replica.name] = replica
        monolith = getattr(cluster, "monolith", None)
        if monolith is not None:
            nodes[monolith.name] = monolith
        return cls(
            cluster.kernel,
            cluster.network,
            nodes=nodes,
            machines=dict(getattr(cluster, "machines", {})),
            clocks=dict(getattr(cluster, "clocks", {})),
            rng=cluster.rngs.stream("nemesis"),
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, events: Iterable[NemesisEvent]) -> list[Process]:
        """Spawn one process per event; returns the process handles so
        callers can barrier on the whole scenario finishing."""
        spawned = []
        for event in events:
            self._validate(event)
            runner = self._runner_for(event)
            spawned.append(
                self.kernel.spawn(runner, f"nemesis.{type(event).__name__}")
            )
        self._processes.extend(spawned)
        return spawned

    def done(self) -> bool:
        """True once every scheduled event has been applied and reverted."""
        return all(p.triggered for p in self._processes)

    def _validate(self, event: NemesisEvent) -> None:
        """Fail fast on typo'd targets at schedule time, instead of a
        bare ``KeyError`` surfacing mid-run inside the kernel."""

        def known(name: str, table: dict, kind: str) -> None:
            # An empty table means the caller wired the Nemesis by hand
            # without that facet; don't reject what we can't check.
            if table and name not in table:
                raise ValueError(
                    f"nemesis: unknown {kind} {name!r}; "
                    f"known: {', '.join(sorted(table))}"
                )

        if isinstance(event, CrashNode):
            known(event.target, self.nodes, "node")
        elif isinstance(event, SlowMachine):
            known(event.machine, self.machines, "machine")
        elif isinstance(event, SkewClock):
            known(event.target, self.clocks, "clock")
        elif isinstance(event, PartitionPair):
            known(event.machine_a, self.machines, "machine")
            known(event.machine_b, self.machines, "machine")

    def _runner_for(self, event: NemesisEvent):
        if isinstance(event, CrashNode):
            return self._run_crash(event)
        if isinstance(event, PartitionPair):
            return self._run_partition(event)
        if isinstance(event, DropBurst):
            return self._run_drop_burst(event)
        if isinstance(event, SlowMachine):
            return self._run_slowdown(event)
        if isinstance(event, SkewClock):
            return self._run_skew(event)
        raise TypeError(f"unknown nemesis event: {event!r}")

    def _sleep_until(self, at: float):
        yield self.kernel.timeout(max(0.0, at - self.kernel.now))

    def _log(self, time: float, action: str, target: str) -> None:
        # Scheduled time goes in the fingerprinted field; the virtual
        # clock (equal unless an event was scheduled in the past) in
        # ``wall`` — mirroring what the live nemesis records.
        self.log.add(time, action, target, wall=self.kernel.now)

    def _run_crash(self, event: CrashNode):
        node = self.nodes[event.target]
        yield from self._sleep_until(event.at)
        node.crash()
        self.stats.crashes += 1
        self._log(event.at, "crash", event.target)
        if event.downtime is None:
            return
        yield self.kernel.timeout(event.downtime)
        node.recover()
        self.stats.restarts += 1
        self._log(event.at + event.downtime, "recover", event.target)

    def _run_partition(self, event: PartitionPair):
        yield from self._sleep_until(event.at)
        self.network.faults.partition(event.machine_a, event.machine_b)
        self.stats.partitions += 1
        key = f"{event.machine_a}|{event.machine_b}"
        self._log(event.at, "partition", key)
        yield self.kernel.timeout(event.duration)
        self.network.heal_partition(event.machine_a, event.machine_b)
        self.stats.heals += 1
        self._log(event.at + event.duration, "heal", key)

    def _run_drop_burst(self, event: DropBurst):
        yield from self._sleep_until(event.at)
        self.network.faults.drop_probability = event.probability
        self.stats.drop_bursts += 1
        self._log(event.at, "drop_burst", f"p={event.probability}")
        yield self.kernel.timeout(event.duration)
        base = self.base_drop_probability
        self.network.faults.drop_probability = base
        self._log(event.at + event.duration, "drop_restore", f"p={base}")

    def _run_slowdown(self, event: SlowMachine):
        machine = self.machines[event.machine]
        base = self.base_speeds[event.machine]
        yield from self._sleep_until(event.at)
        machine.speed = base / event.factor
        self.stats.slowdowns += 1
        self._log(event.at, "slow", event.machine)
        yield self.kernel.timeout(event.duration)
        machine.speed = base
        self._log(event.at + event.duration, "restore_speed", event.machine)

    def _run_skew(self, event: SkewClock):
        clock = self.clocks[event.target]
        yield from self._sleep_until(event.at)
        clock.inject_skew(event.skew)
        self.stats.skews += 1
        self._log(event.at, "skew", event.target)
        yield self.kernel.timeout(event.duration)
        clock.inject_skew(0.0)
        self._log(event.at + event.duration, "unskew", event.target)

    # ------------------------------------------------------------------
    # Random scenario generation (seeded, hence replayable)
    # ------------------------------------------------------------------
    def random_schedule(
        self,
        horizon: float,
        crashes: int = 2,
        partitions: int = 2,
        drop_bursts: int = 1,
        slowdowns: int = 1,
        skews: int = 0,
        mean_downtime: float = 0.5,
        max_skew: float = 0.05,
        crash_targets: Sequence[str] | None = None,
    ) -> list[NemesisEvent]:
        """Draw a scenario from this nemesis's seeded RNG stream (the
        shared :func:`repro.chaos_events.random_schedule` draw, so sim
        and live nemeses generate identical scenarios per seed)."""
        return chaos_events.random_schedule(
            self.rng,
            horizon,
            node_names=list(crash_targets or self.nodes),
            machine_names=list(self.machines),
            clock_names=list(self.clocks),
            crashes=crashes,
            partitions=partitions,
            drop_bursts=drop_bursts,
            slowdowns=slowdowns,
            skews=skews,
            mean_downtime=mean_downtime,
            max_skew=max_skew,
        )
