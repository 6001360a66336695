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

* :meth:`Nemesis.schedule` turns a scenario into kernel processes, one
  per event, that open its fault window at its time and close it after
  its length; what each edge does to its target (overlapping windows
  included) is :class:`~repro.chaos_events.FaultWindows`'s answer, and
  this module only applies it;
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
from repro.chaos_events import FaultWindows, NemesisEvent, NemesisLog

from .kernel import Kernel, Process
from .machine import Machine
from .network import Network


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
        # Once no window of a kind is open, the target reverts to the
        # value seen when the nemesis was built, not to whatever was
        # current when the last window began.  The live nemesis and the
        # oracle assume the same.
        self.base_drop_probability = network.faults.drop_probability
        self.base_speeds = {name: m.speed for name, m in self.machines.items()}
        self.log = NemesisLog()
        self._windows = FaultWindows(self.base_drop_probability)
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
        events = list(events)
        chaos_events.check_targets(
            events, nodes=self.nodes, machines=self.machines, clocks=self.clocks
        )
        spawned = [
            self.kernel.spawn(self._run(event), f"nemesis.{type(event).__name__}")
            for event in events
        ]
        self._processes.extend(spawned)
        return spawned

    def done(self) -> bool:
        """True once every scheduled event has been applied and reverted."""
        return all(p.triggered for p in self._processes)

    def _run(self, event: NemesisEvent):
        start, length = chaos_events.window(event)
        yield self.kernel.timeout(max(0.0, start - self.kernel.now))
        self._step(start, self._windows.open(event))
        if length is None:
            return
        yield self.kernel.timeout(length)
        self._step(start + length, self._windows.close(event))

    def _step(self, time: float, transitions) -> None:
        for action, target, value in transitions:
            self._apply(action, target, value)
            # Scheduled time goes in the fingerprinted field; the virtual
            # clock (equal unless an event was scheduled in the past) in
            # ``wall`` — mirroring what the live nemesis records.
            self.log.add(time, action, target, wall=self.kernel.now)

    def _apply(self, action: str, target: str, value) -> None:
        if action == "crash":
            self.nodes[target].crash()
        elif action == "recover":
            self.nodes[target].recover()
        elif action == "partition":
            self.network.faults.partition(*value)
        elif action == "heal":
            self.network.heal_partition(*value)
        elif action in ("drop_burst", "drop_restore"):
            self.network.faults.drop_probability = value
        elif action in ("slow", "restore_speed"):
            self.machines[target].speed = self.base_speeds[target] / value
        else:  # skew / unskew
            self.clocks[target].inject_skew(value)

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
