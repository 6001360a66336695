"""The shared chaos vocabulary: one fault language, two interpreters.

PR 1's nemesis made fault schedules first-class data inside the
simulator; this module is that data layer extracted so the *live*
runtime can speak the same language.  A **scenario** is a list of fault
events with absolute times (simulation seconds under the sim kernel,
wall-clock seconds from schedule start under the live runtime):

* :class:`CrashNode` — fail-stop a node, restart after ``downtime``
  (sim: ``crash()``/``recover()``; live: SIGKILL + supervised restart);
* :class:`PartitionPair` — cut the link between two machines, heal
  after ``duration`` (sim: fault-plan hold; live: proxy link cut);
* :class:`DropBurst` — raise the frame/message drop probability for a
  window (sim: ``FaultPlan.drop_probability``; live: proxy frame drops);
* :class:`SlowMachine` — gray failure: the machine answers, slowly
  (sim: divide machine speed; live: inject per-link latency);
* :class:`SkewClock` — clock-skew spike (sim only: live clocks are the
  host's real clocks and cannot be skewed from outside the process).

What a scenario does to each target is worked out here, once, by the
:class:`FaultWindows` state machine (overlapping windows included); the
interpreters (:class:`repro.sim.nemesis.Nemesis` and
:class:`repro.live.chaos.LiveNemesis`) only apply and log the
transitions it returns, in the order :func:`edges` fixes — the order
the sim kernel fires them.  Log records carry the *scheduled*
time — under the sim kernel the virtual clock lands on it exactly, and
the live nemesis records the same number (keeping the wall-clock
instant in the non-fingerprinted ``wall`` field) — so
:func:`expected_fingerprint` is a pure function of the scenario and
**one schedule yields the same fingerprint under both interpreters and
across replays**.  That is the schedule-portability guarantee the chaos
soaks assert.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Hashable, Sequence

__all__ = [
    "CrashNode",
    "PartitionPair",
    "DropBurst",
    "SlowMachine",
    "SkewClock",
    "NemesisEvent",
    "NemesisRecord",
    "NemesisLog",
    "FaultWindows",
    "flapping_partition",
    "rolling_partitions",
    "random_schedule",
    "window",
    "edges",
    "check_targets",
    "expected_records",
    "expected_fingerprint",
]


# ----------------------------------------------------------------------
# Scenario events (pure data; times are absolute seconds)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class CrashNode:
    """Fail-stop ``target`` at ``at``; restart after ``downtime``
    (``None`` = stays down for the rest of the run)."""

    target: str
    at: float
    downtime: float | None = None


@dataclass(frozen=True, slots=True)
class PartitionPair:
    """Partition the two *machines* at ``at``; heal after ``duration``.

    Sim: traffic between the machines is held (TCP model: retransmitted,
    not lost) and flushed at heal time.  Live: the chaos proxy cuts both
    directions of the link; senders reconnect into a closed door until
    the heal.
    """

    machine_a: str
    machine_b: str
    at: float
    duration: float


@dataclass(frozen=True, slots=True)
class DropBurst:
    """Raise the drop probability to ``probability`` during
    [at, at + duration), then restore the previous value."""

    probability: float
    at: float
    duration: float


@dataclass(frozen=True, slots=True)
class SlowMachine:
    """Gray failure during the window: the node answers, just slowly
    (no failure detector fires cleanly on it).  Sim divides the
    machine's speed by ``factor``; live injects ``factor``-scaled
    one-way latency on every link touching the machine."""

    machine: str
    at: float
    duration: float
    factor: float = 4.0


@dataclass(frozen=True, slots=True)
class SkewClock:
    """Clock-skew spike: add ``skew`` seconds to ``target``'s loose
    clock during the window (deliberately violating the δ bound, to
    probe the 2δ ordering machinery).  Sim-only: a live node's clock
    belongs to the OS."""

    target: str
    at: float
    duration: float
    skew: float


NemesisEvent = CrashNode | PartitionPair | DropBurst | SlowMachine | SkewClock


def flapping_partition(
    machine_a: str,
    machine_b: str,
    at: float,
    up: float,
    down: float,
    flaps: int,
) -> list[PartitionPair]:
    """A link that flaps: ``flaps`` partition windows of length ``down``
    separated by ``up`` seconds of connectivity, starting at ``at``."""
    if flaps < 1:
        raise ValueError("flaps must be >= 1")
    events = []
    start = at
    for __ in range(flaps):
        events.append(PartitionPair(machine_a, machine_b, start, down))
        start += down + up
    return events


def rolling_partitions(
    machines: Sequence[str], peer: str, at: float, duration: float, gap: float = 0.0
) -> list[PartitionPair]:
    """Partition each machine in ``machines`` from ``peer`` in turn —
    a rolling isolation sweep."""
    events = []
    start = at
    for machine in machines:
        events.append(PartitionPair(machine, peer, start, duration))
        start += duration + gap
    return events


# ----------------------------------------------------------------------
# Applied-action log (for replay and cross-interpreter assertions)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class NemesisRecord:
    """One applied or reverted fault action.

    ``time`` is the *scheduled* time the action belongs to (part of the
    fingerprint); ``wall`` is the instant the interpreter actually
    applied it — always equal to ``time`` under the sim kernel, and the
    measured wall-clock offset under the live runtime (diagnostic only,
    excluded from the fingerprint).
    """

    time: float
    action: str
    target: str
    wall: float | None = None


class NemesisLog:
    """Append-only record of what the nemesis actually did and when."""

    def __init__(self) -> None:
        self.records: list[NemesisRecord] = []

    def add(
        self, time: float, action: str, target: str, wall: float | None = None
    ) -> None:
        self.records.append(NemesisRecord(time, action, target, wall))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def count(self, action: str) -> int:
        """How many records carry ``action``."""
        return sum(1 for r in self.records if r.action == action)

    def fingerprint(self) -> tuple:
        """Hashable summary in application order; equal across replays
        of the same seed under one interpreter."""
        return tuple((r.time, r.action, r.target) for r in self.records)

    def canonical_fingerprint(self) -> tuple:
        """Fingerprint sorted by (time, action, target): equal across
        *interpreters*, where near-simultaneous events may append in
        either order."""
        return tuple(sorted(self.fingerprint()))


# ----------------------------------------------------------------------
# The fault timeline: one state machine, shared by both interpreters
# ----------------------------------------------------------------------
#: (action, target, value): one change to apply and log.  ``target`` is
#: the record's text; ``value`` is what applying it needs.
Transition = tuple[str, str, Any]


def window(event: NemesisEvent) -> tuple[float, float | None]:
    """``(start, length)`` of an event's fault window; a ``None`` length
    (a permanent crash) never closes."""
    if isinstance(event, CrashNode):
        return event.at, event.downtime
    if isinstance(event, (PartitionPair, DropBurst, SlowMachine, SkewClock)):
        return event.at, event.duration
    raise TypeError(f"unknown nemesis event: {event!r}")


def edges(events: Sequence[NemesisEvent]) -> list[tuple[float, bool, NemesisEvent]]:
    """Every window edge as ``(time, closing, event)``, in the order the
    sim kernel fires them: at one instant opens precede closes, opens go
    in (start, list) order and closes in the order their windows opened."""
    spans = [window(event) for event in events]
    opened = sorted(range(len(events)), key=lambda i: (spans[i][0], i))
    keyed = []
    for rank, index in enumerate(opened):
        (start, length), event = spans[index], events[index]
        keyed.append((start, False, rank, event))
        if length is not None:
            keyed.append((start + length, True, rank, event))
    keyed.sort(key=lambda edge: edge[:3])
    return [(time, closing, event) for time, closing, __, event in keyed]


class FaultWindows:
    """Which fault windows are open on each target, and the transitions
    opening or closing one causes.

    A node is down (a machine pair cut) while any of its windows is
    open.  A drop probability, slowdown factor or skew takes the value
    of the most recently opened window still open, else its base.
    :meth:`open` and :meth:`close` return only the transitions that
    change a target's state, so a scenario without overlapping windows
    yields one apply and one revert per event.
    """

    def __init__(self, base_drop_probability: float = 0.0) -> None:
        self.base_drop_probability = base_drop_probability
        self._open: dict[Hashable, list[NemesisEvent]] = {}

    def open(self, event: NemesisEvent) -> list[Transition]:
        slot, union, apply, __ = self._spec(event)
        stack = self._open.setdefault(slot, [])
        stack.append(event)
        if len(stack) == 1 or (not union and self._spec(stack[-2])[2] != apply):
            return [apply]
        return []

    def close(self, event: NemesisEvent) -> list[Transition]:
        slot, union, __, revert = self._spec(event)
        stack = self._open[slot]
        before = self._spec(stack[-1])[2]
        stack.remove(event)
        if not stack:
            return [revert]
        after = self._spec(stack[-1])[2]
        return [] if union or after == before else [after]

    def _spec(
        self, event: NemesisEvent
    ) -> tuple[Hashable, bool, Transition, Transition]:
        """(slot, union?, apply, revert) for one event.  The slot is the
        target its windows share; a union slot is held while any of them
        is open, any other by the latest one opened."""
        if isinstance(event, CrashNode):
            name = event.target
            return ("node", name), True, ("crash", name, None), ("recover", name, None)
        if isinstance(event, PartitionPair):
            pair = (event.machine_a, event.machine_b)
            key, link = "|".join(pair), ("link", frozenset(pair))
            return link, True, ("partition", key, pair), ("heal", key, pair)
        if isinstance(event, DropBurst):
            p, base = event.probability, self.base_drop_probability
            apply = ("drop_burst", f"p={p}", p)
            return ("drop",), False, apply, ("drop_restore", f"p={base}", base)
        if isinstance(event, SlowMachine):
            name = event.machine
            apply = ("slow", name, event.factor)
            return ("slow", name), False, apply, ("restore_speed", name, 1.0)
        if isinstance(event, SkewClock):
            name = event.target
            apply = ("skew", name, event.skew)
            return ("skew", name), False, apply, ("unskew", name, 0.0)
        raise TypeError(f"unknown nemesis event: {event!r}")


def check_targets(
    events: Sequence[NemesisEvent],
    nodes: Sequence[str] = (),
    machines: Sequence[str] = (),
    clocks: Sequence[str] = (),
) -> None:
    """Fail fast on an unknown event kind or a typo'd target, before
    anything runs.  An empty table is not checked: the interpreter was
    wired without that facet."""
    for event in events:
        window(event)
        named = []
        if isinstance(event, CrashNode):
            named = [("node", event.target, nodes)]
        elif isinstance(event, PartitionPair):
            pair = (event.machine_a, event.machine_b)
            named = [("machine", machine, machines) for machine in pair]
        elif isinstance(event, SlowMachine):
            named = [("machine", event.machine, machines)]
        elif isinstance(event, SkewClock):
            named = [("clock", event.target, clocks)]
        for kind, name, table in named:
            if table and name not in table:
                raise ValueError(
                    f"nemesis: unknown {kind} {name!r}; "
                    f"known: {', '.join(sorted(table))}"
                )


def expected_records(
    events: Sequence[NemesisEvent], base_drop_probability: float = 0.0
) -> list[tuple[float, str, str]]:
    """The (time, action, target) records a faithful interpreter of
    ``events`` must produce — the replayability oracle both nemesis
    implementations are held to."""
    windows = FaultWindows(base_drop_probability)
    records = []
    for time, closing, event in edges(events):
        step = windows.close if closing else windows.open
        records.extend((time, action, target) for action, target, __ in step(event))
    return sorted(records)


def expected_fingerprint(
    events: Sequence[NemesisEvent], base_drop_probability: float = 0.0
) -> tuple:
    """Canonical fingerprint a run of ``events`` must log — compare with
    :meth:`NemesisLog.canonical_fingerprint` from either interpreter."""
    return tuple(expected_records(events, base_drop_probability))


# ----------------------------------------------------------------------
# Random scenario generation (seeded, hence replayable)
# ----------------------------------------------------------------------
def random_schedule(
    rng: random.Random,
    horizon: float,
    node_names: Sequence[str],
    machine_names: Sequence[str] = (),
    clock_names: Sequence[str] = (),
    crashes: int = 2,
    partitions: int = 2,
    drop_bursts: int = 1,
    slowdowns: int = 1,
    skews: int = 0,
    mean_downtime: float = 0.5,
    max_skew: float = 0.05,
) -> list[NemesisEvent]:
    """Draw a scenario from a seeded RNG stream.

    Target choices iterate sorted name lists, so the draw depends only
    on the seed and the deployment shape — the same seed always yields
    the same scenario, under either interpreter.
    """
    events: list[NemesisEvent] = []
    node_names = sorted(node_names)
    machine_names = sorted(machine_names)
    clock_names = sorted(clock_names)
    for __ in range(crashes):
        if not node_names:
            break
        events.append(
            CrashNode(
                rng.choice(node_names),
                rng.uniform(0.0, horizon),
                rng.uniform(0.5, 1.5) * mean_downtime,
            )
        )
    for __ in range(partitions):
        if len(machine_names) < 2:
            break
        a, b = rng.sample(machine_names, 2)
        events.append(
            PartitionPair(
                a, b, rng.uniform(0.0, horizon), rng.uniform(0.5, 1.5) * mean_downtime
            )
        )
    for __ in range(drop_bursts):
        events.append(
            DropBurst(
                rng.uniform(0.1, 0.4),
                rng.uniform(0.0, horizon),
                rng.uniform(0.5, 1.5) * mean_downtime,
            )
        )
    for __ in range(slowdowns):
        if not machine_names:
            break
        events.append(
            SlowMachine(
                rng.choice(machine_names),
                rng.uniform(0.0, horizon),
                rng.uniform(0.5, 1.5) * mean_downtime,
                factor=rng.uniform(2.0, 8.0),
            )
        )
    for __ in range(skews):
        if not clock_names:
            break
        events.append(
            SkewClock(
                rng.choice(clock_names),
                rng.uniform(0.0, horizon),
                rng.uniform(0.5, 1.5) * mean_downtime,
                skew=rng.uniform(-max_skew, max_skew),
            )
        )
    return sorted(events, key=lambda e: e.at)
