"""Seeded schedule exploration: interleavings × faults × cluster shapes.

A **schedule** is pure data (:class:`ScheduleSpec`): a cluster shape
drawn from Table I's design space, a tuple of planned client operations
with per-op pacing (the interleaving), and a tuple of nemesis fault
events — all derived deterministically from one integer seed.  Running
a schedule (:func:`run_schedule`) builds a fresh simulated cluster,
drives the operations and faults, then applies the matrix-appropriate
consistency checkers plus the sequential reference model to everything
the clients observed.

Because the whole pipeline — generation, simulation, checking,
reporting — is seeded and wall-clock-free, a failing seed *is* the bug
report: re-running it reproduces the identical history, fault log, and
kernel event schedule, which :func:`repro.verify.shrink.shrink_schedule`
then minimises.

The module also hosts :data:`BUGS`: deliberately injectable protocol
bugs (e.g. disabling the two-phase read's ts_h/ts_c freshness
comparison) used to validate that the harness actually *finds*
consistency violations rather than vacuously passing.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from repro.bench.metrics import ExplorationCounters
from repro.chaos_events import (
    CrashNode,
    DropBurst,
    NemesisEvent,
    PartitionPair,
    SlowMachine,
)
from repro.core import (
    ClusterSpec,
    CooLSMConfig,
    History,
    build_cluster,
    check_linearizable,
    check_linearizable_concurrent,
    check_snapshot_linearizable,
    replace_compactor,
    split_partition,
)
from repro.sim.nemesis import Nemesis
from repro.sim.rpc import RemoteError, RpcTimeout

from .model import (
    ModelReport,
    SequentialModel,
    check_backup_reads,
    check_history_loose_ts,
    check_history_realtime,
)

#: Aggressive level thresholds so a handful of writes travels the whole
#: Ingestor -> Compactor -> Reader pipeline inside one short schedule;
#: tight timeouts so fault handling, not waiting, dominates.
VERIFY_CONFIG = CooLSMConfig(
    key_range=64,
    memtable_entries=4,
    sstable_entries=4,
    l0_threshold=1,
    l1_threshold=1,
    l2_threshold=3,
    l3_threshold=12,
    max_inflight_tables=8,
    delta=0.002,
    gc_slack=2.0,
    ack_timeout=0.25,
    client_timeout=0.5,
    client_retry_budget=4,
)


# ----------------------------------------------------------------------
# Schedule encoding (pure data, hashable, replayable)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ShapeSpec:
    """One cell of the paper's deployment design space.

    ``sharded`` range-shards the key space across the Ingestors (one
    owner per key, clients chase WrongShard redirects) and ``spares``
    adds unlaunched-equivalent Ingestors owning nothing — the live
    scale-out topology, model-checked in the simulator.  The
    ``"shard-split"`` reconfig drives the online split coordinator
    (:func:`repro.live.membership.split_ingestor_shard`) mid-schedule.
    ``fault_focus`` narrows the nemesis: ``"none"`` (fault-free load),
    ``"partition"`` (machine-pair partitions only), or ``"crash"``
    (node crash/recover only) — so a shape *guarantees* its scenario
    (split-under-load, split-during-partition, split-with-crash)
    instead of leaving it to the seed's fault lottery.
    """

    num_ingestors: int = 1
    num_compactors: int = 2
    num_readers: int = 0
    clients: int = 2
    reconfig: str | None = None  # None | "replace" | "split" | "shard-split"
    sharded: bool = False
    spares: int = 0
    fault_focus: str | None = None  # None | "none" | "partition" | "crash"
    #: Compaction policy override for every node (None = the config's
    #: default).  Appended last, defaulted, so the long-standing
    #: positional construction of the main corpus is untouched.
    policy: str | None = None

    @property
    def label(self) -> str:
        tag = f"{self.num_ingestors}i/{self.num_compactors}c/{self.num_readers}r"
        if self.sharded:
            tag += f"/sh{self.spares and f'+{self.spares}' or ''}"
        tag += f"+{self.reconfig}" if self.reconfig else ""
        if self.fault_focus:
            tag += f"!{self.fault_focus}"
        if self.policy:
            tag += f"@{self.policy}"
        return tag

    @property
    def guarantee(self) -> str:
        # Sharded fleets have exactly one owner per key: single-Ingestor
        # linearizability via ownership + epoch fencing, regardless of
        # how many Ingestors share the key space.
        multi = self.num_ingestors > 1 and not self.sharded
        front = "lin+conc" if multi else "linearizable"
        return front + ("+snapshot" if self.num_readers else "")


#: The explored corner of the design space: every Table I cell, plus
#: live reconfiguration variants of the single-Ingestor cell.
SHAPES: tuple[ShapeSpec, ...] = (
    ShapeSpec(1, 2, 0, clients=2),
    ShapeSpec(1, 2, 1, clients=2),
    ShapeSpec(2, 2, 0, clients=2),
    ShapeSpec(2, 2, 1, clients=3),
    ShapeSpec(1, 2, 0, clients=2, reconfig="replace"),
    ShapeSpec(1, 1, 0, clients=2, reconfig="split"),
)

#: Live-cluster shapes: the sharded scale-out topology with an online
#: Ingestor shard split firing mid-schedule.  A separate corpus (not
#: folded into :data:`SHAPES`) so the long-standing seed -> shape
#: mapping of the main corpus — and every fingerprint derived from it —
#: stays stable.
LIVE_SHAPES: tuple[ShapeSpec, ...] = (
    # Split under concurrent load, no faults: the protocol itself.
    ShapeSpec(2, 2, 0, clients=3, sharded=True, spares=1,
              reconfig="shard-split", fault_focus="none"),
    # Split while machine pairs partition and heal underneath.
    ShapeSpec(2, 2, 0, clients=2, sharded=True, spares=1,
              reconfig="shard-split", fault_focus="partition"),
    # Split concurrent with Ingestor crash/recover cycles.
    ShapeSpec(2, 2, 0, clients=2, sharded=True, spares=1,
              reconfig="shard-split", fault_focus="crash"),
)

#: Non-default compaction policies under crash/recover cycles: the
#: schedules that stress table handoff (minor compaction, forward,
#: absorb, Reader install) mid-crash, where a policy whose level shape
#: differs from leveling would corrupt reads if any replace/recover
#: path still assumed disjoint levels.  A separate corpus, like
#: :data:`LIVE_SHAPES`, so the main corpus fingerprints stay stable.
POLICY_SHAPES: tuple[ShapeSpec, ...] = (
    ShapeSpec(1, 2, 0, clients=2, fault_focus="crash", policy="tiering"),
    ShapeSpec(1, 2, 1, clients=2, fault_focus="crash", policy="lazy_leveling"),
    ShapeSpec(1, 2, 0, clients=2, fault_focus="crash", policy="one_leveling"),
)


@dataclass(frozen=True, slots=True)
class PlannedOp:
    """One generated client operation.

    ``tag`` makes the written value unique across the whole schedule
    (the checkers' distinct-writes requirement); ``pace`` is the pause
    before issuing, which is what varies the interleaving.
    """

    index: int
    client: int
    kind: str  # "write" | "read" | "backup_read"
    key: int
    tag: int
    pace: float


@dataclass(frozen=True, slots=True)
class ScheduleSpec:
    """A complete, replayable experiment: shape × ops × faults."""

    seed: int
    shape: ShapeSpec
    ops: tuple[PlannedOp, ...]
    faults: tuple[NemesisEvent, ...]

    def value_of(self, op: PlannedOp) -> bytes:
        return b"s%d-%d" % (self.seed, op.tag)


def _machine_names(shape: ShapeSpec) -> list[str]:
    names = [
        f"m-ingestor-{i}" for i in range(shape.num_ingestors + shape.spares)
    ]
    names += [f"m-compactor-{i}" for i in range(shape.num_compactors)]
    names += [f"m-reader-{i}" for i in range(shape.num_readers)]
    return names


def generate_schedule(
    seed: int,
    ops: int = 40,
    faults: int = 2,
    shapes: tuple[ShapeSpec, ...] = SHAPES,
    key_space: int = 8,
) -> ScheduleSpec:
    """Draw one schedule from ``seed`` (same seed, same schedule).

    Keys are drawn from a small space so writes from different clients
    (and, in multi-Ingestor shapes, different Ingestors) collide often —
    collisions are where ordering bugs live.  Clock-skew faults are
    deliberately excluded: they violate the δ bound on purpose, which
    would make checker failures expected rather than reportable.
    """
    rng = random.Random(seed)
    shape = shapes[rng.randrange(len(shapes))]
    planned: list[PlannedOp] = []
    for index in range(ops):
        client = rng.randrange(shape.clients)
        roll = rng.random()
        if roll < 0.55:
            kind = "write"
        elif shape.num_readers and roll < 0.70:
            kind = "backup_read"
        else:
            kind = "read"
        planned.append(
            PlannedOp(
                index=index,
                client=client,
                kind=kind,
                key=rng.randrange(key_space),
                tag=index,
                pace=rng.uniform(0.002, 0.010),
            )
        )
    horizon = max(0.05, ops * 0.004)
    machines = _machine_names(shape)
    crash_targets = [
        f"ingestor-{i}" for i in range(shape.num_ingestors + shape.spares)
    ]
    crash_targets += [f"reader-{i}" for i in range(shape.num_readers)]
    events: list[NemesisEvent] = []
    if shape.fault_focus == "none":
        pass  # fault-free: the schedule exercises load + reconfig only
    elif shape.fault_focus in ("partition", "crash"):
        # Focused nemesis, timed to overlap the mid-run reconfig window
        # (the reconfig driver starts at 0.4 * horizon).
        for __ in range(faults):
            at = rng.uniform(0.25 * horizon, 0.75 * horizon)
            duration = rng.uniform(0.05, 0.20)
            if shape.fault_focus == "partition" and len(machines) >= 2:
                a, b = rng.sample(machines, 2)
                events.append(PartitionPair(a, b, at, duration))
            else:
                events.append(CrashNode(rng.choice(crash_targets), at, duration))
    else:
        for __ in range(faults):
            family = rng.randrange(4)
            at = rng.uniform(0.01, horizon)
            duration = rng.uniform(0.05, 0.20)
            if family == 0:
                events.append(CrashNode(rng.choice(crash_targets), at, duration))
            elif family == 1 and len(machines) >= 2:
                a, b = rng.sample(machines, 2)
                events.append(PartitionPair(a, b, at, duration))
            elif family == 2:
                events.append(DropBurst(rng.uniform(0.05, 0.30), at, duration))
            else:
                events.append(
                    SlowMachine(rng.choice(machines), at, duration, factor=rng.uniform(2.0, 6.0))
                )
    events.sort(key=lambda e: e.at)
    return ScheduleSpec(seed, shape, tuple(planned), tuple(events))


# ----------------------------------------------------------------------
# Running one schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ExecutedOp:
    """What actually happened to one planned operation."""

    index: int
    client: str
    kind: str
    key: int
    value: bytes | None
    invoked_at: float
    returned_at: float
    outcome: str  # "ok" | "timeout"


@dataclass(slots=True)
class ScheduleOutcome:
    """Everything one schedule run produced."""

    spec: ScheduleSpec
    history: History
    backup_history: History
    executed: list[ExecutedOp]
    violations: list[tuple[str, str]] = field(default_factory=list)
    model_mismatches: int = 0
    counters: ExplorationCounters = field(default_factory=ExplorationCounters)
    events_dispatched: int = 0
    schedule_digest: str = ""
    nemesis_log: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def fingerprint(self) -> str:
        """Digest of everything observable: executed schedule, history,
        fault log.  Byte-identical across replays of the same seed."""
        hasher = hashlib.sha256()
        hasher.update(self.schedule_digest.encode())
        hasher.update(repr(self.nemesis_log).encode())
        for op in self.history:
            hasher.update(
                repr((op.kind, op.key, op.value, op.invoked_at, op.returned_at, op.timestamp)).encode()
            )
        for op in self.backup_history:
            hasher.update(repr((op.kind, op.key, op.value, op.server)).encode())
        return hasher.hexdigest()[:16]


def _client_driver(cluster, strong, analyst, spec, ops, executed):
    """One client's generator: issue its planned ops in order.

    Writes and strong reads retry until acked — retries reuse the same
    value, so an applied-but-unacked attempt can never surface a value
    outside the recorded history.  Backup reads tolerate a dead Reader
    (bounded failure is the contract there).
    """

    def driver():
        for op in ops:
            yield cluster.kernel.timeout(op.pace)
            invoked = cluster.kernel.now
            if op.kind == "write":
                value = spec.value_of(op)
                while True:
                    try:
                        yield from strong.upsert(op.key, value)
                        break
                    except (RpcTimeout, RemoteError):
                        continue
                executed.append(
                    ExecutedOp(op.index, strong.name, "write", op.key, value,
                               invoked, cluster.kernel.now, "ok")
                )
            elif op.kind == "read":
                while True:
                    try:
                        got = yield from strong.read(op.key)
                        break
                    except (RpcTimeout, RemoteError):
                        continue
                executed.append(
                    ExecutedOp(op.index, strong.name, "read", op.key, got,
                               invoked, cluster.kernel.now, "ok")
                )
            else:  # backup_read
                outcome = "ok"
                got = None
                try:
                    got = yield from analyst.read_from_backup(op.key)
                except (RpcTimeout, RemoteError):
                    outcome = "timeout"
                executed.append(
                    ExecutedOp(op.index, analyst.name, "backup_read", op.key, got,
                               invoked, cluster.kernel.now, outcome)
                )

    return driver


def _reconfig_driver(cluster, spec, start_at: float, admin=None):
    """Launch the shape's live reconfiguration mid-run."""

    def driver():
        yield cluster.kernel.timeout(start_at)
        if spec.shape.reconfig == "replace":
            yield from replace_compactor(cluster, "compactor-0", "compactor-0x")
        elif spec.shape.reconfig == "shard-split":
            # Online Ingestor shard split, driven by the *live* runtime's
            # coordinator running under the sim kernel — the exact code
            # the TCP cluster runs, model-checked here against faults.
            from repro.live.membership import split_ingestor_shard

            shape = spec.shape
            new_owner = f"ingestor-{shape.num_ingestors}"
            boundary = max(op.key for op in spec.ops) // 2 + 1
            yield from split_ingestor_shard(
                admin,
                cluster.spec.initial_shard_map(),
                boundary,
                new_owner,
                others=[node.name for node in cluster.ingestors],
                history=cluster.history,
            )
        else:
            # Explicit boundary: the node may not have forwarded data yet
            # by mid-run, and an empty compactor cannot infer a midpoint.
            boundary = max(op.key for op in spec.ops) // 2 + 1
            yield from split_partition(
                cluster, "compactor-0", "compactor-0x", boundary_key=boundary
            )

    return driver


def run_schedule(
    spec: ScheduleSpec, config: CooLSMConfig = VERIFY_CONFIG
) -> ScheduleOutcome:
    """Execute one schedule and check everything it observed."""
    shape = spec.shape
    if shape.policy is not None:
        config = replace(config, compaction_policy=shape.policy)
    cluster = build_cluster(
        ClusterSpec(
            config=config,
            num_ingestors=shape.num_ingestors,
            num_compactors=shape.num_compactors,
            num_readers=shape.num_readers,
            sharded=shape.sharded,
            spare_ingestors=shape.spares,
            seed=spec.seed,
        )
    )
    kernel = cluster.kernel
    digest = hashlib.sha256()
    dispatched = 0

    def schedule_hook(time: float) -> None:
        nonlocal dispatched
        dispatched += 1
        digest.update(repr(time).encode())

    kernel.add_schedule_hook(schedule_hook)

    backup_history = History()
    strongs = []
    analysts = []
    for c in range(shape.clients):
        primary = f"ingestor-{c % shape.num_ingestors}"
        order = [
            f"ingestor-{(c + k) % shape.num_ingestors}"
            for k in range(shape.num_ingestors)
        ]
        strongs.append(cluster.add_client(colocate_with=primary, ingestors=order))
        if shape.num_readers:
            analyst = cluster.add_client(colocate_with=primary, ingestors=order,
                                         record_history=False)
            analyst.history = backup_history
            analysts.append(analyst)
        else:
            analysts.append(None)

    executed: list[ExecutedOp] = []
    drivers = []
    for c in range(shape.clients):
        ops = [op for op in spec.ops if op.client == c]
        if not ops:
            continue
        drivers.append(
            kernel.spawn(
                _client_driver(cluster, strongs[c], analysts[c], spec, ops, executed)(),
                f"verify.client-{c}",
            )
        )

    nemesis = Nemesis.for_cluster(cluster)
    fault_processes = nemesis.schedule(spec.faults)

    waits = list(drivers) + list(fault_processes)
    if shape.reconfig:
        horizon = max(0.05, len(spec.ops) * 0.004)
        admin = None
        if shape.reconfig == "shard-split":
            admin = cluster.add_client(
                colocate_with="ingestor-0", record_history=False
            )
        waits.append(
            kernel.spawn(
                _reconfig_driver(cluster, spec, 0.4 * horizon, admin)(),
                "verify.reconfig",
            )
        )

    def barrier():
        yield kernel.all_of(waits)

    cluster.run_process(barrier())
    cluster.run()  # drain forwards, compactions, backup updates

    # Final read-back: after quiescence every touched key is read once
    # through the strong path and recorded in the history — the checkers
    # then prove no acked write was lost.
    touched = sorted({op.key for op in spec.ops})

    def read_back():
        for key in touched:
            while True:
                try:
                    yield from strongs[0].read(key)
                    break
                except (RpcTimeout, RemoteError):
                    continue

    cluster.run_process(read_back())
    cluster.run()
    kernel.remove_schedule_hook(schedule_hook)

    outcome = ScheduleOutcome(
        spec=spec,
        history=cluster.history,
        backup_history=backup_history,
        executed=sorted(executed, key=lambda e: (e.invoked_at, e.index)),
        events_dispatched=dispatched,
        schedule_digest=digest.hexdigest()[:16],
        nemesis_log=nemesis.log.fingerprint(),
    )
    outcome.counters.schedules = 1
    outcome.counters.operations = len(spec.ops)
    outcome.counters.faults = len(spec.faults)
    outcome.counters.reconfigs = 1 if shape.reconfig else 0
    _check_outcome(outcome, config, cluster.spec.multi_ingestor)
    return outcome


def _check_outcome(
    outcome: ScheduleOutcome, config: CooLSMConfig, multi_ingestor: bool
) -> None:
    """Apply the matrix-appropriate checkers plus the reference model."""
    spec = outcome.spec
    counters = outcome.counters

    def record(name: str, violations: Iterable) -> None:
        counters.checker_calls += 1
        for violation in violations:
            outcome.violations.append((name, f"{violation.rule}: {violation.detail}"))
            counters.violations += 1

    def record_model(name: str, report: ModelReport) -> None:
        counters.checker_calls += 1
        for mismatch in report.mismatches:
            outcome.violations.append((name, f"{mismatch.rule}: {mismatch.detail}"))
            counters.violations += 1
            counters.model_mismatches += 1
            outcome.model_mismatches += 1

    if multi_ingestor:
        record(
            "lin+conc",
            check_linearizable_concurrent(outcome.history, config.delta).violations,
        )
        record_model("model:loose-ts", check_history_loose_ts(outcome.history, config.delta))
    else:
        # Single Ingestor — or a sharded fleet, where single ownership
        # per key plus epoch fencing restores plain linearizability.
        record("linearizable", check_linearizable(outcome.history).violations)
        record_model("model:realtime", check_history_realtime(outcome.history))
    if spec.shape.num_readers:
        record(
            "snapshot",
            check_snapshot_linearizable(outcome.history, outcome.backup_history).violations,
        )
        record_model(
            "model:backup",
            check_backup_reads(outcome.history, outcome.backup_history),
        )
    if outcome.violations:
        counters.failing_schedules = 1


# ----------------------------------------------------------------------
# Differential sequential traces (cluster vs monolith vs model)
# ----------------------------------------------------------------------
def differential_run(
    seed: int,
    ops: int = 120,
    key_space: int = 16,
    config: CooLSMConfig = VERIFY_CONFIG,
    read_cache_capacity: int | None = None,
    compaction_policy: str | None = None,
) -> dict[str, object]:
    """Drive the identical sequential trace against the CooLSM cluster,
    the monolithic baseline, and the in-memory model.

    Sequential execution makes every read's legal result unique (the
    last written value), so all three implementations must agree
    *exactly* — any divergence is a bug in one of them.  Returns the
    two recorded result sequences and the mismatch list (empty = agree).
    """
    rng = random.Random(seed)
    trace: list[tuple[str, int, bytes | None]] = []
    counter = 0
    for __ in range(ops):
        key = rng.randrange(key_space)
        roll = rng.random()
        if roll < 0.5:
            counter += 1
            trace.append(("write", key, b"d%d-%d" % (seed, counter)))
        elif roll < 0.6:
            trace.append(("delete", key, None))
        else:
            trace.append(("read", key, None))

    if read_cache_capacity is not None:
        config = replace(config, read_cache_capacity=read_cache_capacity)
    if compaction_policy is not None:
        config = replace(config, compaction_policy=compaction_policy)

    def run_deployment(spec: ClusterSpec) -> list[bytes | None]:
        cluster = build_cluster(spec)
        client = cluster.add_client(
            colocate_with="mono-0" if spec.monolithic else "ingestor-0"
        )
        results: list[bytes | None] = []

        def driver():
            for kind, key, value in trace:
                if kind == "write":
                    yield from client.upsert(key, value)
                elif kind == "delete":
                    yield from client.delete(key)
                else:
                    results.append((yield from client.read(key)))

        cluster.run_process(driver())
        cluster.run()
        return results

    cluster_results = run_deployment(
        ClusterSpec(config=config, num_ingestors=1, num_compactors=2, seed=seed)
    )
    mono_results = run_deployment(ClusterSpec(config=config, monolithic=True, seed=seed))

    model = SequentialModel()
    model_results: list[bytes | None] = []
    for kind, key, value in trace:
        if kind == "write":
            model.write(key, value)
        elif kind == "delete":
            model.delete(key)
        else:
            model_results.append(model.read(key))

    mismatches: list[str] = []
    for index, (expect, got_cluster, got_mono) in enumerate(
        zip(model_results, cluster_results, mono_results)
    ):
        if got_cluster != expect:
            mismatches.append(
                f"read #{index}: cluster returned {got_cluster!r}, model says {expect!r}"
            )
        if got_mono != expect:
            mismatches.append(
                f"read #{index}: monolith returned {got_mono!r}, model says {expect!r}"
            )
    return {
        "trace_ops": len(trace),
        "reads": len(model_results),
        "cluster": cluster_results,
        "monolith": mono_results,
        "model": model_results,
        "mismatches": mismatches,
    }


# ----------------------------------------------------------------------
# Injectable protocol bugs (harness self-validation)
# ----------------------------------------------------------------------
#: name -> description of the deliberately broken invariant.
BUGS: dict[str, str] = {
    "trust-phase1": (
        "disable the two-phase read's ts_h/ts_c freshness comparison: the "
        "client trusts any phase-1 result and skips phase 2, so a newer "
        "version already forwarded to the Compactors is missed"
    ),
}


@contextmanager
def inject_bug(name: str | None):
    """Context manager that applies (and always reverts) a named bug."""
    if name is None:
        yield
        return
    if name not in BUGS:
        raise ValueError(f"unknown bug {name!r}; known: {', '.join(sorted(BUGS))}")
    import repro.core.client as client_module

    original = client_module.definitely_after
    client_module.definitely_after = lambda late, early, delta: True
    try:
        yield
    finally:
        client_module.definitely_after = original


# ----------------------------------------------------------------------
# The explorer: a seeded corpus of schedules
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ScheduleSummary:
    """One line of the exploration report."""

    index: int
    seed: int
    shape: str
    guarantee: str
    ops: int
    faults: int
    violations: int
    fingerprint: str


@dataclass(slots=True)
class ExplorationReport:
    """Deterministic, renderable outcome of one exploration run."""

    seed: int
    counters: ExplorationCounters
    summaries: list[ScheduleSummary]
    failing_seeds: list[int]

    @property
    def ok(self) -> bool:
        return not self.failing_seeds

    def render(self) -> str:
        """Byte-deterministic text report (no wall-clock anywhere)."""
        lines = [
            "# CooLSM verify report",
            f"seed: {self.seed}",
            f"status: {'PASS' if self.ok else 'FAIL'}",
        ]
        for name, value in sorted(self.counters.as_dict().items()):
            lines.append(f"{name}: {value}")
        if self.failing_seeds:
            lines.append("failing seeds: " + ", ".join(str(s) for s in self.failing_seeds))
        lines.append("")
        lines.append("index  seed        shape           guarantee        ops  faults  bad  fingerprint")
        for s in self.summaries:
            lines.append(
                f"{s.index:5d}  {s.seed:<10d}  {s.shape:<14s}  {s.guarantee:<15s}"
                f"  {s.ops:3d}  {s.faults:6d}  {s.violations:3d}  {s.fingerprint}"
            )
        return "\n".join(lines) + "\n"


#: Spacing between derived sub-seeds (any large odd constant works; the
#: value only needs to be stable forever for replayability).
SEED_STRIDE = 100_003


class Explorer:
    """Run a corpus of schedules derived from one root seed."""

    def __init__(
        self,
        seed: int,
        ops_per_schedule: int = 40,
        faults_per_schedule: int = 2,
        shapes: tuple[ShapeSpec, ...] = SHAPES,
        config: CooLSMConfig = VERIFY_CONFIG,
        on_outcome: Callable[[ScheduleOutcome], None] | None = None,
    ) -> None:
        self.seed = seed
        self.ops_per_schedule = ops_per_schedule
        self.faults_per_schedule = faults_per_schedule
        self.shapes = shapes
        self.config = config
        self.on_outcome = on_outcome

    def sub_seed(self, index: int) -> int:
        return self.seed * SEED_STRIDE + index

    def schedule_for(self, index: int) -> ScheduleSpec:
        return generate_schedule(
            self.sub_seed(index),
            ops=self.ops_per_schedule,
            faults=self.faults_per_schedule,
            shapes=self.shapes,
        )

    def explore(self, schedules: int) -> ExplorationReport:
        counters = ExplorationCounters()
        summaries: list[ScheduleSummary] = []
        failing: list[int] = []
        for index in range(schedules):
            spec = self.schedule_for(index)
            outcome = run_schedule(spec, self.config)
            counters.merge(outcome.counters)
            summaries.append(
                ScheduleSummary(
                    index=index,
                    seed=spec.seed,
                    shape=spec.shape.label,
                    guarantee=spec.shape.guarantee,
                    ops=len(spec.ops),
                    faults=len(spec.faults),
                    violations=len(outcome.violations),
                    fingerprint=outcome.fingerprint(),
                )
            )
            if outcome.violations:
                failing.append(spec.seed)
            if self.on_outcome is not None:
                self.on_outcome(outcome)
        return ExplorationReport(self.seed, counters, summaries, failing)
