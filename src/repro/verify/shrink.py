"""Delta debugging for failing schedules.

A schedule that violates a Table I guarantee typically contains dozens
of operations and several faults, most of them irrelevant.  This module
minimises the counterexample: :func:`ddmin` (Zeller's delta debugging)
over the operation tuple, then over the fault tuple, then a final
one-at-a-time pass until no single element can be removed — a
*locally minimal* failing schedule.  Because schedule execution is
deterministic, the predicate ("does this subset still fail?") is a pure
function and the shrink needs no retries.

:func:`render_timeline` pretty-prints the shrunk schedule as a
step-by-step timeline interleaving client operations, nemesis fault
actions, and reconfiguration phase marks, with the violations at the
end — the human-readable bug report a failing seed turns into.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence, TypeVar

from .explorer import ScheduleOutcome, ScheduleSpec, run_schedule

T = TypeVar("T")


class ShrinkBudgetExceeded(RuntimeError):
    """The shrink ran out of its schedule-execution budget."""


@dataclass(slots=True)
class ShrinkResult:
    """Outcome of minimising one failing schedule."""

    original: ScheduleSpec
    shrunk: ScheduleSpec
    runs: int
    outcome: ScheduleOutcome

    @property
    def removed_ops(self) -> int:
        return len(self.original.ops) - len(self.shrunk.ops)


def ddmin(
    items: Sequence[T],
    still_fails: Callable[[list[T]], bool],
) -> list[T]:
    """Classic ddmin: minimise ``items`` such that ``still_fails`` holds.

    Assumes ``still_fails(list(items))`` is True on entry.  Returns a
    subset (in original order) on which the predicate still holds and
    from which no chunk of the final granularity can be removed.
    """
    items = list(items)
    granularity = 2
    while len(items) >= 2:
        chunk = max(1, len(items) // granularity)
        reduced = False
        start = 0
        while start < len(items):
            candidate = items[:start] + items[start + chunk:]
            if candidate and still_fails(candidate):
                items = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                # re-scan from the beginning of the shrunk list
                start = 0
                continue
            start += chunk
        if not reduced:
            if granularity >= len(items):
                break
            granularity = min(len(items), granularity * 2)
    return items


def _one_at_a_time(
    items: Sequence[T], still_fails: Callable[[list[T]], bool]
) -> list[T]:
    """Final polish: drop single elements until a fixpoint."""
    items = list(items)
    changed = True
    while changed:
        changed = False
        for index in range(len(items)):
            candidate = items[:index] + items[index + 1:]
            if still_fails(candidate):
                items = candidate
                changed = True
                break
    return items


def shrink_schedule(
    spec: ScheduleSpec,
    fails: Callable[[ScheduleSpec], bool] | None = None,
    budget: int = 600,
) -> ShrinkResult:
    """Minimise a failing schedule to a locally-minimal counterexample.

    Args:
        spec: A schedule for which ``fails(spec)`` is True.
        fails: Failure predicate; defaults to "running the schedule
            reports at least one violation".
        budget: Maximum schedule executions the shrink may spend;
            exceeding it raises :class:`ShrinkBudgetExceeded`.
    """
    runs = 0

    def default_fails(candidate: ScheduleSpec) -> bool:
        return bool(run_schedule(candidate).violations)

    predicate = fails or default_fails

    def spend(candidate: ScheduleSpec) -> bool:
        nonlocal runs
        runs += 1
        if runs > budget:
            raise ShrinkBudgetExceeded(f"shrink exceeded {budget} schedule runs")
        return predicate(candidate)

    if not spend(spec):
        raise ValueError("shrink_schedule requires a failing schedule")

    def ops_fail(ops) -> bool:
        return spend(replace(spec, ops=tuple(ops)))

    ops = ddmin(spec.ops, ops_fail)
    spec_ops = replace(spec, ops=tuple(ops))

    def faults_fail(faults) -> bool:
        return spend(replace(spec_ops, faults=tuple(faults)))

    faults = spec_ops.faults
    if faults and faults_fail([]):
        faults = ()
    elif len(faults) >= 2:
        faults = tuple(ddmin(faults, faults_fail))
    spec_faults = replace(spec_ops, faults=tuple(faults))

    # Local-minimality polish across both dimensions.
    ops = _one_at_a_time(
        spec_faults.ops, lambda o: spend(replace(spec_faults, ops=tuple(o)))
    )
    final = replace(spec_faults, ops=tuple(ops))
    if final.faults:
        faults = _one_at_a_time(
            final.faults, lambda f: spend(replace(final, faults=tuple(f)))
        )
        final = replace(final, faults=tuple(faults))

    return ShrinkResult(
        original=spec, shrunk=final, runs=runs, outcome=run_schedule(final)
    )


# ----------------------------------------------------------------------
# Timeline rendering
# ----------------------------------------------------------------------
@dataclass(slots=True)
class _Step:
    time: float
    actor: str
    action: str
    order: int = 0


def render_timeline(outcome: ScheduleOutcome) -> str:
    """A step-by-step, human-readable account of one schedule run."""
    spec = outcome.spec
    steps: list[_Step] = []
    for op in outcome.executed:
        if op.kind == "write":
            action = f"write k{op.key} = {op.value.decode()}"
        else:
            shown = op.value.decode() if isinstance(op.value, bytes) else op.value
            verb = "backup-read" if op.kind == "backup_read" else "read"
            action = f"{verb} k{op.key} -> {shown}"
            if op.outcome != "ok":
                action += f" [{op.outcome}]"
        steps.append(_Step(op.invoked_at, op.client, action, order=1))
    for record in outcome.nemesis_log:
        time, action, target = record
        steps.append(_Step(time, "nemesis", f"{action} {target}", order=0))
    for mark in outcome.history.marks:
        steps.append(_Step(mark.time, "reconfig", f"{mark.label} ({mark.detail})", order=0))
    steps.sort(key=lambda s: (s.time, s.order))

    lines = [
        f"# Counterexample timeline — seed={spec.seed} shape={spec.shape.label} "
        f"guarantee={spec.shape.guarantee}",
        f"ops={len(spec.ops)} faults={len(spec.faults)} "
        f"violations={len(outcome.violations)}",
        "",
        "step   time      actor        action",
    ]
    for number, step in enumerate(steps, start=1):
        lines.append(
            f"{number:4d}   {step.time:8.4f}  {step.actor:<11s}  {step.action}"
        )
    if outcome.violations:
        lines.append("")
        lines.append("violations:")
        for checker, detail in outcome.violations:
            lines.append(f"  [{checker}] {detail}")
    return "\n".join(lines) + "\n"
