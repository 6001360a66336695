"""Deterministic model checking for the Table I guarantees.

This package turns the consistency checkers of
:mod:`repro.core.consistency` into a *search* tool over the simulated
cluster:

* :mod:`repro.verify.model` — a sequential reference model (an
  in-memory oracle keyed map with loose-timestamp semantics) that
  replays a recorded :class:`~repro.core.history.History` and predicts
  the set of legal results for every read, cross-checked against both
  the CooLSM cluster and the monolithic baseline on identical traces;
* :mod:`repro.verify.explorer` — seeded random search over operation
  interleavings × nemesis fault schedules × cluster shapes, running
  the matrix-appropriate checker on every generated history, with
  replay-exact seeds;
* :mod:`repro.verify.shrink` — delta debugging that minimises a
  failing (ops, faults) schedule to a locally-minimal counterexample
  and pretty-prints it as a step-by-step timeline.

Entry point: ``python -m repro.cli verify --seed S``.
"""

from .explorer import (
    BUGS,
    LIVE_SHAPES,
    POLICY_SHAPES,
    SHAPES,
    VERIFY_CONFIG,
    ExplorationReport,
    Explorer,
    PlannedOp,
    ScheduleOutcome,
    ScheduleSpec,
    ShapeSpec,
    differential_run,
    generate_schedule,
    inject_bug,
    run_schedule,
)
from .model import (
    ModelMismatch,
    ModelReport,
    SequentialModel,
    check_backup_reads,
    check_history_loose_ts,
    check_history_realtime,
)
from .shrink import ShrinkResult, ddmin, render_timeline, shrink_schedule

__all__ = [
    "BUGS",
    "ExplorationReport",
    "LIVE_SHAPES",
    "Explorer",
    "ModelMismatch",
    "ModelReport",
    "POLICY_SHAPES",
    "PlannedOp",
    "SHAPES",
    "ScheduleOutcome",
    "ScheduleSpec",
    "SequentialModel",
    "ShapeSpec",
    "ShrinkResult",
    "VERIFY_CONFIG",
    "check_backup_reads",
    "check_history_loose_ts",
    "check_history_realtime",
    "ddmin",
    "differential_run",
    "generate_schedule",
    "inject_bug",
    "render_timeline",
    "run_schedule",
    "shrink_schedule",
]
