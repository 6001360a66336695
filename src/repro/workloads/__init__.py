"""Workload generators for the evaluation: write-only and mixed
key-value workloads (Section IV) and the smart city traffic benchmark
(Section IV-E)."""

from .distributions import Hotspot, KeyPicker, Sequential, Uniform, Zipfian, make_picker
from .generators import (
    READ_BATCH,
    WRITE_BATCH,
    WorkloadSpec,
    mixed,
    preload,
    run_workload,
    write_only,
)
from .smart_traffic import (
    CityModel,
    TaskResult,
    analytics_queries,
    populate_city,
    real_time_action,
    update_and_explore,
)
from .trace import Trace, TraceOp, replay as replay_trace
from .ycsb import WORKLOADS as YCSB_WORKLOADS, YCSBResult

__all__ = [
    "CityModel",
    "Hotspot",
    "KeyPicker",
    "READ_BATCH",
    "Sequential",
    "TaskResult",
    "Trace",
    "TraceOp",
    "Uniform",
    "WRITE_BATCH",
    "WorkloadSpec",
    "YCSBResult",
    "YCSB_WORKLOADS",
    "Zipfian",
    "analytics_queries",
    "make_picker",
    "mixed",
    "populate_city",
    "preload",
    "real_time_action",
    "replay_trace",
    "run_workload",
    "update_and_explore",
    "write_only",
]
