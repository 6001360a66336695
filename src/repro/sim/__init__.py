"""Deterministic discrete-event simulation substrate.

Replaces the paper's AWS testbed: machines with bounded cores
(:mod:`repro.sim.machine`), a wide-area network with paper-calibrated
RTTs and TCP-like ordered delivery (:mod:`repro.sim.network`,
:mod:`repro.sim.regions`), request/response RPC (:mod:`repro.sim.rpc`),
and loosely synchronised clocks (:mod:`repro.sim.clock`), all driven by
a generator-coroutine event kernel (:mod:`repro.sim.kernel`).
"""

from repro.chaos_events import (
    CrashNode,
    DropBurst,
    NemesisLog,
    NemesisRecord,
    PartitionPair,
    SkewClock,
    SlowMachine,
    flapping_partition,
    rolling_partitions,
)

from .clock import LooseClock, concurrent, definitely_after
from .kernel import AllOf, AnyOf, Event, Interrupted, Kernel, Process, SimError, Timeout
from .machine import DEFAULT_CORES, Machine
from .nemesis import Nemesis
from .network import FaultPlan, Network, NetworkStats
from .regions import (
    CLOUD_REGION,
    EDGE_REGIONS,
    INTRA_DC_RTT,
    LOOPBACK_RTT,
    LatencyModel,
    Region,
    one_way,
    rtt,
)
from .resources import Resource, Store
from .rng import RngRegistry
from .rpc import RemoteError, RpcNode, RpcTimeout

__all__ = [
    "AllOf",
    "AnyOf",
    "CLOUD_REGION",
    "CrashNode",
    "DEFAULT_CORES",
    "DropBurst",
    "EDGE_REGIONS",
    "Event",
    "FaultPlan",
    "INTRA_DC_RTT",
    "Interrupted",
    "Kernel",
    "LOOPBACK_RTT",
    "LatencyModel",
    "LooseClock",
    "Machine",
    "Nemesis",
    "NemesisLog",
    "NemesisRecord",
    "Network",
    "NetworkStats",
    "PartitionPair",
    "Process",
    "Region",
    "RemoteError",
    "Resource",
    "RngRegistry",
    "RpcNode",
    "RpcTimeout",
    "SimError",
    "SkewClock",
    "SlowMachine",
    "Store",
    "Timeout",
    "concurrent",
    "definitely_after",
    "flapping_partition",
    "one_way",
    "rolling_partitions",
    "rtt",
]
