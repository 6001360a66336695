"""Simulated single-machine nodes for the reference engines.

Figure 3 includes LevelDB and RocksDB "to provide a reference point of
existing systems".  We run our own engines — a leveled-compaction tree
(LevelDB-like) and a universal-compaction tree (RocksDB-like) — behind
the same RPC surface and cost model as the monolithic CooLSM baseline,
so the three single-machine systems are directly comparable.
"""

from __future__ import annotations

from repro.core.config import CooLSMConfig
from repro.core.monolithic import MonolithicNode
from repro.sim.clock import LooseClock
from repro.sim.kernel import Kernel
from repro.sim.machine import Machine


class _ReferenceEngineNode(MonolithicNode):
    """The monolithic node in LevelDB's shape (L0 compaction at 4 files,
    10x level ratio); subclasses choose the compaction policy.  "We run
    both with configuration to persist and sync to disk", so every write
    also pays a modelled WAL fsync, which dominates point-write latency."""

    WAL_SYNC_COST = 50e-6

    @staticmethod
    def level_thresholds(config: CooLSMConfig) -> tuple[int, ...]:
        return (4, 10, config.l2_threshold, config.l3_threshold)


class LevelDBLikeNode(_ReferenceEngineNode):
    """Leveled compaction engine (LevelDB-style) on one machine."""

    COMPACTION_POLICY = "leveling"


class RocksDBLikeNode(_ReferenceEngineNode):
    """Universal (size-tiered) compaction engine (RocksDB-style) on one
    machine: runs stack at every level and a full level merges into one
    run below."""

    COMPACTION_POLICY = "tiering"


def build_baseline_node(kind: str, config: CooLSMConfig, seed: int = 0):
    """Build a one-machine deployment of a reference engine.

    Returns ``(kernel, node, client_machine_factory)`` pieces packaged
    as a small namespace the bench harness drives like a Cluster.
    """
    from repro.sim.network import Network as _Network
    from repro.sim.regions import CLOUD_REGION
    from repro.sim.rng import RngRegistry

    kernel = Kernel()
    rngs = RngRegistry(seed)
    network = _Network(kernel, rngs)
    machine = Machine(kernel, "m-baseline", CLOUD_REGION)
    clock = LooseClock(kernel, config.delta, rngs.stream("clock.baseline"))
    classes = {"leveldb": LevelDBLikeNode, "rocksdb": RocksDBLikeNode}
    node = classes[kind](kernel, network, machine, f"{kind}-0", config, clock)
    return kernel, network, machine, node
