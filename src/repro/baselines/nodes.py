"""Simulated single-machine nodes for the reference engines.

Figure 3 includes LevelDB and RocksDB "to provide a reference point of
existing systems".  We run our own engines — a leveled-compaction tree
(LevelDB-like) and a universal-compaction tree (RocksDB-like) — behind
the same RPC surface and cost model as the monolithic CooLSM baseline,
so the three single-machine systems are directly comparable.
"""

from __future__ import annotations

from repro.core.config import CooLSMConfig
from repro.core.messages import ReadReply, ReadRequest, UpsertReply, UpsertRequest
from repro.lsm.entry import Entry
from repro.lsm.tree import LSMConfig, LSMTree
from repro.sim.clock import LooseClock
from repro.sim.kernel import Kernel
from repro.sim.machine import Machine
from repro.sim.rpc import RpcNode


class _SingleMachineEngineNode(RpcNode):
    """An :class:`~repro.lsm.tree.LSMTree` behind the RPC surface, with
    cost charging; subclasses choose the compaction policy.  The shape
    is LevelDB's (L0 compaction at 4 files, 10x level ratio), and "we
    run both with configuration to persist and sync to disk", so every
    write also pays a modelled WAL fsync, which dominates point-write
    latency."""

    #: Modelled fsync cost per write batch (synchronous WAL).
    WAL_SYNC_COST = 50e-6
    COMPACTION_POLICY: str

    def __init__(self, kernel, network, machine, name, config: CooLSMConfig, clock):
        super().__init__(kernel, network, machine, name)
        self.config = config
        self.clock = clock
        self._seqno = 0
        self.tree = LSMTree(
            LSMConfig(
                memtable_entries=config.memtable_entries,
                sstable_entries=config.sstable_entries,
                level_thresholds=(4, 10, config.l2_threshold, config.l3_threshold),
                compaction_policy=self.COMPACTION_POLICY,
            )
        )
        self.on("upsert", self._handle_upsert)
        self.on("read", self._handle_read)

    def _apply_write(self, entry: Entry) -> float:
        """Apply the write; return the storage compute cost triggered."""
        flushes = self.tree.stats.flushes
        compactions = len(self.tree.stats.compactions)
        self.tree.put_entry(entry)
        cost = self.WAL_SYNC_COST
        if self.tree.stats.flushes > flushes:
            cost += self.config.costs.flush_cost(self.config.memtable_entries)
        for event in self.tree.stats.compactions[compactions:]:
            cost += self.config.costs.merge_cost(event.stats.entries_in)
        return cost

    def _lookup(self, key: bytes) -> tuple[Entry | None, int]:
        """Return (entry, probe_count): one probe per bloom-positive
        table whose range holds the key (at most one table of a disjoint
        level, every run of a stacked one)."""
        entry = self.tree.get_entry(key)
        manifest = self.tree.manifest
        probes = sum(
            1
            for level in range(manifest.num_levels)
            for table in manifest.tables_for_key(level, key)
            if table.bloom.might_contain(key)
        )
        return entry, probes

    def _handle_upsert(self, src: str, request: UpsertRequest):
        yield from self.compute(self.config.costs.upsert_cpu)
        self._seqno += 1
        entry = Entry(
            request.key, self._seqno, self.clock.now(), request.value, request.tombstone
        )
        yield from self.compute(self._apply_write(entry))
        return UpsertReply(entry.timestamp, entry.seqno)

    def _handle_read(self, src: str, request: ReadRequest):
        yield from self.compute(self.config.costs.read_base)
        entry, probes = self._lookup(request.key)
        yield from self.compute(probes * self.config.costs.probe_table)
        return ReadReply(entry, self.name)


class LevelDBLikeNode(_SingleMachineEngineNode):
    """Leveled compaction engine (LevelDB-style) on one machine."""

    COMPACTION_POLICY = "leveling"


class RocksDBLikeNode(_SingleMachineEngineNode):
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
