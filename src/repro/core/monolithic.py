"""The monolithic baseline: one machine, one whole LSM tree.

Figure 3 compares CooLSM against "running CooLSM as a monolithic
system.  In this case, an Ingestor and a Compactor are colocated on the
same machine and connected in a monolithic design so that network
overhead is not incurred."  This node wraps a complete
:class:`~repro.lsm.tree.LSMTree` (all four levels) behind the same RPC
surface as a CooLSM deployment; every flush and compaction the tree
performs is charged as compute on the node's single machine, so
compaction work directly delays the writes that trigger it and competes
for cores with concurrent reads — the interference CooLSM's
deconstruction removes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.effects import ComputeHost, EffectKernel, Fabric
from repro.lsm.entry import Entry
from repro.lsm.tree import LSMConfig, LSMTree
from repro.sim.clock import LooseClock
from repro.sim.rpc import RpcNode

from .config import CooLSMConfig
from .messages import (
    RangeQuery,
    RangeQueryReply,
    ReadReply,
    ReadRequest,
    UpsertReply,
    UpsertRequest,
)


@dataclass(slots=True)
class MonolithicStats:
    """Counters for the harness."""

    upserts: int = 0
    reads: int = 0


class MonolithicNode(RpcNode):
    """A single-machine LSM store exposing the CooLSM client protocol.

    The reference engines of :mod:`repro.baselines.nodes` are this node
    with the three class-level constants below overridden.
    """

    #: Modelled synchronous-WAL fsync charged to every write.
    WAL_SYNC_COST = 0.0
    #: Tree compaction policy; None = ``config.compaction_policy``.
    COMPACTION_POLICY: str | None = None

    @staticmethod
    def level_thresholds(config: CooLSMConfig) -> tuple[int, ...]:
        return (config.l0_threshold, config.l1_threshold, config.l2_threshold, config.l3_threshold)

    def __init__(
        self,
        kernel: EffectKernel,
        network: Fabric,
        machine: ComputeHost,
        name: str,
        config: CooLSMConfig,
        clock: LooseClock,
    ) -> None:
        super().__init__(kernel, network, machine, name)
        self.config = config
        self.clock = clock
        self.stats = MonolithicStats()
        self.tree = LSMTree(
            LSMConfig(
                memtable_entries=config.memtable_entries,
                sstable_entries=config.sstable_entries,
                level_thresholds=self.level_thresholds(config),
                cache_capacity=config.read_cache_capacity,
                compaction_policy=self.COMPACTION_POLICY or config.compaction_policy,
            ),
        )
        self._seqno = 0
        self.on("upsert", self._handle_upsert)
        self.on("read", self._handle_read)
        self.on("range_query", self._handle_range_query)

    def _handle_upsert(self, src: str, request: UpsertRequest):
        costs = self.config.costs
        yield from self.compute(costs.upsert_cpu)
        self._seqno += 1
        entry = Entry(
            request.key, self._seqno, self.clock.now(), request.value, request.tombstone
        )
        flushes_before = self.tree.stats.flushes
        compactions_before = len(self.tree.stats.compactions)
        self.tree.put_entry(entry)
        self.stats.upserts += 1
        # Charge the storage work this write triggered: a flush and any
        # cascade of compactions all run on this one machine, so the
        # triggering request pays for them in full.
        cost = self.WAL_SYNC_COST
        if self.tree.stats.flushes > flushes_before:
            cost += costs.flush_cost(self.config.memtable_entries)
        for event in self.tree.stats.compactions[compactions_before:]:
            cost += costs.merge_cost(event.stats.entries_in)
        if cost:
            yield from self.compute(cost)
        return UpsertReply(entry.timestamp, entry.seqno)

    def _handle_read(self, src: str, request: ReadRequest):
        costs = self.config.costs
        self.stats.reads += 1
        yield from self.compute(costs.read_base)
        entry, probes = self.tree.lookup(request.key)
        yield from self.compute(probes * costs.probe_table)
        return ReadReply(entry, self.name)

    def _handle_range_query(self, src: str, request: RangeQuery):
        costs = self.config.costs
        yield from self.compute(costs.read_base)
        pairs = tuple(self.tree.scan(request.lo, request.hi, request.limit))
        yield from self.compute(len(pairs) * costs.scan_per_entry)
        return RangeQueryReply(pairs)
