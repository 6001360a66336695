"""One deployment, two interpreters: the topology both specs share.

A :class:`Topology` is the part of a CooLSM deployment that does not
depend on where it runs (§III, Fig. 8): how many Ingestors, active and
spare; how many partitioned or overlapping Compactors; how many Readers;
and how they are wired — names, roles, peers, backups, sources, the
Compactor partitioning and the epoch-1 shard map.

:class:`~repro.core.cluster.ClusterSpec` adds simulated placement
(regions, machines, injected faults) and
:class:`~repro.live.node.LiveSpec` adds an address map.  Both build
every node through :meth:`Topology.build_node` and every client through
:meth:`Topology.build_client`, so "the same deployment on both
interpreters" is one object, not two that agree by convention.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Any

from repro.effects import ComputeHost, EffectKernel, Fabric
from repro.lsm.errors import InvalidConfigError
from repro.sim.clock import LooseClock

from .client import Client
from .compactor import Compactor
from .config import CooLSMConfig
from .history import History
from .ingestor import Ingestor
from .keyspace import Partitioning
from .reader import Reader
from .shard import ShardMap

#: Node roles in dependency order: an Ingestor forwards to Compactors,
#: which push to Readers.
ROLES = ("ingestor", "compactor", "reader")


@dataclass(slots=True)
class Topology:
    """Which nodes a deployment has and how they are wired.

    Attributes:
        config: Shared CooLSM parameters (the same object on every node).
        num_ingestors: Active Ingestor count (>1 unsharded enables the
            multi-Ingestor protocols and Linearizable+Concurrent
            consistency).
        num_compactors: Compactor count; with ``compactor_replicas > 1``
            consecutive groups of that size overlap on one partition.
        num_readers: Reader (backup) count.
        compactor_replicas: Partition overlap factor (Section III-G).
        ingestors_feed_readers: Section III-D.3 variant — Ingestors push
            their L1 snapshot to the Readers after every minor
            compaction, making Reader state fresher at the cost of
            extra coordination traffic.
        sharded: Range-shard the key space across the Ingestors: each
            key has exactly one owner, clients route by a versioned
            shard map and chase WrongShard redirects, and online splits
            (:func:`repro.live.membership.split_ingestor_shard`) move
            ranges between Ingestors at runtime.  Disables the
            overlapping multi-Ingestor read protocol — sharded fleets
            are Linearizable via single ownership plus epoch fencing.
        spare_ingestors: Extra Ingestors (named after the active ones)
            that own no shards; splits hand them ranges at higher
            epochs.  The live harness does not launch them up front.
        seed: Seeds every per-node random stream (clock skew, retry
            jitter) and, in the sim, the whole schedule.
    """

    config: CooLSMConfig = field(default_factory=CooLSMConfig)
    num_ingestors: int = 1
    num_compactors: int = 1
    num_readers: int = 0
    compactor_replicas: int = 1
    ingestors_feed_readers: bool = False
    sharded: bool = False
    spare_ingestors: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.compactor_replicas < 1:
            raise InvalidConfigError("compactor_replicas must be at least 1")
        if self.num_readers < 0:
            raise InvalidConfigError("num_readers must be non-negative")
        if self.spare_ingestors < 0:
            raise InvalidConfigError("spare_ingestors must be non-negative")
        if self.spare_ingestors and not self.sharded:
            raise InvalidConfigError("spare_ingestors require sharded=True")
        if self.num_ingestors < 1 or self.num_compactors < 1:
            raise InvalidConfigError("need at least one Ingestor and one Compactor")
        if self.num_compactors % self.compactor_replicas != 0:
            raise InvalidConfigError(
                "num_compactors must be a multiple of compactor_replicas"
            )

    def shared_fields(self) -> dict[str, Any]:
        """The fields declared here, as constructor keywords:
        ``ClusterSpec(**live_spec.shared_fields())`` is the sim twin of
        a live deployment."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(Topology)}

    # ------------------------------------------------------------------
    # Names and roles
    # ------------------------------------------------------------------
    @property
    def ingestor_names(self) -> list[str]:
        """The active Ingestors, which own the key space at epoch 1."""
        return [f"ingestor-{i}" for i in range(self.num_ingestors)]

    @property
    def spare_ingestor_names(self) -> list[str]:
        return [
            f"ingestor-{self.num_ingestors + i}" for i in range(self.spare_ingestors)
        ]

    @property
    def compactor_names(self) -> list[str]:
        return [f"compactor-{i}" for i in range(self.num_compactors)]

    @property
    def reader_names(self) -> list[str]:
        return [f"reader-{i}" for i in range(self.num_readers)]

    @property
    def node_names(self) -> list[str]:
        # Spares come LAST so adding them never shifts the node_index
        # (= table-id namespace) of pre-existing nodes.
        return [
            *self.ingestor_names,
            *self.compactor_names,
            *self.reader_names,
            *self.spare_ingestor_names,
        ]

    @property
    def launch_names(self) -> list[str]:
        """Nodes a harness starts up front — everything but the spares,
        which online splits spawn on demand."""
        return [*self.ingestor_names, *self.compactor_names, *self.reader_names]

    def role_of(self, name: str) -> str:
        """One of :data:`ROLES`; raises for a name outside :attr:`node_names`."""
        if name in self.ingestor_names or name in self.spare_ingestor_names:
            return "ingestor"
        if name in self.compactor_names:
            return "compactor"
        if name in self.reader_names:
            return "reader"
        raise InvalidConfigError(f"unknown node name: {name}")

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def multi_ingestor(self) -> bool:
        # Sharded fleets use disjoint ownership and the single-Ingestor
        # read path per key — never the overlapping 2δ protocol.
        return self.num_ingestors > 1 and not self.sharded

    def initial_shard_map(self) -> ShardMap | None:
        """The epoch-1 map every node and client starts from (``None``
        when unsharded): the active Ingestors split the key space
        uniformly; spares own nothing until a split hands them a range
        at a higher epoch."""
        if not self.sharded:
            return None
        return ShardMap.uniform(self.config.key_range, self.ingestor_names)

    def partitioning(self) -> Partitioning:
        """A fresh Compactor partitioning of the key space."""
        return Partitioning.uniform(
            self.config.key_range,
            self.compactor_names,
            replicas=self.compactor_replicas,
        )

    def build_node(
        self,
        name: str,
        kernel: EffectKernel,
        network: Fabric,
        machine: ComputeHost,
        clock: LooseClock | None = None,
        rng: random.Random | None = None,
        *,
        role: str | None = None,
        partitioning: Partitioning | None = None,
    ) -> Ingestor | Compactor | Reader:
        """Construct node ``name``, wired to its peers, backups and sources.

        ``clock`` is the node's loose clock (a Reader keeps none) and
        ``rng`` an Ingestor's retry-jitter stream.  ``role`` defaults to
        :meth:`role_of`; pass it for a node outside the topology, such
        as the Compactor an Expand brings in.  ``partitioning`` defaults
        to a fresh one; the sim passes its cluster-wide object so that a
        reconfiguration's re-cut reaches every node at once.
        """
        role = role or self.role_of(name)
        if role == "reader":
            reader = Reader(kernel, network, machine, name, self.config)
            reader.set_sources(self.compactor_names)
            return reader
        if role == "compactor":
            return Compactor(
                kernel, network, machine, name, self.config, clock,
                backups=self.reader_names,
                multi_ingestor=self.multi_ingestor,
            )
        return Ingestor(
            kernel, network, machine, name, self.config, clock,
            self.partitioning() if partitioning is None else partitioning,
            peers=[n for n in self.ingestor_names if n != name] if self.multi_ingestor else [],
            multi_ingestor=self.multi_ingestor,
            backups=self.reader_names if self.ingestors_feed_readers else (),
            rng=rng,
            shard_map=self.initial_shard_map(),
        )

    def build_client(
        self,
        kernel: EffectKernel,
        network: Fabric,
        machine: ComputeHost,
        name: str,
        *,
        partitioning: Partitioning | None = None,
        ingestors: list[str] | None = None,
        readers: list[str] | None = None,
        history: History | None = None,
    ) -> Client:
        """Construct a client of this deployment.

        It writes through ``ingestors`` (default: the active Ingestors;
        the first is its primary) and reads backups from ``readers``
        (default: every Reader).  ``partitioning`` is as for
        :meth:`build_node`.
        """
        return Client(
            kernel, network, machine, name, self.config,
            self.partitioning() if partitioning is None else partitioning,
            self.ingestor_names if ingestors is None else ingestors,
            self.reader_names if readers is None else readers,
            multi_ingestor=self.multi_ingestor,
            history=history,
            shard_map=self.initial_shard_map(),
        )
