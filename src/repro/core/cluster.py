"""Deployment builder: assemble any CooLSM topology from a spec.

A :class:`ClusterSpec` describes one cell of the paper's design space —
a :class:`~repro.core.topology.Topology` (how many Ingestors, how many
partitioned or overlapping Compactors, how many Readers) plus where
each node runs — and :func:`build_cluster` wires the simulated
machines, network, clocks, and nodes.  The resulting :class:`Cluster`
spawns clients and runs the simulation.

Placement conventions follow the paper: Compactors and Readers live in
the cloud region (Virginia by default); Ingestors live at edge regions;
clients are placed next to whatever they drive.  Each node gets a
machine of its own (``m-<name>``) unless the spec's ``placement`` puts
it on a named one; nodes sharing a machine share its cores and talk
over loopback.  The paper's monolithic baseline is such a placement:
:data:`MONOLITH` puts one Ingestor and one Compactor on one machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.lsm.errors import InvalidConfigError
from repro.sim.clock import LooseClock
from repro.sim.kernel import Kernel
from repro.sim.machine import DEFAULT_CORES, Machine
from repro.sim.network import FaultPlan, Network
from repro.sim.regions import CLOUD_REGION, LatencyModel, Region
from repro.sim.rng import RngRegistry

from .client import Client
from .compactor import Compactor
from .history import History
from .ingestor import Ingestor
from .keyspace import Partitioning
from .reader import Reader
from .topology import Topology


@dataclass(slots=True)
class ClusterSpec(Topology):
    """A :class:`~repro.core.topology.Topology` placed on simulated machines.

    Attributes (beyond the topology's):
        cloud_region: Where Compactors and Readers are placed.
        ingestor_regions: Region per Ingestor (cycled if shorter);
            defaults to the cloud region.
        reader_regions: Region per Reader; defaults to the cloud region.
        placement: Node name -> machine name, for nodes that share a
            machine (Figure 5's colocated Ingestors, the
            :data:`MONOLITH`); a node not named here runs on its own
            machine ``m-<name>``.  A shared machine is placed where the
            first node built on it would be.
        drop_probability: Network fault injection.
        tolerated_failures: f > 0 replicates each Compactor's operation
            log to 2f replicas (Section III-H); Ingestor acks then wait
            for a replication majority, and heartbeat-driven Paxos
            elections promote a replica when the leader fails.
    """

    cloud_region: Region = CLOUD_REGION
    ingestor_regions: tuple[Region, ...] | None = None
    reader_regions: tuple[Region, ...] | None = None
    placement: Mapping[str, str] = field(default_factory=dict)
    drop_probability: float = 0.0
    tolerated_failures: int = 0

    def __post_init__(self) -> None:
        Topology.__post_init__(self)
        unknown = sorted(set(self.placement) - set(self.node_names))
        if unknown:
            raise InvalidConfigError(f"placement names unknown nodes: {unknown}")

    def machine_name(self, node_name: str) -> str:
        """The machine ``node_name`` runs on."""
        return self.placement.get(node_name, f"m-{node_name}")


#: The paper's monolithic baseline (Fig. 3): "an Ingestor and a
#: Compactor ... colocated on the same machine and connected in a
#: monolithic design so that network overhead is not incurred".  A
#: ``ClusterSpec`` placement for the default one-Ingestor,
#: one-Compactor topology.
MONOLITH = MappingProxyType({"ingestor-0": "m-monolith", "compactor-0": "m-monolith"})


class Cluster:
    """A wired deployment: machines, nodes, clocks, shared history."""

    def __init__(self, spec: ClusterSpec) -> None:
        self.spec = spec
        self.config = spec.config
        self.kernel = Kernel()
        self.rngs = RngRegistry(spec.seed)
        self.network = Network(
            self.kernel,
            self.rngs,
            LatencyModel(),
            FaultPlan(drop_probability=spec.drop_probability),
        )
        self.history = History()
        self.machines: dict[str, Machine] = {}
        self.clocks: dict[str, LooseClock] = {}
        self.ingestors: list[Ingestor] = []
        self.compactors: list[Compactor] = []
        self.readers: list[Reader] = []
        self.clients: list[Client] = []
        self.partitioning: Partitioning | None = None
        self.replica_groups: list = []
        self._client_seq = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def machine(self, name: str, region: Region, cores: int = DEFAULT_CORES, speed: float = 1.0) -> Machine:
        """Create (or fetch) a named machine."""
        if name not in self.machines:
            self.machines[name] = Machine(self.kernel, name, region, cores, speed)
        return self.machines[name]

    def clock_for(self, node_name: str) -> LooseClock:
        clock = LooseClock(
            self.kernel, self.config.delta, self.rngs.stream(f"clock.{node_name}")
        )
        self.clocks[node_name] = clock
        return clock

    def build_node(self, name: str, machine: Machine, role: str | None = None):
        """Wire node ``name`` of the spec onto ``machine`` (see
        :meth:`Topology.build_node`), with its seeded clock and streams."""
        role = role or self.spec.role_of(name)
        return self.spec.build_node(
            name,
            self.kernel,
            self.network,
            machine,
            clock=None if role == "reader" else self.clock_for(name),
            rng=self.rngs.stream(f"backoff.{name}"),
            role=role,
            partitioning=self.partitioning,
        )

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------
    def add_client(
        self,
        region: Region | None = None,
        colocate_with: str | None = None,
        ingestors: list[str] | None = None,
        readers: list[str] | None = None,
        record_history: bool = True,
    ) -> Client:
        """Create a client.

        Args:
            region: Place the client on its own machine in this region.
            colocate_with: Instead, place it on the named node's machine
                (e.g. next to "its" Ingestor, as in the paper's write
                experiments).
            ingestors: Ingestor names it may use (default: the active
                ones; the first entry is its primary).
            readers: Reader names it may use (default: all).
            record_history: Append its operations to the shared history.
        """
        self._client_seq += 1
        name = f"client-{self._client_seq}"
        if colocate_with is not None:
            machine = self.network.machine_of(colocate_with)
        else:
            machine = self.machine(
                f"m-{name}", region if region is not None else self.spec.cloud_region
            )
        client = self.spec.build_client(
            self.kernel,
            self.network,
            machine,
            name,
            partitioning=self.partitioning,
            ingestors=ingestors,
            readers=readers,
            history=self.history if record_history else None,
        )
        self.clients.append(client)
        return client

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Run the simulation (to quiescence or ``until``)."""
        return self.kernel.run(until)

    def run_process(self, generator, name: str = "driver"):
        """Spawn a driver process and run until it completes."""
        return self.kernel.run_process(generator, name)

    def total_entries(self) -> int:
        """Entries across all node levels (excluding memtables)."""
        nodes = [*self.ingestors, *self.compactors, *self.readers]
        return sum(node.manifest.total_entries() for node in nodes)


def build_cluster(spec: ClusterSpec) -> Cluster:
    """Build and wire a deployment from a spec."""
    cluster = Cluster(spec)
    cluster.partitioning = spec.partitioning()

    reader_regions = spec.reader_regions or (spec.cloud_region,)
    for index, name in enumerate(spec.reader_names):
        machine = cluster.machine(
            spec.machine_name(name), reader_regions[index % len(reader_regions)]
        )
        cluster.readers.append(cluster.build_node(name, machine))

    for name in spec.compactor_names:
        machine = cluster.machine(spec.machine_name(name), spec.cloud_region)
        if spec.tolerated_failures > 0:
            from repro.replication.replica import ReplicatedCompactor

            replica_names = [
                f"{name}-replica-{r}" for r in range(2 * spec.tolerated_failures)
            ]
            node = ReplicatedCompactor(
                cluster.kernel,
                cluster.network,
                machine,
                name,
                spec.config,
                cluster.clock_for(name),
                replicas=replica_names,
                tolerated_failures=spec.tolerated_failures,
                backups=spec.reader_names,
                multi_ingestor=spec.multi_ingestor,
            )
        else:
            node = cluster.build_node(name, machine)
        cluster.compactors.append(node)

    ingestor_regions = spec.ingestor_regions or (spec.cloud_region,)
    for index, name in enumerate(spec.ingestor_names + spec.spare_ingestor_names):
        machine = cluster.machine(
            spec.machine_name(name), ingestor_regions[index % len(ingestor_regions)]
        )
        cluster.ingestors.append(cluster.build_node(name, machine))
    if spec.tolerated_failures > 0:
        from repro.replication.failover import build_replica_groups

        build_replica_groups(cluster, spec.tolerated_failures)
    return cluster
