"""Process entrypoints for the live runtime.

A :class:`LiveSpec` is the live analogue of
:class:`~repro.core.cluster.ClusterSpec`: the same topology knobs plus
an address map assigning every node name (and every driver-side client
name) a ``host:port``.  Specs load from TOML (stdlib ``tomllib``) or
JSON, so a cluster is described once in a file and every process —
``repro.cli serve`` per node, plus the test/bench driver — builds its
piece from the same description.

Node names follow the simulator's conventions exactly
(``ingestor-0``, ``compactor-1``, ``reader-0``, ``client-1`` ...), so a
spec names the same cluster under either backend.

:func:`serve` runs one node until SIGTERM/SIGINT, then **drains**
before exiting: an Ingestor holds every forwarded sstable until the
owning Compactor acks it, so shutdown waits for ``inflight_tables`` to
reach zero (and a Compactor for its pending ingest batches to finish)
rather than dropping acked data on the floor.  Exit status 0 means
drained; 3 means the drain deadline expired with work still in flight.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import logging
import signal
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.client import Client
from repro.core.compactor import Compactor
from repro.core.config import CooLSMConfig
from repro.core.history import History
from repro.core.ingestor import Ingestor
from repro.core.keyspace import Partitioning
from repro.core.reader import Reader
from repro.lsm.errors import InvalidConfigError
from repro.lsm.policy import normalize_policy_name
from repro.lsm.sstable import seed_table_ids
from repro.store.node_store import NodeStore
from repro.sim.clock import LooseClock
from repro.sim.rng import RngRegistry

from .runtime import AsyncioKernel, LiveMachine, LiveNetwork
from .transport import OVERFLOW_POLICIES, RetryPolicy

logger = logging.getLogger("repro.live.node")

#: Exit code for a drain that timed out with work still in flight.
EXIT_DRAIN_TIMEOUT = 3


@dataclass(slots=True)
class LiveSpec:
    """A live deployment: topology + shared config + address map.

    Attributes:
        config: Shared CooLSM parameters (same object on every node).
        num_ingestors / num_compactors / num_readers: Topology, with
            the simulator's naming conventions.
        compactor_replicas: Partition overlap factor (Section III-C).
        ingestors_feed_readers: Section III-D.3 freshness variant.
        addresses: Node name -> (host, port).  Must cover every node and
            every driver-side client name the run will use (all client
            names may share the driver's one address).
        seed: Seeds per-node RNG streams (clock skew, retry jitter).
        drain_timeout: Seconds a node waits at shutdown for in-flight
            work to drain before giving up with exit code 3.
        data_dir: Base directory for durable node storage; each node
            opens (or recovers) ``<data_dir>/<name>``.  None keeps
            every node purely in memory (the pre-durability behavior).
        transport_max_queued: Per-peer outbound frame queue bound.
        transport_overflow: What a full queue does to the sender:
            ``"drop"`` (count + shed) or ``"raise"``
            (:class:`~repro.live.transport.BackpressureError`).
        transport_compress_min_bytes: Payloads at least this large are
            zlib-compressed on the wire (``FLAG_ZLIB``) when smaller —
            for WAN-shaped links carrying forwarded sstables.  0
            (default) sends everything uncompressed.
    """

    config: CooLSMConfig = field(default_factory=CooLSMConfig)
    num_ingestors: int = 1
    num_compactors: int = 1
    num_readers: int = 0
    compactor_replicas: int = 1
    ingestors_feed_readers: bool = False
    #: Range-shard the key space across the Ingestors (each key has
    #: exactly one owner; clients route by shard map and refresh on
    #: WrongShard redirects).  Mutually exclusive in spirit with the
    #: overlapping multi-Ingestor protocol: sharded deployments use the
    #: single-Ingestor read path per key.
    sharded: bool = False
    #: Extra Ingestor processes named after the active ones
    #: (``ingestor-<num_ingestors>`` ...) that get addresses but own no
    #: shards and are NOT launched at cluster start — online splits
    #: spawn them (``LocalCluster.add_node``) and hand them ownership.
    spare_ingestors: int = 0
    addresses: dict[str, tuple[str, int]] = field(default_factory=dict)
    seed: int = 0
    drain_timeout: float = 30.0
    data_dir: str | None = None
    transport_max_queued: int = 10_000
    transport_overflow: str = "drop"
    transport_compress_min_bytes: int = 0

    def role_of(self, name: str) -> str:
        if name in self.ingestor_names or name in self.spare_ingestor_names:
            return "ingestor"
        if name in self.compactor_names:
            return "compactor"
        return "reader"

    def __post_init__(self) -> None:
        if self.num_ingestors < 1 or self.num_compactors < 1:
            raise InvalidConfigError("need at least one Ingestor and one Compactor")
        if self.spare_ingestors < 0:
            raise InvalidConfigError("spare_ingestors must be non-negative")
        if self.spare_ingestors and not self.sharded:
            raise InvalidConfigError("spare_ingestors require sharded=True")
        if self.num_compactors % self.compactor_replicas != 0:
            raise InvalidConfigError(
                "num_compactors must be a multiple of compactor_replicas"
            )
        if self.transport_overflow not in OVERFLOW_POLICIES:
            raise InvalidConfigError(
                f"transport_overflow must be one of {OVERFLOW_POLICIES}, "
                f"got {self.transport_overflow!r}"
            )
        if self.transport_compress_min_bytes < 0:
            raise InvalidConfigError(
                "transport_compress_min_bytes must be non-negative"
            )

    # ------------------------------------------------------------------
    # Naming (mirrors core.cluster.build_cluster)
    # ------------------------------------------------------------------
    @property
    def ingestor_names(self) -> list[str]:
        return [f"ingestor-{i}" for i in range(self.num_ingestors)]

    @property
    def compactor_names(self) -> list[str]:
        return [f"compactor-{i}" for i in range(self.num_compactors)]

    @property
    def spare_ingestor_names(self) -> list[str]:
        return [
            f"ingestor-{self.num_ingestors + i}" for i in range(self.spare_ingestors)
        ]

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
        spares = set(self.spare_ingestor_names)
        return [name for name in self.node_names if name not in spares]

    @property
    def multi_ingestor(self) -> bool:
        # Sharded fleets use disjoint ownership and the single-Ingestor
        # read path per key — never the overlapping 2δ protocol.
        return self.num_ingestors > 1 and not self.sharded

    def initial_shard_map(self):
        """The epoch-1 map every node and client starts from (``None``
        when unsharded).  Spares own nothing until a split hands them a
        range at a higher epoch."""
        if not self.sharded:
            return None
        from repro.core.shard import ShardMap

        return ShardMap.uniform(self.config.key_range, self.ingestor_names)

    def node_index(self, name: str) -> int:
        """Global index of a node — the table-id namespace (0 is the
        driver process's)."""
        return self.node_names.index(name) + 1

    def address(self, name: str) -> tuple[str, int]:
        try:
            return self.addresses[name]
        except KeyError:
            raise InvalidConfigError(f"no address for node: {name}") from None

    def partitioning(self) -> Partitioning:
        return Partitioning.uniform(
            self.config.key_range,
            self.compactor_names,
            replicas=self.compactor_replicas,
        )

    def retry_policy(self) -> RetryPolicy:
        """Transport reconnect backoff, from the forward-retry knobs."""
        return RetryPolicy(
            base=self.config.forward_backoff_base,
            cap=self.config.forward_backoff_cap,
        )


def _parse_address(value: Any) -> tuple[str, int]:
    if isinstance(value, str):
        host, sep, port = value.rpartition(":")
        if not sep or not host:
            raise InvalidConfigError(f"address must be host:port, got {value!r}")
        return host, int(port)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return str(value[0]), int(value[1])
    raise InvalidConfigError(f"unparseable address: {value!r}")


def spec_from_dict(raw: dict[str, Any]) -> LiveSpec:
    """Build a :class:`LiveSpec` from a decoded TOML/JSON document."""
    raw = dict(raw)
    config_raw = dict(raw.pop("config", {}))
    scale_factor = config_raw.pop("scaled_down", None)
    config = CooLSMConfig(**config_raw)
    if scale_factor:
        config = config.scaled_down(int(scale_factor))
    addresses = {
        name: _parse_address(value)
        for name, value in dict(raw.pop("addresses", {})).items()
    }
    return LiveSpec(config=config, addresses=addresses, **raw)


def spec_to_dict(spec: LiveSpec) -> dict[str, Any]:
    """The JSON/TOML-ready inverse of :func:`spec_from_dict`.

    The compute cost model is not serialised (every process uses the
    default); everything else round-trips.
    """
    config = {
        f.name: getattr(spec.config, f.name)
        for f in dataclasses.fields(spec.config)
        if f.name != "costs"
    }
    return {
        "config": config,
        "num_ingestors": spec.num_ingestors,
        "num_compactors": spec.num_compactors,
        "num_readers": spec.num_readers,
        "compactor_replicas": spec.compactor_replicas,
        "ingestors_feed_readers": spec.ingestors_feed_readers,
        "sharded": spec.sharded,
        "spare_ingestors": spec.spare_ingestors,
        "seed": spec.seed,
        "drain_timeout": spec.drain_timeout,
        "data_dir": spec.data_dir,
        "transport_max_queued": spec.transport_max_queued,
        "transport_overflow": spec.transport_overflow,
        "transport_compress_min_bytes": spec.transport_compress_min_bytes,
        "addresses": {
            name: f"{host}:{port}" for name, (host, port) in spec.addresses.items()
        },
    }


def load_spec(path: str | Path) -> LiveSpec:
    """Load a spec from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    data = path.read_bytes()
    if path.suffix == ".json":
        return spec_from_dict(json.loads(data))
    return spec_from_dict(tomllib.loads(data.decode()))


class LiveNode:
    """One node wired onto the live runtime: kernel, network, node.

    Create inside a running event loop; ``listen`` binds the node's
    address; the node then serves until :meth:`shutdown`.
    """

    def __init__(
        self, spec: LiveSpec, name: str, data_dir: str | Path | None = None
    ) -> None:
        if name not in spec.node_names:
            raise InvalidConfigError(f"unknown node name: {name}")
        self.spec = spec
        self.name = name
        self.kernel = AsyncioKernel()
        self.network = LiveNetwork(
            self.kernel,
            spec.addresses,
            policy=spec.retry_policy(),
            rng=RngRegistry(spec.seed).stream(f"transport.{name}"),
            max_queued=spec.transport_max_queued,
            overflow=spec.transport_overflow,
            compress_min_bytes=spec.transport_compress_min_bytes,
        )
        self.machine = LiveMachine(self.kernel, f"m-{name}")
        self.node = _build_node(spec, name, self.kernel, self.network, self.machine)
        # Durable storage: open-or-recover this node's slice of the
        # data dir (CLI flag wins over the spec's), then hand the store
        # to the node, which restores any recovered state.
        self.store: NodeStore | None = None
        self.recovered = False
        base = data_dir if data_dir is not None else spec.data_dir
        if base is not None:
            store = NodeStore.open(
                str(Path(base) / name),
                node_name=name,
                role=spec.role_of(name),
                policy=normalize_policy_name(spec.config.compaction_policy),
            )
            self.recovered = store.recovered is not None
            self.node.attach_store(store)
            self.store = store

    async def listen(self) -> None:
        host, port = self.spec.address(self.name)
        await self.network.listen(host, port)

    async def close(self) -> None:
        await self.network.close()
        if self.store is not None:
            self.store.close()

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def inflight(self) -> int:
        """Units of unacknowledged work that must drain before exit."""
        node = self.node
        if isinstance(node, Ingestor):
            return node.inflight_tables
        if isinstance(node, Compactor):
            return len(node._pending_batches)
        return 0

    async def drain(self, timeout: float) -> bool:
        """Wait until in-flight work reaches zero; True iff drained."""
        deadline = self.kernel.now + timeout
        while self.inflight() > 0:
            if self.kernel.now >= deadline:
                return False
            await asyncio.sleep(0.05)
        return True


def _build_node(
    spec: LiveSpec,
    name: str,
    kernel: AsyncioKernel,
    network: LiveNetwork,
    machine: LiveMachine,
):
    config = spec.config
    rngs = RngRegistry(spec.seed)
    clock = LooseClock(kernel, config.delta, rngs.stream(f"clock.{name}"))
    if spec.role_of(name) == "ingestor":
        return Ingestor(
            kernel,
            network,
            machine,
            name,
            config,
            clock,
            spec.partitioning(),
            peers=(
                [n for n in spec.ingestor_names if n != name]
                if spec.multi_ingestor
                else []
            ),
            multi_ingestor=spec.multi_ingestor,
            backups=spec.reader_names if spec.ingestors_feed_readers else (),
            rng=rngs.stream(f"backoff.{name}"),
            shard_map=spec.initial_shard_map(),
        )
    if name in spec.compactor_names:
        return Compactor(
            kernel,
            network,
            machine,
            name,
            config,
            clock,
            backups=spec.reader_names,
            multi_ingestor=spec.multi_ingestor,
        )
    reader = Reader(kernel, network, machine, name, config)
    reader.set_sources(spec.compactor_names)
    return reader


def build_driver_client(
    spec: LiveSpec,
    kernel: AsyncioKernel,
    network: LiveNetwork,
    machine: LiveMachine,
    name: str,
    history: History | None = None,
    ingestors: list[str] | None = None,
    readers: list[str] | None = None,
) -> Client:
    """Wire a real client (driver-process side) against a live cluster."""
    return Client(
        kernel,
        network,
        machine,
        name,
        spec.config,
        spec.partitioning(),
        ingestors if ingestors is not None else spec.ingestor_names,
        readers if readers is not None else spec.reader_names,
        multi_ingestor=spec.multi_ingestor,
        history=history,
        shard_map=spec.initial_shard_map(),
    )


async def serve(
    spec: LiveSpec, name: str, data_dir: str | Path | None = None
) -> int:
    """Run one node until SIGTERM/SIGINT, drain, and return exit status.

    Prints ``RECOVERED <name> ...`` when durable state was restored
    from the data dir, then ``READY <name> <host>:<port>`` once the
    node is accepting connections (the harness's readiness probe), and
    ``DRAINED`` / ``DRAIN-TIMEOUT inflight=N`` on the way out.
    """
    # One node per process: give its sstables a disjoint id range so
    # table ids stay unique across the whole deployment (they key read
    # caches and the Reader's seen-removals set).  Tests that wire
    # several LiveNodes into one process must NOT re-seed per node —
    # the shared in-process counter is already unique there.
    seed_table_ids(spec.node_index(name))
    live = LiveNode(spec, name, data_dir=data_dir)
    await live.listen()
    host, port = spec.address(name)
    if live.recovered:
        recovered = live.store.recovered
        print(
            f"RECOVERED {name} version={recovered.version} "
            f"tables={len(recovered.tables)} "
            f"wal_entries={len(recovered.wal_entries)}",
            flush=True,
        )
    print(f"READY {name} {host}:{port}", flush=True)
    logger.info("%s serving on %s:%d", name, host, port)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    try:
        await stop.wait()
        logger.info("%s shutting down; draining %d in-flight", name, live.inflight())
        drained = await live.drain(spec.drain_timeout)
    finally:
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.remove_signal_handler(signum)
        await live.close()
    if drained:
        print(f"DRAINED {name} inflight=0", flush=True)
        return 0
    print(f"DRAIN-TIMEOUT {name} inflight={live.inflight()}", flush=True)
    return EXIT_DRAIN_TIMEOUT


def serve_main(
    spec_path: str | Path, name: str, data_dir: str | Path | None = None
) -> int:
    """Synchronous entrypoint for ``repro.cli serve``."""
    return asyncio.run(serve(load_spec(spec_path), name, data_dir=data_dir))
