"""Process entrypoints for the live runtime.

A :class:`LiveSpec` is the live twin of
:class:`~repro.core.cluster.ClusterSpec`: the same
:class:`~repro.core.topology.Topology` plus an address map assigning
every node name (and every driver-side client name) a ``host:port``.  Specs load from TOML (stdlib ``tomllib``) or
JSON, so a cluster is described once in a file and every process —
``repro.cli serve`` per node, plus the test/bench driver — builds its
piece from the same description.

Node names, roles and wiring come from the topology, so a spec names
and builds the same cluster under either backend.

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

from repro.core.config import CooLSMConfig
from repro.core.topology import Topology
from repro.lsm.errors import InvalidConfigError
from repro.lsm.policy import normalize_policy_name
from repro.lsm.sstable import seed_table_ids
from repro.store.node_store import NodeStore
from repro.sim.clock import LooseClock
from repro.sim.rng import RngRegistry

from .runtime import AsyncioKernel, LiveMachine, LiveNetwork
from .transport import RetryPolicy

logger = logging.getLogger("repro.live.node")

#: Exit code for a drain that timed out with work still in flight.
EXIT_DRAIN_TIMEOUT = 3


@dataclass(slots=True)
class LiveSpec(Topology):
    """A :class:`~repro.core.topology.Topology` deployed as processes.

    Attributes (beyond the topology's):
        addresses: Node name -> (host, port).  Must cover every node and
            every driver-side client name the run will use (all client
            names may share the driver's one address).
        drain_timeout: Seconds a node waits at shutdown for in-flight
            work to drain before giving up with exit code 3.
        data_dir: Base directory for durable node storage; each node
            opens (or recovers) ``<data_dir>/<name>``.  None keeps
            every node purely in memory.
    """

    addresses: dict[str, tuple[str, int]] = field(default_factory=dict)
    drain_timeout: float = 30.0
    data_dir: str | None = None

    def node_index(self, name: str) -> int:
        """Global index of a node — the table-id namespace (0 is the
        driver process's)."""
        return self.node_names.index(name) + 1

    def address(self, name: str) -> tuple[str, int]:
        try:
            return self.addresses[name]
        except KeyError:
            raise InvalidConfigError(f"no address for node: {name}") from None

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


def _reject_unknown(raw: dict[str, Any], cls: type, where: str) -> None:
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise InvalidConfigError(f"unknown {where}key(s): {', '.join(unknown)}")


def spec_from_dict(raw: dict[str, Any]) -> LiveSpec:
    """Build a :class:`LiveSpec` from a decoded TOML/JSON document."""
    raw = dict(raw)
    config_raw = dict(raw.pop("config", {}))
    scale_factor = config_raw.pop("scaled_down", None)
    _reject_unknown(raw, LiveSpec, "spec ")
    _reject_unknown(config_raw, CooLSMConfig, "[config] ")
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
    out = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    out["config"] = {
        f.name: getattr(spec.config, f.name)
        for f in dataclasses.fields(spec.config)
        if f.name != "costs"
    }
    out["addresses"] = {
        name: f"{host}:{port}" for name, (host, port) in spec.addresses.items()
    }
    return out


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
        role = spec.role_of(name)
        self.spec = spec
        self.name = name
        self.kernel = AsyncioKernel()
        rngs = RngRegistry(spec.seed)
        self.network = LiveNetwork(
            self.kernel,
            spec.addresses,
            policy=spec.retry_policy(),
            rng=rngs.stream(f"transport.{name}"),
        )
        self.machine = LiveMachine(self.kernel, f"m-{name}")
        self.node = spec.build_node(
            name,
            self.kernel,
            self.network,
            self.machine,
            clock=LooseClock(self.kernel, spec.config.delta, rngs.stream(f"clock.{name}")),
            rng=rngs.stream(f"backoff.{name}"),
        )
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
                role=role,
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
        """Units of unacknowledged work that must drain before exit:
        the role's ``"inflight"`` health gauge (none for a Reader)."""
        return self.node.health_gauges().get("inflight", 0)

    async def drain(self, timeout: float) -> bool:
        """Wait until in-flight work reaches zero; True iff drained."""
        deadline = self.kernel.now + timeout
        while self.inflight() > 0:
            if self.kernel.now >= deadline:
                return False
            await asyncio.sleep(0.05)
        return True


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
    # table ids stay unique across the whole deployment (they name store
    # files and key the Reader's seen-removals set).  Tests that wire
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
