"""Drive a real localhost cluster from tests and benchmarks.

Two halves:

* :class:`LocalCluster` — subprocess lifecycle.  Writes the spec to a
  JSON file, launches one ``repro.cli serve`` process per node, probes
  readiness by connecting to each node's port, and shuts the fleet
  down with SIGTERM so every node runs its drain path (exit status 0
  == drained cleanly).
* :class:`ClientPool` — the driver side.  One :class:`AsyncioKernel` +
  :class:`LiveNetwork` listening on the driver's port, with any number
  of :class:`~repro.core.client.Client` instances registered on it (all
  client names share the one address).  Clients record into a shared
  :class:`~repro.core.history.History`, so the simulator's consistency
  checkers run unchanged over real-socket histories.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.core.history import History
from repro.core.topology import ROLES

from .chaos import DRIVER_MACHINE, links_to_dict, machine_of, plan_links, proxied_spec
from .node import LiveSpec, spec_to_dict
from .runtime import AsyncioKernel, LiveMachine, LiveNetwork

#: Default number of driver-side client names a localhost spec reserves.
DRIVER_CLIENTS = 8


def free_port() -> int:
    """An OS-assigned free TCP port (best-effort; raceable but fine for
    localhost tests)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def localhost_spec(
    num_ingestors: int = 1,
    num_compactors: int = 1,
    num_readers: int = 0,
    num_clients: int = DRIVER_CLIENTS,
    **spec_kwargs,
) -> LiveSpec:
    """A spec with every node on 127.0.0.1 at a fresh free port.

    All ``client-1 .. client-N`` names map to one driver port — replies
    addressed to any client route back to the single driver process.
    """
    spec = LiveSpec(
        num_ingestors=num_ingestors,
        num_compactors=num_compactors,
        num_readers=num_readers,
        **spec_kwargs,
    )
    addresses = {name: ("127.0.0.1", free_port()) for name in spec.node_names}
    driver = ("127.0.0.1", free_port())
    for index in range(1, num_clients + 1):
        addresses[f"client-{index}"] = driver
    spec.addresses = addresses
    return spec


def stop_waves(spec: LiveSpec, names) -> list[list[str]]:
    """``names`` grouped into SIGTERM waves by their role in ``spec``:
    Ingestors, then Compactors, then Readers (empty waves dropped).

    An Ingestor's drain holds every forwarded sstable until the owning
    Compactor acks it, and a Compactor's drain may still push backup
    updates to Readers — so each wave must finish draining before its
    downstream dependencies are told to exit.  A simultaneous SIGTERM
    deadlocks under fault schedules: a Compactor with no pending work
    exits immediately while the Ingestor still retries an unacked
    forward against it forever.
    """
    waves = [[name for name in names if spec.role_of(name) == role] for role in ROLES]
    return [wave for wave in waves if wave]


class LocalCluster:
    """Run every node of a spec as a local ``repro.cli serve`` process.

    With ``data_dir`` set, every node gets durable storage under
    ``<data_dir>/<node>`` and the nemesis vocabulary grows real-process
    teeth: :meth:`kill9` SIGKILLs a node (no drain, no goodbye) and
    :meth:`restart` brings it back from its data dir.

    With ``chaos`` set, a :class:`~repro.live.chaos.ChaosProxy` process
    is interposed on every inter-machine link: each node launches from
    its own spec file whose address map dials peers through that node's
    outbound proxy links, and :attr:`driver_spec` is the equivalent
    view for the driver process (hand it to :class:`ClientPool`).  The
    proxy's control socket is at :attr:`control_address`.
    """

    def __init__(
        self,
        spec: LiveSpec,
        work_dir: str | Path,
        data_dir: str | Path | None = None,
        chaos: bool = False,
        chaos_seed: int = 0,
    ) -> None:
        self.spec = spec
        self.work_dir = Path(work_dir)
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.chaos = chaos
        self.chaos_seed = chaos_seed
        self.spec_path = self.work_dir / "cluster.json"
        self.processes: dict[str, subprocess.Popen] = {}
        self.exit_codes: dict[str, int] = {}
        self.links = None
        self.control_address: tuple[str, int] | None = None
        self.proxy_process: subprocess.Popen | None = None
        #: The address map the driver should use (proxied under chaos).
        self.driver_spec: LiveSpec = spec
        self._log_offsets: dict[str, int] = {}

    def log_path(self, name: str) -> Path:
        return self.work_dir / f"{name}.log"

    def _spec_path_for(self, name: str) -> Path:
        if self.chaos:
            return self.work_dir / f"cluster-{name}.json"
        return self.spec_path

    def _env(self) -> dict[str, str]:
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def _launch(self, name: str) -> None:
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--spec",
            str(self._spec_path_for(name)),
            "--node",
            name,
        ]
        if self.data_dir is not None:
            command += ["--data-dir", str(self.data_dir)]
        # Append mode: a restarted node's log keeps its first life's
        # READY/RECOVERED lines, which the crash tests assert on.  The
        # readiness probe therefore remembers where this life's output
        # starts, so a stale READY line can never satisfy it.
        log_path = self.log_path(name)
        self._log_offsets[name] = (
            log_path.stat().st_size if log_path.exists() else 0
        )
        log = open(log_path, "a")
        self.processes[name] = subprocess.Popen(
            command, stdout=log, stderr=subprocess.STDOUT, env=self._env()
        )
        log.close()

    def _start_proxy(self, timeout: float = 30.0) -> None:
        self.links = plan_links(self.spec)
        self.control_address = ("127.0.0.1", free_port())
        links_path = self.work_dir / "links.json"
        links_path.write_text(
            json.dumps(
                links_to_dict(self.links, self.control_address, self.chaos_seed),
                indent=2,
            )
        )
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "chaos-proxy",
            "--links",
            str(links_path),
        ]
        log = open(self.log_path("chaos-proxy"), "a")
        self.proxy_process = subprocess.Popen(
            command, stdout=log, stderr=subprocess.STDOUT, env=self._env()
        )
        log.close()
        deadline = time.monotonic() + timeout
        while True:
            code = self.proxy_process.poll()
            if code is not None:
                raise RuntimeError(
                    f"chaos proxy exited with {code} before becoming ready; "
                    f"log: {self.log_path('chaos-proxy')}"
                )
            try:
                with socket.create_connection(self.control_address, timeout=0.25):
                    return
            except OSError:
                if time.monotonic() > deadline:
                    raise TimeoutError("chaos proxy not ready by deadline")
                time.sleep(0.05)

    def _stop_proxy(self) -> None:
        process, self.proxy_process = self.proxy_process, None
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()

    def start(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        if self.data_dir is not None:
            self.data_dir.mkdir(parents=True, exist_ok=True)
        self.spec_path.write_text(json.dumps(spec_to_dict(self.spec), indent=2))
        if self.chaos:
            self._start_proxy()
            for name in self.spec.node_names:
                view = proxied_spec(self.spec, self.links, machine_of(name))
                self._spec_path_for(name).write_text(
                    json.dumps(spec_to_dict(view), indent=2)
                )
            self.driver_spec = proxied_spec(self.spec, self.links, DRIVER_MACHINE)
        # Spares (sharded mode) get addresses and spec files but no
        # process yet: an online split brings them up via add_node.
        for name in self.spec.launch_names:
            self._launch(name)

    def _ready_logged(self, name: str) -> bool:
        """Did *this* life of the node print its READY line?  Reads
        only past the offset recorded at launch, so the previous life's
        READY (kept by append-mode logs) cannot race a restart."""
        path = self.log_path(name)
        if not path.exists():
            return False
        with open(path, "rb") as log:
            log.seek(self._log_offsets.get(name, 0))
            tail = log.read().decode(errors="replace")
        return any(line.startswith("READY ") for line in tail.splitlines())

    def _wait_node_ready(self, name: str, deadline: float) -> None:
        host, port = self.spec.address(name)
        while True:
            process = self.processes[name]
            code = process.poll()
            if code is not None:
                raise RuntimeError(
                    f"{name} exited with {code} before becoming ready; "
                    f"log: {self.log_path(name)}"
                )
            if self._ready_logged(name):
                try:
                    with socket.create_connection((host, port), timeout=0.25):
                        return
                except OSError:
                    pass
            if time.monotonic() > deadline:
                raise TimeoutError(f"{name} not ready by deadline")
            time.sleep(0.05)

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until every launched node's port accepts connections."""
        deadline = time.monotonic() + timeout
        for name in list(self.processes):
            self._wait_node_ready(name, deadline)

    def add_node(self, name: str, timeout: float = 30.0) -> None:
        """Launch a node the cluster did not start up front — a spare
        shard Ingestor an online split is about to hand ownership — and
        wait until it accepts connections."""
        if name not in self.spec.node_names:
            raise RuntimeError(f"unknown node name: {name}")
        process = self.processes.get(name)
        if process is not None and process.poll() is None:
            raise RuntimeError(f"{name} is already running")
        self._launch(name)
        self._wait_node_ready(name, time.monotonic() + timeout)

    # ------------------------------------------------------------------
    # Crash nemesis (real processes)
    # ------------------------------------------------------------------
    def kill9(self, name: str) -> None:
        """SIGKILL one node: no drain, no flush, no signal handler —
        the hard-crash the durability layer exists for."""
        process = self.processes[name]
        if process.poll() is None:
            process.send_signal(signal.SIGKILL)
        process.wait()

    def restart(self, name: str, timeout: float = 30.0) -> None:
        """Relaunch a dead node (recovering from its data dir when the
        cluster has one) and wait until it accepts connections."""
        process = self.processes.get(name)
        if process is not None and process.poll() is None:
            raise RuntimeError(f"{name} is still running; kill it first")
        self._launch(name)
        self._wait_node_ready(name, time.monotonic() + timeout)

    def stop(self, timeout: float = 30.0) -> dict[str, int]:
        """Drain and stop every node, in dependency order.

        Nodes are SIGTERMed in :func:`stop_waves`; each wave's drain
        completes before the next wave is signalled, so upstream nodes
        can flush in-flight work to still-running downstream peers.  A
        node that fails to drain within ``timeout`` is SIGKILLed (exit
        -9).
        """
        for wave in stop_waves(self.spec, self.processes):
            for name in wave:
                process = self.processes[name]
                if process.poll() is None:
                    process.send_signal(signal.SIGTERM)
            for name in wave:
                process = self.processes[name]
                try:
                    self.exit_codes[name] = process.wait(timeout=timeout)
                except subprocess.TimeoutExpired:
                    process.kill()
                    self.exit_codes[name] = process.wait()
        self._stop_proxy()
        return dict(self.exit_codes)

    def kill(self) -> None:
        for process in self.processes.values():
            if process.poll() is None:
                process.kill()
                process.wait()
        self._stop_proxy()

    def __enter__(self) -> "LocalCluster":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        if any(process.poll() is None for process in self.processes.values()):
            self.stop(timeout=10.0)
        self.kill()


class ClientPool:
    """Real clients in the driver process, sharing one live network."""

    def __init__(
        self,
        spec: LiveSpec,
        num_clients: int = 1,
        history: History | None = None,
    ) -> None:
        self.spec = spec
        self.num_clients = num_clients
        self.history = history if history is not None else History()
        self.kernel: AsyncioKernel | None = None
        self.network: LiveNetwork | None = None
        self.clients: list = []

    async def start(self) -> None:
        self.kernel = AsyncioKernel()
        self.network = LiveNetwork(
            self.kernel, self.spec.addresses, policy=self.spec.retry_policy()
        )
        machine = LiveMachine(self.kernel, "m-driver")
        for index in range(1, self.num_clients + 1):
            self._add_client(machine, f"client-{index}", self.history)
        host, port = self.spec.address("client-1")
        await self.network.listen(host, port)

    def backup_client(self, name: str):
        """An extra history-less client (for backup reads, whose lag
        would falsely trip the linearizability checker)."""
        assert self.kernel is not None and self.network is not None
        return self._add_client(self.network.machine_of("client-1"), name, None)

    def _add_client(self, machine: LiveMachine, name: str, history: History | None):
        client = self.spec.build_client(
            self.kernel, self.network, machine, name, history=history
        )
        self.clients.append(client)
        return client

    async def run(self, generator, name: str = "driver"):
        """Drive a generator workload (e.g. a YCSB mix) to completion."""
        assert self.kernel is not None
        return await self.kernel.run(generator, name)

    async def close(self) -> None:
        if self.network is not None:
            await self.network.close()

    async def __aenter__(self) -> "ClientPool":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
