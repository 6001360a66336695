"""Live chaos: a per-link TCP fault proxy and the live nemesis.

The simulator's nemesis (PR 1) turns fault schedules into data; this
module gives the same schedules real teeth.  Three pieces:

**:class:`ChaosProxy`** — a toxiproxy-style fault injector.  For every
ordered machine pair in a deployment it owns one *link*: a listener
that forwards CRC-framed transport traffic to the destination's real
address.  Faults are applied per frame, so a fault toggled mid-stream
takes effect on the very next frame without breaking the framing:

* **cut / heal** — close the pair's listeners and live connections
  (senders see ECONNREFUSED and sit in their reconnect backoff loop);
  heal reopens the doors.
* **latency** — one-way per-frame delay on every link touching a
  machine (the gray-failure shape: slow, not dead).
* **drop** — a global frame-drop probability; whole frames vanish, so
  the surviving byte stream always decodes.

The proxy runs as its own process (``repro.cli chaos-proxy``) so a
SIGKILLed node never takes the fault fabric down with it, and is driven
over a JSON-line control socket by :class:`ChaosControl`.

**Interposition** — :func:`plan_links` + :func:`proxied_spec` rewrite a
:class:`~repro.live.node.LiveSpec` per viewpoint machine: each node's
address map points every *outbound* peer at that node's own links while
its bind address stays real.  Nodes are oblivious; the proxy sees every
inter-machine frame.

**:class:`LiveNemesis`** — the live interpreter of the shared scenario
vocabulary (:mod:`repro.chaos_events`).  It walks the scenario's window
edges (:func:`~repro.chaos_events.edges`), sleeping to each scheduled
offset, and applies the transitions the shared
:class:`~repro.chaos_events.FaultWindows` returns — the same state
machine the sim nemesis and the oracle drive: ``CrashNode`` becomes
SIGKILL + restart through the :class:`~repro.live.harness.LocalCluster`
(coordinating expected-downs with a
:class:`~repro.live.supervisor.Supervisor` when one is attached),
``PartitionPair`` a link cut, ``DropBurst`` a drop-probability window,
``SlowMachine`` a latency window.  Records carry scheduled times, so
``log.canonical_fingerprint()`` equals the scenario's
:func:`~repro.chaos_events.expected_fingerprint` — the same equality
the sim nemesis satisfies, which is what makes one schedule portable
across both interpreters.  ``SkewClock`` is rejected: a live node's
clock belongs to the OS.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import logging
import random
import signal
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.chaos_events import (
    CrashNode,
    FaultWindows,
    NemesisEvent,
    NemesisLog,
    SkewClock,
    check_targets,
    edges,
)

from . import wire

logger = logging.getLogger("repro.live.chaos")

__all__ = [
    "DRIVER_MACHINE",
    "machine_of",
    "LinkSpec",
    "plan_links",
    "proxied_addresses",
    "proxied_spec",
    "links_to_dict",
    "links_from_dict",
    "ProxyStats",
    "ChaosProxy",
    "ChaosError",
    "ChaosControl",
    "LiveNemesis",
    "proxy_main",
]

#: The driver process's machine name (every ``client-N`` lives on it).
DRIVER_MACHINE = "m-driver"


def machine_of(node_name: str) -> str:
    """The machine hosting a node — same convention as the simulator."""
    return f"m-{node_name}"


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


# ----------------------------------------------------------------------
# Link planning and spec interposition
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class LinkSpec:
    """One ordered proxy link: frames from ``src``'s machine bound for
    ``dst``'s machine enter at ``listen`` and leave toward ``forward``
    (the destination's real address)."""

    src: str
    dst: str
    listen: tuple[str, int]
    forward: tuple[str, int]

    @property
    def key(self) -> tuple[str, str]:
        return (self.src, self.dst)


def _machine_endpoints(spec) -> dict[str, tuple[str, int]]:
    """machine name -> real (host, port) for every machine in a spec."""
    endpoints = {machine_of(name): spec.address(name) for name in spec.node_names}
    drivers = sorted(n for n in spec.addresses if n.startswith("client-"))
    if drivers:
        endpoints[DRIVER_MACHINE] = spec.address(drivers[0])
    return endpoints


def plan_links(spec, host: str = "127.0.0.1") -> list[LinkSpec]:
    """One link per ordered machine pair, each on a fresh free port."""
    endpoints = _machine_endpoints(spec)
    links = []
    for src in sorted(endpoints):
        for dst in sorted(endpoints):
            if src == dst:
                continue
            links.append(LinkSpec(src, dst, (host, _free_port()), endpoints[dst]))
    return links


def proxied_addresses(
    spec, links: Sequence[LinkSpec], viewpoint: str
) -> dict[str, tuple[str, int]]:
    """The address map ``viewpoint``'s process should dial through.

    Its own machine's names keep their real addresses (that is what the
    process binds); every other name routes through the viewpoint's
    outbound link to that name's machine.
    """
    by_pair = {link.key: link.listen for link in links}
    addresses: dict[str, tuple[str, int]] = {}
    for name, real in spec.addresses.items():
        machine = DRIVER_MACHINE if name.startswith("client-") else machine_of(name)
        if machine == viewpoint:
            addresses[name] = real
        else:
            addresses[name] = by_pair[(viewpoint, machine)]
    return addresses


def proxied_spec(spec, links: Sequence[LinkSpec], viewpoint: str):
    """A copy of ``spec`` as seen from ``viewpoint``'s machine."""
    return dataclasses.replace(
        spec, addresses=proxied_addresses(spec, links, viewpoint)
    )


def links_to_dict(
    links: Sequence[LinkSpec], control: tuple[str, int], seed: int = 0
) -> dict[str, Any]:
    """JSON-ready description the ``chaos-proxy`` process loads."""
    return {
        "control": list(control),
        "seed": seed,
        "links": [
            {
                "src": link.src,
                "dst": link.dst,
                "listen": list(link.listen),
                "forward": list(link.forward),
            }
            for link in links
        ],
    }


def links_from_dict(
    raw: dict[str, Any],
) -> tuple[list[LinkSpec], tuple[str, int], int]:
    """Inverse of :func:`links_to_dict`: (links, control address, seed)."""
    control_raw = raw["control"]
    control = (str(control_raw[0]), int(control_raw[1]))
    links = [
        LinkSpec(
            entry["src"],
            entry["dst"],
            (str(entry["listen"][0]), int(entry["listen"][1])),
            (str(entry["forward"][0]), int(entry["forward"][1])),
        )
        for entry in raw["links"]
    ]
    return links, control, int(raw.get("seed", 0))


# ----------------------------------------------------------------------
# The proxy
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ProxyStats:
    """Counters across all links."""

    frames_forwarded: int = 0
    frames_dropped: int = 0
    bytes_forwarded: int = 0
    connections: int = 0
    upstream_refused: int = 0
    cuts: int = 0
    heals: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "frames_forwarded": self.frames_forwarded,
            "frames_dropped": self.frames_dropped,
            "bytes_forwarded": self.bytes_forwarded,
            "connections": self.connections,
            "upstream_refused": self.upstream_refused,
            "cuts": self.cuts,
            "heals": self.heals,
        }


class _Link:
    """Runtime state of one link: its listener (None while cut) and the
    tasks serving its live connections."""

    __slots__ = ("spec", "server", "tasks")

    def __init__(self, spec: LinkSpec) -> None:
        self.spec = spec
        self.server: asyncio.base_events.Server | None = None
        self.tasks: set[asyncio.Task] = set()


class ChaosProxy:
    """All links of one deployment plus the control server.

    Fault state lives in three small fields consulted per frame, so a
    control command takes effect on the next frame of every affected
    connection without tearing anything down (except ``cut``, whose
    whole point is the teardown).
    """

    def __init__(
        self,
        links: Sequence[LinkSpec],
        control: tuple[str, int] = ("127.0.0.1", 0),
        seed: int = 0,
    ) -> None:
        self.links: dict[tuple[str, str], _Link] = {}
        for spec in links:
            if spec.key in self.links:
                raise ValueError(f"duplicate link {spec.key}")
            self.links[spec.key] = _Link(spec)
        self.control_address = control
        self.rng = random.Random(seed)
        self.stats = ProxyStats()
        self.cut_pairs: set[frozenset] = set()
        self.latency: dict[str, float] = {}
        self.drop_probability = 0.0
        self._control_server: asyncio.base_events.Server | None = None
        self._control_tasks: set[asyncio.Task] = set()
        self._stop: asyncio.Event | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind every (uncut) link listener and the control socket."""
        for link in self.links.values():
            await self._open_link(link)
        host, port = self.control_address
        self._control_server = await asyncio.start_server(
            self._serve_control, host, port
        )
        bound = self._control_server.sockets[0].getsockname()
        self.control_address = (bound[0], bound[1])

    async def close(self) -> None:
        if self._control_server is not None:
            self._control_server.close()
            await self._control_server.wait_closed()
            self._control_server = None
        for task in list(self._control_tasks):
            task.cancel()
        for link in self.links.values():
            await self._close_link(link)

    async def serve(self) -> None:
        """Run until SIGTERM/SIGINT or a ``shutdown`` control command.

        Prints ``PROXY-READY control=<host>:<port> links=<n>`` once
        everything is bound (the harness's readiness line).
        """
        self._stop = asyncio.Event()
        await self.start()
        host, port = self.control_address
        print(
            f"PROXY-READY control={host}:{port} links={len(self.links)}",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self._stop.set)
        try:
            await self._stop.wait()
        finally:
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(signum)
            await self.close()

    async def _open_link(self, link: _Link) -> None:
        if link.server is not None:
            return
        host, port = link.spec.listen

        async def handle(reader, writer, link=link):
            await self._serve_connection(link, reader, writer)

        link.server = await asyncio.start_server(handle, host, port)

    async def _close_link(self, link: _Link) -> None:
        if link.server is not None:
            link.server.close()
            await link.server.wait_closed()
            link.server = None
        tasks = list(link.tasks)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    async def _serve_connection(self, link: _Link, down_reader, down_writer) -> None:
        self.stats.connections += 1
        task = asyncio.current_task()
        if task is not None:
            link.tasks.add(task)
            task.add_done_callback(link.tasks.discard)
        up_writer = None
        try:
            host, port = link.spec.forward
            try:
                up_reader, up_writer = await asyncio.open_connection(host, port)
            except OSError:
                # Destination down: refuse by hanging up, the same
                # signal the sender would get dialing it directly.
                self.stats.upstream_refused += 1
                return
            pumps = [
                asyncio.ensure_future(self._pump(link, down_reader, up_writer)),
                asyncio.ensure_future(self._pump(link, up_reader, down_writer)),
            ]
            try:
                await asyncio.wait(pumps, return_when=asyncio.FIRST_COMPLETED)
            except asyncio.CancelledError:
                pass  # link cut mid-connection: close quietly (streams.py
                # would log a cancelled handler task as a callback error)
            finally:
                for pump in pumps:
                    pump.cancel()
                await asyncio.gather(*pumps, return_exceptions=True)
        except asyncio.CancelledError:
            pass  # cancelled before the pumps started
        finally:
            for writer in (down_writer, up_writer):
                if writer is None:
                    continue
                try:
                    writer.close()
                except Exception:  # pragma: no cover - best-effort close
                    pass

    async def _pump(self, link: _Link, reader, writer) -> None:
        """Forward whole frames one way, applying the current faults.

        Frame-aware on purpose: a dropped frame disappears entirely, so
        the surviving stream still decodes at the receiver — the live
        analogue of the sim fabric dropping whole messages.
        """
        spec = link.spec
        try:
            while True:
                header = await reader.readexactly(wire.HEADER_SIZE)
                length, __ = wire.decode_header(header)
                payload = await reader.readexactly(length)
                if (
                    self.drop_probability > 0.0
                    and self.rng.random() < self.drop_probability
                ):
                    self.stats.frames_dropped += 1
                    continue
                delay = self.latency.get(spec.src, 0.0) + self.latency.get(
                    spec.dst, 0.0
                )
                if delay > 0.0:
                    await asyncio.sleep(delay)
                writer.write(header + payload)
                await writer.drain()
                self.stats.frames_forwarded += 1
                self.stats.bytes_forwarded += wire.HEADER_SIZE + length
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            OSError,
            wire.WireError,
        ):
            return

    # ------------------------------------------------------------------
    # Fault state
    # ------------------------------------------------------------------
    def _pair_links(self, a: str, b: str) -> list[_Link]:
        found = [
            self.links[key] for key in ((a, b), (b, a)) if key in self.links
        ]
        if not found:
            raise ValueError(f"no links between {a!r} and {b!r}")
        return found

    async def cut(self, a: str, b: str) -> None:
        """Partition machines ``a`` and ``b``: both directions die and
        stay refused until :meth:`heal`."""
        links = self._pair_links(a, b)
        pair = frozenset((a, b))
        if pair not in self.cut_pairs:
            self.cut_pairs.add(pair)
            self.stats.cuts += 1
        for link in links:
            await self._close_link(link)

    async def heal(self, a: str, b: str) -> None:
        links = self._pair_links(a, b)
        pair = frozenset((a, b))
        if pair in self.cut_pairs:
            self.cut_pairs.discard(pair)
            self.stats.heals += 1
        for link in links:
            await self._open_link(link)

    def set_latency(self, machine: str, seconds: float) -> None:
        if seconds > 0.0:
            self.latency[machine] = seconds
        else:
            self.latency.pop(machine, None)

    # ------------------------------------------------------------------
    # Control plane (JSON lines)
    # ------------------------------------------------------------------
    async def _serve_control(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._control_tasks.add(task)
            task.add_done_callback(self._control_tasks.discard)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    reply = await self._dispatch(json.loads(line))
                except asyncio.CancelledError:
                    raise
                except Exception as error:  # noqa: BLE001 - report to caller
                    reply = {"ok": False, "error": repr(error)}
                writer.write((json.dumps(reply) + "\n").encode())
                await writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
            except Exception:  # pragma: no cover - best-effort close
                pass

    async def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "links": len(self.links)}
        if op == "cut":
            await self.cut(str(request["a"]), str(request["b"]))
            return {"ok": True}
        if op == "heal":
            await self.heal(str(request["a"]), str(request["b"]))
            return {"ok": True}
        if op == "latency":
            self.set_latency(str(request["machine"]), float(request["seconds"]))
            return {"ok": True}
        if op == "drop":
            self.drop_probability = float(request["probability"])
            return {"ok": True}
        if op == "stats":
            return {
                "ok": True,
                "stats": self.stats.as_dict(),
                "cut": sorted(sorted(pair) for pair in self.cut_pairs),
                "latency": dict(self.latency),
                "drop_probability": self.drop_probability,
            }
        if op == "shutdown":
            if self._stop is not None:
                self._stop.set()
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}


def proxy_main(links_path: str | Path) -> int:
    """Synchronous entrypoint for ``repro.cli chaos-proxy``."""
    raw = json.loads(Path(links_path).read_text())
    links, control, seed = links_from_dict(raw)
    asyncio.run(ChaosProxy(links, control=control, seed=seed).serve())
    return 0


# ----------------------------------------------------------------------
# Control client
# ----------------------------------------------------------------------
class ChaosError(Exception):
    """The proxy rejected a control command."""


class ChaosControl:
    """Async client for the proxy's JSON-line control socket."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.address = address
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._lock = asyncio.Lock()

    async def request(self, **command) -> dict:
        """Send one command; return the proxy's reply document.

        Raises :class:`ChaosError` when the proxy answers ``ok: false``
        and :class:`ConnectionError`/``OSError`` when it is unreachable.
        """
        async with self._lock:
            if self._writer is None:
                host, port = self.address
                self._reader, self._writer = await asyncio.open_connection(
                    host, port
                )
            self._writer.write((json.dumps(command) + "\n").encode())
            await self._writer.drain()
            line = await self._reader.readline()
        if not line:
            await self.close()
            raise ConnectionError("chaos proxy closed the control connection")
        reply = json.loads(line)
        if not reply.get("ok"):
            raise ChaosError(reply.get("error", "unknown proxy error"))
        return reply

    async def ping(self) -> dict:
        return await self.request(op="ping")

    async def cut(self, a: str, b: str) -> None:
        await self.request(op="cut", a=a, b=b)

    async def heal(self, a: str, b: str) -> None:
        await self.request(op="heal", a=a, b=b)

    async def set_latency(self, machine: str, seconds: float) -> None:
        await self.request(op="latency", machine=machine, seconds=seconds)

    async def set_drop(self, probability: float) -> None:
        await self.request(op="drop", probability=probability)

    async def stats(self) -> dict:
        return await self.request(op="stats")

    async def shutdown(self) -> None:
        await self.request(op="shutdown")

    async def close(self) -> None:
        writer, self._writer = self._writer, None
        self._reader = None
        if writer is not None:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


# ----------------------------------------------------------------------
# The live nemesis
# ----------------------------------------------------------------------
class LiveNemesis:
    """Interpret a chaos scenario against a real cluster.

    Args:
        events: The scenario (absolute offsets from :meth:`run` start).
        control: Proxy control client (partitions, drops, slowdowns).
        cluster: :class:`~repro.live.harness.LocalCluster` for crash
            events (SIGKILL + restart); optional when the scenario has
            none.
        supervisor: When given, crash targets are marked expected-down
            for the kill window so auto-restart does not race the
            scheduled recovery.
        base_drop_probability: Drop level restored after a burst.
        slow_unit: Seconds of one-way latency per unit of a
            :class:`~repro.chaos_events.SlowMachine` factor — the live
            reading of "``factor`` times slower".
    """

    def __init__(
        self,
        events: Sequence[NemesisEvent],
        control: ChaosControl | None = None,
        cluster=None,
        supervisor=None,
        base_drop_probability: float = 0.0,
        slow_unit: float = 0.02,
    ) -> None:
        self.events = list(events)
        self.control = control
        self.cluster = cluster
        self.supervisor = supervisor
        self.base_drop_probability = base_drop_probability
        self.slow_unit = slow_unit
        self.log = NemesisLog()
        names = cluster.spec.node_names if cluster is not None else ()
        machines = {machine_of(n) for n in names} | {DRIVER_MACHINE} if names else ()
        check_targets(self.events, nodes=names, machines=machines)
        for event in self.events:
            if isinstance(event, SkewClock):
                raise ValueError(
                    "SkewClock is sim-only: a live node's clock is the OS's"
                )
            if isinstance(event, CrashNode):
                if cluster is None:
                    raise ValueError("CrashNode events need a cluster")
            elif control is None:
                raise ValueError(f"{type(event).__name__} events need a proxy")

    async def run(self) -> NemesisLog:
        """Walk the window edges, applying each transition at its
        scheduled offset from now."""
        start = time.monotonic()
        windows = FaultWindows(self.base_drop_probability)
        for at, closing, event in edges(self.events):
            delay = at - (time.monotonic() - start)
            if delay > 0:
                await asyncio.sleep(delay)
            step = windows.close if closing else windows.open
            for action, target, value in step(event):
                await self._apply(action, target, value)
                self.log.add(at, action, target, wall=time.monotonic() - start)
        return self.log

    async def _apply(self, action: str, target: str, value) -> None:
        logger.info("nemesis %s %s", action, target)
        if action == "crash":
            if self.supervisor is not None:
                self.supervisor.expect_down(target)
            await asyncio.to_thread(self.cluster.kill9, target)
        elif action == "recover":
            await asyncio.to_thread(self.cluster.restart, target)
            if self.supervisor is not None:
                self.supervisor.expect_up(target)
        elif action == "partition":
            await self.control.cut(*value)
        elif action == "heal":
            await self.control.heal(*value)
        elif action in ("drop_burst", "drop_restore"):
            await self.control.set_drop(value)
        elif action == "slow":
            await self.control.set_latency(target, self.slow_unit * value)
        else:  # restore_speed
            await self.control.set_latency(target, 0.0)
