"""Loopback RPC microbench: what one live request costs the runtime.

Three processes on localhost TCP, each running the live runtime
(:mod:`repro.live.runtime`) with read-shaped handlers::

    client --relay--> middle --ping--> leaf

The client issues ``--requests`` sequential ``relay`` calls after a
warm-up; the middle node answers each by calling the leaf, as an
Ingestor's read path calls a Compactor.  The handlers charge the
modelled computes a point read charges: the leaf ``read_base`` then
``probe_table``, as ``Compactor._handle_read`` does, and the middle
``read_base`` before its hop, as ``Ingestor._handle_read`` does when
its own levels hold nothing to probe.  The leaf echoes a 16-byte
payload, or with ``--pairs N`` answers with the reply of an N-pair range
scan (20-byte keys, 16-byte values), which the middle relays: the codec
cost of a scan on every hop.  Reported per request:

* round trip p50 / p90 at the client;
* user+sys CPU of each process;
* event-loop passes of each server: its selector's ``select`` calls,
  one per pass of the asyncio loop (each is an ``epoll_wait``).

The pass counts are counts, not times, so ``--check`` gates them on any
machine: it exits 1 when the leaf takes more than 1.5 passes per request
or the middle hop more than 2.5 — a modelled compute must cost no pass.

    PYTHONPATH=src python3 benchmarks/rpc_loopback.py --requests 2000 --check
    PYTHONPATH=src python3 benchmarks/rpc_loopback.py --requests 2000 --pairs 50 --check
"""

from __future__ import annotations

import argparse
import asyncio
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core.costs import DEFAULT_COSTS  # noqa: E402
from repro.core.messages import RangeQueryReply  # noqa: E402
from repro.live.harness import free_port  # noqa: E402
from repro.live.runtime import AsyncioKernel, LiveMachine, LiveNetwork  # noqa: E402
from repro.sim.rpc import RpcNode  # noqa: E402

HOST = "127.0.0.1"
PAYLOAD = b"x" * 16
CALL_TIMEOUT = 10.0
MAX_PASSES = {"leaf": 1.5, "middle": 2.5}


class CountingSelector(selectors.DefaultSelector):
    """The platform selector, counting its ``select`` calls."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def select(self, timeout=None):
        self.calls += 1
        return super().select(timeout)


def _cpu() -> float:
    times = os.times()
    return times.user + times.system


def scan_reply(pairs: int) -> RangeQueryReply:
    """An N-pair range reply: 20-byte keys, 16-byte values."""
    return RangeQueryReply(
        tuple((b"key-%016d" % i, b"value-%010d" % i) for i in range(pairs))
    )


class Leaf(RpcNode):
    def __init__(self, kernel, network, machine, name, selector, pairs) -> None:
        super().__init__(kernel, network, machine, name)
        self.selector = selector
        self.reply = scan_reply(pairs) if pairs else None
        self.on("ping", self._ping)
        self.on("probe", self._probe)

    def _ping(self, src, payload):
        yield from self.compute(DEFAULT_COSTS.read_base)
        yield from self.compute(DEFAULT_COSTS.probe_table)
        return payload if self.reply is None else self.reply

    def _probe(self, src, payload):
        yield from ()
        return (self.selector.calls, _cpu())


class Middle(Leaf):
    def __init__(self, kernel, network, machine, name, selector, pairs) -> None:
        super().__init__(kernel, network, machine, name, selector, pairs)
        self.on("relay", self._relay)

    def _relay(self, src, payload):
        yield from self.compute(DEFAULT_COSTS.read_base)
        reply = yield self.call("leaf", "ping", payload, timeout=CALL_TIMEOUT)
        return reply


def _addresses(ports: dict[str, int]) -> dict[str, tuple[str, int]]:
    return {name: (HOST, port) for name, port in ports.items()}


async def _serve(
    role: str, ports: dict[str, int], selector: CountingSelector, pairs: int
) -> None:
    kernel = AsyncioKernel()
    network = LiveNetwork(kernel, _addresses(ports))
    machine = LiveMachine(kernel, role)
    node_cls = Middle if role == "middle" else Leaf
    node_cls(kernel, network, machine, role, selector, pairs)
    await network.listen(HOST, ports[role])
    print("READY", role, flush=True)
    # The parent closes our stdin when the run is over.
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.read)
    await network.close()


def serve(role: str, ports: dict[str, int], pairs: int) -> None:
    selector = CountingSelector()
    loop = asyncio.SelectorEventLoop(selector)
    try:
        loop.run_until_complete(_serve(role, ports, selector, pairs))
    finally:
        loop.close()


async def _drive(ports: dict[str, int], requests: int, warmup: int) -> dict:
    kernel = AsyncioKernel()
    network = LiveNetwork(kernel, _addresses(ports))
    client = RpcNode(kernel, network, LiveMachine(kernel, "client"), "client")
    await network.listen(HOST, ports["client"])

    def probe_all():
        out = {}
        for role in ("leaf", "middle"):
            out[role] = yield client.call(role, "probe", timeout=CALL_TIMEOUT)
        return out

    def run(count: int, samples: list[float] | None):
        for __ in range(count):
            start = time.perf_counter()
            yield client.call("middle", "relay", PAYLOAD, timeout=CALL_TIMEOUT)
            if samples is not None:
                samples.append(time.perf_counter() - start)

    samples: list[float] = []
    await kernel.run(run(warmup, None))
    before = await kernel.run(probe_all())
    client_cpu = _cpu()
    await kernel.run(run(requests, samples))
    client_cpu = _cpu() - client_cpu
    after = await kernel.run(probe_all())
    await network.close()
    report = {"requests": requests}
    quantiles = statistics.quantiles(samples, n=10)
    report["rtt_p50_us"] = statistics.median(samples) * 1e6
    report["rtt_p90_us"] = quantiles[8] * 1e6
    report["cpu_us_per_request"] = {"client": client_cpu / requests * 1e6}
    report["passes_per_request"] = {}
    for role in ("leaf", "middle"):
        (passes0, cpu0), (passes1, cpu1) = before[role], after[role]
        report["passes_per_request"][role] = (passes1 - passes0) / requests
        report["cpu_us_per_request"][role] = (cpu1 - cpu0) / requests * 1e6
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=2000)
    parser.add_argument("--warmup", type=int, default=200)
    parser.add_argument("--pairs", type=int, default=0,
                        help="the leaf answers with an N-pair range reply (0: echo)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if passes per request exceed the bounds")
    parser.add_argument("--role", choices=("leaf", "middle"), help=argparse.SUPPRESS)
    parser.add_argument("--ports", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.role:
        names = ("leaf", "middle", "client")
        serve(args.role, dict(zip(names, map(int, args.ports.split(",")))), args.pairs)
        return 0

    ports = {"leaf": free_port(), "middle": free_port(), "client": free_port()}
    port_arg = ",".join(str(ports[name]) for name in ("leaf", "middle", "client"))
    servers = []
    try:
        for role in ("leaf", "middle"):
            server = subprocess.Popen(
                [sys.executable, __file__, "--role", role, "--ports", port_arg,
                 "--pairs", str(args.pairs)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            servers.append(server)
            line = server.stdout.readline()
            if not line.startswith("READY"):
                raise SystemExit(f"{role} server failed to start: {line!r}")
        report = asyncio.run(_drive(ports, args.requests, args.warmup))
    finally:
        for server in servers:
            server.stdin.close()
        for server in servers:
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()

    passes = report["passes_per_request"]
    cpu = report["cpu_us_per_request"]
    reply = f"{args.pairs}-pair range reply" if args.pairs else "echo"
    print(f"rpc loopback: {report['requests']} requests, client -> middle -> leaf ({reply})")
    print(f"  round trip  p50 {report['rtt_p50_us']:.0f} us  p90 {report['rtt_p90_us']:.0f} us")
    for role in ("client", "middle", "leaf"):
        line = f"  {role:<7} cpu {cpu[role]:.0f} us/request"
        if role in passes:
            line += f"  loop passes {passes[role]:.2f}/request"
        print(line)
    if not args.check:
        return 0
    over = [
        f"{role}: {passes[role]:.2f} loop passes per request > {bound:g}"
        for role, bound in MAX_PASSES.items()
        if passes[role] > bound
    ]
    for failure in over:
        print(f"  !! {failure}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
