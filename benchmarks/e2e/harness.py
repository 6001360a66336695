"""Cluster lifecycle, load generators and statistics for the e2e benchmark.

Everything here is workload-neutral: booting the durable localhost
cluster, sampling what its processes cost from ``/proc``, pacing closed
and open loops on the driver's event loop, and summarising latencies.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.client import ClientPipeline
from repro.core.config import CooLSMConfig
from repro.core.messages import HealthPing
from repro.live.harness import ClientPool, LocalCluster, localhost_spec
from repro.sim.kernel import SimError

HERE = Path(__file__).resolve().parent
SHM = Path("/dev/shm")
#: Free space a run needs in its scratch directory (data dirs of three
#: nodes, their logs, and the span dumps of a traced run).
SCRATCH_BYTES = 256 * 1024 * 1024
TRACEHOOK = HERE / "tracehook"
TRACE_ENV = "COOLSM_E2E_TRACE_DIR"

#: Two load clients + one probe client share the driver's one port.
LOAD_CLIENTS = 2
PROBE_CLIENT = 2
PIPELINE_MAX_BATCH = 128
PIPELINE_DEPTH = 4
#: epoll rounds a sleep up to the next millisecond; an open loop that
#: times requests from their due time sleeps short of it and yields to
#: the loop for the rest.
EPOLL_SLACK_S = 0.001
#: A pipelined open loop submits what has come due this often, so it
#: runs at most this late.
PIPELINE_TICK_S = 0.002

#: The machine-speed probe: a loop of about a millisecond, and how long it
#: takes on the reference box (2 vCPUs, py 3.11) in its usual state.
SPEED_LOOPS = 20_000
SPEED_EVERY_S = 0.1
REFERENCE_BURST_S = 0.0011

perf = time.perf_counter
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def bench_config() -> CooLSMConfig:
    """The paper's unshrunk 100K tree, every feature flag at the default
    of the commit under test, so a later default flip shows as a gain."""
    return CooLSMConfig.paper_100k(client_timeout=10, ack_timeout=5)


@functools.cache
def scratch_root() -> Path:
    """Where data dirs, logs and span dumps of this process go.

    tmpfs when there is one: on a shared box a WAL fsync on the virtual
    disk wanders between 0.1 and 1 ms from minute to minute, which moves
    every write metric by more than any bound.  The flush *policy* stays
    as shipped (one fsync per WAL record and per manifest commit); its
    *cost* is reported as counts and bytes, not device time.  Without a
    usable tmpfs the scratch lives beside this file (git-ignored) and
    results are stamped ``device_noisy``.
    """
    try:
        usable = os.access(SHM, os.W_OK) and (
            shutil.disk_usage(SHM).free >= SCRATCH_BYTES
        )
    except OSError:
        usable = False
    return (SHM if usable else HERE / ".work") / f"coolsm-e2e-{os.getpid()}"


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample.  (Not one of the
    three in ``repro.bench``: the benchmark must read the same when
    those are merged or moved.)"""
    ordered = sorted(samples)
    index = max(0, math.ceil(fraction * len(ordered)) - 1)
    return ordered[index]


def windowed(windows: list[list[float]], fraction: float) -> float:
    """Median over windows of the per-window percentile: a noisy
    neighbour's burst then costs one window, not the run."""
    values = [percentile(w, fraction) for w in windows if w]
    return statistics.median(values) if values else 0.0


@dataclass
class Stream:
    """Latencies of one class of operation, in completion order.

    ``sources`` are lists some producer appends to (a pipeline's
    ``latencies``, or :meth:`done`); :meth:`mark` notes the time and
    their lengths at a window boundary, so the samples of window *k* are
    the slices between marks *k* and *k+1*.
    """

    name: str
    sources: list[list[float]] = field(default_factory=lambda: [[]])
    #: (time, length of every source, length of ``late``) per boundary.
    marks: list[tuple[float, list[int], int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Does this stream write user data / count as user operations?  (A
    #: stream that re-slices another one's samples does not.)
    writes: bool = False
    counted: bool = True
    #: How late the open-loop generator issued each request, seconds,
    #: and each request's latency from when it was actually sent.
    late: list[float] = field(default_factory=list)
    service: list[float] = field(default_factory=list)

    def done(self, latency: float, ok: bool = True) -> None:
        self.sources[0].append(latency)
        if not ok:
            self.failed += 1

    def acked(self) -> int:
        return sum(len(source) for source in self.sources)

    def mark(self, now: float) -> None:
        self.marks.append((now, [len(source) for source in self.sources], len(self.late)))

    def windows(self) -> list[list[float]]:
        out = []
        for (__, before, __), (__, after, __) in zip(self.marks, self.marks[1:]):
            window: list[float] = []
            for source, lo, hi in zip(self.sources, before, after):
                window.extend(source[lo:hi])
            out.append(window)
        return out

    def window_seconds(self) -> list[float]:
        return [after[0] - before[0] for before, after in zip(self.marks, self.marks[1:])]

    def window_late(self) -> list[list[float]]:
        """Generator lateness of the requests issued in each window."""
        return [
            self.late[before[2]:after[2]] for before, after in zip(self.marks, self.marks[1:])
        ]

    def completed(self) -> int:
        """Operations completed between the first and the last mark."""
        if len(self.marks) < 2:
            return 0
        return sum(self.marks[-1][1]) - sum(self.marks[0][1])


# ----------------------------------------------------------------------
# /proc sampling
# ----------------------------------------------------------------------
def proc_sample(pid: int) -> dict[str, float]:
    """CPU seconds (user+sys) and bytes passed to ``write``-family
    syscalls so far.  asyncio sends on sockets with ``send()``, which
    ``wchar`` does not count, so ``wchar`` is file bytes (data dir plus
    the node's log)."""
    with open(f"/proc/{pid}/stat") as source:
        fields = source.read().rsplit(")", 1)[1].split()
    sample = {"cpu_s": (int(fields[11]) + int(fields[12])) / _CLK_TCK}
    with open(f"/proc/{pid}/io") as source:
        for line in source:
            name, __, value = line.partition(":")
            if name == "wchar":
                sample["wchar"] = float(value)
    return sample


def host_cpu_sample() -> dict[str, float]:
    """Whole-machine CPU seconds by state, from ``/proc/stat``: how busy
    the box was and how much the hypervisor took away (steal)."""
    with open("/proc/stat") as source:
        ticks = [int(t) for t in source.readline().split()[1:9]]
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    return {name: tick / _CLK_TCK for name, tick in zip(names, ticks)}


def stolen_share(before: dict[str, float], after: dict[str, float]) -> float:
    """Share of the machine's CPU time between two :func:`host_cpu_sample`
    that the hypervisor gave to someone else."""
    total = sum(after.values()) - sum(before.values())
    return (after["steal"] - before["steal"]) / total if total else 0.0


@dataclass(frozen=True)
class Interval:
    """A stretch of the run, with the machine's CPU seconds by state
    (:func:`host_cpu_sample`) at both ends."""

    start: float
    end: float
    host_before: dict[str, float]
    host_after: dict[str, float]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def stolen(self) -> float:
        return stolen_share(self.host_before, self.host_after)


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def filesystem_of(path: Path) -> str:
    """Filesystem type holding ``path`` (longest mount-point match)."""
    best, kind = "", "unknown"
    with open("/proc/mounts") as mounts:
        for line in mounts:
            __, mount, fstype = line.split()[:3]
            if str(path).startswith(mount) and len(mount) > len(best):
                best, kind = mount, fstype
    return kind


# ----------------------------------------------------------------------
# Cluster
# ----------------------------------------------------------------------
class Bench:
    """One booted durable cluster plus the driver-side client pool."""

    def __init__(self, tag: str, seed: int, trace: bool) -> None:
        self.work = scratch_root() / tag
        self.trace_dir = self.work / "trace" if trace else None
        self.config = bench_config()
        self.spec = localhost_spec(
            1, 1, 1, num_clients=LOAD_CLIENTS + 1, config=self.config, seed=seed
        )
        self.cluster = LocalCluster(self.spec, self.work, data_dir=self.work / "data")
        self.pool: ClientPool | None = None

    @property
    def kernel(self):
        return self.pool.kernel

    @property
    def clients(self):
        return self.pool.clients

    def data_dir(self, node: str) -> Path:
        return self.work / "data" / node

    @contextlib.contextmanager
    def _server_env(self):
        """The environment servers launched inside inherit: for a traced
        run the hook directory on ``PYTHONPATH`` makes ``site`` import
        our sitecustomize in each of them."""
        previous = {k: os.environ.get(k) for k in ("PYTHONPATH", TRACE_ENV)}
        if self.trace_dir is not None:
            os.environ[TRACE_ENV] = str(self.trace_dir)
            os.environ["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(TRACEHOOK), previous["PYTHONPATH"]])
            )
        try:
            yield
        finally:
            for name, value in previous.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value

    async def boot(self) -> None:
        """Launch every node and connect the driver's clients."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        if self.trace_dir is not None:
            self.trace_dir.mkdir()
        with self._server_env():
            self.cluster.start()
            await asyncio.to_thread(self.cluster.wait_ready)
        self.pool = ClientPool(self.spec, LOAD_CLIENTS + 1)
        await self.pool.start()

    async def crash_and_restart(self, node: str) -> float:
        """SIGKILL ``node`` and bring it back from its data dir;
        returns the seconds from relaunch to READY."""
        await asyncio.to_thread(self.cluster.kill9, node)
        started = perf()
        with self._server_env():
            await asyncio.to_thread(self.cluster.restart, node)
        recovery_s = perf() - started
        await self.kernel.run(self._reconnect(node))
        return recovery_s

    def _reconnect(self, node: str):
        """Process: the first frame written to a connection whose peer
        was killed is lost (that write is how the transport learns of
        the reset), so spend a throwaway ping on it, not a client
        timeout."""
        for __ in range(40):
            try:
                yield self.clients[PROBE_CLIENT].call(
                    node, "health", HealthPing(), timeout=0.25
                )
                return
            except SimError:
                continue
        raise TimeoutError(f"{node} unreachable after restart")

    def pids(self) -> dict[str, int]:
        return {name: p.pid for name, p in self.cluster.processes.items()}

    def sample(self) -> dict[str, dict[str, float]]:
        """Per-process CPU and file bytes, the driver included."""
        out = {name: proc_sample(pid) for name, pid in self.pids().items()}
        out["driver"] = proc_sample(os.getpid())
        out["host"] = host_cpu_sample()
        return out

    def health(self, node: str):
        """Process: one health RPC from the probe client."""
        reply = yield self.clients[PROBE_CLIENT].call(
            node, "health", HealthPing(), timeout=self.config.request_timeout
        )
        return reply

    def gauges(self):
        """Process: every node's health gauges plus the driver's own
        transport counters."""
        out = {}
        for node in self.spec.node_names:
            reply = yield from self.health(node)
            out[node] = dict(reply.gauges)
        out["driver"] = self.pool.network.transport.stats.as_gauges()
        return out

    def quiesce(self, timeout: float = 60.0):
        """Process: wait until no node reports in-flight work.  A node
        still digesting a backlog may not answer within the client
        timeout; that is "busy", not an error."""
        deadline = perf() + timeout
        while True:
            try:
                busy = 0
                for node in self.spec.node_names:
                    busy += (yield from self.health(node)).inflight
            except SimError:
                busy = 1
            if busy == 0:
                return
            if perf() > deadline:
                raise TimeoutError("cluster did not quiesce")
            yield self.kernel.timeout(0.02)

    def signal_servers(self, signum: int) -> None:
        for process in self.cluster.processes.values():
            if process.poll() is None:
                process.send_signal(signum)

    async def collect_dumps(self, timeout: float = 30.0) -> dict[str, dict]:
        """Ask every server for its spans (SIGUSR2) and read them."""
        self.signal_servers(signal.SIGUSR2)
        dumps = {}
        deadline = perf() + timeout
        for name, pid in self.pids().items():
            path = self.trace_dir / f"{pid}.json"
            while not path.exists():
                if perf() > deadline:
                    raise TimeoutError(f"no trace dump from {name}")
                await asyncio.sleep(0.02)
            dumps[name] = json.loads(path.read_text())
            path.unlink()
        return dumps

    async def _close_pool(self) -> None:
        pool, self.pool = self.pool, None
        if pool is not None:
            await pool.close()

    async def stop(self) -> dict[str, int]:
        """Drain and stop the nodes; returns their exit codes."""
        await self._close_pool()
        return await asyncio.to_thread(self.cluster.stop)

    async def teardown(self) -> None:
        """Make sure nothing is left running or on disk."""
        await self._close_pool()
        await asyncio.to_thread(self.cluster.kill)
        shutil.rmtree(self.work, ignore_errors=True)


class AwakeCpus:
    """Keep every CPU of this machine from halting while a run lasts.

    On a virtual machine an idle vCPU halts and the hypervisor takes it
    away; each wake-up then costs 0.2 to several ms, varying from minute
    to minute with the host's other tenants.  Every RPC hop of an
    unsaturated workload wakes a sleeping process, so that cost — not
    the program's — decided the latencies (measured here, same minute:
    single-upsert p50 0.65 ms awake vs 1.2-3.5 ms halting).  One
    ``SCHED_IDLE`` spinner per CPU runs only when nothing else wants the
    CPU and exits with its parent.
    """

    def __init__(self) -> None:
        self.spinners: list[subprocess.Popen] = []

    def __enter__(self) -> "AwakeCpus":
        for cpu in sorted(os.sched_getaffinity(0)):
            self.spinners.append(
                subprocess.Popen([sys.executable, str(HERE / "spinner.py"), str(cpu)])
            )
        return self

    def __exit__(self, *exc_info) -> None:
        for spinner in self.spinners:
            spinner.kill()
        for spinner in self.spinners:
            spinner.wait()


def clean_scratch() -> None:
    root = scratch_root()
    shutil.rmtree(root, ignore_errors=True)
    if root.parent.name == ".work":
        try:
            root.parent.rmdir()
        except OSError:
            pass  # another run's scratch is in it


# ----------------------------------------------------------------------
# Load generators (kernel processes)
# ----------------------------------------------------------------------
def sleep_until(kernel, due: float, precise: bool = True):
    """Process: park until ``perf() >= due``."""
    while True:
        remaining = due - perf()
        if remaining <= 0:
            return
        if precise:
            remaining = max(0.0, remaining - EPOLL_SLACK_S)
        yield kernel.timeout(remaining)


async def speed_probe(samples: list[float]) -> None:
    """Task: time a fixed pure-Python loop ten times a second, for as
    long as the run lasts — how fast this machine is going right now.
    The box's speed shifts by a third from one quarter of an hour to the
    next (frequency, hyperthread and cache sharing with other tenants),
    and every time-based metric shifts with it; see
    ``metrics.machine_speed``."""
    while True:
        started = perf()
        total = 0
        for index in range(SPEED_LOOPS):
            total += index & 7
        samples.append(perf() - started)
        await asyncio.sleep(SPEED_EVERY_S)


def guarded(operation):
    """Process: run one operation; False if it raised or returned False."""
    try:
        outcome = yield from operation
    except SimError:
        return False
    return outcome is not False


def closed_loop(stream: Stream, make_op, stop):
    """Process: one caller that sends its next request only after the
    previous one completed, until ``stop()``."""
    index = 0
    while not stop():
        started = perf()
        stream.attempted += 1
        ok = yield from guarded(make_op(index))
        stream.done(perf() - started, ok)
        index += 1


def open_loop(kernel, stream: Stream, rate: float, count: int, make_op, start: float):
    """Process: issue ``count`` requests on a fixed schedule, each as its
    own process so a slow one never delays the next, and time each from
    when it was *due* — a stall is charged to every request it delays."""

    def one(index: int, due: float):
        sent = perf()
        ok = yield from guarded(make_op(index))
        stream.service.append(perf() - sent)
        stream.done(perf() - due, ok)

    running = []
    for index in range(count):
        due = start + index / rate
        yield from sleep_until(kernel, due)
        stream.late.append(perf() - due)
        stream.attempted += 1
        running.append(kernel.spawn(one(index, due)))
    yield kernel.all_of(running)


def new_pipeline(client) -> ClientPipeline:
    return ClientPipeline(client, max_batch=PIPELINE_MAX_BATCH, depth=PIPELINE_DEPTH)


def pipelined_closed(client, stream: Stream, next_op, count: int):
    """Process: one pipelined writer submitting ``count`` operations as
    fast as acks allow.  A count, not a duration: however fast the
    commit under test is, it builds the same tree."""
    pipeline = new_pipeline(client)
    stream.sources.append(pipeline.latencies)
    submitted = 0
    try:
        while submitted < count:
            key, value = next_op()
            yield from pipeline.put(key, value)
            submitted += 1
        yield from pipeline.drain()
    except SimError:
        pass
    stream.attempted += submitted
    stream.failed += submitted - pipeline.ops_acked
    return pipeline


def pipelined_open(kernel, client, stream: Stream, rate: float, count: int,
                   next_op, start: float):
    """Process: a pipelined writer fed on a fixed schedule.  Every tick
    it submits the operations that have come due (so it runs at most one
    tick late); latency is the pipeline's submit-to-ack time."""
    pipeline = new_pipeline(client)
    stream.sources.append(pipeline.latencies)
    submitted = 0
    try:
        while submitted < count:
            now = perf()
            due_count = min(count, int((now - start) * rate) + 1)
            while submitted < due_count:
                key, value = next_op()
                stream.late.append(now - (start + submitted / rate))
                pipeline.submit(key, value)
                submitted += 1
            yield kernel.timeout(PIPELINE_TICK_S)
        yield from pipeline.drain()
    except SimError:
        pass
    stream.attempted += submitted
    stream.failed += submitted - pipeline.ops_acked
    return pipeline
