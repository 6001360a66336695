"""The four workloads of the e2e benchmark and their output checks.

Each workload boots a fresh durable cluster (1 Ingestor, 1 Compactor,
1 Reader), drives it from this one process through at most two load
clients plus one probe client, and checks what came back.  Inputs come
from the seed alone.  Everything that writes is fixed by an op count
(the closed-loop writers of ``ingest_sat``) or by rate x duration (the
open loops), never by "as many as fit", so both commits of a comparison
build the same tree; only closed-loop readers, which change nothing,
run for a duration.  Why each workload exists is recorded in
``WORKLOADS`` (and in BENCHMARK.json, which the smoke test compares).
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import itertools
import json
import random
import signal
from dataclasses import dataclass, field

from repro.sim.kernel import SimError

import harness
from harness import Bench, Stream, perf

#: Latencies and throughput are medians over windows this long.
WINDOW_S = 1.0
#: Integer keys; the probe keys above the range are written once each.
KEY_RANGE = 100_000
PROBE_BASE = 100_000
PROBE_KEYS = 1_000
#: 20-byte encoded key + 16-byte value.
RECORD_BYTES = 36
PROBE_EVERY_S = 0.25
PROBE_POLL_S = 0.05
#: How long probes keep polling after the load stopped.
PROBE_GRACE_S = 1.0
ZIPF_THETA = 0.99
SCAN_MAX_LEN = 100
READBACK_CONCURRENCY = 8
BOOT_RETRIES = 2
DURABILITY_SAMPLE = 500
#: Open-loop validity: a generator this late (p99) is measuring itself.
MAX_LATE_P99_S = 0.005
#: ``ingest_sat`` submits this many upserts per second of ``--seconds``
#: (and of warm-up): the rate of the ISSUE's prototype box, so that there
#: the phase lasts ``--seconds``.  The count is what is fixed.
INGEST_OPS_PER_S = 13_000
UPSERT_PACED_RATE = 500.0
READ_MIX_WRITE_RATE = 200.0
ANALYTICS_WRITE_RATE = 2000.0
#: A set-up without preload is cheap and unsteady: repeat it, report the median.
CHEAP_SETUPS = 3

WORKLOADS = {
    "ingest_sat": (
        "closed loop, 2 pipelined writers putting a fixed count of upserts into an empty "
        "cluster at full tilt: the whole write pipeline (WAL, flush, compaction, forward, "
        "merge, Reader install)"
    ),
    "upsert_paced": (
        "open loop, 500 single upserts/s timed from their due time: the per-request "
        "path with nothing to amortise it; compaction is almost idle"
    ),
    "read_mix": (
        "closed-loop point reads over a preloaded tree, Zipfian half then uniform "
        "half, beside 200 upserts/s: cache-friendly vs cache-hostile read path"
    ),
    "analytics": (
        "closed-loop Reader range scans beside 2000 pipelined upserts/s: the Reader "
        "serving scans while installing updates"
    ),
}


@dataclass(frozen=True)
class Scale:
    """How much work one run does."""

    seconds: float
    windows: int
    keys: int = KEY_RANGE
    warmup_s: float = 3.0
    readback: int = 2_000

    @property
    def ingest_warmup_ops(self) -> int:
        return int(INGEST_OPS_PER_S * self.warmup_s)

    @property
    def ingest_ops(self) -> int:
        return int(INGEST_OPS_PER_S * self.seconds)

    @classmethod
    def full(cls, seconds: float) -> "Scale":
        return cls(seconds=seconds, windows=max(1, round(seconds / WINDOW_S)))

    @classmethod
    def smoke(cls) -> "Scale":
        return cls(seconds=2.0, windows=2, keys=20_000, warmup_s=0.5, readback=300)


class Zipfian:
    """Exact-CDF Zipf picker over ``[0, n)``, ranks scattered over the
    key space so hot keys are not neighbours.  Kept here so the inputs
    do not move when the program's own generators change."""

    def __init__(self, n: int, theta: float = ZIPF_THETA) -> None:
        weights = [1.0 / (rank**theta) for rank in range(1, n + 1)]
        self.n = n
        self.cdf = list(itertools.accumulate(weights))

    def pick(self, rng: random.Random) -> int:
        rank = bisect.bisect_left(self.cdf, rng.random() * self.cdf[-1])
        return (rank * 2_654_435_761) % self.n


class Written:
    """The driver's model of the store: what it wrote and what was acked.

    A value is ``%06d%010d`` of its key and a counter that grows with
    every write, so any value read back can be checked against its key
    and ordered against the writes acked before the read was issued.
    """

    def __init__(self) -> None:
        self.counter = 0
        self.final: dict[int, bytes] = {}
        self.acked: dict[int, int] = {}

    def submit(self, key: int, preload: bool = False) -> bytes:
        """The next value for ``key`` (the preload writes counter 0)."""
        if not preload:
            self.counter += 1
        value = b"%06d%010d" % (key, 0 if preload else self.counter)
        self.final[key] = value
        return value

    def ack(self, key: int, value: bytes) -> None:
        self.acked[key] = max(self.acked.get(key, 0), int(value[6:]))

    def plausible(self, key: int, value: bytes | None, floor: int = 0) -> bool:
        """Was ``value`` written for ``key``, no older than ``floor``?"""
        if value is None or len(value) != 16 or value[:6] != b"%06d" % key:
            return False
        return floor <= int(value[6:]) <= self.counter

    def bad_pair(self, pairs, lo: int, hi: int):
        """The first pair of a scan of ``[lo, hi]`` that is out of
        order, repeated, out of range or not a value written for its
        key; None if the scan is sound."""
        previous = -1
        for key_bytes, value in pairs:
            key = int(key_bytes)
            if not (previous < key and lo <= key <= hi) or not self.plausible(key, value):
                return key_bytes, value
            previous = key
        return None


@dataclass
class Run:
    """Everything one run of one workload measured."""

    workload: str
    seed: int
    scale: Scale
    traced: bool
    #: Every set-up and the measured phase, as :class:`harness.Interval`.
    setups: list = field(default_factory=list)
    phase: harness.Interval | None = None
    streams: dict[str, Stream] = field(default_factory=dict)
    primary: str = ""
    #: /proc samples and health gauges when the measured phase begins
    #: and when the cluster has finished the work it caused.
    proc: list[dict] = field(default_factory=list)
    gauges: list[dict] = field(default_factory=list)
    user_bytes: float = 0.0
    written_bytes: float = 0.0
    visible_lags: list[float] = field(default_factory=list)
    check_attempted: int = 0
    check_failed: int = 0
    problems: list[str] = field(default_factory=list)
    readback_digest: str = ""
    exit_codes: dict[str, int] = field(default_factory=dict)
    disk_bytes: dict[str, int] = field(default_factory=dict)
    live_keys: int = 0
    #: Relaunch -> READY after the kill -9 (``upsert_paced`` only).
    recovery_s: float | None = None
    dumps: dict[str, dict] = field(default_factory=dict)
    recovery_dump: dict | None = None
    pipelines: list = field(default_factory=list)
    client_retries: int = 0
    data_root_fs: str = ""
    #: Whole-machine CPU seconds by state at every window boundary.
    host: list[dict] = field(default_factory=list)
    #: Seconds each machine-speed burst of the run took.
    speed_bursts: list[float] = field(default_factory=list)

    def stream(self, name: str, **kwargs) -> Stream:
        return self.streams.setdefault(name, Stream(name, **kwargs))

    def problem(self, text: str) -> None:
        """Say why an operation or check failed (the first twenty)."""
        if len(self.problems) < 20:
            self.problems.append(text)

    def check_failure(self, text: str) -> None:
        self.check_failed += 1
        self.problem(text)


class Context:
    """What the load processes of one run share."""

    def __init__(self, bench: Bench, run: Run) -> None:
        self.bench = bench
        self.run = run
        self.kernel = bench.kernel
        self.written = Written()
        self.rng = random.Random(run.seed)
        self.stopped = False
        self.measuring = False
        self.begin = 0.0
        self.end = float("inf")
        self.probes_launched = 0
        #: Open-loop processes the measured phase waits for at its end.
        self.scheduled: list = []
        #: Writers with a fixed op count; when there are any, the measured
        #: phase lasts until they are done instead of ``scale.seconds``.
        self.counted: list = []

    def stop(self) -> bool:
        return self.stopped

    def spawn(self, process, scheduled: bool = False):
        handle = self.kernel.spawn(process)
        if scheduled:
            self.scheduled.append(handle)
        return handle

    def moved(self, user_bytes: int, written: bool = False) -> None:
        """Count user bytes read or written during the measured phase."""
        if self.measuring:
            self.run.user_bytes += user_bytes
            if written:
                self.run.written_bytes += user_bytes


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------
def upsert_op(ctx: Context, client, key: int):
    value = ctx.written.submit(key)
    yield from client.upsert(key, value)
    ctx.written.ack(key, value)
    ctx.moved(RECORD_BYTES, written=True)


def read_op(ctx: Context, client, key: int):
    """A read may never return a value older than the last one acked
    before it was issued."""
    floor = ctx.written.acked.get(key, 0)
    value = yield from client.read(key)
    ctx.moved(RECORD_BYTES)
    if not ctx.written.plausible(key, value, floor):
        ctx.run.problem(f"read {key}: {value!r} older than acked {floor}")
        return False


def scan_op(ctx: Context, client, lo: int, hi: int):
    """Pairs sorted, unique, inside ``[lo, hi]``, each a written value."""
    pairs = yield from client.analytics_query(lo, hi)
    ctx.moved(RECORD_BYTES * len(pairs))
    bad = ctx.written.bad_pair(pairs, lo, hi)
    if bad is not None:
        ctx.run.problem(f"scan [{lo},{hi}]: bad pair {bad!r}")
        return False


def next_write(ctx: Context, rng: random.Random, lane: int, lanes: int):
    """Uniform keys; with several writers each owns the keys of its
    lane, so the last value submitted for a key is its final value."""

    def next_op():
        key = rng.randrange(ctx.run.scale.keys // lanes) * lanes + lane
        ctx.moved(RECORD_BYTES, written=True)
        return key, ctx.written.submit(key)

    return next_op


def probe(ctx: Context, index: int):
    """Process: write one probe key, then poll the Reader until it
    serves it.  Visible lag runs from the durable ack to the first
    backup read that returns the value."""
    client = ctx.bench.clients[harness.PROBE_CLIENT]
    writes = ctx.run.stream("probe_upsert", writes=True)
    polls = ctx.run.stream("probe_backup_read")
    key = PROBE_BASE + index
    started = perf()
    writes.attempted += 1
    ok = yield from harness.guarded(upsert_op(ctx, client, key))
    acked = perf()
    writes.done(acked - started, ok)
    if not ok:
        return
    value = ctx.written.final[key]
    counted = ctx.measuring
    while True:
        polled = perf()
        polls.attempted += 1
        try:
            got = yield from client.read_from_backup(key)
        except SimError:
            polls.done(perf() - polled, False)
            return
        now = perf()
        polls.done(now - polled)
        if got == value:
            if counted:
                ctx.run.visible_lags.append(now - acked)
            return
        if ctx.stopped and now > ctx.end + PROBE_GRACE_S:
            # Nothing pushes the tree any more, so this write may stay in
            # the Ingestor for good: its lag is censored, not failed, and
            # counts as longer than any lag that was observed.
            if counted:
                ctx.run.visible_lags.append(float("inf"))
            return
        yield ctx.kernel.timeout(PROBE_POLL_S)


def probe_launcher(ctx: Context):
    """Process: one probe every 250 ms while the load runs."""
    running = []
    start = perf()
    while not ctx.stopped and ctx.probes_launched < PROBE_KEYS:
        running.append(ctx.kernel.spawn(probe(ctx, ctx.probes_launched)))
        ctx.probes_launched += 1
        yield from harness.sleep_until(
            ctx.kernel, start + ctx.probes_launched * PROBE_EVERY_S, precise=False
        )
    yield ctx.kernel.all_of(running)


# ----------------------------------------------------------------------
# The workloads: each starts its load processes and names its primary op
# ----------------------------------------------------------------------
def _total_s(ctx: Context) -> float:
    return ctx.run.scale.warmup_s + ctx.run.scale.seconds


def start_ingest_sat(ctx: Context) -> list:
    ctx.run.primary = "upsert_pipelined"
    scale, lanes = ctx.run.scale, harness.LOAD_CLIENTS
    stream = ctx.run.stream("upsert_pipelined", sources=[], writes=True)
    ctx.counted = [
        ctx.spawn(
            harness.pipelined_closed(
                ctx.bench.clients[lane], stream,
                next_write(ctx, random.Random(ctx.rng.random()), lane, lanes),
                (scale.ingest_warmup_ops + scale.ingest_ops) // lanes,
            )
        )
        for lane in range(lanes)
    ]
    return ctx.counted + [ctx.spawn(probe_launcher(ctx))]


def start_upsert_paced(ctx: Context) -> list:
    ctx.run.primary = "upsert"
    client = ctx.bench.clients[0]
    rng = random.Random(ctx.rng.random())
    keys = ctx.run.scale.keys
    load = harness.open_loop(
        ctx.kernel, ctx.run.stream("upsert", writes=True), UPSERT_PACED_RATE,
        int(UPSERT_PACED_RATE * _total_s(ctx)),
        lambda index: upsert_op(ctx, client, rng.randrange(keys)), perf(),
    )
    return [ctx.spawn(load, scheduled=True)]


def start_read_mix(ctx: Context) -> list:
    ctx.run.primary = "read"
    reader, writer = ctx.bench.clients[0], ctx.bench.clients[1]
    keys = ctx.run.scale.keys
    read_rng = random.Random(ctx.rng.random())
    write_rng = random.Random(ctx.rng.random())
    zipf = Zipfian(keys)
    # Views of "read", not extra operations.
    hot = ctx.run.stream("read_hot", counted=False)
    cold = ctx.run.stream("read_cold", counted=False)

    def one_read(index: int):
        """Zipfian until half way through the measured phase (hot:
        few keys, the caches fit them), uniform after (cold)."""
        is_hot = perf() < ctx.begin + ctx.run.scale.seconds / 2
        key = zipf.pick(read_rng) if is_hot else read_rng.randrange(keys)
        started = perf()
        ok = yield from harness.guarded(read_op(ctx, reader, key))
        (hot if is_hot else cold).done(perf() - started)
        return ok

    reads = harness.closed_loop(ctx.run.stream("read"), one_read, ctx.stop)
    writes = harness.open_loop(
        ctx.kernel, ctx.run.stream("upsert", writes=True), READ_MIX_WRITE_RATE,
        int(READ_MIX_WRITE_RATE * _total_s(ctx)),
        lambda index: upsert_op(ctx, writer, write_rng.randrange(keys)), perf(),
    )
    return [ctx.spawn(reads), ctx.spawn(writes, scheduled=True)]


def start_analytics(ctx: Context) -> list:
    ctx.run.primary = "scan"
    scanner, writer = ctx.bench.clients[0], ctx.bench.clients[1]
    keys = ctx.run.scale.keys
    scan_rng = random.Random(ctx.rng.random())
    zipf = Zipfian(keys)

    def one_scan(index: int):
        lo = zipf.pick(scan_rng)
        return scan_op(ctx, scanner, lo, lo + scan_rng.randint(1, SCAN_MAX_LEN) - 1)

    scans = harness.closed_loop(ctx.run.stream("scan"), one_scan, ctx.stop)
    stream = ctx.run.stream("upsert_pipelined", sources=[], writes=True)
    writes = harness.pipelined_open(
        ctx.kernel, writer, stream, ANALYTICS_WRITE_RATE,
        int(ANALYTICS_WRITE_RATE * _total_s(ctx)),
        next_write(ctx, random.Random(ctx.rng.random()), 0, 1), perf(),
    )
    return [
        ctx.spawn(scans),
        ctx.spawn(writes, scheduled=True),
        ctx.spawn(probe_launcher(ctx)),
    ]


STARTERS = {
    "ingest_sat": (start_ingest_sat, False),
    "upsert_paced": (start_upsert_paced, False),
    "read_mix": (start_read_mix, True),
    "analytics": (start_analytics, True),
}


# ----------------------------------------------------------------------
# Set-up, measured phase, checks
# ----------------------------------------------------------------------
def preload(ctx: Context):
    """Process: write every key once, in order, through both load
    clients' pipelines."""
    lanes = harness.LOAD_CLIENTS
    keys = ctx.run.scale.keys

    def lane_writer(lane: int):
        pipeline = harness.new_pipeline(ctx.bench.clients[lane])
        for key in range(lane, keys, lanes):
            yield from pipeline.put(key, ctx.written.submit(key, preload=True))
        yield from pipeline.drain()

    yield ctx.kernel.all_of([ctx.kernel.spawn(lane_writer(lane)) for lane in range(lanes)])


async def set_up(run: Run, attempt: int) -> Context:
    """Launch -> all READY -> preload done -> quiescent, timed.

    ``localhost_spec`` picks its ports by probing, so now and then one
    is taken again before a node (or the driver) binds it; such a boot
    is thrown away and repeated with fresh ports, untimed.
    """
    for retry in range(BOOT_RETRIES + 1):
        started, host = perf(), harness.host_cpu_sample()
        bench = Bench(f"{run.workload}-{attempt}", run.seed, run.traced)
        try:
            await bench.boot()
            break
        except (OSError, RuntimeError, TimeoutError):
            await bench.teardown()
            if retry == BOOT_RETRIES:
                raise
    try:
        ctx = Context(bench, run)
        if STARTERS[run.workload][1]:
            await bench.kernel.run(preload(ctx))
        await bench.kernel.run(bench.quiesce())
    except BaseException:
        await bench.teardown()
        raise
    run.setups.append(harness.Interval(started, perf(), host, harness.host_cpu_sample()))
    return ctx


def measured_phase(ctx: Context, tracer):
    """Process: warm up, sample the processes, then mark the streams at
    every window boundary until the measured work is done: the fixed op
    count of ``ctx.counted`` if there is one, else ``scale.seconds``."""
    run, bench, scale = ctx.run, ctx.bench, ctx.run.scale
    window_s = scale.seconds / scale.windows
    done = ctx.kernel.all_of(ctx.counted) if ctx.counted else None
    if done is None:
        yield from harness.sleep_until(ctx.kernel, ctx.begin)
    else:
        primary = run.streams[run.primary]
        while primary.acked() < scale.ingest_warmup_ops and not done.triggered:
            yield ctx.kernel.timeout(0.005)
    if tracer is not None:
        bench.signal_servers(signal.SIGUSR1)
        tracer.reset()
    # Not waited for: a saturated node answers a health RPC a second
    # late, and the phase must begin at the op count, not after it.
    begin_gauges = ctx.kernel.spawn(bench.gauges())
    run.proc.append(bench.sample())
    if done is not None:
        ctx.begin = perf()
    ctx.measuring = True
    boundary = 0
    while True:
        run.host.append(harness.host_cpu_sample())
        now = perf()
        for stream in run.streams.values():
            stream.mark(now)
        boundary += 1
        due = ctx.begin + boundary * window_s
        if done is None:
            if boundary > scale.windows:
                break
            yield from harness.sleep_until(ctx.kernel, due)
        else:
            if done.triggered:
                break
            yield ctx.kernel.any_of([done, ctx.kernel.timeout(max(0.0, due - perf()))])
    ctx.stopped = True
    ctx.end = perf()
    run.phase = harness.Interval(ctx.begin, ctx.end, run.host[0], run.host[-1])
    # Open loops have a fixed number of requests: let the last few land
    # so both commits of a comparison have done the same work.
    yield ctx.kernel.all_of(ctx.scheduled)
    ctx.measuring = False
    run.gauges.append((yield begin_gauges))


def finished_work(ctx: Context, load: list):
    """Process: closed loops drain their pipelines, probes find their
    writes, the cluster finishes what the load caused; then the closing
    samples.  Cost per operation is charged up to here, so it does not
    depend on how far compaction lagged when the last ack arrived."""
    run, bench = ctx.run, ctx.bench
    results = yield ctx.kernel.all_of(load)
    run.pipelines = [p for p in results if p is not None]
    yield from bench.quiesce()
    run.proc.append(bench.sample())
    run.gauges.append((yield from bench.gauges()))


def read_back(ctx: Context, keys: list[int]):
    """Process: every sampled key must read back as the last value the
    driver wrote for it.  Returns a digest of what was read."""
    run = ctx.run
    results: dict[int, bytes | None] = {}

    def reader(client, mine: list[int]):
        for key in mine:
            run.check_attempted += 1
            try:
                results[key] = yield from client.read(key)
            except SimError as error:
                run.check_failure(f"read-back of {key} raised {error!r}")
                continue
            if results[key] != ctx.written.final[key]:
                run.check_failure(
                    f"read-back of {key}: {results[key]!r}, wrote {ctx.written.final[key]!r}"
                )

    clients = ctx.bench.clients[: harness.LOAD_CLIENTS]
    yield ctx.kernel.all_of(
        [
            ctx.kernel.spawn(reader(clients[i % len(clients)], keys[i::READBACK_CONCURRENCY]))
            for i in range(READBACK_CONCURRENCY)
        ]
    )
    digest = hashlib.sha256()
    for key in sorted(results):
        digest.update(b"%d=%s;" % (key, results[key] or b"-"))
    return digest.hexdigest()[:16]


def reader_full_range(ctx: Context):
    """Process: the Reader's whole key range must be strictly key-sorted
    and hold only values the driver wrote for each key."""
    run, top = ctx.run, PROBE_BASE + PROBE_KEYS
    run.check_attempted += 1
    try:
        pairs = yield from ctx.bench.clients[0].analytics_query(0, top)
    except SimError as error:
        run.check_failure(f"full-range scan raised {error!r}")
        return
    bad = ctx.written.bad_pair(pairs, 0, top)
    if bad is not None:
        run.check_failure(f"full-range scan: bad pair {bad!r}")


async def durability_check(ctx: Context) -> None:
    """SIGKILL the Ingestor, restart it from its data dir, and read back
    acked keys.  (SIGKILL leaves the page cache intact; dropping bytes
    that were never flushed is out of scope here.)"""
    run, bench = ctx.run, ctx.bench
    keys = random.Random(run.seed + 1).sample(
        sorted(ctx.written.final), min(DURABILITY_SAMPLE, len(ctx.written.final))
    )
    run.recovery_s = await bench.crash_and_restart("ingestor-0")
    if run.traced:
        # The new process has recorded only its recovery so far.
        run.recovery_dump = (await bench.collect_dumps()).get("ingestor-0")
    await bench.kernel.run(read_back(ctx, keys))


async def run_workload(workload: str, seed: int, scale: Scale, traced: bool,
                       tracer=None) -> Run:
    """One complete run: set-up (repeated where it is cheap, so its
    median is steady), warm-up, measured phase, checks, drain."""
    start_load, preloads = STARTERS[workload]
    run = Run(workload, seed, scale, traced)
    speed_probe = asyncio.create_task(harness.speed_probe(run.speed_bursts))
    ctx = None
    try:
        for attempt in range(1 if preloads else CHEAP_SETUPS):
            if ctx is not None:
                await ctx.bench.teardown()
            ctx = await set_up(run, attempt)
        bench = ctx.bench
        run.data_root_fs = harness.filesystem_of(bench.work)
        ctx.begin = perf() + scale.warmup_s
        load = start_load(ctx)
        await bench.kernel.run(measured_phase(ctx, tracer))
        await bench.kernel.run(finished_work(ctx, load))
        if traced:
            run.dumps = await bench.collect_dumps()
            # A copy: the driver goes on recording while the checks run.
            run.dumps["driver"] = json.loads(json.dumps(tracer.snapshot()))
        # Load keys only: how many probe keys exist depends on timing.
        written = sorted(key for key in ctx.written.final if key < PROBE_BASE)
        sample = random.Random(seed + 2).sample(written, min(scale.readback, len(written)))
        run.readback_digest = await bench.kernel.run(read_back(ctx, sample))
        await bench.kernel.run(reader_full_range(ctx))
        if workload == "upsert_paced":
            await durability_check(ctx)
        run.client_retries = sum(
            c.stats.timeouts + c.stats.backpressure_retries for c in bench.clients
        )
        run.live_keys = len(ctx.written.final)
        run.exit_codes = await bench.stop()
        run.disk_bytes = {
            node: harness.dir_bytes(bench.data_dir(node)) for node in bench.spec.node_names
        }
        for node, code in run.exit_codes.items():
            run.check_attempted += 1
            if code != 0:
                run.check_failure(f"{node} exited with {code}")
    finally:
        speed_probe.cancel()
        if ctx is not None:
            await ctx.bench.teardown()
    return run
