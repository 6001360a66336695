"""Turn one run's measurements into named metrics.

``end_to_end`` is what a user of the cluster sees and is measured with
tracing off; ``per_layer`` needs the span dumps of a traced run.  Both
return every name listed in BENCHMARK.json for every workload.  A
per-layer metric that has no value in a run — the workload does not
exercise its mechanism, or a function it is built on no longer resolves
— is ``None`` (JSON ``null``) with the reason beside it, never 0: most
of them are "lower is better", and a blind metric must not read as a
perfect one.
"""

from __future__ import annotations

import statistics

from harness import REFERENCE_BURST_S, Interval, Stream, percentile, stolen_share, windowed
from workloads import MAX_LATE_P99_S, RECORD_BYTES, Run

SERVERS = {"ingestor": "ingestor-0", "compactor": "compactor-0", "reader": "reader-0"}


class NoValue(Exception):
    """Why a per-layer metric has no value in this run."""


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per(numerator: float, denominator: float, what: str) -> float:
    """``numerator`` per ``what``; no value where there was none."""
    if not denominator:
        raise NoValue(f"no {what} in this run")
    return numerator / denominator


def _delta(run: Run, kind: list[dict], node: str, name: str) -> float:
    before, after = kind[0].get(node, {}), kind[-1].get(node, {})
    return after.get(name, 0) - before.get(name, 0)


def user_ops(run: Run) -> int:
    return sum(s.completed() for s in run.streams.values() if s.counted)


def write_ops(run: Run) -> int:
    return sum(s.completed() for s in run.streams.values() if s.writes)


def late_s(run: Run, fraction: float) -> float:
    """How late the open-loop generator of the primary stream ran."""
    late = run.streams[run.primary].late
    return percentile(late, fraction) if late else 0.0


def on_time_windows(run: Run) -> list[int]:
    """Indices of the windows whose open-loop generator kept its
    schedule (p99 lateness within the limit); all of them for a closed
    loop.  A generator that late was measuring itself."""
    late = run.streams[run.primary].window_late()
    return [i for i, w in enumerate(late) if not w or percentile(w, 0.99) <= MAX_LATE_P99_S]


def valid(run: Run) -> bool:
    """The lateness rule is applied per window, so that one pause of the
    driver (one run in three meets one of a few hundred ms) costs the
    windows it touched, not the run; a run that loses half its windows
    to it is invalid."""
    return len(on_time_windows(run)) * 2 >= len(run.streams[run.primary].marks) - 1


def kept_windows(run: Run) -> list[int]:
    """The on-time windows; every window if none was on time (the run
    is invalid then, but still has to report numbers)."""
    return on_time_windows(run) or list(range(len(run.streams[run.primary].marks) - 1))


def kept(run: Run, stream: Stream) -> list[list[float]]:
    windows = stream.windows()
    return [windows[i] for i in kept_windows(run)]


def machine_speed(run: Run) -> float:
    """How fast the machine went during the run, relative to the
    reference box (1.0): the speed probe's reference time over its
    median time.  One value per run: the box changes speed over quarters
    of an hour, not within a run, and the three hundred bursts of a whole
    run give a steadier median than the six of one set-up."""
    if not run.speed_bursts:
        return 1.0
    return REFERENCE_BURST_S / statistics.median(run.speed_bursts)


def capacity(run: Run, interval: Interval) -> float:
    """How much of the reference machine the run had during
    ``interval``: its speed, less the share of the CPU time the
    hypervisor gave to someone else."""
    return machine_speed(run) * (1.0 - interval.stolen)


def end_to_end(run: Run) -> dict[str, float]:
    """The gated metrics, restated for a reference machine, so that a
    run on a box that happened to go a third faster that quarter of an
    hour, or to lose a fifth of its CPU time to other tenants, reads
    the same.  Elapsed times (a set-up, a latency, the seconds a closed
    loop needed for its operations) scale with the machine's
    ``capacity``; CPU seconds with its speed alone (time the hypervisor
    took away is not charged to a process).  Counts, byte ratios and
    the rate of an open loop (set by its schedule, not by the machine)
    need no correction.  The factors are in the result (``host``), so
    the values as clocked can be had."""
    primary = run.streams[run.primary]
    windows = kept(run, primary)
    seconds = primary.window_seconds()
    server_cpu = sum(_delta(run, run.proc, node, "cpu_s") for node in SERVERS.values())
    server_file_bytes = sum(
        _delta(run, run.proc, node, "wchar") for node in SERVERS.values()
    )
    phase = capacity(run, run.phase)
    ops_s = ratio(sum(len(w) for w in windows), sum(seconds[i] for i in kept_windows(run)))
    return {
        "setup_s": statistics.median(s.seconds * capacity(run, s) for s in run.setups),
        "ops_s": ops_s if primary.late else ops_s / phase,
        "op_p50_ms": windowed(windows, 0.50) * 1e3 * phase,
        "cpu_us_per_op": ratio(server_cpu * 1e6, user_ops(run)) * machine_speed(run),
        "write_amp": ratio(server_file_bytes, run.written_bytes),
        "space_amp": ratio(
            run.disk_bytes.get("ingestor-0", 0) + run.disk_bytes.get("compactor-0", 0),
            run.live_keys * RECORD_BYTES,
        ),
    }


def host_load(run: Run) -> dict:
    """What the machine was like during the run."""
    stream = run.streams[run.primary]
    return {
        "speed": machine_speed(run),
        "steal_pct": 100 * run.phase.stolen,
        "setup_steal_pct": [100 * setup.stolen for setup in run.setups],
        "window_steal_pct": [
            100 * stolen_share(before, after) for before, after in zip(run.host, run.host[1:])
        ],
        "window_late_p99_ms": [
            percentile(w, 0.99) * 1e3 if w else 0.0 for w in stream.window_late()
        ],
        "kept_windows": kept_windows(run),
    }


def detail(run: Run) -> dict:
    """Whole-run values and sample counts beside the windowed medians."""
    out = {}
    for name, stream in run.streams.items():
        windows = stream.windows()
        samples = [x for window in windows for x in window]
        if not samples:
            continue
        out[name] = {
            "samples": len(samples),
            "attempted": stream.attempted,
            "failed": stream.failed,
            "p50_ms": percentile(samples, 0.50) * 1e3,
            "p99_ms": percentile(samples, 0.99) * 1e3,
            "window_p50_ms": [percentile(w, 0.50) * 1e3 for w in windows if w],
            "window_ops": [len(w) for w in windows],
            "window_s": stream.window_seconds(),
        }
        # Closed loops send at once, so their latency is already from send.
        sent = stream.service or samples
        out[name]["from_send_p50_ms"] = percentile(sent, 0.50) * 1e3
        out[name]["from_send_mean_ms"] = statistics.fmean(sent) * 1e3
    if run.visible_lags:
        seen = [lag for lag in run.visible_lags if lag != float("inf")]
        out["visible_lag"] = {
            "samples": len(run.visible_lags),
            "censored": len(run.visible_lags) - len(seen),
            "seen_p50_ms": percentile(seen, 0.50) * 1e3 if seen else None,
        }
    return out


def visible_lag_p50_ms(run: Run) -> float:
    """Median lag of the probes acked in the measured phase.  Probes
    still invisible when the load stopped count as longer than any
    observed lag; if they are the majority there is no median."""
    if not run.visible_lags:
        raise NoValue("no visibility probe in this workload")
    median = percentile(run.visible_lags, 0.50)
    if median == float("inf"):
        raise NoValue("most probe writes were still invisible when the load stopped")
    return median * 1e3


def _stream_p50_ms(run: Run, name: str) -> float:
    if name not in run.streams:
        raise NoValue(f"no {name} operations in this workload")
    return windowed(kept(run, run.streams[name]), 0.50) * 1e3


# ----------------------------------------------------------------------
# Per-layer metrics from the span dumps
# ----------------------------------------------------------------------
class Trace:
    """Read access to the per-process span dumps of one traced run.
    Asking for a span name whose function no longer resolved in some
    process raises :class:`NoValue`."""

    def __init__(self, dumps: dict[str, dict]) -> None:
        self.dumps = dumps
        self.blind = {name for dump in dumps.values() for name in dump["unresolved"]}
        self._by_name: dict[tuple[str, str], list] = {}
        for node, dump in dumps.items():
            for span in dump["spans"]:
                self._by_name.setdefault((node, span[0]), []).append(span)

    def _need(self, name: str) -> None:
        """Handler spans all come from the one ``RpcNode.on`` wrapper;
        counts are named ``<span name>/<what>``."""
        source = "rpc.handler" if name.split(".")[0] in SERVERS else name.split("/")[0]
        if source in self.blind:
            raise NoValue(f"{source} no longer resolves")

    def nodes(self, node: str | None) -> list[str]:
        return [node] if node else list(self.dumps)

    def spans(self, name: str, node: str | None = None) -> list:
        self._need(name)
        return [s for n in self.nodes(node) for s in self._by_name.get((n, name), [])]

    def calls(self, name: str, node: str | None = None) -> int:
        return len(self.spans(name, node))

    def wall_s(self, name: str, node: str | None = None) -> float:
        return sum(s[2] - s[1] for s in self.spans(name, node))

    def self_s(self, name: str, node: str | None = None) -> float:
        return sum(s[5] for s in self.spans(name, node))

    def busy_s(self, name: str, node: str | None = None) -> float:
        return sum(s[6] or 0.0 for s in self.spans(name, node))

    def mean_wall(self, name: str, node: str | None = None) -> float:
        return per(self.wall_s(name, node), self.calls(name, node), f"{name} span")

    def mean_busy_us(self, name: str, node: str | None = None) -> float:
        return per(self.busy_s(name, node) * 1e6, self.calls(name, node), f"{name} span")

    def mean_wait_us(self, name: str, node: str | None = None) -> float:
        waiting = self.wall_s(name, node) - self.busy_s(name, node)
        return per(waiting * 1e6, self.calls(name, node), f"{name} span")

    def leaf(self, name: str) -> tuple[float, float, float]:
        """(calls, total seconds, self seconds) of an aggregated name."""
        self._need(name)
        calls = total = own = 0.0
        for dump in self.dumps.values():
            slot = dump["leaf"].get(name)
            if slot:
                calls, total, own = calls + slot[0], total + slot[1], own + slot[2]
        return calls, total, own

    def leaf_mean_us(self, name: str) -> float:
        calls, total, __ = self.leaf(name)
        return per(total * 1e6, calls, f"{name} call")

    def count(self, name: str) -> float:
        self._need(name)
        return sum(dump["counts"].get(name, 0) for dump in self.dumps.values())

    def stat(self, name: str, node: str) -> float:
        """A public counter of the node (or of its cache, admission
        controller, store), as it grew over the measured phase."""
        self._need("node.stats")
        stats = self.dumps[node]["stats"]
        if name not in stats:
            raise NoValue(f"{node} has no public counter {name}")
        return stats[name]

    def lag_p99_ms(self, node: str) -> float:
        self._need("loop.lag")
        lags = self.dumps[node]["lags"]
        if not lags:
            raise NoValue(f"the ticker of {node} never ran")
        return percentile(lags, 0.99) * 1e3

    def rpcs(self, method: str) -> list[dict]:
        """Each ``method`` RPC the driver made, followed across
        processes: the four codec crossings of its request and reply."""
        self._need("wire.encode")
        self._need("wire.decode")
        by_key: dict[tuple, dict] = {}
        for node, dump in self.dumps.items():
            for kind, caller, rpc_id, name, start, end in dump["marks"]:
                by_key.setdefault((caller, rpc_id), {})[kind] = (start, end, name)
        complete = []
        for (caller, __), crossings in by_key.items():
            if not caller.startswith("client"):
                continue  # a server's own fan-out, e.g. Ingestor -> Compactor
            if len(crossings) == 4 and crossings["req_out"][2] == method:
                complete.append(crossings)
        if not complete:
            raise NoValue(f"no {method} RPC was followed across all four codec crossings")
        return complete


INGESTOR_HANDLERS = ("ingestor.upsert", "ingestor.upsert_batch", "ingestor.read")
#: Handler that serves the primary operation of each workload, and where.
PRIMARY_HANDLER = {
    "upsert_pipelined": ("upsert_batch", "ingestor"),
    "upsert": ("upsert", "ingestor"),
    "read": ("read", "ingestor"),
    "scan": ("range_query", "reader"),
}


def blocking_path(run: Run, trace: Trace) -> dict[str, float]:
    """Mean microseconds of each step one primary request waits for,
    in order; the steps are measured independently, so their sum can be
    held against the latency the client observed."""
    method, role = PRIMARY_HANDLER[run.primary]
    node = SERVERS[role]
    rpcs = trace.rpcs(method)

    def mean(values) -> float:
        return statistics.fmean(values) * 1e6

    handler = f"{role}.{method}"
    calls = trace.calls(handler, node)
    children = sum(s[6] - s[5] for s in trace.spans(handler, node))  # busy in child spans
    path = {
        "client encode": mean(r["req_out"][1] - r["req_out"][0] for r in rpcs),
        "socket + loop, out": mean(r["req_in"][0] - r["req_out"][1] for r in rpcs),
        "server decode": mean(r["req_in"][1] - r["req_in"][0] for r in rpcs),
        "server dispatch": mean(r["resp_out"][0] - r["req_in"][1] for r in rpcs)
        - trace.mean_wall(handler, node) * 1e6,
        "handler self": per(trace.self_s(handler, node) * 1e6, calls, f"{handler} span"),
        "handler children (memtable, WAL, merge...)": per(
            children * 1e6, calls, f"{handler} span"
        ),
        "handler waiting": trace.mean_wait_us(handler, node),
        "server encode": mean(r["resp_out"][1] - r["resp_out"][0] for r in rpcs),
        "socket + loop, back": mean(r["resp_in"][0] - r["resp_out"][1] for r in rpcs),
        "client decode": mean(r["resp_in"][1] - r["resp_in"][0] for r in rpcs),
    }
    path["round trip"] = mean(r["resp_in"][1] - r["req_out"][0] for r in rpcs)
    return path


def rpc_overhead_us(run: Run, trace: Trace) -> float:
    """Client round trip minus the time inside the server's handler: what
    the codec, the sockets and the two event loops cost one request."""
    method, role = PRIMARY_HANDLER[run.primary]
    handler_wall_us = trace.mean_wall(f"{role}.{method}", SERVERS[role]) * 1e6
    return blocking_path(run, trace)["round trip"] - handler_wall_us


def per_layer(run: Run, trace: Trace) -> tuple[dict[str, float | None], dict[str, str]]:
    """Every per-layer metric of BENCHMARK.json, and for each that is
    ``None`` in this run the reason why."""
    ops = user_ops(run)
    wops = write_ops(run)
    e2e = end_to_end(run)
    primary = run.streams[run.primary]
    batches = sum(p.batches_sent for p in run.pipelines)
    recovery = Trace({"ingestor-0": run.recovery_dump}) if run.recovery_dump else None

    def cpu_us_per_op(node: str) -> float:
        return per(_delta(run, run.proc, node, "cpu_s") * 1e6, ops, "user operation")

    def gauge_delta(name: str) -> float:
        return sum(_delta(run, run.gauges, node, name) for node in run.gauges[-1])

    def late_p99_ms() -> float:
        if not primary.late:
            raise NoValue("a closed loop has no schedule to be late for")
        return late_s(run, 0.99) * 1e3

    def recovery_s() -> float:
        if run.recovery_s is None:
            raise NoValue("no kill -9 and restart in this workload")
        return run.recovery_s

    def sstable_read_us_per_entry() -> float:
        if recovery is None:
            raise NoValue("sstables are read from disk only by a restart")
        return per(
            recovery.leaf("sstable_io.read")[1] * 1e6,
            recovery.count("sstable_io.read/entries"), "sstable entry read",
        )

    def hit_rate(node: str) -> float:
        hits = trace.stat("cache.hits", node)
        return per(hits, hits + trace.stat("cache.misses", node), "cache lookup")

    thunks = {
        "core.client.cpu_us_per_op": lambda: cpu_us_per_op("driver"),
        # A request that is not a batch carries one operation.
        "core.client.batch_ops_mean": lambda: (
            sum(p.ops_acked for p in run.pipelines) / batches if batches else 1.0
        ),
        "core.client.retries": lambda: run.client_retries,
        "core.client.late_p99_ms": late_p99_ms,
        "live.wire.encode_us_per_op": lambda: per(
            trace.self_s("wire.encode") * 1e6, ops, "user operation"
        ),
        "live.wire.decode_us_per_op": lambda: per(
            trace.self_s("wire.decode") * 1e6, ops, "user operation"
        ),
        "live.wire.bytes_per_op": lambda: per(
            trace.count("wire.encode/bytes"), ops, "user operation"
        ),
        "live.transport.frames_per_write": lambda: per(
            gauge_delta("transport_frames_sent"), gauge_delta("transport_write_calls"),
            "socket write",
        ),
        "live.transport.net_bytes_per_user_byte": lambda: per(
            gauge_delta("transport_bytes_sent"), run.user_bytes, "user byte"
        ),
        "live.transport.queue_high_water": lambda: max(
            g.get("transport_queue_high_water", 0) for g in run.gauges[-1].values()
        ),
        "core.ingestor.cpu_us_per_op": lambda: cpu_us_per_op("ingestor-0"),
        "core.ingestor.upsert_busy_us": lambda: trace.mean_busy_us("ingestor.upsert"),
        "core.ingestor.batch_busy_us_per_op": lambda: per(
            trace.busy_s("ingestor.upsert_batch") * 1e6,
            trace.count("store.log_entries/entries") - trace.calls("ingestor.upsert"),
            "batched upsert",
        ),
        "core.ingestor.read_busy_us": lambda: trace.mean_busy_us("ingestor.read"),
        "core.ingestor.handler_wait_us": lambda: per(
            sum((trace.wall_s(h) - trace.busy_s(h)) * 1e6 for h in INGESTOR_HANDLERS),
            sum(trace.calls(h) for h in INGESTOR_HANDLERS), "Ingestor handler span",
        ),
        "core.ingestor.flushes": lambda: trace.stat("stats.flushes", "ingestor-0"),
        "core.ingestor.minor_compactions": lambda: trace.stat(
            "stats.minor_compactions", "ingestor-0"
        ),
        "core.ingestor.stall_s": lambda: trace.stat("stats.stall_time", "ingestor-0"),
        "core.ingestor.forward_retries": lambda: trace.stat(
            "stats.forward_retries", "ingestor-0"
        ),
        "lsm.memtable.put_us": lambda: trace.leaf_mean_us("memtable.put"),
        "lsm.memtable.get_us": lambda: trace.leaf_mean_us("memtable.get"),
        "store.node_store.log_entries_us": lambda: trace.mean_wall("store.log_entries") * 1e6,
        "store.node_store.fsyncs_per_op": lambda: per(
            trace.leaf("os.fsync")[0], wops, "write operation"
        ),
        "store.node_store.entries_per_fsync": lambda: per(
            trace.count("store.log_entries/entries"), trace.calls("store.log_entries"),
            "store.log_entries span",
        ),
        "store.node_store.commit_ms": lambda: trace.mean_wall("store.commit") * 1e3,
        "store.node_store.commits": lambda: trace.calls("store.commit"),
        "store.node_store.bytes_per_user_byte": lambda: e2e["write_amp"],
        "store.node_store.recovery_s": recovery_s,
        "lsm.sstable.build_us_per_entry": lambda: per(
            trace.leaf("sstable.build")[2] * 1e6, trace.count("sstable.build/entries"),
            "sstable entry built",
        ),
        "lsm.sstable.get_us": lambda: trace.leaf_mean_us("sstable.get"),
        "lsm.sstable_io.write_us_per_entry": lambda: per(
            trace.wall_s("sstable_io.write") * 1e6, trace.count("sstable_io.write/entries"),
            "sstable entry written",
        ),
        "lsm.sstable_io.read_us_per_entry": sstable_read_us_per_entry,
        "lsm.compaction.runs": lambda: trace.calls("compaction.merge"),
        "lsm.compaction.merge_entries_per_s": lambda: per(
            trace.count("compaction.merge/entries_in"), trace.wall_s("compaction.merge"),
            "second of merging",
        ),
        "lsm.compaction.entries_rewritten_per_op": lambda: per(
            trace.count("compaction.merge/entries_out"), wops, "write operation"
        ),
        "lsm.iterators.merge_us_per_entry": lambda: per(
            trace.self_s("compaction.merge") * 1e6,
            trace.count("compaction.merge/entries_in"), "entry merged",
        ),
        "core.compactor.cpu_us_per_op": lambda: cpu_us_per_op("compactor-0"),
        "core.compactor.forward_busy_ms": lambda: trace.mean_busy_us("compactor.forward") / 1e3,
        "core.compactor.forward_wait_ms": lambda: trace.mean_wait_us("compactor.forward") / 1e3,
        "core.compactor.read_busy_us": lambda: trace.mean_busy_us("compactor.read"),
        "core.compactor.duplicate_forwards": lambda: trace.stat(
            "stats.duplicate_forwards", "compactor-0"
        ),
        "core.reader.cpu_us_per_op": lambda: cpu_us_per_op("reader-0"),
        "core.reader.install_busy_ms": lambda: trace.mean_busy_us("reader.backup_update") / 1e3,
        "core.reader.updates_received": lambda: trace.stat(
            "stats.updates_received", "reader-0"
        ),
        "core.reader.catchups": lambda: trace.stat("stats.catchups", "reader-0"),
        "core.reader.range_query_busy_us": lambda: trace.mean_busy_us("reader.range_query"),
        "core.reader.read_busy_us": lambda: trace.mean_busy_us("reader.read"),
        "core.reader.space_bytes_per_user_byte": lambda: per(
            run.disk_bytes["reader-0"], run.live_keys * RECORD_BYTES, "live user byte"
        ),
        "lsm.manifest.tables_probed_per_read": lambda: per(
            trace.count("manifest.tables_for_key/tables"),
            trace.leaf("manifest.tables_for_key")[0], "manifest.tables_for_key call",
        ),
        "lsm.bloom.negative_rate": lambda: per(
            trace.count("bloom.probe/negatives"), trace.leaf("bloom.probe")[0],
            "bloom.probe call",
        ),
        "lsm.cache.evictions": lambda: sum(
            trace.stat("cache.evictions", node) for node in SERVERS.values()
        ),
        "lsm.sortedview.refresh_ms": lambda: trace.mean_wall("sortedview.refresh") * 1e3,
        "lsm.sortedview.scan_us": lambda: trace.leaf_mean_us("sortedview.scan"),
        "core.flow.delayed": lambda: trace.stat("admission.delayed", "ingestor-0"),
        "core.flow.rejected": lambda: trace.stat("admission.rejected", "ingestor-0"),
        "visible_lag_p50_ms": lambda: visible_lag_p50_ms(run),
        "read_hot_p50_ms": lambda: _stream_p50_ms(run, "read_hot"),
        "read_cold_p50_ms": lambda: _stream_p50_ms(run, "read_cold"),
        "op_p99_ms": lambda: percentile(
            [x for window in primary.windows() for x in window], 0.99
        ) * 1e3,
        "host.speed": lambda: machine_speed(run),
        "host.steal_pct": lambda: 100 * run.phase.stolen,
        "trace.ops_s": lambda: e2e["ops_s"],
        "trace.op_p50_ms": lambda: e2e["op_p50_ms"],
        "trace.unresolved": lambda: len(trace.blind),
        "live.runtime.rpc_overhead_us": lambda: rpc_overhead_us(run, trace),
    }
    for role, node in SERVERS.items():
        thunks[f"live.runtime.loop_lag_p99_ms.{role}"] = (
            lambda node=node: trace.lag_p99_ms(node)
        )
        thunks[f"store.node_store.commit_busy_s.{role}"] = (
            lambda node=node: trace.wall_s("store.commit", node)
        )
        thunks[f"lsm.cache.hit_rate.{role}"] = lambda node=node: hit_rate(node)
    for role in ("ingestor", "compactor"):
        thunks[f"lsm.compaction.busy_s.{role}"] = (
            lambda role=role: trace.wall_s("compaction.merge", SERVERS[role])
        )
    values: dict[str, float | None] = {}
    reasons: dict[str, str] = {}
    for name, thunk in thunks.items():
        try:
            values[name] = float(thunk())
        except NoValue as missing:
            values[name] = None
            reasons[name] = str(missing)
    return values, reasons
