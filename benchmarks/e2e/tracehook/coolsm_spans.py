"""Span recorder for the e2e benchmark's traced run.

Wraps the public entry points of each layer of ``repro`` from outside
(no ``src/`` edit): :func:`install` resolves every name in ``TARGETS``
and replaces it with a timing wrapper.  A name that no longer resolves
has its span name listed in ``unresolved`` and the metrics built on it
read null — a refactor can blind a metric, never crash the benchmark.

A span is ``(name, start, end, parent, id, self_s, busy_s)`` on
``time.perf_counter`` (CLOCK_MONOTONIC, so spans of different
processes on one machine share a timeline).  ``parent`` is the id of
the span that was running in this process when the span began, 0 for
none.  Self time is the span minus the part its children cover.  RPC
handlers registered through ``RpcNode.on`` are generators resumed by
the event loop: time inside each resume is *busy*, the rest of the
span is *waiting*, and their self time is busy minus children.  Hot
per-entry functions are kept as per-name aggregates (count, total,
self) instead of one tuple per call.

Spans stay in memory.  In a server process SIGUSR1 clears them (start
of the measured phase) and SIGUSR2 writes them to
``$COOLSM_E2E_TRACE_DIR/<pid>.json`` (when the measured work is
finished); the driver process calls :meth:`Recorder.reset` and
:meth:`Recorder.snapshot` directly.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import importlib
import json
import os
import signal
import sys
import time

perf = time.perf_counter
TRACE_ENV = "COOLSM_E2E_TRACE_DIR"

#: Lateness of a 10 ms ticker task is the event-loop lag a request sees.
TICK_S = 0.010


class Recorder:
    def __init__(self) -> None:
        self.node = "driver"
        #: ``[span id, seconds covered by children]`` of the running span.
        self.current: list | None = None
        self.next_id = 1
        self.spans: list[tuple] = []
        #: name -> [calls, total seconds, self seconds]
        self.leaf: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        #: (kind, caller, rpc id, method, start, end) per request/reply
        #: crossing the codec, so one RPC can be followed across processes.
        self.marks: list[tuple] = []
        self.lags: list[float] = []
        self.unresolved: list[str] = []
        #: The server's ``LiveNode``; its public stats are read at dump.
        self.live = None
        self._stats_base: dict[str, float] = {}

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def reset(self) -> None:
        self.spans.clear()
        self.marks.clear()
        self.lags.clear()
        self.counts.clear()
        for slot in self.leaf.values():
            slot[0], slot[1], slot[2] = 0, 0.0, 0.0
        self._stats_base = self._node_stats()

    def _node_stats(self) -> dict[str, float]:
        """Numeric public counters of the node, its cache, admission
        controller and store; absent parts are skipped."""
        node = getattr(self.live, "node", None)
        sources = {
            "stats": getattr(node, "stats", None),
            "cache": getattr(getattr(node, "read_cache", None), "stats", None),
            "admission": getattr(node, "admission", None),
            "store": getattr(self.live, "store", None),
        }
        out: dict[str, float] = {}
        for prefix, source in sources.items():
            if source is None:
                continue
            if dataclasses.is_dataclass(source):
                names = [f.name for f in dataclasses.fields(source)]
            else:
                names = [n for n in vars(source) if not n.startswith("_")]
            for name in names:
                value = getattr(source, name, None)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    out[f"{prefix}.{name}"] = value
        return out

    def snapshot(self) -> dict:
        stats = self._node_stats()
        return {
            "node": self.node,
            "pid": os.getpid(),
            "spans": self.spans,
            "leaf": self.leaf,
            "counts": self.counts,
            "marks": self.marks,
            "lags": self.lags,
            "stats": {
                name: value - self._stats_base.get(name, 0)
                for name, value in stats.items()
            },
            "unresolved": self.unresolved,
        }

    def dump(self) -> None:
        path = os.path.join(os.environ[TRACE_ENV], f"{os.getpid()}.json")
        with open(path + ".tmp", "w") as sink:
            json.dump(self.snapshot(), sink)
        os.replace(path + ".tmp", path)  # the benchmark polls for `path`


REC = Recorder()


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap(name: str, fn, keep: bool, after=None):
    """Time a plain function.  ``keep`` records one span per call;
    otherwise the call joins the per-name aggregate.  ``after(args,
    result, start, end)`` records counts measured at the same boundary."""
    slot = REC.leaf.setdefault(name, [0, 0.0, 0.0]) if not keep else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = REC
        parent = rec.current
        frame = [rec.next_id, 0.0]
        rec.next_id += 1
        rec.current = frame
        result = None
        start = perf()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf()
            rec.current = parent
            duration = end - start
            if parent is not None:
                parent[1] += duration
            if keep:
                rec.spans.append(
                    (name, start, end, parent[0] if parent else 0, frame[0],
                     duration - frame[1], None)
                )
            else:
                slot[0] += 1
                slot[1] += duration
                slot[2] += duration - frame[1]
            if after is not None:
                after(args, result, start, end)

    return wrapper


def _drive(name: str, generator):
    """Forward an RPC handler generator, timing each resume."""
    rec = REC
    frame = [rec.next_id, 0.0]
    rec.next_id += 1
    started = perf()
    busy = 0.0
    value = None
    error = None
    try:
        while True:
            outer = rec.current
            rec.current = frame
            resumed = perf()
            try:
                if error is not None:
                    target = generator.throw(error)
                else:
                    target = generator.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                busy += perf() - resumed
                rec.current = outer
            try:
                value, error = (yield target), None
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as thrown:  # re-raised inside the handler
                value, error = None, thrown
    finally:
        rec.spans.append(
            (name, started, perf(), 0, frame[0], busy - frame[1], busy)
        )


def _traced_on(original):
    @functools.wraps(original)
    def on(self, method, handler):
        name = f"{type(self).__name__.lower()}.{method}"

        @functools.wraps(handler)
        def traced(src, payload):
            return _drive(name, handler(src, payload))

        return original(self, method, traced)

    return on


def _timed_iterator(name: str, fn):
    """For a public function that returns a lazy cursor: charge the time
    spent producing its items to ``name``, and count them."""
    slot = REC.leaf.setdefault(name, [0, 0.0, 0.0])

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf()
        cursor = iter(fn(*args, **kwargs))
        slot[0] += 1
        spent = perf() - start
        items = 0
        try:
            while True:
                start = perf()
                try:
                    item = next(cursor)
                except StopIteration:
                    return
                finally:
                    spent += perf() - start
                items += 1
                yield item
        finally:
            slot[1] += spent
            slot[2] += spent
            REC.count(f"{name}/entries", items)

    return wrapper


def _traced_serve(original):
    @functools.wraps(original)
    async def serve(spec, name, data_dir=None):
        REC.node = name
        ticker = asyncio.get_running_loop().create_task(_ticker())
        try:
            return await original(spec, name, data_dir=data_dir)
        finally:
            ticker.cancel()

    return serve


async def _ticker() -> None:
    while True:
        due = perf() + TICK_S
        await asyncio.sleep(TICK_S)
        REC.lags.append(perf() - due)


def _capturing_init(original):
    @functools.wraps(original)
    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        REC.live = self

    return __init__


# ----------------------------------------------------------------------
# Counts taken at the same boundaries, named "<span name>/<what>"
# ----------------------------------------------------------------------
def _mark(kind: str, caller: str, message, start: float, end: float) -> None:
    rpc_id = getattr(message, "rpc_id", None)
    if rpc_id is not None:  # a request or a response, not a cast
        REC.marks.append(
            (kind, caller, rpc_id, getattr(message, "method", ""), start, end)
        )


def _after_encode(args, result, start, end) -> None:
    if result is None or len(args) < 4:
        return
    REC.count("wire.encode/bytes", len(result))
    __, src, dst, message = args[:4]
    is_request = hasattr(message, "method")
    _mark("req_out" if is_request else "resp_out", src if is_request else dst,
          message, start, end)


def _after_decode(args, result, start, end) -> None:
    if result is None:
        return
    REC.count("wire.decode/bytes", len(args[0]))
    __, src, dst, message = result
    is_request = hasattr(message, "method")
    _mark("req_in" if is_request else "resp_in", src if is_request else dst,
          message, start, end)


def _after_merge(args, result, start, end) -> None:
    if result is not None:
        REC.count("compaction.merge/entries_in", result.stats.entries_in)
        REC.count("compaction.merge/entries_out", result.stats.entries_out)


def _after_log(args, result, start, end) -> None:
    if len(args) > 1:
        REC.count("store.log_entries/entries", len(args[1]))


def _after_build(args, result, start, end) -> None:
    if len(args) > 1:
        REC.count("sstable.build/entries", len(args[1]))


def _after_write(args, result, start, end) -> None:
    if args:
        REC.count("sstable_io.write/entries", len(args[0]))


def _after_bloom(args, result, start, end) -> None:
    if result is False:
        REC.count("bloom.probe/negatives", 1)


def _after_tables_for_key(args, result, start, end) -> None:
    if result is not None:
        REC.count("manifest.tables_for_key/tables", len(result))


#: (module, attribute path, span name, keep raw spans, count hook).
TARGETS = [
    ("repro.live.wire", "encode_envelope_buffer", "wire.encode", True, _after_encode),
    ("repro.live.wire", "decode_envelope", "wire.decode", True, _after_decode),
    ("repro.store.node_store", "NodeStore.log_entries", "store.log_entries", True, _after_log),
    ("repro.store.node_store", "NodeStore.commit", "store.commit", True, None),
    ("repro.lsm.sstable_io", "write_sstable", "sstable_io.write", True, _after_write),
    ("repro.lsm.compaction", "merge_tables", "compaction.merge", True, _after_merge),
    ("repro.lsm.sortedview", "SortedViewManager.refresh", "sortedview.refresh", True, None),
    ("repro.lsm.sstable", "SSTable.__init__", "sstable.build", False, _after_build),
    ("repro.lsm.sstable", "SSTable.versions", "sstable.get", False, None),
    ("repro.lsm.memtable", "Memtable.put", "memtable.put", False, None),
    ("repro.lsm.memtable", "Memtable.get", "memtable.get", False, None),
    ("repro.lsm.memtable", "Memtable.versions", "memtable.get", False, None),
    ("repro.lsm.bloom", "BloomFilter.might_contain", "bloom.probe", False, _after_bloom),
    ("repro.lsm.manifest", "Manifest.tables_for_key", "manifest.tables_for_key", False,
     _after_tables_for_key),
    ("os", "fsync", "os.fsync", False, None),
]
#: Names replaced by a purpose-built wrapper instead of ``_wrap``, and
#: what each feeds: every handler span, the loop-lag ticker, the node's
#: public counters, the aggregates of two lazy cursors.
SPECIAL = [
    ("repro.sim.rpc", "RpcNode.on", "rpc.handler", _traced_on),
    ("repro.live.node", "serve", "loop.lag", _traced_serve),
    ("repro.live.node", "LiveNode.__init__", "node.stats", _capturing_init),
    ("repro.lsm.sortedview", "SortedViewManager.scan", "sortedview.scan",
     functools.partial(_timed_iterator, "sortedview.scan")),
    # What a restart reads its sstables through (as does ``read_sstable``).
    ("repro.lsm.sstable_io", "SSTableReader.scan", "sstable_io.read",
     functools.partial(_timed_iterator, "sstable_io.read")),
]


def _replace(module_name: str, path: str, name: str, make) -> None:
    """Swap ``module.path`` for ``make(original)``, also in every loaded
    ``repro`` module that imported the original by name.  If it is gone,
    span ``name`` is blind from here on."""
    try:
        owner = importlib.import_module(module_name)
        *parents, leaf = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
    except (ImportError, AttributeError):
        if name not in REC.unresolved:
            REC.unresolved.append(name)
        return
    replacement = make(original)
    setattr(owner, leaf, replacement)
    if parents:
        return
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and module is not None:
            if vars(module).get(leaf) is original:
                setattr(module, leaf, replacement)


def install() -> None:
    """Wrap every target.  Imports the live runtime first, so modules
    that bind a target by name are loaded before it is replaced.  A
    server (the trace directory is set) answers SIGUSR1 and SIGUSR2 with
    plain handlers, which need nothing of ``repro`` to still be there."""
    for module_name in ("repro.live.node", "repro.core.client"):
        try:
            importlib.import_module(module_name)
        except ImportError:
            pass  # its targets fail to resolve below, one by one
    for module_name, path, name, keep, after in TARGETS:
        _replace(
            module_name, path, name,
            lambda fn, name=name, keep=keep, after=after: _wrap(name, fn, keep, after),
        )
    for module_name, path, name, make in SPECIAL:
        _replace(module_name, path, name, make)
    if os.environ.get(TRACE_ENV):
        signal.signal(signal.SIGUSR1, lambda *__: REC.reset())
        signal.signal(signal.SIGUSR2, lambda *__: REC.dump())
