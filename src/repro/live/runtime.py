"""The asyncio effect interpreter: the live backend of the kernel protocol.

:class:`AsyncioKernel` implements the same effect surface as the
simulation kernel (:mod:`repro.effects`) by running the sim kernel's
own waitable classes (:mod:`repro.sim.kernel`: ``Event``, ``Timeout``,
``Process``, ``AllOf``, ``AnyOf``) over the asyncio event loop.  Those
classes reach their kernel through three methods only, and this module
supplies the live versions:

* ``_schedule_now(cb)`` — append to the kernel's own FIFO of due
  callbacks, which runs before the loop polls again;
* ``_schedule_after(delay, cb)`` — ``loop.call_later`` (i.e. real
  ``asyncio.sleep``); the timer runs ``cb`` and then everything it
  made due, and a ``Timeout``'s ``cancel()`` cancels it;
* ``_unhandled_failure(exc)`` — log and keep serving, where the sim
  escalates out of ``Kernel.run()``.

The due FIFO is how the sim ``Kernel`` runs the events of one instant:
callbacks run in the order they were scheduled, each one's follow-ups
after everything already due.  The loop callback that makes work due —
a received frame (:meth:`LiveNetwork._on_payload`) or a fired timer —
drains the FIFO before it returns, so a request that resumes three
processes and writes its reply costs one loop pass, not one pass per
hand-off.  Work made due from plain async code (``kernel.run``, a test)
gets one ``call_soon`` drain.  A callback that raises is reported to
the loop's exception handler and the drain carries on, as an asyncio
``Handle`` would; it never escapes into the transport.

Because the resume / interrupt / barrier code is the same code, node
code cannot tell the backends apart: ``yield self.call(...)`` waits on
a reply event either way; only *what fires the event* differs (a heap
pop vs a TCP frame).

:class:`LiveMachine` satisfies the compute protocol.  The modelled cost
resumes the process from the due FIFO, since on real hardware the
merge/probe work inside the generator already costs real CPU time: a
handler that charges two computes still costs one loop pass.  Each drain
stamps when it took the loop; once it has held the loop for
:data:`YIELD_SLICE_S`, a charge yields a zero-delay loop timer instead,
which is what gives the loop a turn during a long merge.

:class:`LiveNetwork` satisfies the fabric protocol: local destinations
get loopback delivery through the due FIFO; remote destinations are
serialised with :mod:`repro.live.wire` and shipped by
:mod:`repro.live.transport`.
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import logging
import random
import time
from typing import Any, Callable

from repro.effects import ProcessGen
from repro.sim.kernel import Event, Scheduler
from repro.sim.resources import Store

from . import wire
from .transport import RetryPolicy, Transport

logger = logging.getLogger("repro.live.runtime")

#: How long one drain may hold the event loop before a modelled compute
#: (:meth:`LiveMachine.execute`) hands the loop a turn.  Short handlers
#: finish well inside it; a merge that outlasts it yields.
YIELD_SLICE_S = 0.001


class AsyncioKernel(Scheduler):
    """The live implementation of the effect-kernel protocol.

    ``now`` is monotonic wall time, measured from kernel creation, so
    histories recorded under this kernel start near t=0 just like
    simulated ones.  Must be created (and used) inside a running event
    loop.
    """

    def __init__(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._t0 = time.monotonic()
        self.events_dispatched = 0
        #: Callbacks due now, run in FIFO order by :meth:`_drain`.
        self._due: collections.deque[Callable[[], None]] = collections.deque()
        #: A drain is running: what is scheduled now joins its FIFO.
        self._draining = False
        #: A ``call_soon`` drain is queued on the loop.
        self._drain_queued = False
        #: ``time.monotonic()`` when the running drain took the loop.
        self._drain_started = 0.0
        #: Already triggered: a process that yields it resumes from the
        #: due FIFO, within the running drain.
        self._resumed = Event(self)
        self._resumed.triggered = True

    # ------------------------------------------------------------------
    # Scheduling primitives (``Scheduler``'s three abstract methods)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return time.monotonic() - self._t0

    def _schedule_now(self, callback: Callable[[], None]) -> None:
        self.events_dispatched += 1
        self._due.append(callback)
        if not self._draining and not self._drain_queued:
            self._drain_queued = True
            self._loop.call_soon(self._drain_soon)

    def _schedule_after(self, delay: float, callback: Callable[[], None]) -> asyncio.TimerHandle:
        return self._loop.call_later(delay, self._run_callback, callback)

    def _run_callback(self, callback: Callable[..., Any], *args: Any) -> Any:
        """Run a loop callback, then everything it made due, before
        returning to the loop.  Inside a drain it just runs ``callback``:
        the drain already running picks up what it schedules."""
        if self._draining:
            return callback(*args)
        self._draining = True
        self._drain_started = time.monotonic()
        try:
            return callback(*args)
        finally:
            self._drain()

    def _drain_soon(self) -> None:
        self._drain_queued = False
        if not self._draining:
            self._draining = True
            self._drain_started = time.monotonic()
            self._drain()

    def _drain(self) -> None:
        """Run due callbacks FIFO until none is left; clears the
        draining state the caller set."""
        due = self._due
        try:
            while due:
                callback = due.popleft()
                try:
                    callback()
                except (SystemExit, KeyboardInterrupt):
                    raise
                except BaseException as error:  # noqa: BLE001 - as a Handle does
                    self._loop.call_exception_handler({
                        "message": "exception in kernel callback",
                        "exception": error,
                    })
        finally:
            self._draining = False
            if due and not self._drain_queued:
                self._drain_queued = True
                self._loop.call_soon(self._drain_soon)

    def _unhandled_failure(self, exception: BaseException) -> None:
        # The sim escalates into Kernel.run(); a live node logs and
        # keeps serving (one failed background process must not take
        # the whole process down).
        logger.error("unhandled event failure: %r", exception)

    # ------------------------------------------------------------------
    # Driving from async code
    # ------------------------------------------------------------------
    async def run(self, generator: ProcessGen, name: str = "") -> Any:
        """Spawn a process and await its completion (awaitable bridge)."""
        process = self.spawn(generator, name)
        future: asyncio.Future = self._loop.create_future()

        def on_done(event: Event) -> None:
            if future.cancelled():
                return
            if event.ok:
                future.set_result(event.value)
            else:
                future.set_exception(event.value)

        process._add_callback(on_done)
        return await future


class LiveMachine:
    """Compute host for the live backend.

    The real CPU work of the surrounding generator code *is* the cost,
    so ``execute`` waits for nothing: it resumes the process from the
    kernel's due FIFO, inside the drain already running — no loop timer,
    no extra loop pass.  Only once that drain has held the loop for
    :data:`YIELD_SLICE_S` (a long merge, or a burst of handlers) does it
    yield a zero-delay loop timer, so the loop polls its sockets and
    runs its due timers before the process goes on.  ``busy_time``
    still accumulates the modelled seconds.
    """

    def __init__(self, kernel: AsyncioKernel, name: str) -> None:
        self.kernel = kernel
        self.name = name
        self.busy_time = 0.0  # cumulative modelled core-seconds

    def execute(self, cost_seconds: float):
        if cost_seconds < 0:
            raise ValueError("cost must be non-negative")
        if cost_seconds == 0:
            return
        self.busy_time += cost_seconds
        kernel = self.kernel
        if time.monotonic() - kernel._drain_started < YIELD_SLICE_S:
            yield kernel._resumed
        else:
            yield kernel.timeout(0.0)


class LiveNetwork:
    """The live fabric: named inboxes over loopback + framed TCP.

    Local node names (registered in this process) get loopback delivery
    on the event loop.  Remote names resolve through the address map and
    travel as wire envelopes; unknown names surface as upper-layer RPC
    timeouts, never sender-side crashes.
    """

    def __init__(
        self,
        kernel: AsyncioKernel,
        addresses: dict[str, tuple[str, int]],
        policy: RetryPolicy | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.kernel = kernel
        self.addresses = dict(addresses)
        self.transport = Transport(self.addresses, self._on_payload, policy=policy, rng=rng)
        self._inboxes: dict[str, Store] = {}
        self._machines: dict[str, LiveMachine] = {}
        self._frame_ids = itertools.count(1)
        self.unroutable = 0

    # ------------------------------------------------------------------
    # Fabric protocol
    # ------------------------------------------------------------------
    def register(self, name: str, machine: LiveMachine) -> Store:
        if name in self._inboxes:
            raise ValueError(f"node name already registered: {name}")
        inbox = Store(self.kernel)
        self._inboxes[name] = inbox
        self._machines[name] = machine
        return inbox

    def machine_of(self, name: str) -> LiveMachine:
        return self._machines[name]

    def send(self, src: str, dst: str, message: Any, size_bytes: int = 256) -> None:
        inbox = self._inboxes.get(dst)
        if inbox is not None:
            # Loopback: deliver after everything already due, so the
            # send/receive asynchrony the node layer assumes holds
            # in-process.
            self.kernel._schedule_now(lambda: inbox.put((src, message)))
            return
        payload = wire.encode_envelope_buffer(next(self._frame_ids), src, dst, message)
        self.transport.post(dst, payload)

    # ------------------------------------------------------------------
    # Transport glue
    # ------------------------------------------------------------------
    def _on_payload(self, payload: bytes) -> None:
        # A memoryview keeps the recursive decode zero-copy: nested
        # slices share this buffer until each value's final bytes().
        __, src, dst, message = wire.decode_envelope(memoryview(payload))
        inbox = self._inboxes.get(dst)
        if inbox is None:
            self.unroutable += 1
            logger.warning("frame for unknown local node %s from %s", dst, src)
            return
        # The frame's whole cascade — handler resumes, replies posted to
        # the transport — runs before the loop polls again.
        self.kernel._run_callback(inbox.put, (src, message))

    async def listen(self, host: str, port: int) -> None:
        await self.transport.listen(host, port)

    async def close(self) -> None:
        await self.transport.close()
