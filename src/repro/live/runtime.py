"""The asyncio effect interpreter: the live backend of the kernel protocol.

:class:`AsyncioKernel` implements the same effect surface as the
simulation kernel (:mod:`repro.effects`) by running the sim kernel's
own waitable classes (:mod:`repro.sim.kernel`: ``Event``, ``Timeout``,
``Process``, ``AllOf``, ``AnyOf``) over the asyncio event loop.  Those
classes reach their kernel through three methods only, and this module
supplies the live versions:

* ``_schedule_now(cb)`` — ``loop.call_soon``;
* ``_schedule_after(delay, cb)`` — ``loop.call_later`` (i.e. real
  ``asyncio.sleep``);
* ``_unhandled_failure(exc)`` — log and keep serving, where the sim
  escalates out of ``Kernel.run()``.

Because the resume / interrupt / barrier code is the same code, node
code cannot tell the backends apart: ``yield self.call(...)`` waits on
a reply event either way; only *what fires the event* differs (a heap
pop vs a TCP frame).

:class:`LiveMachine` satisfies the compute protocol.  The modelled cost
becomes a plain cooperative yield, since on real hardware the
merge/probe work inside the generator already costs real CPU time.

:class:`LiveNetwork` satisfies the fabric protocol: local destinations
get loopback delivery on the loop; remote destinations are serialised
with :mod:`repro.live.wire` and shipped by :mod:`repro.live.transport`.
"""

from __future__ import annotations

import asyncio
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

    # ------------------------------------------------------------------
    # Scheduling primitives (``Scheduler``'s three abstract methods)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return time.monotonic() - self._t0

    def _schedule_now(self, callback: Callable[[], None]) -> None:
        self.events_dispatched += 1
        self._loop.call_soon(callback)

    def _schedule_after(self, delay: float, callback: Callable[[], None]) -> None:
        self._loop.call_later(delay, callback)

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

    ``execute`` is a single cooperative yield: the real CPU work of the
    surrounding generator code *is* the cost, and the yield keeps long
    merges from starving the event loop between entries of the effect
    protocol.  ``busy_time`` still accumulates the modelled seconds.
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
        yield self.kernel.timeout(0.0)


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
        max_queued: int = 10_000,
        overflow: str = "drop",
        compress_min_bytes: int = 0,
    ) -> None:
        self.kernel = kernel
        self.addresses = dict(addresses)
        self.transport = Transport(
            self.addresses,
            self._on_payload,
            policy=policy,
            rng=rng,
            max_queued=max_queued,
            overflow=overflow,
            compress_min_bytes=compress_min_bytes,
        )
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
            # Loopback: deliver on the next loop tick so the send/receive
            # asynchrony the node layer assumes is preserved in-process.
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
        inbox.put((src, message))

    async def listen(self, host: str, port: int) -> None:
        await self.transport.listen(host, port)

    async def close(self) -> None:
        await self.transport.close()
