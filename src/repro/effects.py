"""The effect protocol: the surface CooLSM nodes are written against.

Every node (Ingestor, Compactor, Reader, Client, ...) is a set of
generator coroutines that ``yield`` *waitables* and interact with the
world exclusively through three capability objects handed to it at
construction time:

``kernel``
    Time and concurrency: ``now``, ``event()``, ``timeout(delay)``,
    ``spawn(generator)``, ``all_of(events)``, ``any_of(events)``.

``machine``
    Compute: ``yield from machine.execute(cost_seconds)`` charges a
    modelled CPU cost against the host the node is placed on.

``network``
    Messaging: ``register(name, machine)`` returns the node's inbox;
    ``send(src, dst, message, size_bytes)`` delivers to a named peer.

Because the node code never touches anything outside this surface, the
*same* generators run under two interpreters:

* the deterministic simulation kernel (:mod:`repro.sim.kernel`), where
  waitables fire on a virtual-time event heap — used for experiments,
  model checking, and replayable fault injection; and
* the live asyncio runtime (:mod:`repro.live.runtime`), where waitables
  fire on the real event loop, ``timeout`` is ``asyncio.sleep``, and
  ``send`` crosses real TCP sockets.

The classes below are :class:`typing.Protocol` definitions — structural
types.  The sim kernel and the live runtime both satisfy them without
inheriting from them; node modules import *these* names for annotations
so that neither backend leaks into the node layer.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Protocol, runtime_checkable

#: A node process: a generator that yields waitables and receives each
#: waitable's value back at the yield point.
ProcessGen = Generator[Any, Any, Any]


@runtime_checkable
class Waitable(Protocol):
    """A one-shot occurrence a process can ``yield`` on.

    Triggered at most once, with a value (:meth:`succeed`) or an
    exception (:meth:`fail`); waiters resume in registration order.
    ``defused`` suppresses the "failed with no waiters" escalation.
    """

    triggered: bool
    ok: bool
    value: Any
    defused: bool

    def succeed(self, value: Any = None) -> "Waitable": ...

    def fail(self, exception: BaseException) -> "Waitable": ...

    def _add_callback(self, callback: Callable[["Waitable"], None]) -> None: ...


@runtime_checkable
class Timer(Waitable, Protocol):
    """A waitable that fires after a delay.  ``cancel`` drops it once
    nothing will wait on it; where the backend cannot drop it, it still
    fires, to no waiter."""

    def cancel(self) -> None: ...


@runtime_checkable
class EffectKernel(Protocol):
    """Time and concurrency primitives.

    ``now`` is seconds on the backend's clock: virtual time under the
    simulator, wall time (monotonic, starting at 0) under the live
    runtime.  All other methods build waitables bound to this kernel;
    waitables from different kernels must never be mixed.
    """

    @property
    def now(self) -> float: ...

    def event(self) -> Waitable: ...

    def timeout(self, delay: float, value: Any = None) -> Timer: ...

    def spawn(self, generator: ProcessGen, name: str = "") -> Waitable: ...

    def all_of(self, events: Iterable[Waitable]) -> Waitable: ...

    def any_of(self, events: Iterable[Waitable]) -> Waitable: ...


@runtime_checkable
class ComputeHost(Protocol):
    """A host with bounded compute that nodes charge costs against.

    The simulator turns ``execute`` into queueing on a core pool in
    virtual time; the live runtime resumes the process at once, and
    yields the event loop only when the running pass has held it past
    a slice — the actual Python work of a merge or probe runs at
    hardware speed either way.
    """

    name: str

    def execute(self, cost_seconds: float) -> ProcessGen: ...


@runtime_checkable
class Inbox(Protocol):
    """A node's FIFO message queue on the fabric."""

    def put(self, item: Any) -> None: ...

    def get(self) -> Waitable: ...


@runtime_checkable
class Fabric(Protocol):
    """Named-endpoint messaging between nodes.

    The simulator models WAN latency, drops, and partitions; the live
    runtime serialises messages (:mod:`repro.live.wire`) and moves them
    over framed TCP (:mod:`repro.live.transport`).  Both deliver
    ``(src_name, message)`` tuples into the destination's inbox and
    guarantee per-channel FIFO order.
    """

    def register(self, name: str, machine: ComputeHost) -> Inbox: ...

    def send(self, src: str, dst: str, message: Any, size_bytes: int = 256) -> None: ...

    def machine_of(self, name: str) -> ComputeHost: ...
