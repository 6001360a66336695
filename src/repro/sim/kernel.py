"""A deterministic discrete-event simulation kernel.

The paper evaluates CooLSM on a fleet of EC2 machines across five AWS
regions.  We reproduce the *dynamics* of that testbed — queueing on
machine cores, wide-area message latency, asynchronous compaction — with
a discrete-event simulator.  This module is the scheduler at the bottom:
an event heap plus generator-coroutine processes, in the style of SimPy
but self-contained and fully deterministic (ties broken by insertion
order, no wall-clock anywhere).

Processes are Python generators that ``yield`` waitables::

    def worker(kernel):
        yield kernel.timeout(1.5)          # sleep 1.5 simulated seconds
        result = yield some_event          # wait for an event, get its value
        yield kernel.all_of([e1, e2])      # barrier

Spawn with :meth:`Kernel.spawn`; a :class:`Process` is itself an event
that fires with the generator's return value, so processes compose.

The waitable classes are the only implementation in the repository:
they reach the kernel that owns them through the three abstract methods
of :class:`Scheduler`, which :class:`Kernel` implements on its heap and
:class:`repro.live.runtime.AsyncioKernel` on the asyncio event loop —
so the resume / interrupt / barrier code a live node runs is the code
the model checker's schedules execute.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable

ProcessGen = Generator["Event", Any, Any]


class SimError(Exception):
    """Base class for simulator errors."""


class Interrupted(SimError):
    """Raised inside a process that another process interrupted."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* at most once, either with a value
    (:meth:`succeed`) or an exception (:meth:`fail`).  Waiting processes
    are resumed in the order they started waiting.
    """

    __slots__ = ("kernel", "callbacks", "triggered", "ok", "value", "defused")

    def __init__(self, kernel: "Scheduler") -> None:
        self.kernel = kernel
        self.callbacks: list[Callable[[Event], None]] = []
        self.triggered = False
        self.ok = True
        self.value: Any = None
        # A failed event with no waiters goes to the kernel's
        # _unhandled_failure so bugs cannot pass silently; set
        # defused=True to suppress.
        self.defused = False

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with a value; waiters resume this tick."""
        if self.triggered:
            raise SimError("event already triggered")
        self.triggered = True
        self.value = value
        self.kernel._schedule_now(self._dispatch)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception; waiters see it raised."""
        if self.triggered:
            raise SimError("event already triggered")
        self.triggered = True
        self.ok = False
        self.value = exception
        self.kernel._schedule_now(self._dispatch)
        return self

    def _dispatch(self) -> None:
        callbacks, self.callbacks = self.callbacks, []
        if not callbacks and not self.ok and not self.defused:
            self.kernel._unhandled_failure(self.value)
            return
        for callback in callbacks:
            callback(self)

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.triggered:
            # Already fired: deliver on the next tick, preserving order.
            self.kernel._schedule_now(lambda: callback(self))
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("_timer",)

    def __init__(self, kernel: "Scheduler", delay: float, value: Any = None) -> None:
        super().__init__(kernel)
        if delay < 0:
            raise SimError(f"negative timeout: {delay}")
        self._timer = kernel._schedule_after(delay, lambda: self._fire(value))

    def cancel(self) -> None:
        """Drop the pending timer when nothing will wait on it any more
        (a reply beat it).  The live kernel frees its loop timer; the sim
        kernel hands back no timer, so its schedule runs unchanged."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _fire(self, value: Any) -> None:
        # A live timer holds the callback that holds this event: let go
        # of it, or every fired timeout is a reference cycle left for
        # the cyclic garbage collector.
        self._timer = None
        self.triggered = True
        self.value = value
        self._dispatch()


class Process(Event):
    """A running generator coroutine; fires when the generator returns."""

    __slots__ = ("generator", "name", "_waiting_on", "_interrupt")

    def __init__(self, kernel: "Scheduler", generator: ProcessGen, name: str = "") -> None:
        super().__init__(kernel)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Event | None = None
        self._interrupt: BaseException | None = None
        kernel._schedule_now(lambda: self._resume(None, None))

    @property
    def alive(self) -> bool:
        return not self.triggered

    def interrupt(self, reason: str = "") -> None:
        """Raise :class:`Interrupted` inside the process at its next wait."""
        if self.triggered:
            return
        exc = Interrupted(reason)
        if self._waiting_on is not None:
            waiting, self._waiting_on = self._waiting_on, None
            # Detach from the event we were waiting on.
            try:
                waiting.callbacks.remove(self._on_event)
            except ValueError:
                pass
            self.kernel._schedule_now(lambda: self._resume(None, exc))
        else:
            self._interrupt = exc

    def _on_event(self, event: Event) -> None:
        self._waiting_on = None
        if event.ok:
            self._resume(event.value, None)
        else:
            self._resume(None, event.value)

    def _resume(self, value: Any, exc: BaseException | None) -> None:
        if self.triggered:
            return
        if self._interrupt is not None and exc is None:
            exc, self._interrupt = self._interrupt, None
        try:
            if exc is not None:
                target = self.generator.throw(exc)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self.triggered = True
            self.value = stop.value
            self.kernel._schedule_now(self._dispatch)
            return
        except Interrupted:
            self.triggered = True
            self.value = None
            self.kernel._schedule_now(self._dispatch)
            return
        except BaseException as error:  # noqa: BLE001 - deliver to waiters
            self.triggered = True
            self.ok = False
            self.value = error
            self.kernel._schedule_now(self._dispatch)
            return
        if not isinstance(target, Event):
            # A programming error: fail the process (its waiters see the
            # error) rather than raise out of whichever callback resumed it.
            self.generator.close()
            self.triggered = True
            self.ok = False
            self.value = SimError(
                f"process {self.name!r} yielded {type(target).__name__}, not an Event"
            )
            self.kernel._schedule_now(self._dispatch)
            return
        self._waiting_on = target
        target._add_callback(self._on_event)


class AllOf(Event):
    """Fires once every child event has fired; value is the list of values."""

    __slots__ = ("_pending", "_values")

    def __init__(self, kernel: "Scheduler", events: Iterable[Event]) -> None:
        super().__init__(kernel)
        events = list(events)
        self._pending = len(events)
        self._values: list[Any] = [None] * len(events)
        if not events:
            self.succeed([])
            return
        for index, event in enumerate(events):
            event._add_callback(self._make_callback(index))

    def _make_callback(self, index: int) -> Callable[[Event], None]:
        def on_fire(event: Event) -> None:
            if self.triggered:
                return
            if not event.ok:
                self.fail(event.value)
                return
            self._values[index] = event.value
            self._pending -= 1
            if self._pending == 0:
                self.succeed(list(self._values))

        return on_fire


class AnyOf(Event):
    """Fires when the first child event fires; value is (index, value)."""

    __slots__ = ()

    def __init__(self, kernel: "Scheduler", events: Iterable[Event]) -> None:
        super().__init__(kernel)
        for index, event in enumerate(events):
            event._add_callback(self._make_callback(index))

    def _make_callback(self, index: int) -> Callable[[Event], None]:
        def on_fire(event: Event) -> None:
            if self.triggered:
                return
            if event.ok:
                self.succeed((index, event.value))
            else:
                self.fail(event.value)

        return on_fire


class Scheduler:
    """What the waitables ask of a kernel, and the waitables it builds.

    A kernel supplies the three scheduling methods below — nothing else
    of it is called (or read) by :class:`Event` and its subclasses — and
    inherits the effect surface (:class:`repro.effects.EffectKernel`,
    short of ``now``) that constructs them.
    """

    def _schedule_now(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` on the next tick, after everything already due."""
        raise NotImplementedError

    def _schedule_after(self, delay: float, callback: Callable[[], None]) -> Any:
        """Run ``callback`` ``delay`` seconds from now.  Returns a timer
        with a ``cancel()`` method, or None where the timer stays."""
        raise NotImplementedError

    def _unhandled_failure(self, exception: BaseException) -> None:
        """An un-defused event failed with nobody waiting on it."""
        raise NotImplementedError

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def spawn(self, generator: ProcessGen, name: str = "") -> Process:
        """Start a process; returns the (awaitable) Process handle."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)


class Kernel(Scheduler):
    """The event loop: a time-ordered heap of callbacks."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = 0
        self.events_dispatched = 0
        # Schedule hooks: observers called with the dispatch time of
        # every executed event.  The verification harness uses them to
        # fingerprint a run's exact schedule (event count + times), so
        # replay-exactness is asserted on the *executed* interleaving,
        # not just on its observable outputs.  Empty (the default) costs
        # one truthiness check per event.
        self._schedule_hooks: list[Callable[[float], None]] = []

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def _schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        if time < self.now:
            raise SimError(f"cannot schedule in the past ({time} < {self.now})")
        self._sequence += 1
        heapq.heappush(self._heap, (time, self._sequence, callback))

    def _schedule_now(self, callback: Callable[[], None]) -> None:
        self._schedule_at(self.now, callback)

    def _schedule_after(self, delay: float, callback: Callable[[], None]) -> None:
        self._schedule_at(self.now + delay, callback)

    def _unhandled_failure(self, exception: BaseException) -> None:
        """A failed event nobody waited on: escalate out of :meth:`run`."""
        raise exception

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def add_schedule_hook(self, hook: Callable[[float], None]) -> None:
        """Register an observer invoked with each executed event's time."""
        self._schedule_hooks.append(hook)

    def remove_schedule_hook(self, hook: Callable[[float], None]) -> None:
        """Unregister a previously added schedule hook."""
        self._schedule_hooks.remove(hook)

    def _dispatch_one(self, time: float, callback: Callable[[], None]) -> None:
        self.now = time
        self.events_dispatched += 1
        if self._schedule_hooks:
            for hook in self._schedule_hooks:
                hook(time)
        callback()

    def run(self, until: float | None = None) -> float:
        """Execute events until the heap drains or ``until`` is reached.

        Returns the simulation time at which execution stopped.
        """
        while self._heap:
            time, __, callback = self._heap[0]
            if until is not None and time > until:
                self.now = until
                return self.now
            heapq.heappop(self._heap)
            self._dispatch_one(time, callback)
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    def run_process(self, generator: ProcessGen, name: str = "") -> Any:
        """Spawn a process, run until *it* completes, and return its value.

        Stops as soon as the process finishes — background periodic
        processes (heartbeat monitors, retry timers) do not keep the
        run alive.  Raises if the process raised, or if the event heap
        drains before it completes (deadlock).
        """
        process = self.spawn(generator, name)
        while not process.triggered and self._heap:
            time, __, callback = heapq.heappop(self._heap)
            self._dispatch_one(time, callback)
        if not process.triggered:
            raise SimError(f"process {process.name!r} did not finish (deadlock?)")
        if not process.ok:
            raise process.value
        return process.value
