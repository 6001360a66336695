"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import Interrupted, Kernel, SimError


def test_timeout_advances_time():
    kernel = Kernel()

    def proc():
        yield kernel.timeout(5.0)
        return kernel.now

    assert kernel.run_process(proc()) == 5.0


def test_timeouts_fire_in_order():
    kernel = Kernel()
    fired = []

    def waiter(delay, tag):
        yield kernel.timeout(delay)
        fired.append(tag)

    kernel.spawn(waiter(3.0, "c"))
    kernel.spawn(waiter(1.0, "a"))
    kernel.spawn(waiter(2.0, "b"))
    kernel.run()
    assert fired == ["a", "b", "c"]


def test_cancelled_timeout_still_runs_in_the_sim():
    """The sim kernel keeps a cancelled timer: schedules (and with them
    the seed-0 fingerprints) are the same whether a caller cancels."""
    kernel = Kernel()
    timer = kernel.timeout(2.0, "late")
    timer.cancel()
    kernel.run()
    assert (timer.triggered, timer.value, kernel.now) == (True, "late", 2.0)
    assert kernel.events_dispatched == 1


def test_same_time_ties_broken_by_insertion_order():
    kernel = Kernel()
    fired = []

    def waiter(tag):
        yield kernel.timeout(1.0)
        fired.append(tag)

    for tag in "abc":
        kernel.spawn(waiter(tag))
    kernel.run()
    assert fired == ["a", "b", "c"]


def test_negative_timeout_rejected():
    kernel = Kernel()
    with pytest.raises(SimError):
        kernel.timeout(-1.0)


def test_event_value_passed_to_waiter():
    kernel = Kernel()
    event = kernel.event()

    def setter():
        yield kernel.timeout(1.0)
        event.succeed(42)

    def getter():
        value = yield event
        return value

    kernel.spawn(setter())
    assert kernel.run_process(getter()) == 42


def test_event_cannot_trigger_twice():
    kernel = Kernel()
    event = kernel.event()
    event.succeed(1)
    with pytest.raises(SimError):
        event.succeed(2)


def test_waiting_on_already_triggered_event():
    kernel = Kernel()
    event = kernel.event()
    event.succeed("早")

    def getter():
        return (yield event)

    assert kernel.run_process(getter()) == "早"


def test_process_is_awaitable():
    kernel = Kernel()

    def child():
        yield kernel.timeout(2.0)
        return "done"

    def parent():
        result = yield kernel.spawn(child())
        return result, kernel.now

    assert kernel.run_process(parent()) == ("done", 2.0)


def test_process_exception_propagates_to_waiter():
    kernel = Kernel()

    def child():
        yield kernel.timeout(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield kernel.spawn(child())
        except ValueError as error:
            return str(error)

    assert kernel.run_process(parent()) == "boom"


def test_unobserved_process_failure_raises_in_run():
    kernel = Kernel()

    def bad():
        yield kernel.timeout(1.0)
        raise RuntimeError("unhandled")

    kernel.spawn(bad())
    with pytest.raises(RuntimeError):
        kernel.run()


def test_all_of_barrier():
    kernel = Kernel()

    def child(delay):
        yield kernel.timeout(delay)
        return delay

    def parent():
        procs = [kernel.spawn(child(d)) for d in (3.0, 1.0, 2.0)]
        values = yield kernel.all_of(procs)
        return values, kernel.now

    values, now = kernel.run_process(parent())
    assert values == [3.0, 1.0, 2.0]
    assert now == 3.0


def test_all_of_empty_fires_immediately():
    kernel = Kernel()

    def parent():
        values = yield kernel.all_of([])
        return values

    assert kernel.run_process(parent()) == []


def test_any_of_returns_first():
    kernel = Kernel()

    def child(delay):
        yield kernel.timeout(delay)
        return delay

    def parent():
        procs = [kernel.spawn(child(d)) for d in (3.0, 1.0)]
        index, value = yield kernel.any_of(procs)
        return index, value, kernel.now

    assert kernel.run_process(parent()) == (1, 1.0, 1.0)


def test_interrupt_wakes_sleeping_process():
    kernel = Kernel()
    outcome = []

    def sleeper():
        try:
            yield kernel.timeout(100.0)
            outcome.append("slept")
        except Interrupted:
            outcome.append("interrupted at %.1f" % kernel.now)

    def interrupter(target):
        yield kernel.timeout(2.0)
        target.interrupt("stop")

    target = kernel.spawn(sleeper())
    kernel.spawn(interrupter(target))
    kernel.run()
    assert outcome == ["interrupted at 2.0"]


def test_run_until_stops_early():
    kernel = Kernel()
    fired = []

    def waiter():
        yield kernel.timeout(10.0)
        fired.append(True)

    kernel.spawn(waiter())
    kernel.run(until=5.0)
    assert kernel.now == 5.0
    assert not fired
    kernel.run()
    assert fired


def test_deadlock_detected_by_run_process():
    kernel = Kernel()

    def stuck():
        yield kernel.event()  # never triggered

    with pytest.raises(SimError):
        kernel.run_process(stuck())


def test_yielding_non_event_rejected():
    kernel = Kernel()

    def bad():
        yield 42

    with pytest.raises(SimError):
        kernel.run_process(bad())


def test_determinism_two_runs_identical():
    def build():
        kernel = Kernel()
        log = []

        def pinger(tag, delay):
            for __ in range(5):
                yield kernel.timeout(delay)
                log.append((kernel.now, tag))

        kernel.spawn(pinger("a", 1.0))
        kernel.spawn(pinger("b", 1.5))
        kernel.run()
        return log

    assert build() == build()
