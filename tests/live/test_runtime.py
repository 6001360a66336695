"""The asyncio effect interpreter: kernel semantics, specs, and an
in-process TCP cluster driving the unchanged node code."""

from __future__ import annotations

import asyncio
import dataclasses
import random
import re
import selectors
import threading
import time
from pathlib import Path

import pytest


from repro.core.cluster import ClusterSpec, build_cluster
from repro.core.config import CooLSMConfig
from repro.core.consistency import check_linearizable
from repro.core.history import History
from repro.effects import ComputeHost, EffectKernel, Fabric
from repro.live.harness import ClientPool, free_port, localhost_spec
from repro.live.node import LiveNode, LiveSpec, load_spec, spec_from_dict, spec_to_dict
from repro.live.runtime import YIELD_SLICE_S, AsyncioKernel, LiveMachine, LiveNetwork
from repro.lsm.errors import InvalidConfigError
from repro.sim import kernel as sim_kernel
from repro.sim.kernel import Interrupted, SimError
from repro.sim.resources import Resource, Store


def run_async(coro, timeout=30.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


# ----------------------------------------------------------------------
# Kernel semantics (must match the sim kernel's)
# ----------------------------------------------------------------------
class TestKernelSemantics:
    def test_satisfies_effect_protocols(self):
        async def main():
            kernel = AsyncioKernel()
            assert isinstance(kernel, EffectKernel)
            machine = LiveMachine(kernel, "m")
            assert isinstance(machine, ComputeHost)
            network = LiveNetwork(kernel, {})
            assert isinstance(network, Fabric)
            await network.close()

        run_async(main())

    def test_waitables_are_the_sim_kernel_classes(self):
        """One waitable core: the live kernel builds the very classes
        the explorer's corpora execute, not look-alikes."""
        async def main():
            kernel = AsyncioKernel()

            def wait_for(waitable):
                yield waitable

            tick = kernel.timeout(0.0)
            child = kernel.spawn(wait_for(tick))
            built = [
                kernel.event(), tick, child,
                kernel.all_of([child]), kernel.any_of([child]),
            ]
            await kernel.run(wait_for(built[3]))
            return [type(waitable) for waitable in built]

        assert run_async(main()) == [
            sim_kernel.Event, sim_kernel.Timeout, sim_kernel.Process,
            sim_kernel.AllOf, sim_kernel.AnyOf,
        ]

    def test_event_send_value(self):
        async def main():
            kernel = AsyncioKernel()

            def proc():
                event = kernel.event()
                kernel._schedule_now(lambda: event.succeed("payload"))
                value = yield event
                return value

            return await kernel.run(proc())

        assert run_async(main()) == "payload"

    def test_event_failure_raises_in_process(self):
        async def main():
            kernel = AsyncioKernel()

            def proc():
                event = kernel.event()
                kernel._schedule_now(lambda: event.fail(RuntimeError("boom")))
                try:
                    yield event
                except RuntimeError as error:
                    return f"caught {error}"

            return await kernel.run(proc())

        assert run_async(main()) == "caught boom"

    def test_double_trigger_rejected(self):
        async def main():
            kernel = AsyncioKernel()
            event = kernel.event()
            event.succeed(1)
            with pytest.raises(SimError):
                event.succeed(2)

        run_async(main())

    def test_timeout_orders_by_delay(self):
        async def main():
            kernel = AsyncioKernel()
            order = []

            def waiter(tag, delay):
                yield kernel.timeout(delay)
                order.append(tag)

            a = kernel.spawn(waiter("slow", 0.05))
            b = kernel.spawn(waiter("fast", 0.0))
            await kernel.run(iter_all(kernel, [a, b]))
            return order

        def iter_all(kernel, events):
            yield kernel.all_of(events)

        assert run_async(main()) == ["fast", "slow"]

    def test_process_exception_propagates_to_waiter(self):
        async def main():
            kernel = AsyncioKernel()

            def bad():
                yield kernel.timeout(0.0)
                raise ValueError("bad process")

            def parent():
                try:
                    yield kernel.spawn(bad())
                except ValueError as error:
                    return str(error)

            return await kernel.run(parent())

        assert run_async(main()) == "bad process"

    def test_interrupt_while_waiting(self):
        async def main():
            kernel = AsyncioKernel()
            seen = []

            def sleeper():
                try:
                    yield kernel.timeout(30.0)
                except Interrupted as stop:
                    seen.append(str(stop))
                return "stopped"

            def parent():
                child = kernel.spawn(sleeper())
                yield kernel.timeout(0.01)
                child.interrupt("drain")
                value = yield child
                return value

            return await kernel.run(parent()), seen

        value, seen = run_async(main())
        assert value == "stopped"
        assert seen == ["drain"]

    def test_all_of_collects_in_order(self):
        async def main():
            kernel = AsyncioKernel()

            def proc():
                values = yield kernel.all_of(
                    [kernel.timeout(0.02, "a"), kernel.timeout(0.0, "b")]
                )
                return values

            return await kernel.run(proc())

        assert run_async(main()) == ["a", "b"]

    def test_any_of_returns_index_value_pair(self):
        async def main():
            kernel = AsyncioKernel()

            def proc():
                result = yield kernel.any_of(
                    [kernel.timeout(5.0, "slow"), kernel.timeout(0.0, "fast")]
                )
                return result

            return await kernel.run(proc())

        assert run_async(main()) == (1, "fast")

    def test_yielding_non_event_is_an_error(self):
        async def main():
            kernel = AsyncioKernel()

            def proc():
                yield 42

            # The process fails with the error, so run() raises it.
            await kernel.run(proc())

        with pytest.raises(SimError, match="yielded"):
            run_async(main(), timeout=1.0)

    def test_now_is_monotonic_and_starts_near_zero(self):
        async def main():
            kernel = AsyncioKernel()
            first = kernel.now
            await asyncio.sleep(0.01)
            second = kernel.now
            return first, second

        first, second = run_async(main())
        assert 0.0 <= first < 1.0
        assert second > first

    def test_resource_and_store_work_on_live_kernel(self):
        async def main():
            kernel = AsyncioKernel()
            resource = Resource(kernel, 1)
            store = Store(kernel)
            log = []

            def worker(tag):
                yield from resource.use(0.01)
                log.append(tag)

            def consumer():
                item = yield store.get()
                log.append(item)

            kernel.spawn(worker("first"))
            kernel.spawn(worker("second"))
            consumer_proc = kernel.spawn(consumer())
            store.put("item")

            def barrier():
                yield consumer_proc

            await kernel.run(barrier())
            await asyncio.sleep(0.05)
            return log

        log = run_async(main())
        assert "item" in log and "first" in log and "second" in log

    def test_machine_execute_counts_busy_time(self):
        async def main():
            kernel = AsyncioKernel()
            machine = LiveMachine(kernel, "m")

            def proc():
                yield from machine.execute(2.0)
                return machine.busy_time

            return await kernel.run(proc())

        assert run_async(main()) == 2.0


# ----------------------------------------------------------------------
# The due FIFO: sim order, and a failing callback inside a frame's drain
# ----------------------------------------------------------------------
#: Gap between the timers that open each instant of the order program.
_SPACING = 0.02
_POOL = 4


def _order_plan(seed: int) -> list:
    """Rounds of workers, each a list of steps drawn from ``seed``."""
    rng = random.Random(seed)
    plan = []
    for __ in range(3):
        workers = []
        for __ in range(4):
            steps = []
            for __ in range(rng.randint(2, 5)):
                kind = rng.choice(["all", "any", "succeed", "pool"])
                if kind in ("all", "any"):
                    arg = [
                        (rng.choice(["own", "pool", "plain"]), rng.randrange(_POOL))
                        for __ in range(rng.randint(1, 3))
                    ]
                else:
                    arg = rng.randrange(_POOL)
                steps.append((kind, arg))
            workers.append(steps)
        plan.append(workers)
    return plan


def _order_program(kernel, plan, record):
    """Each instant opens with one timer (distinct times), and a zero
    timeout only directly after a wake-up, when nothing else is due: so
    every resume order below is fixed by the FIFO rule alone."""

    def child(tag, kind, index, pool):
        record(tag + ("start",))
        value = None
        if kind == "own":
            event = kernel.event()
            event.succeed(tag)
            value = yield event
        elif kind == "pool":
            value = yield pool[index]
        record(tag + ("end", value))
        return tag

    def worker(r, w, steps, pool):
        yield kernel.timeout(_SPACING * (w + 1))
        record((r, w, "wake"))
        yield kernel.timeout(0.0)
        record((r, w, "zero"))
        for s, (kind, arg) in enumerate(steps):
            tag = (r, w, s)
            if kind in ("all", "any"):
                kids = [
                    kernel.spawn(child(tag + (c,), ck, ci, pool))
                    for c, (ck, ci) in enumerate(arg)
                ]
                barrier = kernel.all_of(kids) if kind == "all" else kernel.any_of(kids)
                value = yield barrier
            elif kind == "succeed":
                value = not pool[arg].triggered
                if value:
                    pool[arg].succeed(tag)
            else:
                value = yield pool[arg]
            record(tag + (kind, value))

    def driver():
        for r, workers in enumerate(plan):
            pool = [kernel.event() for __ in range(_POOL)]
            procs = [
                kernel.spawn(worker(r, w, steps, pool)) for w, steps in enumerate(workers)
            ]
            yield kernel.timeout(_SPACING * (len(workers) + 1))
            record((r, "release"))
            for event in pool:
                if not event.triggered:
                    event.succeed(("driver", r))
            yield kernel.all_of(procs)
            record((r, "done"))
            yield kernel.timeout(0.0)

    return driver()


class _JumpingSelector(selectors.DefaultSelector):
    """Polls without blocking; where the loop would sleep until its next
    timer, the loop's virtual clock jumps there instead."""

    def __init__(self, loop: "VirtualClockLoop") -> None:
        super().__init__()
        self._loop = loop

    def select(self, timeout=None):
        events = super().select(0)
        if not events and timeout:
            self._loop.virtual_now += timeout
        return events


class VirtualClockLoop(asyncio.SelectorEventLoop):
    """An event loop whose clock moves only by jumping to its next
    timer: timers fire in the order of their due times however late a
    loaded machine runs the loop, and no test waits out a real delay."""

    def __init__(self) -> None:
        self.virtual_now = 0.0
        super().__init__(_JumpingSelector(self))

    def time(self) -> float:
        return self.virtual_now


def run_on_virtual_clock(coro):
    loop = VirtualClockLoop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


class TestDueFifo:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_resume_order_equals_the_sim_kernel(self, seed):
        plan = _order_plan(seed)
        sim_order: list = []
        sim = sim_kernel.Kernel()
        sim.run_process(_order_program(sim, plan, sim_order.append))

        async def main():
            live_order: list = []
            kernel = AsyncioKernel()
            await kernel.run(_order_program(kernel, plan, live_order.append))
            return live_order

        # Each instant opens with a loop timer; on the real clock a loop
        # running late past the next timer would open two instants in
        # one pass and interleave them.  The virtual clock keeps the
        # order down to the kernel's FIFO rule alone.
        live_order = run_on_virtual_clock(main())
        assert len(sim_order) > 60
        assert live_order == sim_order

    def test_failing_callback_in_a_frame_drain_is_reported_and_skipped(self):
        async def main():
            loop = asyncio.get_running_loop()
            reported: list = []
            loop.set_exception_handler(lambda __, context: reported.append(context))
            port = free_port()
            receiver_kernel = AsyncioKernel()
            receiver = LiveNetwork(receiver_kernel, {})
            inbox = receiver.register("b", LiveMachine(receiver_kernel, "mb"))
            sender_kernel = AsyncioKernel()
            sender = LiveNetwork(sender_kernel, {"b": ("127.0.0.1", port)})
            await receiver.listen("127.0.0.1", port)
            order: list = []

            def boom():
                order.append("boom")
                raise RuntimeError("callback failed")

            def consumer():
                for __ in range(2):
                    __, message = yield inbox.get()
                    # Both run in this frame's drain, the second after
                    # the first has raised.
                    receiver_kernel._schedule_now(boom)
                    receiver_kernel._schedule_now(lambda m=message: order.append(m))

            done = receiver_kernel.spawn(consumer())
            try:
                sender.send("a", "b", "first")
                await asyncio.wait_for(_until(lambda: len(order) == 2), 5.0)
                (connection,) = receiver.transport._inbound
                sender.send("a", "b", "second")
                await asyncio.wait_for(_until(lambda: done.triggered), 5.0)
                # One connection carried both frames: nothing closed it.
                assert receiver.transport._inbound == {connection}
                assert not connection.is_closing()
            finally:
                await sender.close()
                await receiver.close()
            return order, reported, receiver.transport.stats

        order, reported, received = run_async(main())
        assert order == ["boom", "first", "boom", "second"]
        assert [(c["message"], type(c["exception"])) for c in reported] == [
            ("exception in kernel callback", RuntimeError)
        ] * 2
        assert received.frames_received == 2 and received.decode_errors == 0


class TestRpcTimers:
    def test_a_won_call_leaves_no_live_timer(self):
        """Each call races its reply against a timeout; once the reply
        wins, the loop timer is cancelled instead of lingering in the
        loop's heap until it fires to no waiter."""
        from repro.sim.rpc import RpcNode

        async def main():
            loop = asyncio.get_running_loop()
            addresses = {"s": ("127.0.0.1", free_port()), "c": ("127.0.0.1", free_port())}
            server_kernel = AsyncioKernel()
            server_net = LiveNetwork(server_kernel, addresses)
            server = RpcNode(server_kernel, server_net, LiveMachine(server_kernel, "ms"), "s")

            def echo(src, payload):
                yield from ()
                return payload

            server.on("echo", echo)
            kernel = AsyncioKernel()
            network = LiveNetwork(kernel, addresses)
            client = RpcNode(kernel, network, LiveMachine(kernel, "mc"), "c")
            await server_net.listen(*addresses["s"])
            await network.listen(*addresses["c"])

            def calls():
                for i in range(2000):
                    assert (yield client.call("s", "echo", i, timeout=10.0)) == i

            try:
                await kernel.run(calls())
                return sum(not handle.cancelled() for handle in loop._scheduled)
            finally:
                await network.close()
                await server_net.close()

        assert run_async(main(), timeout=60.0) < 10

    def test_fired_and_cancelled_timeouts_leave_no_reference_cycles(self):
        """A timeout holds its loop timer (to cancel it) and the timer
        holds the callback that fires the timeout: once it has fired or
        been cancelled that loop is cut, so the servers' many timeouts
        are freed by reference counting, not left to the cyclic
        collector, whose passes stall the loop."""
        import gc

        def waits(kernel):
            for __ in range(500):
                yield kernel.timeout(0.0)
                kernel.timeout(5.0).cancel()

        async def main():
            kernel = AsyncioKernel()
            gc.collect()
            gc.disable()
            try:
                await kernel.run(waits(kernel))
                return gc.collect()
            finally:
                gc.enable()

        assert run_async(main()) == 0


class _CountingSelector(selectors.DefaultSelector):
    """The platform selector, counting its ``select`` calls: one per
    pass of the asyncio loop."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def select(self, timeout=None):
        self.calls += 1
        return super().select(timeout)


class TestComputeCharges:
    def test_a_two_compute_handler_costs_one_server_loop_pass(self):
        """A read-shaped handler charges two modelled computes, as the
        Compactor's point read does; both resume from the due FIFO, so
        the server answers each request in the one loop pass that read
        its frame."""
        from repro.sim.rpc import RpcNode

        addresses = {"s": ("127.0.0.1", free_port()), "c": ("127.0.0.1", free_port())}
        selector = _CountingSelector()
        ready = threading.Event()
        server_loop = asyncio.SelectorEventLoop(selector)
        stop = server_loop.create_future()

        async def serve():
            kernel = AsyncioKernel()
            network = LiveNetwork(kernel, addresses)
            server = RpcNode(kernel, network, LiveMachine(kernel, "ms"), "s")

            def read(src, payload):
                yield from server.compute(20e-6)
                yield from server.compute(30e-6)
                return payload

            server.on("read", read)
            await network.listen(*addresses["s"])
            ready.set()
            await stop
            await network.close()

        thread = threading.Thread(target=server_loop.run_until_complete, args=(serve(),))
        thread.start()

        async def drive():
            kernel = AsyncioKernel()
            network = LiveNetwork(kernel, addresses)
            client = RpcNode(kernel, network, LiveMachine(kernel, "mc"), "c")
            await network.listen(*addresses["c"])

            def calls(count):
                for i in range(count):
                    assert (yield client.call("s", "read", i, timeout=10.0)) == i

            try:
                await kernel.run(calls(50))
                before = selector.calls
                await kernel.run(calls(300))
                return (selector.calls - before) / 300
            finally:
                await network.close()

        try:
            assert ready.wait(10.0)
            passes = run_async(drive())
        finally:
            server_loop.call_soon_threadsafe(stop.set_result, None)
            thread.join(10.0)
            server_loop.close()
        assert passes < 1.1

    def test_charges_past_the_slice_let_a_due_loop_timer_run(self):
        """Charges inside the slice resume from the due FIFO, so a due
        loop timer waits; once the drain has held the loop for
        ``YIELD_SLICE_S``, the next charge gives the loop its turn."""

        async def main():
            loop = asyncio.get_running_loop()
            kernel = AsyncioKernel()
            machine = LiveMachine(kernel, "m")
            fired: list = []

            def charge():
                loop.call_later(0.0, fired.append, True)
                charges = 0
                while not fired and charges < 1_000_000:
                    yield from machine.execute(1e-6)
                    charges += 1
                return charges, time.monotonic()

            start = time.monotonic()
            charges, end = await kernel.run(charge())
            return fired, charges, end - start

        fired, charges, held = run_async(main())
        assert fired
        assert charges > 1
        assert held >= YIELD_SLICE_S


async def _until(predicate) -> None:
    while not predicate():
        await asyncio.sleep(0.005)


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
class TestSpecs:
    def test_names_match_simulator_conventions(self):
        spec = LiveSpec(num_ingestors=2, num_compactors=3, num_readers=1)
        assert spec.ingestor_names == ["ingestor-0", "ingestor-1"]
        assert spec.compactor_names == ["compactor-0", "compactor-1", "compactor-2"]
        assert spec.reader_names == ["reader-0"]
        assert spec.multi_ingestor

    def test_round_trips_through_dict(self):
        spec = localhost_spec(2, 2, 1, num_clients=3, seed=5)
        clone = spec_from_dict(spec_to_dict(spec))
        assert clone.addresses == spec.addresses
        assert clone.config == spec.config
        assert clone.node_names == spec.node_names
        assert clone.seed == spec.seed

    def test_load_spec_toml(self, tmp_path):
        path = tmp_path / "cluster.toml"
        path.write_text(
            """
seed = 9
num_ingestors = 1
num_compactors = 2

[config]
key_range = 1000
memtable_entries = 20

[addresses]
"ingestor-0" = "127.0.0.1:9100"
"compactor-0" = "127.0.0.1:9101"
"compactor-1" = "127.0.0.1:9102"
"client-1" = "127.0.0.1:9190"
"""
        )
        spec = load_spec(path)
        assert spec.seed == 9
        assert spec.config.key_range == 1000
        assert spec.address("compactor-1") == ("127.0.0.1", 9102)

    def test_readme_cluster_toml_matches_its_launch_commands(self, tmp_path):
        readme = (Path(__file__).parents[2] / "README.md").read_text()
        section = readme[readme.index("### Run a live cluster on localhost") :]
        toml = re.search(r"```toml\n(.*?)```", section, re.S).group(1)
        bash = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
        path = tmp_path / "cluster.toml"
        path.write_text(toml)
        spec = load_spec(path)
        launched = re.findall(r"--node (\S+)", bash)
        assert sorted(launched) == sorted(spec.launch_names)
        for name in launched:
            spec.address(name)

    def test_load_spec_json(self, tmp_path):
        import json

        spec = localhost_spec(1, 1, 0, num_clients=1)
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps(spec_to_dict(spec)))
        assert load_spec(path).addresses == spec.addresses

    def test_unknown_node_address_raises(self):
        spec = LiveSpec(addresses={"ingestor-0": ("127.0.0.1", 9000)})
        with pytest.raises(InvalidConfigError, match="no address"):
            spec.address("compactor-0")

    def test_bad_address_strings_rejected(self):
        with pytest.raises(InvalidConfigError):
            spec_from_dict({"addresses": {"ingestor-0": "localhost"}})

    def test_every_field_round_trips_through_dict(self):
        spec = LiveSpec(
            config=CooLSMConfig(key_range=5000, memtable_entries=77),
            num_ingestors=3,
            num_compactors=4,
            num_readers=2,
            compactor_replicas=2,
            ingestors_feed_readers=True,
            sharded=True,
            spare_ingestors=1,
            seed=11,
            addresses={"ingestor-0": ("10.0.0.1", 9000), "client-1": ("10.0.0.9", 9090)},
            drain_timeout=5.0,
            data_dir="cluster-data",
        )
        for f in dataclasses.fields(LiveSpec):
            default = f.default_factory() if f.default is dataclasses.MISSING else f.default
            assert getattr(spec, f.name) != default, f"{f.name} left at its default"
        assert spec_from_dict(spec_to_dict(spec)) == spec

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"transport_overflow": "drop"}, "transport_overflow"),
            ({"num_ingestor": 2}, "num_ingestor"),
            ({"config": {"memtable_size": 10}}, "memtable_size"),
        ],
    )
    def test_unknown_keys_named(self, raw, key):
        with pytest.raises(InvalidConfigError, match=key):
            spec_from_dict(raw)

    def test_retry_policy_mirrors_forward_backoff(self):
        config = CooLSMConfig(forward_backoff_base=0.1, forward_backoff_cap=1.5)
        policy = LiveSpec(config=config).retry_policy()
        assert policy.base == 0.1 and policy.cap == 1.5
        assert policy.next_backoff(1.0) == 1.5  # capped


# ----------------------------------------------------------------------
# In-process cluster: every node on its own port in one event loop
# ----------------------------------------------------------------------
class TestInProcessCluster:
    def test_upserts_and_reads_over_real_sockets(self):
        config = CooLSMConfig().scaled_down(10)
        spec = localhost_spec(1, 2, 1, num_clients=2, config=config, seed=3)
        history = History()

        async def main():
            nodes = [LiveNode(spec, name) for name in spec.node_names]
            for node in nodes:
                await node.listen()
            try:
                async with ClientPool(spec, num_clients=2, history=history) as pool:

                    def workload(client, base):
                        for index in range(40):
                            key = str(base + index % 10).encode()
                            yield from client.upsert(key, b"v%d" % index)
                            if index % 4 == 0:
                                yield from client.read(key)
                        return "done"

                    results = await asyncio.gather(
                        pool.run(workload(pool.clients[0], 0), "w0"),
                        pool.run(workload(pool.clients[1], 100), "w1"),
                    )
                inflight = {node.name: node.inflight() for node in nodes}
                drained = [await node.drain(5.0) for node in nodes]
                return results, inflight, drained
            finally:
                for node in nodes:
                    await node.close()

        results, inflight, drained = run_async(main(), timeout=60.0)
        assert results == ["done", "done"]
        assert all(drained), f"undrained in-flight work: {inflight}"
        assert len(history) == 100
        report = check_linearizable(history)
        assert not report.violations, report.violations

    def test_unknown_destination_surfaces_as_timeout_not_crash(self):
        config = CooLSMConfig(
            key_range=100, client_timeout=0.3, client_retry_budget=1
        )
        # Address map contains the client but NOT the ingestor: every
        # send is a counted drop and the client times out cleanly.
        spec = LiveSpec(
            config=config,
            addresses={"client-1": ("127.0.0.1", 1)},
        )

        async def main():
            from repro.sim.rpc import RemoteError, RpcTimeout

            kernel = AsyncioKernel()
            network = LiveNetwork(kernel, spec.addresses)
            machine = LiveMachine(kernel, "m-driver")
            client = spec.build_client(kernel, network, machine, "client-1")

            def attempt():
                yield from client.upsert(b"1", b"v")

            try:
                with pytest.raises((RpcTimeout, RemoteError)):
                    await kernel.run(attempt())
                return network.transport.stats.send_drops
            finally:
                await network.close()

        assert run_async(main(), timeout=30.0) >= 1


# ----------------------------------------------------------------------
# One wiring: the sim and the live interpreter build the same nodes
# ----------------------------------------------------------------------
def _wiring(node) -> dict:
    shard_map = getattr(node, "shard_map", None)
    partitioning = getattr(node, "partitioning", None)
    return {
        "class": type(node),
        "peers": getattr(node, "peers", None),
        "backups": getattr(node, "backups", None),
        "sources": getattr(node, "_sources", None),
        "multi_ingestor": getattr(node, "multi_ingestor", None),
        "shard_map": shard_map.to_state() if shard_map is not None else None,
        "partitioning": (
            [(p.lower, p.members) for p in partitioning.partitions]
            if partitioning is not None
            else None
        ),
    }


TOPOLOGIES = {
    "1-1-0": {},
    "2-2-1-overlapping": dict(num_ingestors=2, num_compactors=2, num_readers=1),
    "2-4-1-replicated": dict(
        num_ingestors=2, num_compactors=4, num_readers=1, compactor_replicas=2
    ),
    "sharded-2+1-spare": dict(
        num_ingestors=2, num_compactors=2, sharded=True, spare_ingestors=1
    ),
    "feed-readers": dict(num_compactors=2, num_readers=2, ingestors_feed_readers=True),
}


@pytest.mark.parametrize("shape", TOPOLOGIES.values(), ids=TOPOLOGIES.keys())
def test_sim_and_live_wire_every_node_alike(shape):
    spec = LiveSpec(config=CooLSMConfig(key_range=1000), **shape)
    cluster = build_cluster(ClusterSpec(**spec.shared_fields()))
    sim = [*cluster.ingestors, *cluster.compactors, *cluster.readers]

    async def main():
        nodes = [LiveNode(spec, name) for name in spec.node_names]
        for node in nodes:
            await node.close()
        return [node.node for node in nodes]

    live = {node.name: node for node in run_async(main())}
    assert sorted(node.name for node in sim) == sorted(live) == sorted(spec.node_names)
    for node in sim:
        assert _wiring(node) == _wiring(live[node.name]), node.name
