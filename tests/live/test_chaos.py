"""Unit and small-integration tests for the live chaos layer.

Covers the proxy data plane (forward / cut / heal / latency / drop),
the JSON-line control protocol, spec interposition, the
:class:`LiveNemesis` log's equality with the shared oracle, the
supervisor's restart and crash-loop behavior, the harness's
stale-READY-line regression, and the health monitor (driven under the
sim kernel — same code path the live runtime uses).

The full-stack composition — real processes, proxy interposed, seeded
schedule, workload under fire — is ``test_chaos_soak.py``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.chaos_events import (
    CrashNode,
    DropBurst,
    PartitionPair,
    SkewClock,
    SlowMachine,
    expected_fingerprint,
)
from repro.core import ClusterSpec, build_cluster
from repro.live import wire
from repro.live.chaos import (
    DRIVER_MACHINE,
    ChaosControl,
    ChaosError,
    ChaosProxy,
    LinkSpec,
    LiveNemesis,
    links_from_dict,
    links_to_dict,
    machine_of,
    plan_links,
    proxied_spec,
)
from repro.live.harness import LocalCluster, free_port, localhost_spec, stop_waves
from repro.live.node import LiveSpec
from repro.lsm.errors import InvalidConfigError
from repro.live.supervisor import HealthMonitor, RestartPolicy, Supervisor

from tests.core.conftest import TINY


# ----------------------------------------------------------------------
# Proxy fixtures: one link in front of an echo server
# ----------------------------------------------------------------------
async def _start_echo() -> tuple[asyncio.base_events.Server, int]:
    async def echo(reader, writer):
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                writer.write(data)
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(echo, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def _frame(index: int) -> bytes:
    out = bytearray()
    wire.encode_value(index, out)
    return wire.encode_frame(bytes(out))


async def _read_frame(reader) -> int:
    header = await reader.readexactly(wire.HEADER_SIZE)
    length, crc = wire.decode_header(header)
    payload = await reader.readexactly(length)
    wire.check_payload(payload, crc)
    return wire.decode_value(payload)[0]


class _ProxyRig:
    """Echo upstream + single-link proxy + control client."""

    async def __aenter__(self):
        self.upstream, up_port = await _start_echo()
        self.link = LinkSpec(
            "m-a", "m-b", ("127.0.0.1", free_port()), ("127.0.0.1", up_port)
        )
        self.proxy = ChaosProxy([self.link], seed=7)
        await self.proxy.start()
        self.control = ChaosControl(self.proxy.control_address)
        return self

    async def __aexit__(self, *exc_info):
        await self.control.close()
        await self.proxy.close()
        self.upstream.close()
        await self.upstream.wait_closed()


class TestChaosProxy:
    def test_forwards_frames_and_counts(self):
        async def scenario():
            async with _ProxyRig() as rig:
                reader, writer = await asyncio.open_connection(*rig.link.listen)
                for index in range(5):
                    writer.write(_frame(index))
                await writer.drain()
                echoed = [await _read_frame(reader) for __ in range(5)]
                assert echoed == [0, 1, 2, 3, 4]
                stats = (await rig.control.stats())["stats"]
                assert stats["frames_forwarded"] >= 5
                writer.close()

        asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))

    def test_cut_refuses_and_heal_restores(self):
        async def scenario():
            async with _ProxyRig() as rig:
                reader, writer = await asyncio.open_connection(*rig.link.listen)
                writer.write(_frame(0))
                await writer.drain()
                assert await _read_frame(reader) == 0

                await rig.control.cut("m-a", "m-b")
                # The live connection dies...
                with pytest.raises(
                    (asyncio.IncompleteReadError, ConnectionError)
                ):
                    await asyncio.wait_for(_read_frame(reader), timeout=5.0)
                # ...and new ones are refused at the door.
                with pytest.raises(OSError):
                    await asyncio.open_connection(*rig.link.listen)

                await rig.control.heal("m-a", "m-b")
                reader2, writer2 = await asyncio.open_connection(*rig.link.listen)
                writer2.write(_frame(1))
                await writer2.drain()
                assert await _read_frame(reader2) == 1
                status = await rig.control.stats()
                assert status["stats"]["cuts"] == 1
                assert status["stats"]["heals"] == 1
                assert status["cut"] == []
                writer2.close()

        asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))

    def test_cut_is_idempotent(self):
        async def scenario():
            async with _ProxyRig() as rig:
                await rig.control.cut("m-a", "m-b")
                await rig.control.cut("m-a", "m-b")
                status = await rig.control.stats()
                assert status["stats"]["cuts"] == 1
                assert status["cut"] == [["m-a", "m-b"]]

        asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))

    def test_latency_delays_frames(self):
        async def scenario():
            async with _ProxyRig() as rig:
                loop = asyncio.get_running_loop()
                reader, writer = await asyncio.open_connection(*rig.link.listen)

                async def round_trip() -> float:
                    start = loop.time()
                    writer.write(_frame(0))
                    await writer.drain()
                    await _read_frame(reader)
                    return loop.time() - start

                baseline = await round_trip()
                await rig.control.set_latency("m-b", 0.2)
                slowed = await round_trip()
                # Injected one-way delay dominates the loopback baseline.
                assert slowed >= baseline + 0.15
                await rig.control.set_latency("m-b", 0.0)
                restored = await round_trip()
                assert restored < 0.15
                writer.close()

        asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))

    def test_drop_removes_whole_frames(self):
        async def scenario():
            async with _ProxyRig() as rig:
                await rig.control.set_drop(1.0)
                reader, writer = await asyncio.open_connection(*rig.link.listen)
                for index in range(5):
                    writer.write(_frame(index))
                await writer.drain()
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(_read_frame(reader), timeout=0.3)
                await rig.control.set_drop(0.0)
                # The stream still decodes: the next frame arrives whole.
                writer.write(_frame(99))
                await writer.drain()
                assert await _read_frame(reader) == 99
                stats = (await rig.control.stats())["stats"]
                assert stats["frames_dropped"] == 5
                writer.close()

        asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))

    def test_control_rejects_unknown_ops_and_machines(self):
        async def scenario():
            async with _ProxyRig() as rig:
                with pytest.raises(ChaosError):
                    await rig.control.request(op="frobnicate")
                with pytest.raises(ChaosError):
                    await rig.control.cut("m-a", "m-nope")
                # The control connection survives rejected commands.
                assert (await rig.control.ping())["links"] == 1

        asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))

    def test_upstream_down_hangs_up(self):
        async def scenario():
            async with _ProxyRig() as rig:
                rig.upstream.close()
                await rig.upstream.wait_closed()
                reader, writer = await asyncio.open_connection(*rig.link.listen)
                writer.write(_frame(0))
                with pytest.raises(
                    (asyncio.IncompleteReadError, ConnectionError)
                ):
                    await asyncio.wait_for(_read_frame(reader), timeout=5.0)
                stats = (await rig.control.stats())["stats"]
                assert stats["upstream_refused"] == 1

        asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))


class TestInterposition:
    def test_plan_links_covers_every_ordered_pair(self):
        spec = localhost_spec(num_ingestors=2, num_compactors=2, num_readers=1)
        links = plan_links(spec)
        machines = {machine_of(n) for n in spec.node_names} | {DRIVER_MACHINE}
        assert len(links) == len(machines) * (len(machines) - 1)
        assert {(l.src, l.dst) for l in links} == {
            (a, b) for a in machines for b in machines if a != b
        }
        # Every link forwards to its destination's real address.
        for link in links:
            if link.dst == DRIVER_MACHINE:
                assert link.forward == spec.address("client-1")
            else:
                assert link.forward == spec.address(link.dst.removeprefix("m-"))

    def test_proxied_spec_viewpoints(self):
        spec = localhost_spec(num_ingestors=1, num_compactors=1, num_readers=1)
        links = plan_links(spec)
        by_pair = {l.key: l.listen for l in links}

        node_view = proxied_spec(spec, links, machine_of("ingestor-0"))
        assert node_view.addresses["ingestor-0"] == spec.addresses["ingestor-0"]
        assert node_view.addresses["compactor-0"] == by_pair[
            ("m-ingestor-0", "m-compactor-0")
        ]
        assert node_view.addresses["client-1"] == by_pair[
            ("m-ingestor-0", DRIVER_MACHINE)
        ]

        driver_view = proxied_spec(spec, links, DRIVER_MACHINE)
        assert driver_view.addresses["client-1"] == spec.addresses["client-1"]
        assert driver_view.addresses["ingestor-0"] == by_pair[
            (DRIVER_MACHINE, "m-ingestor-0")
        ]
        # Topology and config are untouched.
        assert driver_view.node_names == spec.node_names
        assert driver_view.config == spec.config

    def test_links_round_trip_through_json(self):
        import json

        spec = localhost_spec(num_ingestors=1, num_compactors=1)
        links = plan_links(spec)
        raw = json.loads(json.dumps(links_to_dict(links, ("127.0.0.1", 4242), 9)))
        decoded, control, seed = links_from_dict(raw)
        assert decoded == links
        assert control == ("127.0.0.1", 4242)
        assert seed == 9


class _RecordingControl:
    """A ChaosControl stand-in that records calls instead of dialing."""

    def __init__(self):
        self.calls: list[tuple] = []

    async def cut(self, a, b):
        self.calls.append(("cut", a, b))

    async def heal(self, a, b):
        self.calls.append(("heal", a, b))

    async def set_drop(self, p):
        self.calls.append(("drop", p))

    async def set_latency(self, machine, seconds):
        self.calls.append(("latency", machine, seconds))


class TestLiveNemesis:
    def _events(self):
        return [
            PartitionPair("m-a", "m-b", at=0.0, duration=0.05),
            DropBurst(0.5, at=0.02, duration=0.05),
            SlowMachine("m-a", at=0.04, duration=0.05, factor=4.0),
        ]

    def test_timeline_equals_oracle(self):
        # Overlapping windows: the pair stays cut until its last window
        # ends, and the drop level follows the latest open burst.
        events = [
            PartitionPair("m-a", "m-b", at=0.0, duration=0.04),
            PartitionPair("m-b", "m-a", at=0.02, duration=0.04),
            DropBurst(0.5, at=0.01, duration=0.07),
            DropBurst(0.2, at=0.02, duration=0.01),
        ]
        control = _RecordingControl()

        async def scenario():
            return await LiveNemesis(events, control=control).run()

        log = asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))
        assert log.canonical_fingerprint() == expected_fingerprint(events)
        assert control.calls == [
            ("cut", "m-a", "m-b"),
            ("drop", 0.5),
            ("drop", 0.2),
            ("drop", 0.5),
            ("heal", "m-b", "m-a"),
            ("drop", 0.0),
        ]

    def test_run_logs_expected_fingerprint(self):
        events = self._events()

        async def scenario():
            nemesis = LiveNemesis(events, control=_RecordingControl())
            return await nemesis.run()

        log = asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))
        assert log.canonical_fingerprint() == expected_fingerprint(events)
        assert log.fingerprint() == expected_fingerprint(events)
        for action in ("partition", "heal", "drop_burst", "slow"):
            assert log.count(action) == 1
        # wall offsets are recorded and non-decreasing.
        walls = [r.wall for r in log]
        assert all(w is not None for w in walls)
        assert walls == sorted(walls)

    def test_zero_length_partition_ends_healed(self):
        control = _RecordingControl()
        events = [PartitionPair("m-a", "m-b", at=0.0, duration=0.0)]

        async def scenario():
            return await LiveNemesis(events, control=control).run()

        log = asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))
        assert control.calls == [("cut", "m-a", "m-b"), ("heal", "m-a", "m-b")]
        assert log.canonical_fingerprint() == expected_fingerprint(events)

    def test_overlapping_crashes_kill_and_restart_once(self):
        cluster = _CrashCluster()
        events = [
            CrashNode("ingestor-0", at=0.0, downtime=0.04),
            CrashNode("ingestor-0", at=0.02, downtime=0.04),
        ]

        async def scenario():
            return await LiveNemesis(events, cluster=cluster).run()

        log = asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))
        assert cluster.calls == [("kill9", "ingestor-0"), ("restart", "ingestor-0")]
        assert [(r.time, r.action) for r in log] == [(0.0, "crash"), (0.06, "recover")]

    def test_replay_is_identical_at_log_level(self):
        events = self._events()

        async def once():
            nemesis = LiveNemesis(events, control=_RecordingControl())
            return (await nemesis.run()).fingerprint()

        first = asyncio.run(asyncio.wait_for(once(), timeout=30.0))
        second = asyncio.run(asyncio.wait_for(once(), timeout=30.0))
        assert first == second == expected_fingerprint(events)

    def test_slow_machine_latency_scales_with_factor(self):
        control = _RecordingControl()
        events = [SlowMachine("m-a", at=0.0, duration=0.01, factor=5.0)]

        async def scenario():
            await LiveNemesis(events, control=control, slow_unit=0.02).run()

        asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))
        assert ("latency", "m-a", 0.1) in control.calls
        assert ("latency", "m-a", 0.0) in control.calls

    def test_skew_clock_rejected(self):
        with pytest.raises(ValueError, match="sim-only"):
            LiveNemesis(
                [SkewClock("ingestor-0", at=0.0, duration=1.0, skew=0.1)],
                control=_RecordingControl(),
            )

    def test_crash_without_cluster_rejected(self):
        with pytest.raises(ValueError, match="cluster"):
            LiveNemesis([CrashNode("ingestor-0", at=0.0)], control=None)

    def test_unknown_targets_rejected(self):
        spec = localhost_spec(num_ingestors=1, num_compactors=1)
        cluster = LocalCluster(spec, "unused")  # never started: names only
        with pytest.raises(ValueError, match="unknown node"):
            LiveNemesis([CrashNode("ingestor-9", at=0.0)], cluster=cluster)
        with pytest.raises(ValueError, match="unknown machine"):
            LiveNemesis(
                [PartitionPair("m-ingestor-0", "m-wat", at=0.0, duration=1.0)],
                control=_RecordingControl(),
                cluster=cluster,
            )


class _CrashCluster:
    """Duck-typed LocalCluster for crash events: like the real one, it
    refuses to restart a node that is still running."""

    def __init__(self):
        self.spec = localhost_spec(num_ingestors=1, num_compactors=1)
        self.running = set(self.spec.node_names)
        self.calls: list[tuple[str, str]] = []

    def kill9(self, name):
        self.calls.append(("kill9", name))
        self.running.discard(name)

    def restart(self, name, timeout=30.0):
        if name in self.running:
            raise RuntimeError(f"{name} is still running; kill it first")
        self.calls.append(("restart", name))
        self.running.add(name)


class _FakeProcess:
    def __init__(self, code=None):
        self.code = code

    def poll(self):
        return self.code


class _FakeCluster:
    """Duck-typed LocalCluster for supervisor tests."""

    def __init__(self, names):
        self.processes = {name: _FakeProcess() for name in names}
        self.restarted: list[str] = []
        self.fail_restarts = False

    def restart(self, name, timeout=30.0):
        if self.fail_restarts:
            raise RuntimeError("relaunch failed")
        self.restarted.append(name)
        self.processes[name] = _FakeProcess()

    def die(self, name, code=137):
        self.processes[name].code = code


class TestSupervisor:
    def _policy(self):
        return RestartPolicy(base=0.05, cap=0.2, stable_after=60.0)

    def test_unexpected_death_is_restarted(self):
        async def scenario():
            cluster = _FakeCluster(["ingestor-0", "compactor-0"])
            supervisor = Supervisor(
                cluster, policy=self._policy(), poll_interval=0.02
            )
            supervisor.start()
            try:
                cluster.die("ingestor-0")
                deadline = asyncio.get_running_loop().time() + 10.0
                while supervisor.stats.restarts == 0:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.01)
            finally:
                await supervisor.stop()
            assert cluster.restarted == ["ingestor-0"]
            assert supervisor.stats.restarts == 1

        asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))

    def test_expected_down_is_left_alone(self):
        async def scenario():
            cluster = _FakeCluster(["ingestor-0"])
            supervisor = Supervisor(
                cluster, policy=self._policy(), poll_interval=0.02
            )
            supervisor.start()
            try:
                supervisor.expect_down("ingestor-0")
                cluster.die("ingestor-0")
                await asyncio.sleep(0.3)
                assert cluster.restarted == []
                # Handing it back resumes supervision.
                supervisor.expect_up("ingestor-0")
                deadline = asyncio.get_running_loop().time() + 10.0
                while not cluster.restarted:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.01)
            finally:
                await supervisor.stop()
            assert cluster.restarted == ["ingestor-0"]

        asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))

    def test_crash_loop_backs_off_exponentially(self):
        async def scenario():
            cluster = _FakeCluster(["reader-0"])
            supervisor = Supervisor(
                cluster, policy=self._policy(), poll_interval=0.01
            )
            supervisor.start()
            try:
                # Die immediately after every relaunch, five times.
                for __ in range(5):
                    count = supervisor.stats.restarts
                    cluster.die("reader-0")
                    deadline = asyncio.get_running_loop().time() + 10.0
                    while supervisor.stats.restarts <= count:
                        assert asyncio.get_running_loop().time() < deadline
                        await asyncio.sleep(0.005)
            finally:
                await supervisor.stop()
            assert supervisor.stats.restarts == 5
            # Every relaunch after the first found the node crash-looping.
            assert supervisor.stats.crash_loops >= 3
            # Backoff is capped, never runaway.
            assert supervisor._backoff["reader-0"] <= 0.2

        asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))

    def test_failed_relaunch_is_survived(self):
        async def scenario():
            cluster = _FakeCluster(["compactor-0"])
            cluster.fail_restarts = True
            supervisor = Supervisor(
                cluster, policy=self._policy(), poll_interval=0.02
            )
            supervisor.start()
            try:
                cluster.die("compactor-0")
                deadline = asyncio.get_running_loop().time() + 10.0
                while supervisor.stats.failures == 0:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.01)
            finally:
                await supervisor.stop()
            assert supervisor.stats.restarts == 0
            assert supervisor.stats.failures >= 1

        asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))

    def test_restart_policy_backoff_shape(self):
        policy = RestartPolicy(base=0.25, cap=8.0)
        backoff = 0.0
        seen = []
        for __ in range(8):
            backoff = policy.next_backoff(backoff)
            seen.append(backoff)
        assert seen[:6] == [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        assert seen[-1] == 8.0


class TestReadyLineRegression:
    """A restarted node must not be declared ready off its previous
    life's READY line (append-mode logs keep it)."""

    def test_ready_logged_respects_launch_offset(self, tmp_path):
        spec = localhost_spec(num_ingestors=1, num_compactors=1)
        cluster = LocalCluster(spec, tmp_path)
        log = cluster.log_path("ingestor-0")
        log.parent.mkdir(parents=True, exist_ok=True)
        first_life = "READY ingestor-0 127.0.0.1:1\nDRAINED ingestor-0 inflight=0\n"
        log.write_text(first_life)

        # Second life launched: offset points past the first life's log.
        cluster._log_offsets["ingestor-0"] = len(first_life)
        assert not cluster._ready_logged("ingestor-0")

        # Mid-line output (partial write) is not ready either.
        with open(log, "a") as sink:
            sink.write("RECOVERED ingestor-0 version=3 tables=2 wal_entries=0\n")
        assert not cluster._ready_logged("ingestor-0")

        with open(log, "a") as sink:
            sink.write("READY ingestor-0 127.0.0.1:1\n")
        assert cluster._ready_logged("ingestor-0")

    def test_first_life_reads_from_start(self, tmp_path):
        spec = localhost_spec(num_ingestors=1, num_compactors=1)
        cluster = LocalCluster(spec, tmp_path)
        log = cluster.log_path("compactor-0")
        log.write_text("READY compactor-0 127.0.0.1:2\n")
        cluster._log_offsets["compactor-0"] = 0
        assert cluster._ready_logged("compactor-0")
        assert not cluster._ready_logged("reader-missing")


class TestHealthMonitor:
    """Runs under the sim kernel — the monitor is effect-protocol code,
    so this is the same logic the live runtime executes."""

    def _cluster(self):
        live = LiveSpec(config=TINY, num_ingestors=1, num_compactors=2)
        return build_cluster(ClusterSpec(**live.shared_fields()))

    def test_probes_populate_latest(self):
        cluster = self._cluster()
        client = cluster.add_client(record_history=False)
        monitor = HealthMonitor(
            client, ["ingestor-0", "compactor-0"], interval=0.1, timeout=0.5
        )
        monitor.start()
        cluster.run(until=1.0)
        monitor.stop()
        assert set(monitor.latest) == {"ingestor-0", "compactor-0"}
        reply = monitor.latest["ingestor-0"]
        assert reply.name == "ingestor-0"
        assert "l0_tables" in reply.gauges
        assert monitor.alive("ingestor-0", within=0.5)

    def test_crashed_node_stops_answering(self):
        cluster = self._cluster()
        client = cluster.add_client(record_history=False)
        monitor = HealthMonitor(client, ["compactor-1"], interval=0.1, timeout=0.3)
        monitor.start()
        cluster.run(until=0.5)
        assert monitor.alive("compactor-1", within=0.5)
        cluster.compactors[1].crash()
        cluster.run(until=3.0)
        monitor.stop()
        assert not monitor.alive("compactor-1", within=1.0)
        assert monitor.probe_failures.get("compactor-1", 0) >= 1

    def test_reply_nonce_matches_ping(self):
        cluster = self._cluster()
        client = cluster.add_client(record_history=False)
        monitor = HealthMonitor(client, ["ingestor-0"], interval=0.1, timeout=0.5)

        def probe():
            reply = yield from monitor.probe_once("ingestor-0")
            return reply

        process = cluster.kernel.spawn(probe(), "probe")
        cluster.run(until=1.0)
        reply = process.value
        assert reply.nonce == monitor._nonce
        assert reply.uptime > 0.0


class TestStopOrdering:
    """stop() must drain upstream roles before downstream ones exit.

    A simultaneous SIGTERM deadlocks under fault schedules: a Compactor
    with no pending work exits immediately while the Ingestor is still
    retrying an unacked forward against it, so the Ingestor can never
    drain and gets SIGKILLed at the stop timeout.
    """

    SPEC = LiveSpec(num_ingestors=2, num_compactors=2, num_readers=1)

    def test_waves_follow_dependency_order(self):
        names = [
            "compactor-0",
            "reader-0",
            "ingestor-1",
            "compactor-1",
            "ingestor-0",
        ]
        assert stop_waves(self.SPEC, names) == [
            ["ingestor-1", "ingestor-0"],
            ["compactor-0", "compactor-1"],
            ["reader-0"],
        ]

    def test_names_outside_the_spec_rejected(self):
        with pytest.raises(InvalidConfigError, match="unknown node name"):
            stop_waves(self.SPEC, ["frontend-0", "ingestor-0"])

    def test_empty_waves_are_dropped(self):
        assert stop_waves(self.SPEC, []) == []
        assert stop_waves(self.SPEC, ["reader-0"]) == [["reader-0"]]
