"""Live crash-recovery test: SIGKILL real processes mid-workload.

A 4-process durable cluster (1 Ingestor + 2 Compactors + 1 Reader,
each a ``repro.cli serve --data-dir`` subprocess).  While chaos
writers hammer the Ingestor, the harness SIGKILLs the Ingestor *and*
one Compactor — no drain, no signal handler, the OS just takes them —
then restarts both from their data directories.  Asserts:

* **zero acked-write loss** — every write acknowledged at any point
  (including before the crash) is returned by a post-recovery read;
* **linearizability** — the acked history passes the simulator's
  checker unchanged;
* **recovery actually ran** — both restarted nodes log a RECOVERED
  line naming the manifest version they resumed from;
* **clean drain** — the final SIGTERM still exits 0 on every node.

The writers deliberately retry the *same* (key, value) until an ack
arrives: an attempt that was applied but whose ack died with the
process is then indistinguishable from the retry that succeeded, so
"last acked value" stays the unique expected read result per key.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace

import pytest

from repro.core.config import CooLSMConfig
from repro.core.consistency import check_linearizable
from repro.core.history import History
from repro.live.harness import ClientPool, LocalCluster, localhost_spec
from repro.sim.rpc import RemoteError, RpcTimeout

#: Writes per chaos writer.
OPS_PER_WRITER = 220
#: Acked writes before the nemesis pulls the trigger.
KILL_AFTER_ACKS = 60
#: Nodes the nemesis SIGKILLs and restarts.
VICTIMS = ("ingestor-0", "compactor-0")


def chaos_writer(client, base: int, acked: dict):
    """Writer that survives the outage: retry until acked, then record."""
    for index in range(OPS_PER_WRITER):
        key = str(base + index % 40).encode()
        value = b"cw-%d-%d" % (base, index)
        while True:
            try:
                yield from client.upsert(key, value)
            except (RpcTimeout, RemoteError):
                continue  # node down or restarting: same value again
            break
        acked[key] = value
    return "ok"


def read_all(client, acked: dict, readback: dict):
    for key in sorted(acked):
        attempts = 0
        while True:
            try:
                readback[key] = yield from client.read(key)
            except (RpcTimeout, RemoteError):
                attempts += 1
                if attempts >= 10:
                    raise
                continue
            break
    return len(readback)


@pytest.fixture(scope="module")
def crash_run(tmp_path_factory):
    # Tight timeouts: the default 60s client RPC timeout would make a
    # one-second outage cost minutes of wall clock in retries.
    config = replace(
        CooLSMConfig().scaled_down(10), ack_timeout=2.0, client_timeout=2.0
    )
    spec = localhost_spec(
        num_ingestors=1,
        num_compactors=2,
        num_readers=1,
        num_clients=3,
        config=config,
        seed=23,
    )
    work_dir = tmp_path_factory.mktemp("crash-recovery")
    data_dir = tmp_path_factory.mktemp("crash-recovery-data")
    history = History()
    acked: dict[bytes, bytes] = {}
    readback: dict[bytes, bytes | None] = {}

    with LocalCluster(spec, work_dir, data_dir=data_dir) as cluster:
        cluster.wait_ready(timeout=30.0)

        async def nemesis():
            # Fire only once real acked state exists to lose.
            while len(acked) < KILL_AFTER_ACKS:
                await asyncio.sleep(0.02)
            for name in VICTIMS:
                await asyncio.to_thread(cluster.kill9, name)
            for name in VICTIMS:
                await asyncio.to_thread(cluster.restart, name, 30.0)
            return "nemesis-done"

        async def drive():
            async with ClientPool(spec, num_clients=3, history=history) as pool:
                results = await asyncio.gather(
                    pool.run(chaos_writer(pool.clients[0], 0, acked), "chaos-0"),
                    pool.run(chaos_writer(pool.clients[1], 1000, acked), "chaos-1"),
                    nemesis(),
                )
                await pool.run(
                    read_all(pool.clients[2], acked, readback), "readback"
                )
                return results

        results = asyncio.run(asyncio.wait_for(drive(), timeout=240.0))
        exit_codes = cluster.stop(timeout=30.0)

    logs = {name: cluster.log_path(name).read_text() for name in spec.node_names}
    return {
        "results": results,
        "history": history,
        "acked": acked,
        "readback": readback,
        "exit_codes": exit_codes,
        "logs": logs,
        "data_dir": data_dir,
    }


class TestCrashRecovery:
    def test_workloads_complete_through_the_outage(self, crash_run):
        assert crash_run["results"] == ["ok", "ok", "nemesis-done"]
        assert len(crash_run["acked"]) >= KILL_AFTER_ACKS

    def test_zero_acked_write_loss(self, crash_run):
        acked, readback = crash_run["acked"], crash_run["readback"]
        lost = {
            key: (expected, readback.get(key))
            for key, expected in acked.items()
            if readback.get(key) != expected
        }
        assert not lost, f"acked writes lost across SIGKILL: {lost}"

    def test_history_is_linearizable(self, crash_run):
        report = check_linearizable(crash_run["history"])
        assert not report.violations, report.violations

    def test_victims_recovered_from_their_manifests(self, crash_run):
        for name in VICTIMS:
            log = crash_run["logs"][name]
            assert f"RECOVERED {name}" in log, (
                f"{name} restarted without recovering durable state:\n{log}"
            )
            # Two lives, both reported ready.
            assert log.count(f"READY {name}") == 2

    def test_survivors_never_restarted(self, crash_run):
        for name, log in crash_run["logs"].items():
            if name not in VICTIMS:
                assert log.count(f"READY {name}") == 1
                assert "RECOVERED" not in log

    def test_final_drain_still_clean(self, crash_run):
        exit_codes = crash_run["exit_codes"]
        assert exit_codes == {name: 0 for name in exit_codes}, (
            f"non-zero drain exits: {exit_codes}; logs:\n"
            + "\n".join(crash_run["logs"].values())
        )

    def test_data_dirs_populated(self, crash_run):
        for name in crash_run["logs"]:
            node_dir = crash_run["data_dir"] / name
            assert (node_dir / "NODE_MANIFEST.json").exists()


# ----------------------------------------------------------------------
# SIGKILL under WAL group commit + batched writers.
#
# Group commit opens a window between a record entering the shared WAL
# buffer and the fsync that covers it; an ack must never be sent inside
# that window (DESIGN.md §13).  Concurrent UpsertBatchRequest writers
# keep groups buffered behind the leader's tick, so a SIGKILL can land
# between buffer-append and group fsync — and still no *acked* write may
# be lost.
# ----------------------------------------------------------------------

#: Batches per group-commit chaos writer (of BATCH_OPS ops each).
GC_BATCHES = 18
BATCH_OPS = 12
GC_KILL_AFTER_ACKS = 50


def batch_chaos_writer(client, base: int, acked: dict):
    """Batched writer that survives the outage: retry the whole batch
    (idempotent — same keys, same values) until it acks as a unit."""
    for index in range(GC_BATCHES):
        items = [
            (
                str(base + (index * BATCH_OPS + op) % 40).encode(),
                b"gc-%d-%d-%d" % (base, index, op),
            )
            for op in range(BATCH_OPS)
        ]
        while True:
            try:
                yield from client.upsert_many(items)
            except (RpcTimeout, RemoteError):
                continue  # node down or restarting: same batch again
            break
        for key, value in items:
            acked[key] = value
    return "ok"


@pytest.fixture(scope="module")
def group_commit_crash_run(tmp_path_factory):
    config = replace(
        CooLSMConfig().scaled_down(10),
        ack_timeout=2.0,
        client_timeout=2.0,
    )
    spec = localhost_spec(
        num_ingestors=1,
        num_compactors=2,
        num_readers=1,
        num_clients=3,
        config=config,
        seed=29,
    )
    work_dir = tmp_path_factory.mktemp("gc-crash")
    data_dir = tmp_path_factory.mktemp("gc-crash-data")
    history = History()
    acked: dict[bytes, bytes] = {}
    readback: dict[bytes, bytes | None] = {}

    with LocalCluster(spec, work_dir, data_dir=data_dir) as cluster:
        cluster.wait_ready(timeout=30.0)

        async def nemesis():
            while len(acked) < GC_KILL_AFTER_ACKS:
                await asyncio.sleep(0.01)
            # Kill ONLY the Ingestor — the node running group commit —
            # with batches in flight and a non-empty WAL buffer.
            await asyncio.to_thread(cluster.kill9, "ingestor-0")
            await asyncio.to_thread(cluster.restart, "ingestor-0", 30.0)
            return "nemesis-done"

        async def drive():
            async with ClientPool(spec, num_clients=3, history=history) as pool:
                results = await asyncio.gather(
                    pool.run(batch_chaos_writer(pool.clients[0], 0, acked), "gc-0"),
                    pool.run(batch_chaos_writer(pool.clients[1], 1000, acked), "gc-1"),
                    nemesis(),
                )
                await pool.run(
                    read_all(pool.clients[2], acked, readback), "readback"
                )
                return results

        results = asyncio.run(asyncio.wait_for(drive(), timeout=240.0))
        exit_codes = cluster.stop(timeout=30.0)

    logs = {name: cluster.log_path(name).read_text() for name in spec.node_names}
    return {
        "results": results,
        "history": history,
        "acked": acked,
        "readback": readback,
        "exit_codes": exit_codes,
        "logs": logs,
    }


class TestGroupCommitCrash:
    def test_batched_workloads_complete_through_the_outage(
        self, group_commit_crash_run
    ):
        assert group_commit_crash_run["results"] == ["ok", "ok", "nemesis-done"]
        assert len(group_commit_crash_run["acked"]) >= GC_KILL_AFTER_ACKS

    def test_zero_acked_loss_under_group_commit(self, group_commit_crash_run):
        acked = group_commit_crash_run["acked"]
        readback = group_commit_crash_run["readback"]
        lost = {
            key: (expected, readback.get(key))
            for key, expected in acked.items()
            if readback.get(key) != expected
        }
        assert not lost, (
            f"acked writes lost across SIGKILL with group commit: {lost}"
        )

    def test_history_is_linearizable(self, group_commit_crash_run):
        report = check_linearizable(group_commit_crash_run["history"])
        assert not report.violations, report.violations

    def test_ingestor_recovered_and_drained_clean(self, group_commit_crash_run):
        log = group_commit_crash_run["logs"]["ingestor-0"]
        assert "RECOVERED ingestor-0" in log
        assert log.count("READY ingestor-0") == 2
        exit_codes = group_commit_crash_run["exit_codes"]
        assert exit_codes == {name: 0 for name in exit_codes}
