"""WAL group commit on the deterministic sim kernel.

Group commit is the only store-attached write path: concurrent handlers
share one fsynced WAL record leader/follower style (DESIGN.md §13).
These tests pin the semantics on the simulator, where the schedule is
reproducible:

* a **sequential** writer's WAL is byte-identical to one direct
  ``NodeStore.log_entries`` call per upsert (every group degenerates to
  one entry, so the amortisation is pure overlap, never a format
  change);
* **concurrent** writers genuinely share fsyncs (fewer WAL records
  than entries) with nothing but the leader's one-tick wait, and still
  lose nothing across a whole-cluster crash — the ack-time durability
  contract under batching;
* a **failed append** fails exactly the handlers its record covered and
  hands leadership on, so nothing buffered behind it is stranded.
"""

from __future__ import annotations

import dataclasses

from repro.core.ingestor import MAX_RECORD_ENTRIES
from repro.core.messages import UpsertBatchRequest, UpsertRequest
from repro.lsm.entry import encode_key
from repro.sim.regions import LatencyModel
from repro.store.node_store import NodeStore

from tests.core.conftest import TINY, fill, tiny_cluster
from tests.store.test_role_recovery import attach_all, read_all


def wal_bytes(root, node: str) -> bytes:
    path = root / node / "wal.log"
    return path.read_bytes() if path.exists() else b""


def ingestor_store(stores) -> NodeStore:
    return next(s for s in stores if s.node_name == "ingestor-0")


def writers(cluster, count: int, each: int, key_range: int):
    """Spawn ``count`` concurrent client processes; return the oracle
    (filled in as acks land) to check after the run.

    The network is made jitter-free first, so writers that start
    together stay in lockstep and their requests reach the Ingestor on
    the same kernel tick — the only concurrency group commit can see in
    a simulator whose fsyncs take no time."""
    cluster.network.latency = LatencyModel(jitter_fraction=0.0)
    oracle = {}

    def one(client, base):
        for i in range(each):
            key = (base + i * count) % key_range
            value = b"w%d-%d" % (base, i)
            yield from client.upsert(key, value)
            oracle[key] = value

    for index in range(count):
        client = cluster.add_client(colocate_with="ingestor-0")
        cluster.kernel.spawn(one(client, index), f"writer-{index}")
    return oracle


class TestSequentialEquivalence:
    def test_wal_byte_identical_to_direct_log_entries(self, tmp_path):
        cluster = tiny_cluster()
        stores = attach_all(cluster, tmp_path / "cluster")
        client = cluster.add_client(colocate_with="ingestor-0")
        cluster.run_process(fill(cluster, client, 190, key_range=80))
        # One writer never shares an fsync: one record per entry — bar
        # the entry that fills each memtable, which the flush itself
        # makes durable (in the L0 table) before the ack.
        store = ingestor_store(stores)
        flushes = cluster.ingestors[0].stats.flushes
        assert flushes == 190 // TINY.memtable_entries
        assert store.wal_entries_logged == store.wal_records == 190 - flushes
        # Each flush truncated the WAL, so it holds exactly the current
        # memtable generation — written one entry per record, in order.
        unflushed = cluster.ingestors[0]._unflushed
        assert 0 < len(unflushed) < TINY.memtable_entries
        with NodeStore.open(str(tmp_path / "direct"), "direct", "ingestor") as direct:
            for entry in unflushed:
                direct.log_entries([entry])
        assert wal_bytes(tmp_path / "cluster", "ingestor-0") == (
            tmp_path / "direct" / "wal.log"
        ).read_bytes()


class TestConcurrentAmortisation:
    def test_concurrent_writers_share_fsyncs(self, tmp_path):
        cluster = tiny_cluster()
        stores = attach_all(cluster, tmp_path)
        oracle = writers(cluster, count=8, each=30, key_range=200)
        cluster.run()
        store = ingestor_store(stores)
        # (Writes that filled a memtable were made durable by its flush.)
        assert 8 * 30 * 0.9 < store.wal_entries_logged <= 8 * 30
        assert store.wal_records < store.wal_entries_logged, (
            "concurrent acks must share WAL records"
        )
        assert cluster.ingestors[0]._gc_buffer == []
        # Every acked write is readable.
        client = cluster.add_client(colocate_with="ingestor-0")
        assert cluster.run_process(read_all(client, oracle)) == {}

    def test_no_acked_loss_across_crash(self, tmp_path):
        cluster = tiny_cluster()
        attach_all(cluster, tmp_path)
        oracle = writers(cluster, count=6, each=40, key_range=150)
        cluster.run()
        # SIGKILL analog: abandon the cluster (no drain, no flush) and
        # recover from the directories alone.
        revived = tiny_cluster()
        attach_all(revived, tmp_path)
        client = revived.add_client(colocate_with="ingestor-0")
        assert revived.run_process(read_all(client, oracle)) == {}


class TestFailedAppend:
    def test_failure_covers_its_record_and_hands_leadership_on(self, tmp_path):
        """Three concurrent half-cap batches: the leader's record has
        room for two of them, so the third is still buffered when the
        append raises.  Every handler must finish — the two covered ones
        with the error, the third (the new leader) with an ack."""
        half = MAX_RECORD_ENTRIES // 2
        # A memtable big enough that no flush truncates the WAL.
        config = dataclasses.replace(TINY, memtable_entries=4 * half)
        cluster = tiny_cluster(config=config)
        store = ingestor_store(attach_all(cluster, tmp_path))
        ingestor = cluster.ingestors[0]
        real_log_entries = store.log_entries
        record_sizes = []

        def flaky_log_entries(entries):
            record_sizes.append(len(entries))
            if len(record_sizes) == 1:
                raise OSError("disk full")
            real_log_entries(entries)

        store.log_entries = flaky_log_entries

        handlers = []
        for batch in range(3):
            ops = tuple(
                UpsertRequest(encode_key(batch * half + i), b"b%d-%d" % (batch, i))
                for i in range(half)
            )
            process = cluster.kernel.spawn(
                ingestor._handle_upsert_batch("test", UpsertBatchRequest(ops)),
                f"batch-{batch}",
            )
            process.defused = True  # failures are inspected below
            handlers.append(process)
        cluster.run()

        assert record_sizes == [2 * half, half]
        assert all(process.triggered for process in handlers), (
            "a handler was left parked behind the failed append"
        )
        assert [process.ok for process in handlers] == [False, False, True]
        assert all(isinstance(p.value, OSError) for p in handlers[:2])
        assert len(handlers[2].value.replies) == half
        assert ingestor._gc_buffer == []
        # Only the acked batch is in the WAL.
        assert store.wal_records == 1
        assert store.wal_entries_logged == half
