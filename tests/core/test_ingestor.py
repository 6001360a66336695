"""Tests for the Ingestor: write path, forwarding, retention, reads."""

from repro.core import ClusterSpec, CooLSMConfig, build_cluster
from repro.lsm.entry import encode_key

from tests.core.conftest import TINY, fill, tiny_cluster


def run_fill(cluster, count, **kwargs):
    client = cluster.add_client(colocate_with="ingestor-0")
    oracle = cluster.run_process(fill(cluster, client, count, **kwargs))
    return client, oracle


class TestWritePath:
    def test_upserts_counted(self, cluster):
        __, oracle = run_fill(cluster, 100)
        assert cluster.ingestors[0].stats.upserts == 100

    def test_flush_at_batch_threshold(self, cluster):
        run_fill(cluster, TINY.memtable_entries * 3)
        assert cluster.ingestors[0].stats.flushes == 3

    def test_minor_compaction_triggers_at_l0_threshold(self, cluster):
        # (l0_threshold + 1) flushes force one minor compaction.
        run_fill(cluster, TINY.memtable_entries * (TINY.l0_threshold + 1))
        ingestor = cluster.ingestors[0]
        assert ingestor.stats.minor_compactions >= 1
        assert len(ingestor.level0) <= TINY.l0_threshold

    def test_levels_bounded_under_load(self, cluster):
        run_fill(cluster, 3_000)
        ingestor = cluster.ingestors[0]
        assert len(ingestor.level0) <= TINY.l0_threshold
        assert len(ingestor.level1) <= TINY.l1_threshold

    def test_forwarding_reaches_all_partitions(self, cluster):
        run_fill(cluster, 3_000)
        for compactor in cluster.compactors:
            assert compactor.stats.forwards_received > 0
        assert cluster.ingestors[0].stats.forwarded_tables > 0

    def test_forwarded_tables_acked_and_dropped(self, cluster):
        run_fill(cluster, 3_000)
        cluster.run()  # quiesce: let the last acks arrive
        assert cluster.ingestors[0].inflight_tables == 0

    def test_no_data_lost_across_components(self, cluster):
        """Every written key is readable: ingestion conserves data."""
        client, oracle = run_fill(cluster, 2_500)

        def verify():
            misses = 0
            for key, value in oracle.items():
                got = yield from client.read(key)
                if got != value:
                    misses += 1
            return misses

        assert cluster.run_process(verify()) == 0


class TestAckRetention:
    def test_reads_see_inflight_tables(self):
        """Forwarded-but-unacked sstables stay on the read path.

        We crash the compactors so acks never arrive, then verify every
        key is still readable from the Ingestor's retained copies.
        """
        cluster = tiny_cluster(num_compactors=1)
        client = cluster.add_client(colocate_with="ingestor-0")
        for compactor in cluster.compactors:
            compactor.crash()
        oracle = {}

        def driver():
            # Write until the in-flight cap stalls us (acks never come);
            # everything accepted so far must stay readable locally.
            for i in range(600):
                key = i % 300
                value = b"r-%d" % i
                yield from client.upsert(key, value)
                oracle[key] = value

        cluster.kernel.spawn(driver())
        cluster.run(until=120.0)
        ingestor = cluster.ingestors[0]
        assert ingestor.inflight_tables > 0
        assert len(oracle) >= 300  # forwarding definitely happened
        found = 0
        for key, value in oracle.items():
            entry, __ = ingestor._search_local(encode_key(key), None)
            found += entry is not None and entry.value == value
        # The write stalled mid-flight has already buffered a *newer*
        # version of its key than the last acked one, so at most one key
        # may disagree with the acked-writes oracle.
        assert found >= len(oracle) - 1

    def test_backpressure_stalls_when_compactor_dead(self):
        cluster = tiny_cluster(num_compactors=1)
        client = cluster.add_client(colocate_with="ingestor-0")
        cluster.compactors[0].crash()

        def driver():
            for i in range(5_000):
                yield from client.upsert(i % 500, b"x")

        process = cluster.kernel.spawn(driver())
        cluster.run(until=300.0)
        ingestor = cluster.ingestors[0]
        # The writer must have hit the in-flight cap and stalled.
        assert not process.triggered
        assert ingestor.inflight_tables >= TINY.max_inflight_tables
        # The stalled flush pipeline blocks further minor compactions.
        assert ingestor.stats.upserts < 5_000


#: A small, compaction-heavy config: a few hundred writes produce many
#: minor compactions and forwards, and the in-flight cap of 4 makes
#: minor compactions wait on Compactor acks and then resume.
SMALL = CooLSMConfig(
    key_range=4_096,
    memtable_entries=8,
    sstable_entries=8,
    l0_threshold=2,
    l1_threshold=2,
    l2_threshold=4,
    l3_threshold=16,
    max_inflight_tables=4,
    delta=0.002,
    ack_timeout=0.5,
    client_timeout=1.0,
)


class TestStallLedger:
    def test_write_storm_stalls_resumes_and_loses_nothing(self):
        """The in-flight stall is the Ingestor's only write backpressure:
        a storm of concurrent writers must hit it, drain through it with
        every acked write readable, and report the same stalled seconds
        in ``stats`` and on the health RPC."""
        cluster = build_cluster(
            ClusterSpec(config=SMALL, num_ingestors=1, num_compactors=2)
        )
        clients = [cluster.add_client(colocate_with="ingestor-0") for _ in range(4)]
        oracle: dict[int, bytes] = {}

        def writer(index, client):
            for i in range(150):
                key, value = index * 1_000 + i, b"w%d-%d" % (index, i)
                yield from client.upsert(key, value)
                oracle[key] = value

        writers = [
            cluster.kernel.spawn(writer(index, client))
            for index, client in enumerate(clients)
        ]

        def barrier():
            yield cluster.kernel.all_of(writers)

        cluster.run_process(barrier())
        cluster.run()
        assert len(oracle) == 600

        def verify():
            lost = []
            for key, value in sorted(oracle.items()):
                if (yield from clients[0].read(key)) != value:
                    lost.append(key)
            return lost

        assert cluster.run_process(verify()) == []
        ingestor = cluster.ingestors[0]
        assert ingestor.stats.stall_time > 0
        assert ingestor.inflight_tables == 0
        gauges = ingestor.health_gauges()
        assert gauges["compaction_stall_time"] == round(ingestor.stats.stall_time, 6)


class TestReadPath:
    def test_read_hits_memtable(self, cluster):
        client = cluster.add_client(colocate_with="ingestor-0")

        def driver():
            yield from client.upsert(5, b"fresh")
            return (yield from client.read(5))

        assert cluster.run_process(driver()) == b"fresh"
        # Nothing was flushed: the read was served before L0 existed.
        assert cluster.ingestors[0].stats.flushes == 0

    def test_read_falls_through_to_compactor(self, cluster):
        client, oracle = run_fill(cluster, 3_000)
        ingestor = cluster.ingestors[0]
        reads_forwarded_before = ingestor.stats.reads_forwarded
        # Key 0 was written early; by now it lives in a Compactor.
        local, __ = ingestor._search_local(encode_key(0), None)

        def driver():
            return (yield from client.read(0))

        value = cluster.run_process(driver())
        assert value == oracle[0]
        if local is None:
            assert ingestor.stats.reads_forwarded > reads_forwarded_before

    def test_missing_key_returns_none(self, cluster):
        client, __ = run_fill(cluster, 200)

        def driver():
            return (yield from client.read(TINY.key_range - 1))

        assert cluster.run_process(driver()) is None

    def test_delete_visible_through_full_path(self, cluster):
        client, __ = run_fill(cluster, 2_000)

        def driver():
            yield from client.delete(0)
            # push the tombstone down by writing more
            for i in range(1_000):
                yield from client.upsert(1 + (i % 500), b"fill")
            return (yield from client.read(0))

        assert cluster.run_process(driver()) is None


class TestMultiIngestorSupport:
    def test_ts_c_advances_with_forwarding(self):
        cluster = tiny_cluster(num_ingestors=2)
        client = cluster.add_client(
            colocate_with="ingestor-0", ingestors=["ingestor-0", "ingestor-1"]
        )
        assert cluster.ingestors[0].ts_c == float("-inf")
        cluster.run_process(fill(cluster, client, 2_000))
        assert cluster.ingestors[0].ts_c > 0.0

    def test_phase1_collects_all_ingestors(self):
        cluster = tiny_cluster(num_ingestors=3)
        client = cluster.add_client(colocate_with="ingestor-0")

        def driver():
            yield from client.upsert(7, b"x")
            from repro.core.messages import Phase1Request

            reply = yield client.call(
                "ingestor-0", "read_phase1", Phase1Request(encode_key(7))
            )
            return reply

        reply = cluster.run_process(driver())
        assert len(reply.results) == 3
        sources = {r.source for r in reply.results}
        assert sources == {"ingestor-0", "ingestor-1", "ingestor-2"}

    def test_as_of_filtering(self):
        """An as-of read ignores versions stamped after the read."""
        cluster = tiny_cluster(num_ingestors=2)
        client = cluster.add_client(colocate_with="ingestor-0")

        def driver():
            yield from client.upsert(9, b"old")
            ingestor = cluster.ingestors[0]
            mid_ts = ingestor.clock.now()
            yield from client.upsert(9, b"new")
            entry, __ = ingestor._search_local(encode_key(9), mid_ts)
            return entry.value

        assert cluster.run_process(driver()) == b"old"
