"""Batched upserts (``upsert_many``) and the pipelined write issuer.

One ``UpsertBatchRequest`` must be externally equivalent to the same
upserts issued back-to-back: per-op stamped replies in order, one
history operation per op, every op readable afterwards.  The
:class:`~repro.core.client.ClientPipeline` layers auto-batching and a
bounded in-flight window on top, with errors surfacing on ``put`` /
``drain`` instead of vanishing into a background process.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.client import ClientPipeline
from repro.core.flow import BackpressureError
from repro.live.membership import split_ingestor_shard
from repro.lsm.entry import encode_key
from repro.sim.rpc import RemoteError, RpcTimeout

from tests.core.conftest import TINY, tiny_cluster

SNAPPY = replace(TINY, ack_timeout=0.2)


class TestUpsertMany:
    def test_replies_in_order_with_increasing_seqnos(self):
        cluster = tiny_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")

        def driver():
            return (
                yield from client.upsert_many([(k, b"v%d" % k) for k in range(5)])
            )

        replies = cluster.run_process(driver())
        assert len(replies) == 5
        assert [r.seqno for r in replies] == sorted(r.seqno for r in replies)
        assert len(set(r.seqno for r in replies)) == 5

    def test_each_op_recorded_in_history_and_stats(self):
        cluster = tiny_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")

        def driver():
            yield from client.upsert_many([(1, b"a"), (2, b"b"), (3, b"c")])

        cluster.run_process(driver())
        assert len(cluster.history) == 3
        assert all(op.is_write for op in cluster.history.operations)
        assert len(client.stats.all("write")) == 3

    def test_batch_readable_afterwards(self):
        cluster = tiny_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")

        def driver():
            yield from client.upsert_many([(k, b"batched-%d" % k) for k in range(20)])
            got = {}
            for k in range(20):
                got[k] = yield from client.read(k)
            return got

        got = cluster.run_process(driver())
        assert got == {k: b"batched-%d" % k for k in range(20)}

    def test_empty_batch_is_a_no_op(self):
        cluster = tiny_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")

        def driver():
            return (yield from client.upsert_many([]))

        assert cluster.run_process(driver()) == []
        assert len(cluster.history) == 0

    def test_batch_counts_once_on_ingestor(self):
        cluster = tiny_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")

        def driver():
            yield from client.upsert_many([(k, b"x") for k in range(7)])

        cluster.run_process(driver())
        stats = cluster.ingestors[0].stats
        assert stats.upserts == 7
        assert stats.batch_upserts == 1


class TestClientPipeline:
    def test_put_drain_batches_and_acks_everything(self):
        cluster = tiny_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")
        pipeline = ClientPipeline(client, max_batch=8, depth=2)

        def driver():
            for i in range(50):
                yield from pipeline.put(i % 30, b"p-%d" % i)
            yield from pipeline.drain()

        cluster.run_process(driver())
        assert pipeline.ops_acked == 50
        assert pipeline.pending_ops == 0
        assert len(pipeline.latencies) == 50
        assert all(lat >= 0 for lat in pipeline.latencies)
        # Batching actually happened: far fewer RPCs than ops.
        assert pipeline.batches_sent < 50
        assert cluster.ingestors[0].stats.upserts == 50

    def test_window_bounds_outstanding_ops(self):
        cluster = tiny_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")
        pipeline = ClientPipeline(client, max_batch=4, depth=2)
        window = 4 * 2
        peaks = []

        def driver():
            for i in range(40):
                yield from pipeline.put(i, b"w")
                peaks.append(pipeline.pending_ops)
            yield from pipeline.drain()

        cluster.run_process(driver())
        assert max(peaks) <= window
        assert pipeline.ops_acked == 40

    def test_pipelined_writes_readable_after_drain(self):
        cluster = tiny_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")
        pipeline = ClientPipeline(client, max_batch=16, depth=4)

        def driver():
            for i in range(120):
                yield from pipeline.put(i % 60, b"final-%d" % i)
            yield from pipeline.drain()
            got = {}
            for k in range(60):
                got[k] = yield from client.read(k)
            return got

        got = cluster.run_process(driver())
        assert got == {k: b"final-%d" % (60 + k) for k in range(60)}

    def test_failure_surfaces_on_drain(self):
        cluster = tiny_cluster(config=SNAPPY)
        client = cluster.add_client(colocate_with="ingestor-0")
        pipeline = ClientPipeline(client, max_batch=4, depth=1)
        cluster.ingestors[0].crash()

        def driver():
            with pytest.raises((RpcTimeout, RemoteError)):
                yield from pipeline.put(1, b"doomed")
                yield from pipeline.drain()

        cluster.run_process(driver())

    def test_invalid_window_rejected(self):
        cluster = tiny_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")
        with pytest.raises(ValueError):
            ClientPipeline(client, max_batch=0)
        with pytest.raises(ValueError):
            ClientPipeline(client, depth=0)


class TestShardRoutedBatches:
    """``upsert_many`` under shard routing, in the simulator: the
    regroup-per-attempt path of :meth:`Client._do_upsert_batch` that
    the pipelined live client drives when a split lands mid-flight."""

    @staticmethod
    def sharded_cluster(**overrides):
        return tiny_cluster(num_ingestors=2, sharded=True, **overrides)

    def test_batch_straddling_two_owners_acks_every_op_in_order(self):
        cluster = self.sharded_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")
        keys = [10, 1500, 20, 1600, 30]  # uniform map: boundary at 1000

        def driver():
            return (yield from client.upsert_many([(k, b"v%d" % k) for k in keys]))

        replies = cluster.run_process(driver())
        assert len(replies) == len(keys) and None not in replies
        recorded = {op.key: op for op in cluster.history.operations}
        assert len(recorded) == len(keys)
        for key, reply in zip(keys, replies):
            op = recorded[encode_key(key)]
            assert op.timestamp == reply.timestamp
            assert op.server == client.shard_map.owner_of(key)
        assert {op.server for op in recorded.values()} == {"ingestor-0", "ingestor-1"}
        assert client.stats.shard_redirects == client.stats.timeouts == 0

    def test_stale_map_batch_across_a_split_boundary_regroups(self):
        cluster = self.sharded_cluster(spare_ingestors=1)
        client = cluster.add_client(colocate_with="ingestor-0")
        admin = cluster.add_client(colocate_with="ingestor-0", record_history=False)
        keys = [100, 600, 200, 700]  # all ingestor-0's until 500 is cut off

        def driver():
            yield from split_ingestor_shard(
                admin, cluster.spec.initial_shard_map(), 500, "ingestor-2",
                others=[node.name for node in cluster.ingestors],
            )
            assert client.shard_map.epoch == 1  # clients never poll
            replies = yield from client.upsert_many([(k, b"v%d" % k) for k in keys])
            got = []
            for key in keys:
                got.append((yield from client.read(key)))
            return replies, got

        replies, got = cluster.run_process(driver())
        assert None not in replies
        assert got == [b"v%d" % k for k in keys]
        assert client.stats.shard_redirects >= 1
        assert client.stats.map_refreshes >= 1
        servers = {op.key: op.server for op in cluster.history.operations if op.is_write}
        assert servers[encode_key(100)] == servers[encode_key(200)] == "ingestor-0"
        assert servers[encode_key(600)] == servers[encode_key(700)] == "ingestor-2"

    def test_backpressure_on_a_batch_retries_the_same_owner(self):
        cluster = self.sharded_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")
        owner = cluster.ingestors[1]
        real_handler = owner._handlers["upsert_batch"]
        seen = []

        def shedding(src, request):
            seen.append(len(request.ops))
            if len(seen) <= 2:
                raise BackpressureError(owner.name, 3.0, "l0")
            return (yield from real_handler(src, request))

        owner.on("upsert_batch", shedding)

        def driver():
            return (yield from client.upsert_many([(k, b"bp") for k in (1500, 1600)]))

        replies = cluster.run_process(driver())
        assert None not in replies
        assert seen == [2, 2, 2]
        assert client.stats.backpressure_retries == 2
        assert client.stats.timeouts == client.stats.failovers == 0
        assert {op.server for op in cluster.history.operations} == {owner.name}
