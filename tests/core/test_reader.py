"""Tests for the Reader (backup) node."""

import random
from dataclasses import replace

import pytest

from repro.core.messages import BackupUpdate
from repro.lsm.entry import encode_key
from repro.lsm.errors import ManifestError
from repro.lsm.sstable import SSTable

from tests.conftest import entry
from tests.core.conftest import TINY, fill, tiny_cluster


def push_update(cluster, seq, l2=(), l3=(), removed=(), compactor="compactor-0"):
    removed_ids = tuple(t.table_id for t in removed)
    update = BackupUpdate(compactor, seq, removed_ids, tuple(l2), tuple(l3))

    def driver():
        cluster.compactors[0].cast("reader-0", "backup_update", update)
        yield cluster.kernel.timeout(1.0)

    cluster.run_process(driver())


def reader_read(cluster, client, key):
    def driver():
        return (yield from client.read_from_backup(key))

    return cluster.run_process(driver())


class TestInstall:
    def test_installs_l2_tables(self):
        cluster = tiny_cluster(num_readers=1)
        table = SSTable.from_entries([entry(k, k + 1, ts=float(k)) for k in range(10)])
        push_update(cluster, 1, l2=[table])
        reader = cluster.readers[0]
        assert reader.manifest.total_entries() == 10
        assert reader.stats.tables_installed == 1

    def test_replays_the_edit_by_table_id(self):
        # The removed tables are named by id, not guessed from the new
        # tables' key range: a merge output narrower than what it
        # replaced (tombstones dropped at the bottom) still removes all
        # of it, and a table the edit does not name stays.
        cluster = tiny_cluster(num_readers=1)
        old = SSTable.from_entries([entry(k, 1, ts=1.0, value="old") for k in range(10)])
        kept = SSTable.from_entries([entry(k, 1, ts=1.0) for k in range(20, 30)])
        new = SSTable.from_entries([entry(k, 2, ts=2.0, value="new") for k in range(5, 8)])
        push_update(cluster, 1, l2=[old, kept])
        push_update(cluster, 2, l2=[new], removed=[old])
        reader = cluster.readers[0]
        assert reader.level2 == [new, kept]
        assert reader.level2[0].get(encode_key(6)).value == b"new"

    def test_removing_a_table_the_area_lacks_is_an_error(self):
        cluster = tiny_cluster(num_readers=1)
        reader = cluster.readers[0]
        present = SSTable.from_entries([entry(k, 1, ts=1.0) for k in range(10)])
        absent = SSTable.from_entries([entry(k, 1, ts=1.0) for k in range(20, 30)])
        push_update(cluster, 1, l2=[present])
        update = BackupUpdate("compactor-0", 2, (absent.table_id,), (), ())
        with pytest.raises(ManifestError, match="does not hold"):
            cluster.run_process(reader._handle_backup_update("compactor-0", update))
        assert reader.level2 == [present]
        assert reader._next_seq["compactor-0"] == 2

    def test_l3_update_removes_migrated_l2_tables(self):
        cluster = tiny_cluster(num_readers=1)
        migrating = SSTable.from_entries([entry(k, 1, ts=1.0) for k in range(10)])
        push_update(cluster, 1, l2=[migrating])
        merged_down = SSTable.from_entries([entry(k, 1, ts=1.0) for k in range(10)])
        push_update(cluster, 2, l3=[merged_down], removed=[migrating])
        reader = cluster.readers[0]
        assert reader.level2 == []
        assert len(reader.level3) == 1
        assert reader.manifest.total_entries() == 10

    def test_disjoint_compactors_coexist(self):
        cluster = tiny_cluster(num_readers=1, num_compactors=2)
        low = SSTable.from_entries([entry(k, 1, ts=1.0) for k in range(10)])
        high = SSTable.from_entries([entry(k, 1, ts=1.0) for k in range(1_000, 1_010)])
        push_update(cluster, 1, l2=[low], compactor="compactor-0")
        push_update(cluster, 1, l2=[high], compactor="compactor-1")
        assert cluster.readers[0].manifest.total_entries() == 20


class TestReads:
    def test_point_read_from_snapshot(self):
        cluster = tiny_cluster(num_readers=1)
        table = SSTable.from_entries([entry(7, 1, ts=1.0, value="seven")])
        push_update(cluster, 1, l2=[table])
        client = cluster.add_client()
        assert reader_read(cluster, client, 7) == b"seven"

    def test_miss_returns_none(self):
        cluster = tiny_cluster(num_readers=1)
        client = cluster.add_client()
        assert reader_read(cluster, client, 42) is None

    def test_tombstone_hidden(self):
        cluster = tiny_cluster(num_readers=1)
        table = SSTable.from_entries([entry(7, 2, ts=2.0, tombstone=True)])
        push_update(cluster, 1, l2=[table])
        client = cluster.add_client()
        assert reader_read(cluster, client, 7) is None

    def test_range_query(self):
        cluster = tiny_cluster(num_readers=1)
        table = SSTable.from_entries([entry(k, k + 1, ts=float(k)) for k in range(50)])
        push_update(cluster, 1, l2=[table])
        client = cluster.add_client()

        def driver():
            return (yield from client.analytics_query(10, 30))

        pairs = cluster.run_process(driver())
        assert len(pairs) == 20
        keys = [k for k, __ in pairs]
        assert keys == sorted(keys)

    def test_range_query_limit(self):
        cluster = tiny_cluster(num_readers=1)
        table = SSTable.from_entries([entry(k, k + 1, ts=float(k)) for k in range(50)])
        push_update(cluster, 1, l2=[table])
        client = cluster.add_client()

        def driver():
            return (yield from client.analytics_query(0, 50, limit=5))

        assert len(cluster.run_process(driver())) == 5


class TestIsolation:
    def test_backup_reads_do_not_touch_ingestion_path(self):
        """The core isolation claim: reads at the Reader leave Ingestor
        and Compactor read counters untouched."""
        cluster = tiny_cluster(num_readers=1)
        client = cluster.add_client(colocate_with="ingestor-0")
        cluster.run_process(fill(cluster, client, 2_000))
        cluster.run()
        ingestor_reads = cluster.ingestors[0].stats.reads
        compactor_reads = sum(c.stats.reads for c in cluster.compactors)

        def driver():
            for key in range(0, 200, 10):
                yield from client.read_from_backup(key)

        cluster.run_process(driver())
        assert cluster.ingestors[0].stats.reads == ingestor_reads
        assert sum(c.stats.reads for c in cluster.compactors) == compactor_reads
        assert cluster.readers[0].stats.reads == 20


POLICIES = ("leveling", "tiering", "lazy_leveling", "one_leveling")


def snapshot_oracle(reader):
    """What the Reader's snapshot holds, by brute force: the newest
    version of every key over every table it has, tombstones dropped —
    no fence index, cursor or merge involved."""
    tables = [t for run in reader.fresh_area.values() for t in run]
    tables += reader.level2 + reader.level3
    newest = {}
    for table in tables:
        for e in table.entries:
            if e.key not in newest or e.version > newest[e.key].version:
                newest[e.key] = e
    return {k: e.value for k, e in newest.items() if not e.tombstone}


def assert_scans_match_oracle(reader, seed):
    oracle = snapshot_oracle(reader)
    assert oracle, "nothing reached the Reader"
    rng = random.Random(seed)
    bounds = [(None, None)]
    for __ in range(12):
        lo = rng.randrange(TINY.key_range)
        bounds.append((encode_key(lo), encode_key(lo + rng.randrange(1, 300))))
    for lo, hi in bounds:
        expected = sorted(
            (k, v)
            for k, v in oracle.items()
            if (lo is None or k >= lo) and (hi is None or k < hi)
        )
        assert reader.scan_pairs(lo, hi) == expected
        assert reader.scan_pairs(lo, hi, limit=7) == expected[:7]


class TestScanPairsAgainstOracle:
    """`scan_pairs` is the one range-read engine; whatever shape the
    compaction policy gives the areas (leveled, stacked runs, replaced-id
    installs), it must return exactly the snapshot's live pairs."""

    @pytest.mark.parametrize("fresh", [False, True], ids=["areas", "fresh-overlay"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_scan_pairs_equals_dict_oracle(self, policy, fresh):
        cluster = tiny_cluster(
            config=replace(TINY, compaction_policy=policy),
            num_readers=1,
            ingestors_feed_readers=fresh,
        )
        client = cluster.add_client(colocate_with="ingestor-0")
        reader = cluster.readers[0]

        def load(start, count):
            for i in range(start, start + count):
                if i % 9 == 4:
                    yield from client.delete((i * 7) % 600)
                else:
                    yield from client.upsert((i * 7) % 600, b"v-%d" % i)

        cluster.run_process(load(0, 1_500))
        cluster.run()
        if fresh:
            assert reader.fresh_area["ingestor-0"]
        assert_scans_match_oracle(reader, seed=5)

        # Updates cast while the Reader is down are lost; recovery
        # re-fetches each area wholesale, and scans over the result must
        # again be exactly the (new) snapshot.
        reader.crash()
        cluster.run_process(load(1_500, 600))
        cluster.run()
        reader.recover()
        cluster.run()
        assert reader.stats.catchups >= 1
        assert_scans_match_oracle(reader, seed=6)
