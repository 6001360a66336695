"""Reader catch-up: sequence-numbered updates, gap detection, resync.

A Reader that misses BackupUpdates (crash, partition) must not install
later updates on top of a hole — it re-fetches the source Compactor's
complete area and resumes from the snapshot's sequence number.
"""

from dataclasses import replace

from repro.core import ClusterSpec, build_cluster
from repro.core.messages import BackupUpdate

from tests.core.conftest import TINY, fill

SNAPPY = replace(TINY, ack_timeout=0.2)


def reader_cluster(**overrides):
    params = dict(config=SNAPPY, num_ingestors=1, num_compactors=2, num_readers=1)
    params.update(overrides)
    return build_cluster(ClusterSpec(**params))


def compactor_state(compactor):
    return {
        (e.key, e.version)
        for level in (compactor.level2, compactor.level3)
        for t in level
        for e in t.entries
    }


def area_state(reader, source):
    area = reader._areas.get(source)
    if area is None:
        return set()
    return {
        (e.key, e.version)
        for level_index in (0, 1)
        for t in area.level(level_index)
        for e in t.entries
    }


class TestSequencing:
    def test_in_order_updates_install_without_catchup(self):
        cluster = reader_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")
        cluster.run_process(fill(cluster, client, 2_000))
        cluster.run()
        reader = cluster.readers[0]
        assert reader.stats.updates_received > 0
        assert reader.stats.gaps_detected == 0
        assert reader.stats.catchups == 0
        # The seq cursor advanced along with each source's broadcasts.
        for compactor in cluster.compactors:
            if compactor._backup_seq:
                assert reader._next_seq[compactor.name] == compactor._backup_seq + 1

    def test_stale_update_ignored(self):
        cluster = reader_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")
        cluster.run_process(fill(cluster, client, 2_000))
        cluster.run()
        reader = cluster.readers[0]
        source = cluster.compactors[0].name
        before = area_state(reader, source)
        stale = BackupUpdate(source, 1, (), (), ())  # long since superseded

        def driver():
            yield from reader._handle_backup_update(source, stale)

        cluster.run_process(driver())
        assert reader.stats.stale_updates == 1
        assert area_state(reader, source) == before


class TestCrashRecovery:
    def test_reader_crash_then_recover_converges(self):
        cluster = reader_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")
        reader = cluster.readers[0]

        def driver():
            yield from fill(cluster, client, 1_500)
            reader.crash()
            yield from fill(cluster, client, 1_500, prefix=b"w")  # updates lost
            reader.recover()  # proactive resync of every source
            yield from fill(cluster, client, 1_000, prefix=b"x")

        cluster.run_process(driver())
        cluster.run()
        assert reader.stats.catchups > 0
        for compactor in cluster.compactors:
            assert area_state(reader, compactor.name) == compactor_state(compactor)

    def test_gap_detected_when_updates_missed(self):
        """Without the proactive resync, the next sequenced update
        reveals the hole and triggers catch-up."""
        cluster = reader_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")
        reader = cluster.readers[0]
        reader.resync = lambda sources=None: None  # disable proactive resync

        def driver():
            yield from fill(cluster, client, 1_500)
            reader.crash()
            yield from fill(cluster, client, 1_500, prefix=b"w")
            reader.recover()
            yield from fill(cluster, client, 1_500, prefix=b"x")

        cluster.run_process(driver())
        cluster.run()
        assert reader.stats.gaps_detected > 0
        assert reader.stats.catchups > 0
        for compactor in cluster.compactors:
            assert area_state(reader, compactor.name) == compactor_state(compactor)

    def test_reads_correct_after_catchup(self):
        cluster = reader_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")
        reader = cluster.readers[0]
        written: dict[int, set[bytes]] = {}

        def writes(count, prefix):
            for i in range(count):
                key = i % 500
                value = b"%s-%d" % (prefix, i)
                yield from client.upsert(key, value)
                written.setdefault(key, set()).add(value)

        def driver():
            yield from writes(1_500, b"v")
            reader.crash()
            yield from writes(1_500, b"w")
            reader.recover()
            yield from writes(1_000, b"x")

        cluster.run_process(driver())
        cluster.run()
        # The reader may lag (serve an older version, or none at all if
        # the key has not reached L2/L3), but it must never serve a
        # value that was never written for that key — no torn installs,
        # no cross-key garbage after the catch-up.
        def verify():
            garbage = 0
            for key in sorted(written):
                got = yield from client.read_from_backup(key)
                if got is not None and got not in written[key]:
                    garbage += 1
            return garbage

        assert cluster.run_process(verify()) == 0
