"""Recovery edges of an LSM tree kept durable by :class:`NodeStore`.

The tree (the test-local :class:`RefTree`) is in memory; like a live
role, these tests commit its levels and counters to a store, then
reopen the store and rebuild a tree from what it recovered.  They cover
a manifest pointing at an sstable a crash deleted, orphan files, the
clock surviving a clean flush, and the manifest/WAL-truncate window
under every policy."""

from __future__ import annotations

import os

import pytest

from repro.lsm.errors import CorruptionError
from repro.lsm.policy import POLICY_NAMES
from repro.lsm.wal import WriteAheadLog
from repro.store import MANIFEST_NAME, NodeStore

from tests.lsm.reftree import RefTree

#: (memtable entries, sstable entries) of the two tree shapes.
SMALL = (64, 32)
TINY = (10, 10)


def open_store(directory: str, policy: str = "leveling") -> NodeStore:
    return NodeStore.open(directory, node_name="tree-0", role="ingestor", policy=policy)


def persist(store: NodeStore, tree: RefTree, wal_floor: int | None = None) -> None:
    """Commit the tree's levels, seqno and clock, as a live role does."""
    levels = tree.manifest.snapshot()
    state = {
        "policy": tree.policy,
        "levels": [[t.table_id for t in level] for level in levels],
        "seqno": tree._seqno,
        "clock": tree._logical_time,
    }
    store.commit([t for level in levels for t in level], state, wal_floor=wal_floor)


def restore(store: NodeStore, shape, policy: str = "leveling") -> RefTree:
    """A fresh tree of ``shape`` holding the levels, counters and WAL
    tail ``store`` recovered."""
    recovered = store.recovered
    tree = RefTree(*shape, policy=policy)
    tree.manifest.apply(recovered.levels_for(store.node_name, policy))
    tree._seqno = recovered.state["seqno"]
    tree._logical_time = recovered.state["clock"]
    for entry in recovered.wal_entries:
        tree.put_entry(entry)
    return tree


def build(directory: str, writes: int = 400) -> dict[int, bytes]:
    tree = RefTree(*SMALL)
    expected = {}
    for i in range(writes):
        key = i % 90
        tree.put(key, "v%d" % i)
        expected[key] = b"v%d" % i
    tree.flush()
    with open_store(directory) as store:
        persist(store, tree, wal_floor=tree._seqno)
    return expected


def test_manifest_referencing_missing_sstable_raises(tmp_path):
    directory = str(tmp_path / "db")
    build(directory)
    victims = [n for n in os.listdir(directory) if n.endswith(".sst")]
    assert victims, "workload must have flushed at least one sstable"
    os.remove(os.path.join(directory, victims[0]))
    with pytest.raises(CorruptionError, match="missing sstable"):
        open_store(directory)


def test_orphan_sstables_and_tmp_files_removed_on_open(tmp_path):
    directory = str(tmp_path / "db")
    expected = build(directory)
    # Crash between sstable write and manifest install: the file exists
    # but no manifest references it; plus a torn temp manifest.
    orphan = os.path.join(directory, "sst-000000000000beef.sst")
    with open(orphan, "wb") as f:
        f.write(b"unreferenced")
    torn = os.path.join(directory, MANIFEST_NAME + ".tmp")
    with open(torn, "wb") as f:
        f.write(b"{half a manif")
    with open_store(directory) as store:
        recovered = restore(store, SMALL)
    assert not os.path.exists(orphan)
    assert not os.path.exists(torn)
    for key, value in expected.items():
        assert recovered.get(key) == value
    # The cleanup must also survive a second open (idempotent).
    with open_store(directory) as store:
        assert restore(store, SMALL).get(0) == expected[0]


def test_clock_survives_a_clean_flush(tmp_path):
    # Versions order by (timestamp, seqno): a restored tree whose clock
    # restarted at 0 would stamp new writes older than flushed ones.
    directory = str(tmp_path / "db")
    tree = RefTree(*TINY)
    for i in range(90):
        tree.put(i % 10, "old%d" % i)
    tree.flush()
    with open_store(directory) as store:
        # Clean: the WAL is empty, nothing to restore a clock from.
        persist(store, tree, wal_floor=tree._seqno)
    with open_store(directory) as store:
        assert store.recovered.wal_entries == []
        tree = restore(store, TINY)
        tree.put(5, "NEW")
        assert tree.get(5) == b"NEW"
        steps = len(tree.compactions)
        key = 100
        while len(tree.compactions) == steps:
            tree.put(key, "x")
            key += 1
        assert tree.get(5) == b"NEW"  # merged with the old versions, still newest
        tree.flush()
        persist(store, tree, wal_floor=tree._seqno)
    with open_store(directory) as store:
        assert restore(store, TINY).get(5) == b"NEW"


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_crash_between_manifest_install_and_wal_truncate(tmp_path, monkeypatch, policy):
    # Manifest installed, process dies before the WAL truncate: replay
    # must not resurrect entries a persisted sstable already holds.
    directory = str(tmp_path / "db")
    monkeypatch.setattr(WriteAheadLog, "truncate", lambda self: None)
    tree = RefTree(*SMALL, policy=policy)
    with open_store(directory, policy) as store:
        for i in range(100):
            store.log_entries([tree.put(i, "v%d" % i)])
        tree.flush()
        floor = tree._seqno
        persist(store, tree, wal_floor=floor)
        for i in range(100, 105):
            store.log_entries([tree.put(i, "v%d" % i)])
        live = len(tree)
    with open_store(directory, policy) as store:
        reopened = restore(store, SMALL, policy)
    assert [e.seqno for e in reopened._memtable.entries()] == list(
        range(floor + 1, floor + 6)
    )
    assert len(reopened) == live == 105
