"""Crash-debris edges of :meth:`LSMTree.open` (end-to-end through the
embedded engine: torn WAL tails, corrupt records, orphan files, and
manifests pointing at sstables a crash deleted), and the recovery
contract the tree has as a :class:`NodeStore` client: reopen in a new
process, no rewrite on reopen, the clock survives a flush, the
constructor recovers, the manifest/WAL-truncate window, and persistence
not changing the tree's shape."""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys

import pytest

import repro
import repro.store.node_store as node_store
from repro.lsm.errors import CorruptionError
from repro.lsm.policy import POLICY_NAMES
from repro.lsm.tree import LSMConfig, LSMTree
from repro.lsm.wal import WriteAheadLog

SMALL = LSMConfig(memtable_entries=64, sstable_entries=32)
TINY = LSMConfig(memtable_entries=10, sstable_entries=10)


def build(directory: str, writes: int = 400) -> dict[int, bytes]:
    tree = LSMTree(SMALL, directory=directory)
    expected = {}
    for i in range(writes):
        key = i % 90
        tree.put(key, "v%d" % i)
        expected[key] = b"v%d" % i
    tree.close()
    return expected


def test_torn_wal_tail_recovers_to_last_full_record(tmp_path):
    directory = str(tmp_path / "db")
    expected = build(directory)
    # A crash mid-append leaves a partial record at the tail.
    with open(os.path.join(directory, "wal.log"), "ab") as wal:
        wal.write(b"\x01\x02\x03")
    recovered = LSMTree.open(directory, SMALL)
    for key, value in expected.items():
        assert recovered.get(key) == value


def test_corrupt_wal_before_tail_raises(tmp_path):
    directory = str(tmp_path / "db")
    tree = LSMTree(SMALL, directory=directory)
    for i in range(10):  # stays below the flush threshold: WAL-only
        tree.put(i, "v%d" % i)
    tree.close()
    wal_path = os.path.join(directory, "wal.log")
    blob = bytearray(open(wal_path, "rb").read())
    blob[len(blob) // 2] ^= 0xFF  # bit-rot mid-log, not a torn tail
    blob += b"\x00" * 16  # ensure the damaged record is not final
    with open(wal_path, "wb") as wal:
        wal.write(blob)
    with pytest.raises(CorruptionError, match="corrupt WAL record"):
        LSMTree.open(directory, SMALL)


def test_manifest_referencing_missing_sstable_raises(tmp_path):
    directory = str(tmp_path / "db")
    build(directory)
    victims = [n for n in os.listdir(directory) if n.endswith(".sst")]
    assert victims, "workload must have flushed at least one sstable"
    os.remove(os.path.join(directory, victims[0]))
    with pytest.raises(CorruptionError, match="missing sstable"):
        LSMTree.open(directory, SMALL)


def test_orphan_sstables_and_tmp_files_removed_on_open(tmp_path):
    directory = str(tmp_path / "db")
    expected = build(directory)
    # Crash between sstable write and manifest install: the file exists
    # but no manifest references it; plus a torn temp manifest.
    orphan = os.path.join(directory, "sst-000000000000beef.sst")
    with open(orphan, "wb") as f:
        f.write(b"unreferenced")
    torn = os.path.join(directory, "NODE_MANIFEST.json.tmp")
    with open(torn, "wb") as f:
        f.write(b"{half a manif")
    recovered = LSMTree.open(directory, SMALL)
    assert not os.path.exists(orphan)
    assert not os.path.exists(torn)
    for key, value in expected.items():
        assert recovered.get(key) == value
    # The cleanup must also survive a second open (idempotent).
    recovered.close()
    LSMTree.open(directory, SMALL)


def all_tables(tree: LSMTree) -> list:
    return [t for level in tree.manifest.snapshot() for t in level]


# One step of the cross-process script: open, write keys 0..count-1
# stamped ``tag``, print what keys 0..74 read.
REOPEN_STEP = """
import json, sys
from repro.lsm.tree import LSMConfig, LSMTree
directory, tag, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
config = LSMConfig(memtable_entries=10, sstable_entries=10)
with LSMTree.open(directory, config) as tree:
    for key in range(count):
        tree.put(key, "%s%d" % (tag, key))
    print(json.dumps([(tree.get(key) or b"").decode() for key in range(75)]))
"""


def test_reopen_in_a_new_process_keeps_every_table(tmp_path):
    # Each process starts its table-id counter at 1; files are named by
    # id, so only the store's id floor keeps a reopened tree from
    # reusing (and then deleting) the names of tables it recovered.
    directory = str(tmp_path / "db")
    os.makedirs(directory)
    src_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src_root)
    expected = [""] * 75
    for tag, count in (("a", 75), ("b", 15), ("c", 0)):
        step = subprocess.run(
            [sys.executable, "-c", REOPEN_STEP, directory, tag, str(count)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert step.returncode == 0, step.stderr[-2000:]
        expected[:count] = ["%s%d" % (tag, key) for key in range(count)]
        assert json.loads(step.stdout) == expected
    with open(os.path.join(directory, node_store.MANIFEST_NAME)) as f:
        named = [meta["file"] for meta in json.load(f)["tables"].values()]
    assert named
    for name in named:
        assert os.path.exists(os.path.join(directory, name))


def sstable_files(directory: str) -> dict[str, int]:
    """``{file name: inode}`` — an atomic rewrite changes the inode."""
    return {
        name: os.stat(os.path.join(directory, name)).st_ino
        for name in os.listdir(directory)
        if name.endswith(".sst")
    }


def test_reopen_does_not_rewrite_live_tables(tmp_path):
    directory = str(tmp_path / "db")
    tree = LSMTree(TINY, directory=directory)
    key = 0
    while len(all_tables(tree)) <= 100:
        tree.put(key, "v")
        key += 1
    tree.close()
    tree = LSMTree.open(directory, TINY)
    recovered_ids = {t.table_id for t in all_tables(tree)}
    before = sstable_files(directory)
    assert len(before) == len(recovered_ids) > 100
    steps = len(tree.stats.compactions)
    while len(tree.stats.compactions) == steps:
        tree.put(key, "v")
        key += 1
    # Only tables built since the reopen got a file; a recovered table
    # keeps the one it was read from.
    built = [t for t in all_tables(tree) if t.table_id not in recovered_ids]
    after = sstable_files(directory)
    assert len(after.keys() - before.keys()) == len(built) > 0
    assert all(after[name] == before[name] for name in after.keys() & before.keys())


def test_clock_survives_a_clean_flush(tmp_path):
    # Versions order by (timestamp, seqno): a reopened tree whose clock
    # restarted at 0 would stamp new writes older than flushed ones.
    directory = str(tmp_path / "db")
    tree = LSMTree(TINY, directory=directory)
    for i in range(90):
        tree.put(i % 10, "old%d" % i)
    tree.flush()  # clean: the WAL is empty, nothing to restore a clock from
    tree.close()
    tree = LSMTree.open(directory, TINY)
    tree.put(5, "NEW")
    assert tree.get(5) == b"NEW"
    steps = len(tree.stats.compactions)
    key = 100
    while len(tree.stats.compactions) == steps:
        tree.put(key, "x")
        key += 1
    assert tree.get(5) == b"NEW"  # merged with the old versions, still newest
    tree.close()
    assert LSMTree.open(directory, TINY).get(5) == b"NEW"


def test_constructor_recovers_an_existing_directory(tmp_path):
    directory = str(tmp_path / "db")
    expected = build(directory)
    tree = LSMTree(SMALL, directory=directory)  # the constructor, not .open
    for key, value in expected.items():
        assert tree.get(key) == value
    for i in range(1_000, 1_000 + SMALL.memtable_entries):  # one more flush
        tree.put(i, "w")
    tree.close()
    reopened = LSMTree.open(directory, SMALL)
    for key, value in expected.items():
        assert reopened.get(key) == value
    assert reopened.get(1_000) == b"w"


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_crash_between_manifest_install_and_wal_truncate(tmp_path, monkeypatch, policy):
    # Manifest installed, process dies before the WAL truncate: replay
    # must not resurrect entries a persisted sstable already holds.
    config = dataclasses.replace(SMALL, compaction_policy=policy)
    directory = str(tmp_path / "db")
    monkeypatch.setattr(WriteAheadLog, "truncate", lambda self: None)
    tree = LSMTree(config, directory=directory)
    for i in range(100):
        tree.put(i, "v%d" % i)
    tree.flush()
    floor = tree._seqno
    for i in range(100, 105):
        tree.put(i, "v%d" % i)
    live = len(tree)
    tree.close()
    reopened = LSMTree.open(directory, config)
    assert [e.seqno for e in reopened._memtable.entries()] == list(
        range(floor + 1, floor + 6)
    )
    assert len(reopened) == live == 105


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_persistence_does_not_change_the_trees_shape(tmp_path, policy):
    config = LSMConfig(
        memtable_entries=16,
        sstable_entries=8,
        level_thresholds=(2, 2, 4, 8),
        compaction_policy=policy,
    )
    persistent = LSMTree(config, directory=str(tmp_path / "db"))
    in_memory = LSMTree(config)
    rng = random.Random(23)
    for __ in range(2_000):
        key, delete = rng.randrange(300), rng.random() < 0.2
        for tree in (persistent, in_memory):
            if delete:
                tree.delete(key)
            else:
                tree.put(key, "v%d" % key)

    def shape(tree):
        return [
            [(t.min_key, t.max_key, len(t)) for t in level]
            for level in tree.manifest.snapshot()
        ]

    assert shape(persistent) == shape(in_memory)
    assert list(persistent.scan()) == list(in_memory.scan())
