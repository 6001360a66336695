"""NodeStore: versioned manifest, WAL floor, crash-debris handling."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.lsm.entry import make_upsert
from repro.lsm.errors import CorruptionError
from repro.lsm.manifest import Manifest
from repro.lsm.sstable import SSTable
from repro.lsm.wal import WriteAheadLog
from repro.store import MANIFEST_NAME, WAL_NAME, NodeStore


def table(table_id: int, count: int = 8, base: int = 0) -> SSTable:
    entries = [
        make_upsert(base + i, b"v-%d" % (base + i), seqno=base + i + 1, timestamp=1.0)
        for i in range(count)
    ]
    return SSTable(entries, table_id=table_id)


def open_store(path, **overrides) -> NodeStore:
    params = dict(node_name="ingestor-0", role="ingestor")
    params.update(overrides)
    return NodeStore.open(str(path), **params)


def test_fresh_directory_has_no_recovered_state(tmp_path):
    with open_store(tmp_path / "n") as store:
        assert store.recovered is None
        assert store.version == 0
        assert store.data_bytes() == 0


def test_commit_reopen_roundtrip(tmp_path):
    with open_store(tmp_path / "n") as store:
        t1, t2 = table(1), table(2, base=100)
        version = store.commit([t1, t2], {"seqno": 7, "note": "x"})
        assert version == 1
        assert store.data_bytes() > 0
    with open_store(tmp_path / "n") as store:
        recovered = store.recovered
        assert recovered is not None
        assert recovered.version == 1
        assert recovered.state == {"seqno": 7, "note": "x"}
        assert sorted(recovered.tables) == [1, 2]
        assert recovered.max_table_id == 2
        got = list(recovered.tables[1].scan())
        assert [e.value for e in got] == [b"v-%d" % i for i in range(8)]
        # Version numbering continues from the recovered manifest.
        assert store.commit([table(3)], {}) == 2


def test_commit_drops_unreferenced_sstables(tmp_path):
    with open_store(tmp_path / "n") as store:
        store.commit([table(1), table(2, base=100)], {})
        store.commit([table(2, base=100)], {})
    names = sorted(os.listdir(tmp_path / "n"))
    assert sum(name.endswith(".sst") for name in names) == 1


def test_wal_replay_respects_floor(tmp_path):
    with open_store(tmp_path / "n") as store:
        store.log_entries([make_upsert(i, b"w", seqno=i, timestamp=2.0) for i in (1, 2, 3)])
        store.commit([], {}, wal_floor=3)  # flushed: truncates the log
        store.log_entries([make_upsert(i, b"w", seqno=i, timestamp=2.0) for i in (4, 5)])
    with open_store(tmp_path / "n") as store:
        assert [e.seqno for e in store.recovered.wal_entries] == [4, 5]
        assert store.recovered.wal_floor == 3


def test_crash_between_manifest_and_truncate_filters_flushed_entries(
    tmp_path, monkeypatch
):
    # The floor exists for exactly this window: manifest installed,
    # process dies before the WAL truncate.  Replay must not
    # resurrect entries the manifest already covers.
    monkeypatch.setattr(WriteAheadLog, "truncate", lambda self: None)
    with open_store(tmp_path / "n") as store:
        store.log_entries([make_upsert(i, b"w", seqno=i, timestamp=2.0) for i in (1, 2, 3)])
        store.commit([], {}, wal_floor=2)
    with open_store(tmp_path / "n") as store:
        assert [e.seqno for e in store.recovered.wal_entries] == [3]


def test_failed_commit_does_not_move_the_floor(tmp_path, monkeypatch):
    # The Ingestor skips the WAL for entries at-or-below ``wal_floor``,
    # so the attribute may only move with an installed manifest.
    import repro.store.node_store as node_store

    with open_store(tmp_path / "n") as store:
        store.commit([], {}, wal_floor=3)

        def disk_full(path, document):
            raise OSError("disk full")

        monkeypatch.setattr(node_store, "atomic_write_json", disk_full)
        with pytest.raises(OSError):
            store.commit([], {}, wal_floor=9)
        assert store.wal_floor == 3


def test_open_cleans_orphan_tables_and_tmp_files(tmp_path):
    with open_store(tmp_path / "n") as store:
        store.commit([table(1)], {})
    # Crash debris: an sstable no manifest references, a torn temp file.
    (tmp_path / "n" / "sst-00000000000000ff.sst").write_bytes(b"orphan")
    (tmp_path / "n" / "NODE_MANIFEST.json.tmp").write_bytes(b"torn")
    with open_store(tmp_path / "n") as store:
        assert sorted(store.recovered.tables) == [1]
    names = sorted(os.listdir(tmp_path / "n"))
    assert "sst-00000000000000ff.sst" not in names
    assert not any(name.endswith(".tmp") for name in names)


def test_missing_referenced_sstable_raises(tmp_path):
    with open_store(tmp_path / "n") as store:
        store.commit([table(1)], {})
    sst = next(p for p in (tmp_path / "n").iterdir() if p.suffix == ".sst")
    sst.unlink()
    with pytest.raises(CorruptionError, match="missing sstable"):
        open_store(tmp_path / "n")


def test_manifest_for_wrong_node_or_role_raises(tmp_path):
    with open_store(tmp_path / "n") as store:
        store.commit([], {})
    with pytest.raises(CorruptionError, match="belongs to"):
        open_store(tmp_path / "n", node_name="ingestor-1")
    with pytest.raises(CorruptionError, match="belongs to"):
        open_store(tmp_path / "n", role="compactor")


def test_layout_and_sizes(tmp_path):
    with open_store(tmp_path / "n") as store:
        store.log_entries([make_upsert(1, b"w", seqno=1, timestamp=2.0)])
        store.commit([table(1)], {"k": 1})
        assert store.wal_bytes() > 0
        assert store.data_bytes() > 0
    names = set(os.listdir(tmp_path / "n"))
    assert MANIFEST_NAME in names and WAL_NAME in names
    assert any(name.startswith("sst-") and name.endswith(".sst") for name in names)


def test_shipped_table_lands_byte_identical_and_readable(tmp_path):
    """A Reader's table file is the Compactor's, byte for byte: the image
    written in store A is what the wire carries and what store B writes."""
    from repro.core import messages
    from repro.live import wire

    built = table(5, count=150)
    with open_store(tmp_path / "a", node_name="compactor-0", role="compactor") as a:
        a.commit([built], {})
    out = bytearray()
    wire.encode_value(messages.BackupUpdate("compactor-0", 1, (), (built,), ()), out)
    update, __ = wire.decode_value(bytes(out))
    with open_store(tmp_path / "b", node_name="reader-0", role="reader") as b:
        b.commit(update.l2, {})
    name = "sst-%016x.sst" % 5
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    with open_store(tmp_path / "b", node_name="reader-0", role="reader") as b:
        reopened = b.recovered.tables[5]
        assert reopened.entries == built.entries
        for e in built.entries:
            assert reopened.get(e.key) == e


def test_write_counters_split_bytes_by_file_class(tmp_path):
    directory = tmp_path / "n"
    with open_store(directory) as store:
        manifest = wal_truncated = 0
        store.log_entries([make_upsert(i, b"w", seqno=i, timestamp=2.0) for i in (1, 2)])
        store.log_entries([make_upsert(3, b"w", seqno=3, timestamp=2.0)])
        store.commit([table(1)], {"k": 1})  # no floor: the WAL stays
        manifest += os.path.getsize(directory / MANIFEST_NAME)
        wal_truncated += store.wal_bytes()
        store.commit([table(1), table(2, base=100)], {"k": 2}, wal_floor=3)  # flush
        manifest += os.path.getsize(directory / MANIFEST_NAME)
        store.log_entries([make_upsert(4, b"w", seqno=4, timestamp=2.0)])
        sstables = sum(
            os.path.getsize(directory / name)
            for name in os.listdir(directory)
            if name.endswith(".sst")
        )
        assert store.gauges() == {
            "store_sstable_bytes": sstables,
            "store_manifest_bytes": manifest,
            "store_wal_bytes": store.wal_bytes() + wal_truncated,
            "store_wal_records": 3,
            "store_wal_entries_logged": 4,
        }
        assert min(store.gauges().values()) > 0


def logged(store: NodeStore, seqnos) -> list:
    """Log one fsynced WAL record per seqno; return the entries."""
    entries = [make_upsert(i, b"w-%d" % i, seqno=i, timestamp=2.0) for i in seqnos]
    for entry in entries:
        store.log_entries([entry])
    return entries


def test_torn_wal_tail_recovers_to_last_full_record(tmp_path):
    with open_store(tmp_path / "n") as store:
        store.commit([], {})  # the WAL is replayed only beside a manifest
        entries = logged(store, range(1, 11))
    # A crash mid-append leaves a partial record at the tail.
    with open(tmp_path / "n" / WAL_NAME, "ab") as wal:
        wal.write(b"\x01\x02\x03")
    with open_store(tmp_path / "n") as store:
        assert store.recovered.wal_entries == entries


def test_corrupt_wal_before_tail_raises(tmp_path):
    with open_store(tmp_path / "n") as store:
        store.commit([], {})
        logged(store, range(1, 11))
    wal_path = tmp_path / "n" / WAL_NAME
    blob = bytearray(wal_path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF  # bit-rot mid-log, not a torn tail
    blob += b"\x00" * 16  # ensure the damaged record is not final
    wal_path.write_bytes(bytes(blob))
    with pytest.raises(CorruptionError, match="corrupt WAL record"):
        open_store(tmp_path / "n")


# One step of the cross-process script: open the store, build ``count``
# fresh one-entry tables whose keys are stamped ``tag``, and commit them
# beside every recovered table.
REOPEN_STEP = """
import sys
from repro.lsm.entry import make_upsert
from repro.lsm.sstable import SSTable
from repro.store import NodeStore
directory, tag, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
with NodeStore.open(directory, node_name="ingestor-0", role="ingestor") as store:
    kept = list(store.recovered.tables.values()) if store.recovered else []
    fresh = [
        SSTable([make_upsert("%s%d" % (tag, i), b"v", seqno=i + 1, timestamp=1.0)])
        for i in range(count)
    ]
    store.commit(kept + fresh, {})
"""


def test_reopen_in_a_new_process_keeps_every_table(tmp_path):
    # Each process starts its table-id counter at 1 and files are named
    # by id, so only the id floor set at recovery keeps a reopened store
    # from taking a fresh table for a recovered one of the same id.
    directory = str(tmp_path / "n")
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent))
    expected = set()
    for tag, count in (("a", 3), ("b", 2), ("c", 0)):
        step = subprocess.run(
            [sys.executable, "-c", REOPEN_STEP, directory, tag, str(count)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert step.returncode == 0, step.stderr[-2000:]
        expected |= {("%s%d" % (tag, i)).encode() for i in range(count)}
    with open(os.path.join(directory, MANIFEST_NAME)) as f:
        named = [meta["file"] for meta in json.load(f)["tables"].values()]
    assert len(named) == len(expected)
    assert all(os.path.exists(os.path.join(directory, name)) for name in named)
    with open_store(directory) as store:
        keys = {e.key for t in store.recovered.tables.values() for e in t.entries}
    assert keys == expected


def sstable_files(directory) -> dict[str, int]:
    """``{file name: inode}`` — an atomic rewrite changes the inode."""
    return {
        name: os.stat(os.path.join(directory, name)).st_ino
        for name in os.listdir(directory)
        if name.endswith(".sst")
    }


def test_recommitting_recovered_tables_does_not_rewrite_them(tmp_path):
    with open_store(tmp_path / "n") as store:
        store.commit([table(1), table(2, base=100)], {})
    before = sstable_files(tmp_path / "n")
    with open_store(tmp_path / "n") as store:
        recovered = list(store.recovered.tables.values())
        store.commit(recovered + [table(3, base=200)], {})
        written = store.sstable_bytes_written
    after = sstable_files(tmp_path / "n")
    # Only the new table got a file; each recovered one keeps its own.
    assert len(after.keys() - before.keys()) == 1
    assert all(after[name] == before[name] for name in before)
    assert written == os.path.getsize(tmp_path / "n" / ("sst-%016x.sst" % 3))


def test_legacy_manifest_without_policy_opens_under_a_policy(tmp_path):
    with open_store(tmp_path / "n", policy="leveling") as store:
        t1, t2 = table(1), table(2, base=100)
        store.commit([t1, t2], {"policy": "leveling", "levels": [[1], [2]]})
    manifest_path = tmp_path / "n" / MANIFEST_NAME
    document = json.loads(manifest_path.read_text())
    del document["policy"], document["state"]["policy"]
    manifest_path.write_text(json.dumps(document))
    with open_store(tmp_path / "n", policy="leveling") as store:
        manifest = Manifest(2)
        manifest.apply(store.recovered.levels_for("ingestor-0", "leveling"))
    assert [[t.table_id for t in level] for level in manifest.snapshot()] == [[1], [2]]


def test_manifest_naming_a_granularity_per_table_opens_and_drops_it(tmp_path):
    """A manifest from when every table entry also named its block size
    and filter rate (both constants now) recovers the same tables and
    role state, and the next commit writes entries without those keys."""
    state = {"policy": "leveling", "levels": [[1], [2]], "ts_c": 3.5}
    with open_store(tmp_path / "n", policy="leveling") as store:
        t1, t2 = table(1, count=100), table(2, base=200)
        store.commit([t1, t2], state)
    manifest_path = tmp_path / "n" / MANIFEST_NAME
    document = json.loads(manifest_path.read_text())
    for meta in document["tables"].values():
        meta.update(block_entries=64, fp_rate=0.01)
    manifest_path.write_text(json.dumps(document))
    with open_store(tmp_path / "n", policy="leveling") as store:
        recovered = store.recovered
        assert recovered.state == state
        assert sorted(recovered.tables) == [1, 2]
        for original in (t1, t2):
            back = recovered.tables[original.table_id]
            assert back.entries == original.entries
            assert back._image == original._image
        manifest = Manifest(2)
        manifest.apply(recovered.levels_for("ingestor-0", "leveling"))
        assert [[t.table_id for t in level] for level in manifest.snapshot()] == [[1], [2]]
        store.commit([*recovered.tables.values(), table(3, base=400)], recovered.state)
    assert json.loads(manifest_path.read_text())["tables"] == {
        str(tid): {"file": "sst-%016x.sst" % tid} for tid in (1, 2, 3)
    }


def imported_modules(node: ast.AST, package: str) -> set[str]:
    """Absolute dotted names an import statement in ``package`` reaches
    (``from a import b`` reaches both ``a`` and ``a.b``)."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if not isinstance(node, ast.ImportFrom):
        return set()
    module = node.module or ""
    if node.level:  # relative: climb level - 1 packages from ``package``
        parts = package.split(".")[: len(package.split(".")) - (node.level - 1)]
        module = ".".join(parts + ([module] if module else []))
    return {module} | {f"{module}.{alias.name}" for alias in node.names}


def test_file_mutation_lives_in_three_modules():
    # The list a MemFS seam (ROADMAP item 5) has to cover: every rename,
    # unlink, fsync and truncate in src/ goes through these modules.
    root = Path(repro.__file__).parent
    mutators, lsm_imports = set(), set()
    for path in root.rglob("*.py"):
        module = path.relative_to(root).as_posix()
        package = "repro." + ".".join(path.relative_to(root).parent.parts)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                target = ast.unparse(node.func)
                if target in ("os.replace", "os.remove", "os.fsync") or (
                    node.func.attr == "truncate"
                ):
                    mutators.add(module)
            if module.startswith("lsm/"):
                # At any level: module, class or function body.
                lsm_imports |= imported_modules(node, package)
    assert mutators == {"store/fsutil.py", "store/node_store.py", "lsm/wal.py"}
    # lsm/ reaches the store package only for its fsutil leaf: never
    # repro.store.node_store, directly or through the package's lazy names.
    store_edges = {n for n in lsm_imports if n.split(".")[:2] == ["repro", "store"]}
    assert "repro.store.fsutil" in store_edges
    assert all(n.startswith("repro.store.fsutil") for n in store_edges), store_edges
