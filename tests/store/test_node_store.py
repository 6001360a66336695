"""NodeStore: versioned manifest, WAL floor, crash-debris handling."""

from __future__ import annotations

import ast
import os
from pathlib import Path

import pytest

import repro
from repro.lsm.entry import make_upsert
from repro.lsm.errors import CorruptionError
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


def test_file_mutation_lives_in_three_modules():
    # The list a MemFS seam (ROADMAP item 5) has to cover: every rename,
    # unlink, fsync and truncate in src/ goes through these modules, and
    # the embedded tree reaches the disk only through the store.
    root = Path(repro.__file__).parent
    mutators, tree_imports = set(), set()
    for path in root.rglob("*.py"):
        module = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                target = ast.unparse(node.func)
                if target in ("os.replace", "os.remove", "os.fsync") or (
                    node.func.attr == "truncate"
                ):
                    mutators.add(module)
            if module == "lsm/tree.py" and isinstance(node, ast.Import):
                tree_imports.update(alias.name for alias in node.names)
    assert mutators == {"store/fsutil.py", "store/node_store.py", "lsm/wal.py"}
    assert not tree_imports & {"os", "json"}
