"""Per-node durable storage (Section III-H): the one durable store of
the live runtime's three roles.

A :class:`NodeStore` gives one CooLSM process a crash-safe home under
its ``--data-dir``:

* ``wal.log`` — the role's write-ahead log (Ingestors log every acked
  upsert before replying; see :mod:`repro.lsm.wal` for the record
  format and torn-tail semantics);
* ``sst-<id>.sst`` — every sstable the node's recovery-critical state
  references, in the :mod:`repro.lsm.sstable_io` on-disk format (for a
  table received over the wire, the sender's file byte for byte);
* ``NODE_MANIFEST.json`` — a versioned manifest installed atomically
  (write-temp, fsync, rename, fsync-dir) naming the live sstables and
  carrying a role-specific ``state`` snapshot: the Ingestor's level
  contents, in-flight forwarded batches and clock watermark, the
  Compactor's levels, dedup table and backup sequence, the Reader's
  applied areas and per-source sequence numbers.

``commit`` is the only mutation of the manifest: it writes any sstable
that is not yet on disk, installs the new manifest, and only then
removes files the new manifest no longer references — so every crash
point leaves either the old or the new state fully intact, plus at
worst some orphan files that :meth:`NodeStore.open` deletes.

The store is deliberately kernel-agnostic: all calls are synchronous
(no effect yields), so attaching one to a node never changes the
simulator's schedule — runs with storage disabled stay byte-identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Iterable

from repro.lsm.entry import Entry
from repro.lsm.errors import CorruptionError
from repro.lsm.manifest import LevelEdit
from repro.lsm.sstable import SSTable, advance_table_ids
from repro.lsm.sstable_io import SSTableReader, write_sstable
from repro.lsm.wal import WriteAheadLog, replay

from .fsutil import atomic_write_json, fsync_dir

MANIFEST_NAME = "NODE_MANIFEST.json"
WAL_NAME = "wal.log"
FORMAT = 1


def _table_filename(table_id: int) -> str:
    return f"sst-{table_id:016x}.sst"


@dataclass(slots=True)
class RecoveredState:
    """Everything :meth:`NodeStore.open` reconstructed from disk."""

    version: int
    state: dict
    #: table_id -> in-memory table (ids are restored from the manifest,
    #: not re-allocated; the bloom filter is the one the file holds).
    tables: dict[int, SSTable] = field(default_factory=dict)
    #: WAL entries newer than the manifest's ``wal_floor`` (older ones
    #: were already flushed into a persisted sstable before a crash
    #: landed between manifest install and WAL truncation).
    wal_entries: list[Entry] = field(default_factory=list)
    wal_floor: int = 0
    max_table_id: int = 0

    def level_edit(self, level_ids: Iterable[Iterable[int]]) -> LevelEdit:
        """The edit that installs ``level_ids`` — one sequence of table
        ids per level, top level first — from the recovered tables."""
        edit = LevelEdit()
        for level, ids in enumerate(level_ids):
            if ids:
                edit.add(level, [self.tables[tid] for tid in ids])
        return edit

    def levels_for(self, node: str, policy: str) -> LevelEdit:
        """The edit restoring the role state's ``levels``, refused when
        the state was written under another compaction policy: a tiered
        store holds overlapping runs that a leveled node would corrupt
        on its next merge."""
        persisted = self.state.get("policy")
        if persisted is not None and persisted != policy:
            raise CorruptionError(
                f"{node}: store written by compaction policy "
                f"{persisted!r}, refusing to recover as {policy!r}"
            )
        return self.level_edit(self.state.get("levels", ()))


class NodeStore:
    """Durable state for one live node; create via :meth:`open`.

    Attributes:
        recovered: The on-disk state found at open time, or None when
            the directory was fresh.
    """

    def __init__(
        self,
        directory: str,
        node_name: str,
        role: str,
        policy: str | None = None,
    ) -> None:
        self.directory = str(directory)
        self.node_name = node_name
        self.role = role
        self.policy = policy
        self.version = 0
        self.wal_floor = 0
        self.recovered: RecoveredState | None = None
        self._table_meta: dict[int, dict] = {}
        self._state: dict = {}
        self._wal: WriteAheadLog | None = None
        self._closed = False
        #: Fsynced WAL records written / entries they covered.  Their
        #: ratio is the group-commit amortisation factor (1.0 when no
        #: two handlers ever shared a record).
        self.wal_records = 0
        self.wal_entries_logged = 0
        #: Bytes written so far, by file class — ``write_amp``'s numerator,
        #: split; deleted files and truncated WAL records stay counted.
        self.sstable_bytes_written = 0
        self.manifest_bytes_written = 0
        self.wal_bytes_written = 0

    # ------------------------------------------------------------------
    # Open / recover
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        directory: str,
        node_name: str,
        role: str,
        policy: str | None = None,
    ) -> "NodeStore":
        """Open (or create) the store, recovering any prior state.

        Raises :class:`CorruptionError` when the manifest references a
        missing sstable, belongs to a different node/role, or was
        written under a different compaction policy than ``policy``
        (level contents are not interchangeable across policies —
        reinterpreting a stacked level as leveled silently loses
        versions); orphan sstables and temp files (a crash between
        sstable write and manifest install) are silently deleted.
        ``policy=None`` skips the policy check (and omits the key from
        new manifests), preserving pre-policy manifests' behaviour.
        """
        store = cls(directory, node_name, role, policy=policy)
        os.makedirs(store.directory, exist_ok=True)
        manifest_path = os.path.join(store.directory, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            store._recover(manifest_path)
        store._clean_orphans()
        store._wal = WriteAheadLog(os.path.join(store.directory, WAL_NAME))
        return store

    def _recover(self, manifest_path: str) -> None:
        with open(manifest_path, "r", encoding="utf-8") as f:
            document = json.load(f)
        if document.get("format") != FORMAT:
            raise CorruptionError(
                f"{manifest_path}: unknown manifest format {document.get('format')!r}"
            )
        if document.get("role") != self.role or document.get("node") != self.node_name:
            raise CorruptionError(
                f"{manifest_path}: belongs to {document.get('role')} "
                f"{document.get('node')!r}, not {self.role} {self.node_name!r}"
            )
        persisted_policy = document.get("policy")
        if (
            self.policy is not None
            and persisted_policy is not None
            and persisted_policy != self.policy
        ):
            raise CorruptionError(
                f"{manifest_path}: written by compaction policy "
                f"{persisted_policy!r}, refusing to open as {self.policy!r}"
            )
        self.version = int(document["version"])
        self.wal_floor = int(document.get("wal_floor", 0))
        self._state = dict(document.get("state", {}))
        tables: dict[int, SSTable] = {}
        max_id = 0
        for id_str, meta in dict(document.get("tables", {})).items():
            table_id = int(id_str)
            path = os.path.join(self.directory, meta["file"])
            if not os.path.exists(path):
                raise CorruptionError(
                    f"{manifest_path}: references missing sstable {meta['file']}"
                )
            with SSTableReader(path) as reader:
                tables[table_id] = SSTable(
                    list(reader.scan()), table_id=table_id, bloom=reader.bloom
                )
            # Older manifests also carried each table's block size and
            # filter rate; both are constants now, so only the file is kept.
            self._table_meta[table_id] = {"file": meta["file"]}
            max_id = max(max_id, table_id)
        # Never re-issue an id a persisted sstable already holds.
        advance_table_ids(max_id + 1)
        wal_entries = [
            entry
            for entry in replay(os.path.join(self.directory, WAL_NAME))
            if entry.seqno > self.wal_floor
        ]
        self.recovered = RecoveredState(
            version=self.version,
            state=dict(self._state),
            tables=tables,
            wal_entries=wal_entries,
            wal_floor=self.wal_floor,
            max_table_id=max_id,
        )

    def _clean_orphans(self) -> None:
        live = {meta["file"] for meta in self._table_meta.values()}
        for name in os.listdir(self.directory):
            stale_table = (
                name.startswith("sst-") and name.endswith(".sst") and name not in live
            )
            if stale_table or name.endswith(".tmp"):
                os.remove(os.path.join(self.directory, name))
        fsync_dir(self.directory)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed or self._wal is None:
            raise CorruptionError("store is closed")

    def log_entries(self, entries: list[Entry]) -> None:
        """Durably append entries to the role WAL (one fsynced record).

        The Ingestor calls this for every upsert *before* acking, which
        is what makes "acked" mean "will survive SIGKILL".  One call —
        one fsync — covers the entries of every concurrent handler in
        the group-commit leader's record (DESIGN.md §13)."""
        self._check_open()
        self.wal_bytes_written += self._wal.append_batch(entries)
        self.wal_records += 1
        self.wal_entries_logged += len(entries)

    def commit(
        self,
        tables: Iterable[SSTable],
        state: dict,
        wal_floor: int | None = None,
    ) -> int:
        """Atomically install a new durable snapshot; returns its version.

        ``tables`` is the complete live set: missing ones are written,
        ones no longer referenced are deleted (after the manifest
        install, so a crash can only leave orphans, never dangling
        references).  ``wal_floor`` (an entry seqno) additionally marks
        every logged entry at-or-below it as flushed and truncates the
        WAL — recovery replays only entries above the floor.
        """
        self._check_open()
        live: dict[int, dict] = {}
        for table in tables:
            meta = self._table_meta.get(table.table_id)
            if meta is None:
                name = _table_filename(table.table_id)
                self.sstable_bytes_written += write_sstable(
                    table, os.path.join(self.directory, name)
                )
                meta = {"file": name}
            live[table.table_id] = meta
        self.version += 1
        # ``self.wal_floor`` only moves once the manifest carrying it is
        # installed: the Ingestor skips the WAL for entries at-or-below
        # it, which is only sound if a persisted sstable holds them.
        floor = self.wal_floor if wal_floor is None else max(self.wal_floor, wal_floor)
        self._state = dict(state)
        document = {
            "format": FORMAT,
            "version": self.version,
            "node": self.node_name,
            "role": self.role,
            "wal_floor": floor,
            "tables": {str(tid): meta for tid, meta in live.items()},
            "state": self._state,
        }
        if self.policy is not None:
            document["policy"] = self.policy
        self.manifest_bytes_written += atomic_write_json(
            os.path.join(self.directory, MANIFEST_NAME), document
        )
        self.wal_floor = floor
        dropped = [tid for tid in self._table_meta if tid not in live]
        for tid in dropped:
            path = os.path.join(self.directory, self._table_meta[tid]["file"])
            if os.path.exists(path):
                os.remove(path)
        if dropped:
            fsync_dir(self.directory)
        self._table_meta = live
        if wal_floor is not None:
            self._wal.truncate()
        return self.version

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def data_bytes(self) -> int:
        """Total bytes of manifest + live sstables (excludes the WAL)."""
        total = 0
        manifest_path = os.path.join(self.directory, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            total += os.path.getsize(manifest_path)
        for meta in self._table_meta.values():
            path = os.path.join(self.directory, meta["file"])
            if os.path.exists(path):
                total += os.path.getsize(path)
        return total

    def wal_bytes(self) -> int:
        wal_path = os.path.join(self.directory, WAL_NAME)
        return os.path.getsize(wal_path) if os.path.exists(wal_path) else 0

    def gauges(self) -> dict[str, int]:
        """Write counters, keyed for the health reply like the transport's."""
        return {
            "store_sstable_bytes": self.sstable_bytes_written,
            "store_manifest_bytes": self.manifest_bytes_written,
            "store_wal_bytes": self.wal_bytes_written,
            "store_wal_records": self.wal_records,
            "store_wal_entries_logged": self.wal_entries_logged,
        }

    def close(self) -> None:
        if not self._closed:
            if self._wal is not None:
                self._wal.close()
            self._closed = True

    def __enter__(self) -> "NodeStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
