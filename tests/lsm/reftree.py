"""A reference LSM tree for tests, built only from ``repro.lsm`` parts:
one :class:`Memtable`, one :class:`Manifest` holding the whole tree, a
policy's rows run by ``pick_tables`` / ``compact_step`` after every
flush, and reads through ``readpath``'s ``lookup`` / ``live_pairs``.
Entries are stamped by a logical counter, so a tree is deterministic.
No stats class.  (The system's single-machine engine is the
Ingestor and Compactor on one machine, :data:`repro.core.MONOLITH`.)
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from repro.lsm.compaction import NEWEST_WINS, KeepPolicy, compact_step, pick_tables
from repro.lsm.entry import Entry, encode_key, make_tombstone, make_upsert
from repro.lsm.manifest import LevelEdit, Manifest
from repro.lsm.memtable import Memtable
from repro.lsm.policy import Step, make_policy, stacked_levels
from repro.lsm.readpath import level_groups, level_sources, live_pairs, lookup
from repro.lsm.sstable import SSTable

Key = bytes | str | int

#: The keep rule of a merge into the bottom level: tombstones go too.
BOTTOM = KeepPolicy(drop_tombstones=True)


class RefTree:
    """An in-memory LSM tree of ``len(thresholds)`` levels.

    Args:
        memtable_entries: Puts buffered before a flush to L0.
        sstable_entries: Entries per table a merge writes.
        thresholds: Max table count per level.  0 means *compact on
            every flush* at L0 and *unbounded* below it.
        policy: The :mod:`repro.lsm.policy` whose rows cascade the tree
            (its four-level pipeline rows, cut to the tree's depth).
        rows: Cascade by these rows instead of the policy's.
    """

    def __init__(
        self,
        memtable_entries: int = 1_000,
        sstable_entries: int = 100,
        thresholds: Sequence[int] = (10, 10, 100, 1_000),
        policy: str = "leveling",
        rows: Sequence[Step] | None = None,
    ) -> None:
        self.policy = make_policy(policy).name
        levels = len(thresholds)
        rows = make_policy(policy).pipeline if rows is None else rows
        self.rows = tuple(rows)[: levels - 1]
        self.memtable_entries = memtable_entries
        self.sstable_entries = sstable_entries
        self.thresholds = tuple(thresholds)
        self.manifest = Manifest(
            levels, overlapping_levels=stacked_levels(self.rows, range(levels))
        )
        self.pointers: list[bytes | None] = [None] * levels
        self.flushes = 0
        self.compactions: list = []  # (target level, merge stats), in order
        self._memtable = Memtable(memtable_entries)
        self._seqno = 0
        self._logical_time = 0.0

    def put(self, key: Key, value: bytes | str) -> Entry:
        return self.put_entry(make_upsert(key, value, *self._stamp()))

    def delete(self, key: Key) -> Entry:
        return self.put_entry(make_tombstone(key, *self._stamp()))

    def _stamp(self) -> tuple[int, float]:
        self._seqno, self._logical_time = self._seqno + 1, self._logical_time + 1.0
        return self._seqno, self._logical_time

    def put_entry(self, entry: Entry) -> Entry:
        """Insert a stamped entry (a replayed WAL record, say); later
        puts number above the highest seqno seen."""
        self._seqno = max(self._seqno, entry.seqno)
        self._memtable.put(entry)
        if self._memtable.is_full():
            self.flush()
        return entry

    def flush(self) -> None:
        """Freeze the memtable into an L0 table, then cascade."""
        entries = self._memtable.entries()
        if not entries:
            return
        self.manifest.apply(LevelEdit().add(0, [SSTable(entries)]))
        self._memtable = Memtable(self.memtable_entries)
        self.flushes += 1
        self.cascade()

    def cascade(self) -> None:
        """Down the rows: wherever a level is over its threshold, pick
        tables and land them in the next level in one edit."""
        manifest = self.manifest
        for level, step in enumerate(self.rows):
            threshold = self.thresholds[level]
            if level and not threshold:
                continue  # 0 = unbounded below L0 (at L0: every flush)
            picked, self.pointers[level] = pick_tables(
                manifest.level(level), threshold, self.pointers[level], step.pick
            )
            if not picked:
                continue
            keep = BOTTOM if step.bottom else NEWEST_WINS
            result, replaced = compact_step(
                picked, manifest.level(level + 1), step.move, self.sstable_entries, keep
            )
            edit = LevelEdit().remove(level, picked).remove(level + 1, replaced)
            manifest.apply(edit.add(level + 1, result.tables))
            self.compactions.append((level + 1, result.stats))

    def lookup(self, key: Key) -> tuple[Entry | None, int]:
        """``(newest entry or None, tables searched)``: memtable, L0
        newest table first, then each level through its fence index."""
        encoded = encode_key(key)
        manifest = self.manifest
        groups = itertools.chain(
            ([table] for table in reversed(manifest.level(0))),
            level_groups(manifest, encoded, range(1, manifest.num_levels)),
        )
        return lookup(encoded, groups, self._memtable.versions(encoded))

    def get_entry(self, key: Key) -> Entry | None:
        """Newest entry for ``key``, tombstones included."""
        return self.lookup(key)[0]

    def get(self, key: Key) -> bytes | None:
        entry = self.get_entry(key)
        return None if entry is None or entry.tombstone else entry.value

    def scan(
        self, lo: Key | None = None, hi: Key | None = None, limit: int | None = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Live ``(key, value)`` pairs with ``lo <= key < hi``, sorted."""
        lo_b = encode_key(lo) if lo is not None else None
        hi_b = encode_key(hi) if hi is not None else None
        levels = range(self.manifest.num_levels)
        sources = [self._memtable.range(lo_b, hi_b)]
        sources += level_sources(self.manifest, levels, lo_b, hi_b)
        return live_pairs(sources, limit)

    def __len__(self) -> int:
        """Live keys, counted through the streaming scan."""
        return sum(1 for __ in self.scan())
