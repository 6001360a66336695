"""In-memory write buffer: a dict of versions, sorted once at flush.

The memtable is the L0-feeding buffer of the LSM tree.  Writes are
appended here first; when the memtable reaches its threshold the
contents are ordered once and frozen into an L0 sstable (the paper's
"batch ... ordered and added as a new table in L0").

One event loop owns each memtable, so nothing iterates it while it is
written: a dict from key to that key's versions, newest first, is
enough.  Puts and point reads are dict operations; only :meth:`entries`
(the flush) and :meth:`range` sort, and only the keys they return.
It keeps the newest version per key (newest-wins by ``Entry.version``),
or every version with ``retain_versions`` (needed by CooLSM's
Linearizable+Concurrent garbage-collection rule).
"""

from __future__ import annotations

from .entry import Entry


class Memtable:
    """The mutable in-memory buffer at the top of the LSM tree.

    Args:
        capacity_entries: Number of entries after which :meth:`is_full`
            becomes true and the owner should freeze this memtable into
            an L0 sstable.  Zero or less (an owner carrying an earlier
            batch's overshoot) makes the first put fill it: an empty
            memtable is never full.
        retain_versions: Keep all versions per key (CooLSM multi-ingestor
            mode) instead of newest-wins.
    """

    def __init__(self, capacity_entries: int, retain_versions: bool = False) -> None:
        self.capacity_entries = capacity_entries
        self.retain_versions = retain_versions
        # Versions of each key, newest first.  Most keys hold exactly one.
        self._versions: dict[bytes, list[Entry]] = {}
        self._num_entries = 0

    def __len__(self) -> int:
        return self._num_entries

    @property
    def num_keys(self) -> int:
        return len(self._versions)

    def put(self, entry: Entry) -> None:
        """Insert or overwrite an entry.

        Newest-wins keeps ``entry`` only if its version is at least the
        held one's.  Every put counts toward :meth:`is_full`, stored or
        not: capacity is measured in writes, not distinct keys.
        """
        self._num_entries += 1
        held = self._versions.get(entry.key)
        if held is None:
            self._versions[entry.key] = [entry]
        elif self.retain_versions:
            held.append(entry)
            held.sort(key=lambda e: e.version, reverse=True)
        elif entry.version >= held[0].version:
            self._versions[entry.key] = [entry]

    def get(self, key: bytes) -> Entry | None:
        """Newest version of ``key`` in this memtable, or None."""
        held = self._versions.get(key)
        return held[0] if held else None

    def versions(self, key: bytes) -> list[Entry]:
        """All buffered versions of ``key``, newest first."""
        return list(self._versions.get(key, ()))

    def is_full(self) -> bool:
        return self._num_entries >= max(1, self.capacity_entries)

    def entries(self) -> list[Entry]:
        """All buffered versions in sorted key order (newest first per key)."""
        return [e for key in sorted(self._versions) for e in self._versions[key]]

    def range(self, lo: bytes | None, hi: bytes | None) -> list[Entry]:
        """All buffered versions with lo <= key < hi (None = unbounded),
        in sorted key order; only the keys inside the bounds are sorted."""
        keys = sorted(
            key
            for key in self._versions
            if (lo is None or key >= lo) and (hi is None or key < hi)
        )
        return [e for key in keys for e in self._versions[key]]
