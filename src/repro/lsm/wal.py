"""Write-ahead log: durability for the memtable.

Entries buffered in the memtable would be lost on a crash, so the
embedded engine appends every write to a WAL first.  On restart,
:func:`replay` reconstructs the memtable contents.  CooLSM's recovery
story (Section III-H) relies on each node being able to "recover a
consistent, recent state of operation after a failure" — the WAL plus
the sstable manifest provide exactly that for a single node.

Record format (length-prefixed, individually checksummed)::

    u32 crc32 | u32 payload_length | payload

where ``payload`` is one entry encoded with :mod:`repro.lsm.block`'s
entry layout.  A torn final record (partial write during a crash) is
detected by length/CRC and silently discarded; anything corrupt before
the tail raises :class:`~repro.lsm.errors.CorruptionError`.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Iterator

from .block import decode_entries, encode_entries
from .entry import Entry
from .errors import ClosedError, CorruptionError

_HEADER = struct.Struct("<II")


class WriteAheadLog:
    """Append-only durable log of entries.

    Every append and truncate is fsynced (the paper runs LevelDB and
    RocksDB "with configuration to persist and sync to disk").

    Args:
        path: Log file path (created if missing).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._file = open(path, "ab")
        self._closed = False

    def append(self, entry: Entry) -> None:
        """Durably append one entry."""
        self.append_batch([entry])

    def append_batch(self, entries: list[Entry]) -> int:
        """Durably append a batch of entries as one record; returns the
        record's size in bytes."""
        if self._closed:
            raise ClosedError("WAL is closed")
        payload = encode_entries(entries)
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        self._file.write(_HEADER.pack(crc, len(payload)) + payload)
        self._file.flush()
        os.fsync(self._file.fileno())
        return _HEADER.size + len(payload)

    def close(self) -> None:
        if not self._closed:
            self._file.close()
            self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def truncate(self) -> None:
        """Discard all records (called after the memtable is flushed)."""
        if self._closed:
            raise ClosedError("WAL is closed")
        self._file.truncate(0)
        self._file.seek(0)
        self._file.flush()
        os.fsync(self._file.fileno())


def replay(path: str) -> Iterator[Entry]:
    """Yield all entries recorded in the WAL at ``path``, oldest first.

    A torn record at the very end of the file (the result of a crash
    mid-append) is ignored; corruption anywhere else raises
    :class:`CorruptionError`.
    """
    if not os.path.exists(path):
        return
    with open(path, "rb") as f:
        data = f.read()
    offset = 0
    while offset < len(data):
        if offset + _HEADER.size > len(data):
            return  # torn header at tail
        crc, length = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > len(data):
            return  # torn payload at tail
        payload = data[start:end]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            if end == len(data):
                return  # corrupt tail record: treat as torn
            raise CorruptionError(f"{path}: corrupt WAL record at offset {offset}")
        yield from decode_entries(payload)
        offset = end
