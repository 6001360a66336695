"""Unit tests for the write-ahead log."""

import pytest

from repro.lsm.errors import ClosedError, CorruptionError
from repro.lsm.wal import WriteAheadLog, replay

from tests.conftest import entry


def test_append_and_replay(tmp_path):
    path = str(tmp_path / "wal.log")
    with WriteAheadLog(path) as wal:
        for i in range(10):
            wal.append(entry(i, i + 1))
    assert [e.seqno for e in replay(path)] == list(range(1, 11))


def test_batch_append(tmp_path):
    path = str(tmp_path / "wal.log")
    with WriteAheadLog(path) as wal:
        wal.append_batch([entry(i, i + 1) for i in range(5)])
    assert len(list(replay(path))) == 5


def test_replay_missing_file_yields_nothing(tmp_path):
    assert list(replay(str(tmp_path / "absent.log"))) == []


def test_truncate_discards_records(tmp_path):
    path = str(tmp_path / "wal.log")
    with WriteAheadLog(path) as wal:
        wal.append(entry("a", 1))
        wal.truncate()
        wal.append(entry("b", 2))
    replayed = list(replay(path))
    assert len(replayed) == 1
    assert replayed[0].seqno == 2


def test_closed_wal_raises(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "wal.log"))
    wal.close()
    with pytest.raises(ClosedError):
        wal.append(entry("a", 1))
    with pytest.raises(ClosedError):
        wal.truncate()


def test_torn_tail_record_ignored(tmp_path):
    """A crash mid-append leaves a partial record that replay skips."""
    path = str(tmp_path / "wal.log")
    with WriteAheadLog(path) as wal:
        wal.append(entry("a", 1))
        wal.append(entry("b", 2))
    with open(path, "r+b") as f:
        f.seek(0, 2)
        size = f.tell()
        f.truncate(size - 3)
    replayed = list(replay(path))
    assert [e.seqno for e in replayed] == [1]


def test_torn_header_ignored(tmp_path):
    path = str(tmp_path / "wal.log")
    with WriteAheadLog(path) as wal:
        wal.append(entry("a", 1))
    with open(path, "ab") as f:
        f.write(b"\x01\x02")  # partial header of a never-finished record
    assert len(list(replay(path))) == 1


def test_mid_log_corruption_raises(tmp_path):
    path = str(tmp_path / "wal.log")
    with WriteAheadLog(path) as wal:
        wal.append(entry("a", 1))
        wal.append(entry("b", 2))
    with open(path, "r+b") as f:
        f.seek(12)
        f.write(b"\xff\xff")
    with pytest.raises(CorruptionError):
        list(replay(path))


def test_corrupt_final_record_treated_as_torn(tmp_path):
    path = str(tmp_path / "wal.log")
    with WriteAheadLog(path) as wal:
        wal.append(entry("a", 1))
        wal.append(entry("b", 2))
    with open(path, "r+b") as f:
        f.seek(0, 2)
        end = f.tell()
        f.seek(end - 2)
        f.write(b"\xff\xff")
    assert [e.seqno for e in replay(path)] == [1]
