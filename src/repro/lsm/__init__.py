"""The LSM substrate every CooLSM role is built from.

This subpackage implements everything a classic LSM engine needs —
memtable, sstables with bloom filters and fence pointers, WAL, manifest,
compaction policies as rows of one step, and the one read path.  CooLSM
(:mod:`repro.core`) deconstructs these parts across Ingestor,
Compactor, and Reader nodes; its one-machine baseline is those same
roles placed on one machine (:data:`repro.core.MONOLITH`).
"""

from .amplification import AmplificationReport, measure_cluster
from .bloom import BloomFilter
from .compaction import (
    CompactionResult,
    CompactionStats,
    KeepPolicy,
    NEWEST_WINS,
    compact_step,
    major_compaction,
    merge_tables,
    pick_tables,
    select_overflow_rotating,
)
from .entry import Entry, encode_key, encode_value, make_tombstone, make_upsert
from .errors import (
    ClosedError,
    CorruptionError,
    InvalidConfigError,
    InvalidKeyError,
    LSMError,
    ManifestError,
)
from .iterators import dedup_newest, k_way_merge, level_scan
from .manifest import LevelEdit, LevelFenceIndex, Manifest
from .memtable import Memtable
from .sstable import SSTable, sort_run
from .sstable_io import SSTableReader, write_sstable
from .wal import WriteAheadLog, replay

__all__ = [
    "AmplificationReport",
    "BloomFilter",
    "ClosedError",
    "CompactionResult",
    "CompactionStats",
    "CorruptionError",
    "Entry",
    "InvalidConfigError",
    "InvalidKeyError",
    "KeepPolicy",
    "LSMError",
    "LevelEdit",
    "LevelFenceIndex",
    "Manifest",
    "ManifestError",
    "Memtable",
    "NEWEST_WINS",
    "SSTable",
    "SSTableReader",
    "WriteAheadLog",
    "compact_step",
    "dedup_newest",
    "encode_key",
    "encode_value",
    "k_way_merge",
    "level_scan",
    "major_compaction",
    "make_tombstone",
    "make_upsert",
    "measure_cluster",
    "merge_tables",
    "pick_tables",
    "replay",
    "select_overflow_rotating",
    "sort_run",
    "write_sstable",
]
