"""Single-node LSM tree substrate, built from scratch.

This subpackage implements everything a classic LSM engine needs —
memtable, sstables with bloom filters and fence pointers, WAL, manifest,
tiering and leveling compaction — and exposes :class:`LSMTree` as an
embeddable in-memory key-value store.  CooLSM (:mod:`repro.core`) deconstructs
these same parts across Ingestor, Compactor, and Reader nodes.
"""

from .amplification import (
    AmplificationReport,
    measure_cluster,
    measure_lsm_tree,
)
from .bloom import BloomFilter
from .cache import MISS, CacheStats, ReadCache
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
from .tree import CompactionEvent, LSMConfig, LSMTree, TreeStats
from .wal import WriteAheadLog, replay

__all__ = [
    "AmplificationReport",
    "BloomFilter",
    "CacheStats",
    "ClosedError",
    "CompactionEvent",
    "CompactionResult",
    "CompactionStats",
    "CorruptionError",
    "Entry",
    "InvalidConfigError",
    "InvalidKeyError",
    "KeepPolicy",
    "LSMConfig",
    "LSMError",
    "LSMTree",
    "LevelEdit",
    "LevelFenceIndex",
    "MISS",
    "Manifest",
    "ManifestError",
    "Memtable",
    "NEWEST_WINS",
    "ReadCache",
    "SSTable",
    "SSTableReader",
    "TreeStats",
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
    "measure_lsm_tree",
    "merge_tables",
    "pick_tables",
    "replay",
    "select_overflow_rotating",
    "sort_run",
    "write_sstable",
]
