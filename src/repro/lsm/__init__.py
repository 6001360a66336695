"""Single-node LSM tree substrate, built from scratch.

This subpackage implements everything a classic LSM engine needs —
memtable, sstables with bloom filters and fence pointers, WAL, manifest,
tiering and leveling compaction — and exposes :class:`LSMTree` as an
embeddable key-value store.  CooLSM (:mod:`repro.core`) deconstructs
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
from .iterators import (
    chunk_into_runs,
    dedup_newest,
    drop_tombstones,
    k_way_merge,
    level_scan,
    retain_versions_above,
)
from .manifest import LevelEdit, LevelFenceIndex, Manifest
from .memtable import Memtable, SkipList
from .sstable import SSTable, sort_run
from .sstable_io import SSTableReader, read_sstable, write_sstable
from .tree import CompactionEvent, LSMConfig, LSMTree, Snapshot, TreeStats
from .tuning import (
    LSMShape,
    TuningComparison,
    bloom_false_positive_rate,
    expected_zero_result_probes,
    leveled_space_amplification,
    leveled_write_cost,
    optimal_bloom_allocation,
    point_lookup_cost,
    tiered_space_amplification,
    tiered_write_cost,
    uniform_bloom_allocation,
)
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
    "LSMShape",
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
    "SkipList",
    "Snapshot",
    "TreeStats",
    "TuningComparison",
    "WriteAheadLog",
    "bloom_false_positive_rate",
    "chunk_into_runs",
    "compact_step",
    "dedup_newest",
    "drop_tombstones",
    "encode_key",
    "encode_value",
    "expected_zero_result_probes",
    "k_way_merge",
    "level_scan",
    "leveled_space_amplification",
    "leveled_write_cost",
    "major_compaction",
    "make_tombstone",
    "make_upsert",
    "measure_cluster",
    "measure_lsm_tree",
    "merge_tables",
    "optimal_bloom_allocation",
    "pick_tables",
    "point_lookup_cost",
    "read_sstable",
    "replay",
    "retain_versions_above",
    "select_overflow_rotating",
    "sort_run",
    "tiered_space_amplification",
    "tiered_write_cost",
    "uniform_bloom_allocation",
    "write_sstable",
]
