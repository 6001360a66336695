"""CooLSM core: the deconstructed, distributed LSM tree.

Public surface:

* :class:`CooLSMConfig` / :class:`CostModel` — deployment parameters.
* :class:`Topology` — the deployment both interpreters build: node
  names, roles and wiring.
* :class:`ClusterSpec` / :func:`build_cluster` / :class:`Cluster` —
  place any topology of the paper's design space on simulated machines;
  :data:`MONOLITH` is the placement of the paper's single-machine
  baseline.
* :class:`Ingestor`, :class:`Compactor`, :class:`Reader` — the node
  types.
* :class:`Client` — the client-side protocols (including the two-phase
  multi-Ingestor read).
* :class:`History` + the consistency checkers — machine-checkable
  versions of Table I's guarantees.
"""

from .client import Client, ClientStats
from .cluster import MONOLITH, Cluster, ClusterSpec, build_cluster
from .compactor import CompactionTiming, Compactor, CompactorStats
from .config import CooLSMConfig
from .consistency import (
    ConsistencyReport,
    Violation,
    check_linearizable,
    check_linearizable_concurrent,
    check_snapshot_linearizable,
)
from .costs import DEFAULT_COSTS, CostModel
from .history import History, Mark, Operation
from .ingestor import Ingestor, IngestorStats
from .keyspace import Partition, Partitioning
from .messages import (
    BackupUpdate,
    ForwardReply,
    ForwardRequest,
    IngestorL1Update,
    IngestorReadResult,
    Phase1Reply,
    Phase1Request,
    RangeQuery,
    RangeQueryReply,
    ReadReply,
    ReadRequest,
    UpsertReply,
    UpsertRequest,
)
from .monitor import ClusterMonitor, Sample, Timeline
from .reader import Reader, ReaderStats
from .reconfig import (
    ReconfigStats,
    add_compactor,
    replace_compactor,
    split_partition,
)
from .shard import Shard, ShardMap, WrongShardError, is_wrong_shard
from .topology import Topology

__all__ = [
    "BackupUpdate",
    "Client",
    "ClientStats",
    "Cluster",
    "ClusterMonitor",
    "ClusterSpec",
    "CompactionTiming",
    "Compactor",
    "CompactorStats",
    "ConsistencyReport",
    "CooLSMConfig",
    "CostModel",
    "DEFAULT_COSTS",
    "ForwardReply",
    "ForwardRequest",
    "History",
    "Ingestor",
    "IngestorL1Update",
    "IngestorReadResult",
    "IngestorStats",
    "Mark",
    "MONOLITH",
    "Operation",
    "Partition",
    "Partitioning",
    "Phase1Reply",
    "Phase1Request",
    "RangeQuery",
    "RangeQueryReply",
    "ReadReply",
    "ReadRequest",
    "Reader",
    "Sample",
    "Shard",
    "ShardMap",
    "Timeline",
    "Topology",
    "ReaderStats",
    "ReconfigStats",
    "WrongShardError",
    "is_wrong_shard",
    "add_compactor",
    "replace_compactor",
    "split_partition",
    "UpsertReply",
    "UpsertRequest",
    "Violation",
    "build_cluster",
    "check_linearizable",
    "check_linearizable_concurrent",
    "check_snapshot_linearizable",
]
