"""Typed message payloads exchanged between CooLSM nodes.

The simulator's RPC layer carries Python objects; these dataclasses
document and type the protocol.  Entries and sstables are passed by
reference (the network layer models their transfer time from the
declared ``size_bytes``), mirroring how the real system would serialise
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.shard import ShardMap
from repro.lsm.entry import Entry
from repro.lsm.sstable import SSTable


@dataclass(frozen=True, slots=True)
class UpsertRequest:
    """Client -> Ingestor: insert or delete one key."""

    key: bytes
    value: bytes
    tombstone: bool = False


@dataclass(frozen=True, slots=True)
class UpsertReply:
    """Ingestor -> client: the write's assigned (loose) timestamp."""

    timestamp: float
    seqno: int


@dataclass(frozen=True, slots=True)
class UpsertBatchRequest:
    """Client -> Ingestor: many upserts in one wire message.

    The pipelined write path coalesces concurrent client ops into one
    batch so a single RPC (and, on a durable node, a single group-commit
    fsync) covers all of them.  Ops are applied in order; each gets its own
    stamped reply so the batch is externally equivalent to sending the
    same :class:`UpsertRequest` sequence back to back.
    """

    ops: tuple[UpsertRequest, ...]


@dataclass(frozen=True, slots=True)
class UpsertBatchReply:
    """Ingestor -> client: one per-op reply for each op in the batch,
    in the same order.  Sent only after every op in the batch is as
    durable as a single acked upsert would be."""

    replies: tuple[UpsertReply, ...]


@dataclass(frozen=True, slots=True)
class ReadRequest:
    """Point read.  ``as_of`` caps the visible timestamps: nodes ignore
    versions with timestamp > as_of (multi-Ingestor protocol)."""

    key: bytes
    as_of: float | None = None


@dataclass(frozen=True, slots=True)
class ReadReply:
    """The newest visible version at the serving node, if any."""

    entry: Entry | None
    source: str = ""

    @property
    def found(self) -> bool:
        return self.entry is not None and not self.entry.tombstone


@dataclass(frozen=True, slots=True)
class Phase1Request:
    """Client -> coordinator Ingestor: start a multi-Ingestor read."""

    key: bytes


@dataclass(frozen=True, slots=True)
class IngestorReadResult:
    """One Ingestor's phase-1 answer: its newest visible version plus
    ts_c, the timestamp of the most recent record it sent to
    Compactors."""

    entry: Entry | None
    ts_c: float
    source: str


@dataclass(frozen=True, slots=True)
class Phase1Reply:
    """Coordinator -> client: the read timestamp it assigned and every
    Ingestor's result."""

    read_ts: float
    results: tuple[IngestorReadResult, ...]


@dataclass(frozen=True, slots=True)
class ForwardRequest:
    """Ingestor -> Compactor: sstables that overflowed L1.

    ``high_ts`` is the largest timestamp among the forwarded entries;
    the Compactor acks only after the major compaction has merged the
    tables (the ack lets the Ingestor drop its retained copies).

    ``ingestor`` names the originating Ingestor so the Compactor can
    deduplicate retried forwards by ``(ingestor, batch_id)`` — a lost
    ack must never cause the same batch to be merged twice.
    """

    tables: tuple[SSTable, ...]
    high_ts: float
    batch_id: int
    ingestor: str = ""


@dataclass(frozen=True, slots=True)
class ForwardReply:
    """Compactor -> Ingestor: ack after merge."""

    batch_id: int
    merged_entries: int


@dataclass(frozen=True, slots=True)
class BackupUpdate:
    """Compactor -> Reader: the level edit the Compactor just applied
    to its L2/L3, which the Reader replays on its copy of that
    Compactor's area.  The catch-up reply is the same message: the edit
    that builds the Compactor's current levels from empty."""

    compactor: str
    #: Per-source update sequence number (1, 2, 3, ...).  A Reader that
    #: observes a gap — updates lost while it was crashed or cut off —
    #: re-fetches the source's full area instead of installing out of
    #: order.
    seq: int
    #: Ids of every table the edit removed, from either level.
    removed_ids: tuple[int, ...]
    #: The tables the edit added to L2 and to L3.
    l2: tuple[SSTable, ...]
    l3: tuple[SSTable, ...]


@dataclass(frozen=True, slots=True)
class IngestorL1Update:
    """Ingestor -> Reader (Section III-D.3 variant): the Ingestor's
    current L1 run, replacing this Ingestor's previous fresh-area
    snapshot at the Reader."""

    tables: tuple[SSTable, ...]
    ingestor: str


@dataclass(frozen=True, slots=True)
class RangeQuery:
    """Client -> Reader/Compactor/Ingestor: range read of the half-open
    key range ``[lo, hi)`` (``hi`` excluded), at most ``limit`` pairs."""

    lo: bytes
    hi: bytes
    limit: int | None = None


@dataclass(frozen=True, slots=True)
class RangeQueryReply:
    """Matching (key, value) pairs, newest versions, tombstones elided."""

    pairs: tuple[tuple[bytes, bytes], ...]


@dataclass(frozen=True, slots=True)
class ShardMapRequest:
    """Client -> any Ingestor: fetch the node's current shard map.

    Sent when a write bounces with a ``WrongShard`` redirect; the
    client installs the reply if its epoch is newer than what it holds.
    """

    min_epoch: int = 0


@dataclass(frozen=True, slots=True)
class ShardMapReply:
    """The serving node's current shard map (``None`` if unsharded)."""

    shard_map: ShardMap | None


@dataclass(frozen=True, slots=True)
class InstallShardMap:
    """Coordinator -> Ingestor: adopt a new shard map.

    Rejected (by reply, not error) unless ``shard_map.epoch`` is
    strictly greater than the epoch the node already holds — epoch
    monotonicity is what fences a deposed owner against late writes.

    ``clock_floor`` carries the previous owner's timestamp watermark so
    a newly activated owner stamps its first write strictly after every
    migrated entry (newest-wins across the handoff).
    """

    shard_map: ShardMap
    clock_floor: float = 0.0


@dataclass(frozen=True, slots=True)
class InstallShardMapReply:
    """The epoch the node holds after the install attempt."""

    epoch: int
    accepted: bool


@dataclass(frozen=True, slots=True)
class ShardDrainRequest:
    """Coordinator -> deposed owner: push everything downstream.

    Flushes the memtable (raising the WAL floor via the durable store),
    minor-compacts L0 into L1, and forwards *all* of L1 to the
    Compactors.  The reply lists the forward batches in flight; the
    split coordinator polls ``shard_status`` until those specific
    batches are acked, at which point every write acked before the
    fence is readable at the Compactors.
    """


@dataclass(frozen=True, slots=True)
class ShardDrainReply:
    """Drain snapshot: in-flight forward batches plus the clock
    watermark the new owner must advance past."""

    pending: tuple[int, ...]
    inflight_tables: int
    watermark: float
    ts_c: float


@dataclass(frozen=True, slots=True)
class HealthPing:
    """Any node -> any node: liveness probe.  ``nonce`` is echoed so a
    prober can match replies to probes across retries."""

    nonce: int = 0


@dataclass(frozen=True, slots=True)
class HealthReply:
    """Health answer: the node is alive, serving, and reports its key
    load/fault gauges (the live runtime includes the transport counters,
    so a prober sees reconnects and shed frames per node)."""

    name: str
    nonce: int
    uptime: float
    inflight: int = 0
    gauges: dict = field(default_factory=dict)
