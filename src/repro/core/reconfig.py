"""Reconfiguration: elastic Expand -> Migrate -> Detach (Section III-I).

Two operations, both live (reads and writes keep flowing throughout):

:func:`replace_compactor`
    Swap one Compactor for a fresh node (e.g. new hardware): the new
    node is added as an *overlapping* member of the partition (Expand),
    the old node's sstables are forwarded to it (Migrate), and the old
    node is removed from the partition (Detach).

:func:`split_partition`
    Scale out: split a partition's key range at a boundary, handing the
    upper half to a new Compactor.  The new node overlaps during
    migration, then the partitioning is re-cut so each node serves its
    half exclusively.

Correctness during migration relies on the same mechanism as normal
operation: reads fan out to all overlapping members and the newest
version wins, so a key is never unreachable while its tables move.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lsm.entry import encode_key
from repro.lsm.sstable import SSTable
from repro.sim.rpc import RemoteError, RpcTimeout

from .compactor import Compactor
from .keyspace import Partition
from .messages import ForwardRequest

#: Attempts per migration batch before the reconfiguration gives up.
#: Retries reuse the batch id, so a duplicate delivery (timeout after
#: the target already applied the merge) is deduplicated by the
#: target's idempotency table rather than double-applied.
MIGRATE_RETRY_BUDGET = 8


def _record_phase(cluster, label: str, detail: str = "") -> None:
    """Capture a reconfiguration phase boundary in the shared history.

    Marks interleave with client operations in verification timelines,
    so a shrunk counterexample shows *where* in Expand -> Migrate ->
    Detach the workload sat when consistency broke.
    """
    history = getattr(cluster, "history", None)
    if history is not None:
        history.mark(cluster.kernel.now, label, detail)


@dataclass(slots=True)
class ReconfigStats:
    """Outcome of one reconfiguration."""

    tables_migrated: int = 0
    entries_migrated: int = 0


def add_compactor(cluster, name: str) -> Compactor:
    """Create a fresh Compactor node in the cloud region (not yet in any
    partition); used as the target of Expand."""
    machine = cluster.machine(f"m-{name}", cluster.spec.cloud_region)
    node = cluster.build_node(name, machine, role="compactor")
    cluster.compactors.append(node)
    return node


def _migrate_tables(
    source: Compactor,
    target_name: str,
    tables: list[SSTable],
    stats: ReconfigStats,
    phase: str = "migrate",
):
    """Forward ``tables`` from a Compactor to another via the normal
    forward/merge path, in bounded batches.

    ``phase`` namespaces the batch ids in the target's idempotency
    table: each migration phase restarts its batch counter, so without
    a distinct sender tag the target would deduplicate (i.e. drop) the
    second phase's batches against the first phase's.
    """
    batch_size = 16
    batch_id = 1_000_000  # distinct from Ingestor batch ids
    sender = f"{source.name}#{phase}"
    for start in range(0, len(tables), batch_size):
        batch = tables[start : start + batch_size]
        if not batch:
            continue
        high_ts = max(e.timestamp for t in batch for e in t.entries)
        entries = sum(len(t) for t in batch)
        batch_id += 1
        last_error: Exception | None = None
        for attempt in range(MIGRATE_RETRY_BUDGET):
            try:
                yield source.call(
                    target_name,
                    "forward",
                    ForwardRequest(tuple(batch), high_ts, batch_id, ingestor=sender),
                    size_bytes=source.config.costs.tables_size_bytes(entries),
                    timeout=source.config.ack_timeout,
                )
                last_error = None
                break
            except (RpcTimeout, RemoteError) as error:
                # Dropped request or ack (e.g. a nemesis drop burst or a
                # partition outlasting the ack timeout): resend the same
                # batch; the target dedupes by (sender, batch_id).
                last_error = error
        if last_error is not None:
            raise last_error
        stats.tables_migrated += len(batch)
        stats.entries_migrated += entries


def _ingestors_quiescent(cluster) -> bool:
    """True when no Ingestor has forwarded tables awaiting a Compactor
    ack — i.e. nothing routed under the *current* partitioning is still
    in flight toward a node the reconfiguration is about to retire."""
    return all(i.inflight_tables == 0 for i in getattr(cluster, "ingestors", []))


def replace_compactor(cluster, old_name: str, new_name: str):
    """Generator: live-replace ``old_name`` with a new Compactor node.

    Run inside the simulation, e.g.
    ``cluster.run_process(replace_compactor(cluster, "compactor-0", "compactor-0b"))``.
    Returns :class:`ReconfigStats`.

    Detach is only taken once a drain round finds *nothing left to
    move*: the old node stays an overlapping member (so reads keep
    fanning out to it) while successive rounds forward whatever writes
    landed on it mid-migration, and the final empty check, the
    membership removal, and the crash happen without yielding — so no
    operation can slip between "old is fully copied" and "old is gone".
    An earlier version detached *before* the drain, which the
    model-checking harness (repro.verify) caught as a linearizability
    violation: reads issued during the drain window missed data only
    the old node held, and a forward acked by the old node mid-drain
    was lost when it was crashed.
    """
    stats = ReconfigStats()
    old = next(c for c in cluster.compactors if c.name == old_name)
    partition = next(
        p for p in cluster.partitioning.partitions if old_name in p.members
    )
    add_compactor(cluster, new_name)

    # 1. Expand: the new node overlaps the old one's range.  New writes
    #    are load-balanced across both; reads fan out to both.
    partition.members.append(new_name)
    _record_phase(cluster, "reconfig.expand", f"{old_name} += {new_name}")

    # 2. Migrate: push the old node's state to the new node, in rounds,
    #    until a round finds no table that has not already moved.
    _record_phase(cluster, "reconfig.migrate", f"{old_name} -> {new_name}")
    migrated: set = set()
    round_index = 0
    while True:
        pending = [
            t
            for t in list(old.level2) + list(old.level3)
            if t.table_id not in migrated
        ]
        if not pending:
            if _ingestors_quiescent(cluster):
                break  # nothing left anywhere: detach atomically below
            yield cluster.kernel.timeout(max(cluster.config.delta, 1e-4))
            continue
        migrated.update(t.table_id for t in pending)
        phase = "migrate" if round_index == 0 else f"drain{round_index}"
        yield from _migrate_tables(old, new_name, pending, stats, phase=phase)
        round_index += 1

    # 3. Detach: retire the old node.  No yields between the empty drain
    #    check above and the crash here, so an in-flight forward either
    #    already landed (and was drained) or will fail over to the new
    #    member after the crash.
    partition.members.remove(old_name)
    old.crash()  # retired: stops serving anything
    cluster.compactors.remove(old)
    _record_phase(cluster, "reconfig.detach", f"{old_name} retired")
    return stats


def split_partition(cluster, compactor_name: str, new_name: str, boundary_key=None):
    """Generator: split a Compactor's range, handing keys >= boundary to
    a new Compactor.  Defaults to the midpoint of the node's current
    data.  Returns :class:`ReconfigStats`.
    """
    stats = ReconfigStats()
    parts = cluster.partitioning
    old = next(c for c in cluster.compactors if c.name == compactor_name)
    index = next(
        i for i, p in enumerate(parts.partitions) if compactor_name in p.members
    )
    partition = parts.partitions[index]

    if boundary_key is None:
        keys = sorted(
            key
            for level in (old.level2, old.level3)
            for t in level
            for key in (t.min_key, t.max_key)
        )
        if not keys:
            raise ValueError("cannot split an empty compactor without a boundary")
        boundary = keys[len(keys) // 2]
    else:
        boundary = encode_key(boundary_key)

    add_compactor(cluster, new_name)
    _record_phase(cluster, "reconfig.expand", f"{compactor_name} += {new_name}")

    # 1. Expand: the new node exists but the old node keeps serving the
    #    whole range (migration *copies* tables, so every key remains
    #    readable at the old node throughout).
    # 2. Migrate: copy tables (splitting any that straddle the boundary)
    #    whose keys are >= boundary to the new node, in rounds, until a
    #    round finds no unprocessed source table and no Ingestor still
    #    has a forward in flight (an unacked batch may carry upper-half
    #    keys routed to the old node under the pre-split cut).
    _record_phase(cluster, "reconfig.migrate", f"{compactor_name} -> {new_name}")
    copied: set = set()
    round_index = 0
    while True:
        pending = [
            t
            for t in list(old.level2) + list(old.level3)
            if t.table_id not in copied and t.max_key >= boundary
        ]
        if not pending:
            if _ingestors_quiescent(cluster):
                break  # nothing in flight: re-cut atomically below
            yield cluster.kernel.timeout(max(cluster.config.delta, 1e-4))
            continue
        copied.update(t.table_id for t in pending)
        phase = "copy" if round_index == 0 else f"sweep{round_index}"
        yield from _migrate_upper_half(old, new_name, boundary, stats, pending, phase)
        round_index += 1

    # 3. Detach: re-cut the partitioning so each node owns its half and
    #    drop the migrated range from the old node.  No yields between
    #    the empty sweep check above, the re-cut, and the drop — so an
    #    upper-half write is either already copied (and safely dropped
    #    here) or routed to the new node under the new cut.
    new_partition = Partition(boundary, [new_name])
    parts.partitions.insert(index + 1, new_partition)
    parts._boundaries = [p.lower for p in parts.partitions[1:]]
    _drop_upper_half(old, boundary)
    _record_phase(cluster, "reconfig.detach", f"split at {boundary!r}")
    return stats


def _migrate_upper_half(
    old: Compactor,
    new_name: str,
    boundary: bytes,
    stats: ReconfigStats,
    tables: list[SSTable] | None = None,
    phase: str = "migrate",
):
    if tables is None:
        tables = [
            t
            for t in list(old.level2) + list(old.level3)
            if t.max_key >= boundary
        ]
    to_move: list[SSTable] = []
    for table in tables:
        if table.min_key >= boundary:
            to_move.append(table)
        else:
            for piece in table.split_at([boundary]):
                if piece.min_key >= boundary:
                    to_move.append(piece)
    yield from _migrate_tables(old, new_name, to_move, stats, phase=phase)


def _drop_upper_half(old: Compactor, boundary: bytes) -> None:
    """Remove keys >= boundary from the old node, atomically per level."""
    from repro.lsm.manifest import LevelEdit

    for level_index in (0, 1):
        current = old.manifest.level(level_index)
        edit = LevelEdit()
        replacements: list[SSTable] = []
        removals: list[SSTable] = []
        for table in current:
            if table.min_key >= boundary:
                removals.append(table)
            elif table.max_key >= boundary:
                removals.append(table)
                kept = [p for p in table.split_at([boundary]) if p.min_key < boundary]
                replacements.extend(kept)
        if removals:
            edit.remove(level_index, removals)
        if replacements:
            edit.add(level_index, replacements)
        if removals or replacements:
            old.manifest.apply(edit)
