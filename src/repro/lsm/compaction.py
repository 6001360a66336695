"""Compaction policies: tiering (L0/L1) and leveling (L2/L3).

The paper's tree (Figure 1a) uses *tiering* between L0 and L1 — minor
compaction merges everything in both levels into a fresh L1 run — and
*leveling* for higher levels — major compaction merges incoming tables
only with the overlapping tables of the target level.

Every compaction anywhere is :func:`pick_tables` (what leaves a level)
followed by :func:`compact_step` (how it lands in the next); the rows of
a :mod:`~repro.lsm.policy` say which ``pick`` / ``move`` each level
boundary uses.  These are pure functions over immutable sstables; the
caller (an ``LSMTree``, Ingestor, or Compactor) owns the yields and the
cost charges and applies the result atomically via a
:class:`~repro.lsm.manifest.LevelEdit`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .entry import Entry
from .iterators import (
    chunk_into_runs,
    dedup_newest,
    drop_tombstones,
    k_way_merge,
    level_scan,
    retain_versions_above,
)
from .sstable import SSTable


@dataclass(frozen=True, slots=True)
class KeepPolicy:
    """What survives a merge.

    Attributes:
        retain_horizon: If None, classic newest-wins dedup.  Otherwise,
            retain old versions whose superseding version has timestamp
            greater than this horizon (the Linearizable+Concurrent GC
            rule of Section III-E: never collect a version that an
            in-flight read might still need).
        drop_tombstones: Remove delete markers from the output.  Only
            safe when merging into the bottom level.
    """

    retain_horizon: float | None = None
    drop_tombstones: bool = False

    def apply(self, merged: Iterable[Entry]) -> Iterable[Entry]:
        """Run the policy over a merged, sorted entry stream."""
        if self.retain_horizon is None:
            stream = dedup_newest(merged)
        else:
            stream = retain_versions_above(merged, self.retain_horizon)
        if self.drop_tombstones:
            stream = drop_tombstones(stream)
        return stream


#: Classic LSM semantics: newest version wins, tombstones kept.
NEWEST_WINS = KeepPolicy()


@dataclass(slots=True)
class CompactionStats:
    """Accounting for one compaction, used by the cost model and Figure 4."""

    entries_in: int = 0
    entries_out: int = 0
    tables_in: int = 0
    tables_out: int = 0
    overlap_tables: int = 0

    @property
    def entries_dropped(self) -> int:
        return self.entries_in - self.entries_out


@dataclass(slots=True)
class CompactionResult:
    """Output of a compaction: new tables plus accounting."""

    tables: list[SSTable]
    stats: CompactionStats = field(default_factory=CompactionStats)


def merge_tables(
    tables: list[SSTable],
    run_size: int,
    policy: KeepPolicy = NEWEST_WINS,
    level_run: list[SSTable] | None = None,
) -> CompactionResult:
    """K-way merge ``tables`` (newer sources first) into fixed-size runs.

    ``level_run``, if given, is a disjoint min-key-sorted run (a leveled
    target level) merged as the *oldest* source: its tables are chained
    into one lazy :func:`level_scan` cursor, so the merge heap holds one
    entry for the whole run instead of one per table.
    """
    level_run = level_run or []
    stats = CompactionStats(
        entries_in=sum(len(t) for t in tables) + sum(len(t) for t in level_run),
        tables_in=len(tables) + len(level_run),
    )
    streams: list = [t.entries for t in tables]
    if level_run:
        streams.append(level_scan(level_run))
    merged = k_way_merge(streams)
    kept = policy.apply(merged)
    out_tables = [SSTable(chunk) for chunk in chunk_into_runs(kept, run_size)]
    stats.entries_out = sum(len(t) for t in out_tables)
    stats.tables_out = len(out_tables)
    return CompactionResult(out_tables, stats)


def _is_disjoint_run(tables: list[SSTable]) -> bool:
    """True when ``tables`` are min-key-sorted and pairwise disjoint —
    the precondition for chaining them into one sorted stream."""
    for left, right in zip(tables, tables[1:]):
        if left.max_key >= right.min_key:
            return False
    return True


def select_overflow_rotating(
    tables: list[SSTable], threshold: int, pointer: bytes | None
) -> tuple[list[SSTable], list[SSTable], bytes | None]:
    """Overflow selection with a rotating compaction pointer.

    Picks the excess tables as a contiguous (wrapping) window starting
    just above ``pointer``, LevelDB-style, so successive compactions
    sweep the whole key space instead of hammering one region.  Returns
    ``(kept, overflow, new_pointer)`` where ``new_pointer`` is the max
    key of the last selected table (None resets to the start).
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    if len(tables) <= threshold:
        return list(tables), [], pointer
    ordered = sorted(tables, key=lambda t: t.min_key)
    excess = len(ordered) - threshold
    start = 0
    if pointer is not None:
        for index, table in enumerate(ordered):
            if table.min_key > pointer:
                start = index
                break
    selected_indices = [(start + i) % len(ordered) for i in range(excess)]
    selected_set = set(selected_indices)
    overflow = [ordered[i] for i in selected_indices]
    kept = [t for i, t in enumerate(ordered) if i not in selected_set]
    new_pointer = ordered[selected_indices[-1]].max_key
    if selected_indices[-1] == len(ordered) - 1:
        new_pointer = None  # wrapped past the end: restart the sweep
    return kept, overflow, new_pointer


def find_overlaps(
    level_tables: list[SSTable], lo: bytes, hi: bytes
) -> tuple[list[SSTable], list[SSTable]]:
    """Partition a level into (overlapping, disjoint) w.r.t. [lo, hi]."""
    overlapping = [t for t in level_tables if t.overlaps(lo, hi)]
    disjoint = [t for t in level_tables if not t.overlaps(lo, hi)]
    return overlapping, disjoint


def major_compaction(
    incoming: list[SSTable],
    level_tables: list[SSTable],
    run_size: int,
    policy: KeepPolicy = NEWEST_WINS,
) -> tuple[CompactionResult, list[SSTable]]:
    """Leveling compaction of ``incoming`` tables into a level.

    Only tables of the level that overlap the incoming key range take
    part in the merge ("the compaction process affects sstables in L2
    that overlaps with the range of the received sstable" — III-C).

    Returns ``(result, untouched)`` where ``result.tables`` replace the
    overlapping tables and ``untouched`` are the level's tables that did
    not participate.  The caller swaps them in atomically.
    """
    if not incoming:
        return CompactionResult([], CompactionStats()), list(level_tables)
    lo = min(t.min_key for t in incoming)
    hi = max(t.max_key for t in incoming)
    overlapping, untouched = find_overlaps(level_tables, lo, hi)
    if _is_disjoint_run(overlapping):
        result = merge_tables(
            list(incoming), run_size, policy, level_run=overlapping
        )
    else:
        # Defensive: a caller handed us an overlapping target level —
        # merge table-by-table, which is always order-correct.
        result = merge_tables(list(incoming) + overlapping, run_size, policy)
    result.stats.overlap_tables = len(overlapping)
    return result, untouched


def pick_tables(
    tables: list[SSTable], threshold: int, pointer: bytes | None, pick: str
) -> tuple[list[SSTable], bytes | None]:
    """Choose which tables leave a level: ``(picked, new_pointer)``.

    Nothing is picked at or under ``threshold``.  Over it, ``pick`` is
    ``"all"`` — the whole level, newest first; ``"rotating"`` — the
    excess of a sorted run as a window sweeping above ``pointer``
    (:func:`select_overflow_rotating`); or ``"oldest"`` — the excess
    runs of a stacked level, oldest first: the fullest and the least
    likely to be superseded, and the list prefix since runs append.
    """
    excess = len(tables) - threshold
    if excess <= 0:
        return [], pointer
    if pick == "all":
        return list(reversed(tables)), pointer
    if pick == "rotating":
        __, picked, pointer = select_overflow_rotating(tables, threshold, pointer)
        return picked, pointer
    if pick == "oldest":
        return list(tables[:excess]), pointer
    raise ValueError(f"unknown pick {pick!r}")


def compact_step(
    picked: list[SSTable],
    target: list[SSTable],
    move: str,
    run_size: int,
    keep: KeepPolicy = NEWEST_WINS,
) -> tuple[CompactionResult, list[SSTable]]:
    """Merge ``picked`` (newest first) into the ``target`` level.

    Returns ``(result, replaced)``: ``result.tables`` take the place of
    ``replaced``, the tables of ``target`` the merge consumed.  ``move``
    is ``"fold"`` — picked plus the *whole* target into a fresh run (the
    paper's minor compaction: "sorts all the key-value pairs in L0 and
    L1 ... divided into ordered sstables", Section III-C); ``"merge"`` —
    into the target's overlapping region (:func:`major_compaction`); or
    ``"stack"`` — one new run beside the target's, which is untouched.
    Pure: the caller swaps ``picked`` and ``replaced`` for the result.
    """
    if move == "fold":
        return merge_tables(list(picked) + list(target), run_size, keep), list(target)
    if move == "merge":
        result, untouched = major_compaction(picked, target, run_size, keep)
        untouched_ids = {t.table_id for t in untouched}
        return result, [t for t in target if t.table_id not in untouched_ids]
    if move == "stack":
        return merge_tables(list(picked), run_size, keep), []
    raise ValueError(f"unknown move {move!r}")
