"""Compaction policies: tiering (L0/L1) and leveling (L2/L3).

The paper's tree (Figure 1a) uses *tiering* between L0 and L1 — minor
compaction merges everything in both levels into a fresh L1 run — and
*leveling* for higher levels — major compaction merges incoming tables
only with the overlapping tables of the target level.

Every compaction anywhere is :func:`pick_tables` (what leaves a level)
followed by :func:`compact_step` (how it lands in the next); the rows of
a :mod:`~repro.lsm.policy` say which ``pick`` / ``move`` each level
boundary uses.  These are pure functions over immutable sstables; the
caller (an Ingestor or a Compactor) owns the yields and the
cost charges and applies the result atomically via a
:class:`~repro.lsm.manifest.LevelEdit`.

The one merge, :func:`merge_tables`, never builds an
:class:`~repro.lsm.entry.Entry`: it sorts and filters the raw records of
its inputs' images (:func:`~repro.lsm.block.read_records`) on their
header fields, and builds each output's image by concatenating them
under fresh block headers and checksums.  The outputs are born adopted.
Each record carries its key's digest, which every output's bloom filter
is set from: sliced from the digests an input built on this node keeps
(a flush, a split piece, an earlier merge's output), and hashed only for
an input that arrived as an image or was recovered.  The outputs keep
theirs, so the merges that rewrite a node's own tables hash no key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import getitem

from .block import pack_records, read_records
from .bloom import DIGEST_SIZE, BloomFilter
from .errors import CorruptionError
from .sstable import BLOCK_ENTRIES, BLOOM_FP_RATE, SSTable, next_table_id
from .sstable_io import assemble_image


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
    """Merge ``tables`` (newer sources first) into fixed-size runs.

    ``level_run``, if given, holds the target level's tables, merged as
    the *oldest* sources, in order.  Every input block's
    checksum is checked before any of its bytes is copied, and a damaged
    input raises :class:`~repro.lsm.errors.CorruptionError` before any
    output is built.
    """
    sources = list(tables) + list(level_run or ())
    stats = CompactionStats(
        entries_in=sum(len(t) for t in sources), tables_in=len(sources)
    )
    records: list[tuple] = []
    for source, table in enumerate(sources):
        records += _records_of(table, source)
    # Each source is sorted, so this merges runs.  A record sorts as
    # ``(key, -timestamp, -seqno, source, start)``, so between equal
    # versions the earlier (newer) source comes first, and within one
    # source the earlier record.
    records.sort()
    kept = _keep(records, policy)
    out_tables = [_build(kept[start:stop]) for start, stop in _runs(kept, run_size)]
    stats.entries_out = len(kept)
    stats.tables_out = len(out_tables)
    return CompactionResult(out_tables, stats)


def _records_of(table: SSTable, source: int) -> list[tuple]:
    """``table``'s records in table order, read from its image, held to
    its index as :meth:`SSTable.__getattr__` holds a decode.  Their key
    digests are the table's own if it carries them, and hashed if not."""
    image, digests = table._image, table._digests
    records: list[tuple] = []
    for first_key, offset, length in table._blocks:
        block = read_records(image, offset, length, source, digests, len(records) * DIGEST_SIZE)
        if not block or block[0][0] != first_key:
            raise CorruptionError(f"sstable {table.table_id}: block not at its fence key")
        records += block
    if len(records) != len(table) or records[-1][0] != table.max_key:
        raise CorruptionError(f"sstable {table.table_id}: records disagree with the index")
    return records


def _keep(records: list[tuple], policy: KeepPolicy) -> list[tuple]:
    """What ``policy`` keeps of sorted records: the newest version of each
    key, plus — under a ``retain_horizon`` — every older version whose
    superseding version is newer than the horizon (Section III-E's GC
    rule: no current or future read, all above the horizon, needs it
    otherwise); then, if asked, no tombstone."""
    horizon = policy.retain_horizon
    kept: list[tuple] = []
    append = kept.append
    last_key = None
    superseding = 0.0
    for record in records:
        if record[0] != last_key:
            last_key = record[0]
        elif horizon is None or superseding <= horizon:
            continue
        superseding = -record[1]
        append(record)
    if policy.drop_tombstones:
        kept = [record for record in kept if not record[6]]
    return kept


def _runs(records: list[tuple], run_size: int):
    """``(start, stop)`` of each output table: ``run_size`` records, and
    then the rest of the last key's versions, so no key is split across
    two tables ("divided into ordered sstables, where the size of an
    sstable is predetermined" — Section III-C)."""
    start, total = 0, len(records)
    while start < total:
        stop = start + max(run_size, 1)
        while stop < total and records[stop][0] == records[stop - 1][0]:
            stop += 1
        yield start, min(stop, total)
        start = stop


def _build(run: list[tuple]) -> SSTable:
    """An adopted table over sorted records: each block is its records'
    bytes under a fresh header and checksum, and the filter is set from
    the records' key digests, which the table keeps for its next merge."""
    keys, neg_ts, __, __, starts, ends, __, images, digests = zip(*run)
    raws = list(map(getitem, images, map(slice, starts, ends)))
    blocks = [
        pack_records(raws[first : first + BLOCK_ENTRIES])
        for first in range(0, len(raws), BLOCK_ENTRIES)
    ]
    digests = b"".join(digests)
    bloom = BloomFilter.from_digests(digests, BLOOM_FP_RATE)
    image, fences = assemble_image(blocks, keys[::BLOCK_ENTRIES], keys[-1], bloom)
    table = SSTable.adopt(image, fences, len(run), keys[-1], next_table_id(), bloom, digests)
    table.high_ts = -min(neg_ts)
    return table


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
    result = merge_tables(list(incoming), run_size, policy, level_run=overlapping)
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
