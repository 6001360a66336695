"""The one read path over sstables: every point lookup and range scan
of the three CooLSM roles, whatever machines they are placed on.

The paper's read flow (Section III-C) is one sentence: memtable, then L0
newest table first, then L1, then the Compactor's L2 and L3; Readers
answer from their copies.  What differs between holders is only *which
tables, newest first* — so that is all a holder passes:

* a **group** is a collection of tables among which nothing is known
  newer than anything else (the runs of one level, an Ingestor's
  in-flight batches, everything a Reader holds); versions resolve
  inside it;
* **groups** run newest data first: whatever an earlier group holds for
  a key supersedes every later group, so a latest-version read stops
  before the first group after a hit.

The functions are stateless and never ask who is calling.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .entry import Entry
from .iterators import k_way_merge, level_scan
from .manifest import Manifest
from .sstable import SSTable


def _visible(versions: Sequence[Entry], as_of: float | None) -> Sequence[Entry]:
    """The one version (``versions`` is newest first) of a single source
    a read at ``as_of`` may return: the newest, or the newest stamped at
    or before ``as_of``."""
    if as_of is not None:
        versions = [v for v in versions if v.timestamp <= as_of]
    return versions[:1]


def lookup(
    key: bytes,
    groups: Iterable[Iterable[SSTable]],
    buffered: Sequence[Entry] = (),
    as_of: float | None = None,
) -> tuple[Entry | None, int]:
    """Newest version of ``key`` visible at ``as_of`` (None = latest).

    ``buffered`` holds the memtable's versions of the key, newest first;
    it precedes every group.  A latest-version read returns at the first
    group (or buffer) that holds the key; a timestamped read visits every
    group, because the newest version at or below ``as_of`` may sit
    under newer ones.  ``groups`` may be lazy: a group past the hit is
    never produced.

    Returns ``(entry, probes)``: ``probes`` counts the tables whose key
    range and bloom filter admitted the key — the block searches the
    cost model charges, false positives included.
    """
    found = list(_visible(buffered, as_of))
    probes = 0
    if as_of is not None or not found:
        for group in groups:
            for table in group:
                if table.key_in_range(key) and table.bloom.might_contain(key):
                    probes += 1
                    found.extend(_visible(table.versions(key), as_of))
            if found and as_of is None:
                break
    return max(found, key=lambda e: e.version, default=None), probes


def level_groups(
    manifest: Manifest, key: bytes, levels: Iterable[int]
) -> Iterator[list[SSTable]]:
    """One group per level, upper levels first: the tables whose range
    holds ``key``, bisected out of the fence index only when the lookup
    gets that far."""
    return (manifest.tables_for_key(level, key) for level in levels)


def level_sources(
    manifest: Manifest, levels: Iterable[int], lo: bytes | None, hi: bytes | None
) -> list[Iterator[Entry]]:
    """Sorted merge sources covering ``[lo, hi)`` of ``levels``.

    A disjoint level is one lazily chained :func:`level_scan`, so the
    merge primes one entry per level and never opens a table beyond its
    frontier; an overlapping level gives one cursor per run, since
    chaining overlapping tables would break sort order.
    """
    sources: list[Iterator[Entry]] = []
    for level in levels:
        run = manifest.tables_for_range(level, lo, hi)
        if level in manifest.overlapping_levels:
            sources.extend(table.scan(lo, hi) for table in run)
        elif run:
            sources.append(level_scan(run, lo, hi))
    return sources


def live_pairs(
    sources: list[Iterable[Entry]], limit: int | None = None
) -> Iterator[tuple[bytes, bytes]]:
    """Stream ``(key, value)`` of the newest version of each key across
    sorted ``sources`` (newer sources first), tombstones elided, at most
    ``limit`` pairs — none for ``limit <= 0``: the limit arrives off the
    wire.  Lazy throughout: a limited scan pulls O(limit) merged entries."""
    pairs = _newest_live(k_way_merge(sources))
    return pairs if limit is None else itertools.islice(pairs, max(limit, 0))


def _newest_live(merged: Iterable[Entry]) -> Iterator[tuple[bytes, bytes]]:
    """``dedup_newest`` and the tombstone skip in one pass: the first
    (newest) version of each key, as a pair, unless it is a tombstone."""
    last_key = None
    for entry in merged:
        key = entry.key
        if key != last_key:
            last_key = key
            if not entry.tombstone:
                yield key, entry.value
