"""Immutable sorted string tables (sstables) with bloom filters and
fence pointers.

An :class:`SSTable` is the unit that moves through the LSM tree — and,
in CooLSM, the unit that moves *between machines* (Ingestor → Compactor
→ Reader).  It is an immutable, key-sorted run of entries and, from the
moment it exists, its checksummed :mod:`~repro.lsm.sstable_io` image:
:data:`BLOCK_ENTRIES` entries a data block, an index of **fence
pointers** (each block's first key, offset and length) and a **bloom
filter** at :data:`BLOOM_FP_RATE`.  The same bytes go to disk and over
the wire.

A point lookup (:func:`~repro.lsm.readpath.lookup`) checks the key
range and asks the bloom filter, which answers "definitely absent"
cheaply; only then does :meth:`SSTable.versions` binary-search the
table's sorted key list.  The fence pointers are what a decode or a
merge walks, one block at a time.

Entries within a table are sorted by ``(key, version descending)`` so a
table may hold several versions of one key (needed when CooLSM's
GC-horizon retains versions).  Classic tables hold one version per key.

Observability: each table counts how many scan cursors were actually
opened on it (:attr:`SSTable.opens`) and how many point lookups reached
its key search (:attr:`SSTable.probes`).  Laziness tests use these to
prove an early-terminated scan never touched tables beyond its cursor
frontier.

A table built from entries encodes its image at birth.  A table
received as an image is *adopted* (:meth:`SSTable.adopt`): it keeps the
verified image and decodes its entries on first read, because compaction
replaces most received tables before anything reads them.  A merge's
outputs are born adopted (:func:`~repro.lsm.compaction.merge_tables`).

A table built on this node — from entries, or by a merge — keeps the
:func:`~repro.lsm.bloom.key_digest` of each of its keys, which its
builder hashed for the filter, as one ``bytes`` of 16 bytes a key
(``_digests``), so that merging it hashes none of its keys again.  A
table that arrived as an image or was recovered from its file carries
none: a merge hashes its keys, and nothing keeps them.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Sequence

from . import sstable_io  # imports this module back: names resolve at call time
from .block import decode_entries, encode_entries
from .bloom import BloomFilter, key_digest
from .entry import Entry
from .errors import CorruptionError, InvalidConfigError

#: Entries per data block: every block of every table but its last is full.
BLOCK_ENTRIES = 64

#: Target false-positive rate of every table's bloom filter.
BLOOM_FP_RATE = 0.01

_next_table_id = 1

#: Bits reserved for the per-process counter under :func:`seed_table_ids`.
_TABLE_ID_NAMESPACE_SHIFT = 40


def next_table_id() -> int:
    """Process-wide unique id for newly built sstables."""
    global _next_table_id
    table_id = _next_table_id
    _next_table_id += 1
    return table_id


def seed_table_ids(namespace: int) -> None:
    """Re-base the table-id counter into a private per-process range.

    Table ids must be unique across every node of a deployment (they
    name store files and key the Reader's seen-removals set).  In the
    simulator all nodes share one process so the plain counter suffices;
    in the live runtime each node is its own process, so each calls this
    once at startup with its distinct node index and draws ids from
    ``(namespace << 40) + 1`` upward — disjoint ranges, no coordination.
    """
    if not 0 <= namespace < (1 << 20):
        raise InvalidConfigError(f"table-id namespace out of range: {namespace}")
    global _next_table_id
    _next_table_id = (namespace << _TABLE_ID_NAMESPACE_SHIFT) + 1


def advance_table_ids(minimum: int) -> None:
    """Ensure future ids are ``>= minimum`` (never rewinds).

    A restarted live node re-seeds its namespace from scratch, which
    would re-issue ids its recovered on-disk sstables already hold;
    recovery calls this with ``max recovered id + 1`` so fresh tables
    never collide with persisted ones.
    """
    global _next_table_id
    _next_table_id = max(_next_table_id, minimum)


def sort_run(entries: Sequence[Entry]) -> list[Entry]:
    """Sort entries into sstable order: key ascending, version descending."""
    return sorted(entries, key=lambda e: (e.key, (-e.timestamp, -e.seqno)))


class SSTable:
    """An immutable sorted run of entries, and its image.

    Build with :meth:`from_entries` (sorts and validates) or pass
    pre-sorted entries to the constructor; either encodes the image.

    Args:
        entries: Entries in sstable order (see :func:`sort_run`).
        table_id: Unique id; allocated automatically if omitted.
        bloom: A pre-built filter over exactly these entries' keys (a
            restart passes the one its file holds, to avoid a rebuild);
            built from scratch when omitted.
    """

    __slots__ = (
        "table_id",
        "entries",
        "min_key",
        "max_key",
        "bloom",
        "high_ts",
        "opens",
        "probes",
        "_keys",
        "_count",
        "_image",
        "_blocks",
        "_digests",
    )

    def __init__(
        self,
        entries: list[Entry],
        table_id: int | None = None,
        bloom: BloomFilter | None = None,
    ) -> None:
        if not entries:
            raise InvalidConfigError("an sstable must contain at least one entry")
        self.table_id = next_table_id() if table_id is None else table_id
        self.entries = entries
        self.min_key = entries[0].key
        self.max_key = entries[-1].key
        self._keys = keys = [e.key for e in entries]
        self._count = len(entries)
        if bloom is None:
            #: The keys' :func:`~repro.lsm.bloom.key_digest` values, in
            #: table order, as one ``bytes``: hashed once for the filter
            #: and kept for the table's merge.  None on a table whose
            #: filter came with it (adopted, or recovered from its file).
            self._digests = b"".join(map(key_digest, keys))
            bloom = BloomFilter.from_digests(self._digests, BLOOM_FP_RATE)
        else:
            self._digests = None
        self.bloom = bloom
        self.opens = 0
        self.probes = 0
        #: The :mod:`~repro.lsm.sstable_io` image and its fence pointers
        #: ``(first_key, offset, length)``: what goes to disk and over the wire.
        self._image, self._blocks = sstable_io.assemble_image(
            [
                encode_entries(entries[start : start + BLOCK_ENTRIES])
                for start in range(0, len(entries), BLOCK_ENTRIES)
            ],
            keys[::BLOCK_ENTRIES],
            self.max_key,
            self.bloom,
        )

    @classmethod
    def from_entries(cls, entries: Sequence[Entry]) -> "SSTable":
        """Sort arbitrary entries into sstable order and build a table."""
        return cls(sort_run(entries))

    @classmethod
    def adopt(
        cls,
        image: bytes,
        blocks: list[tuple[bytes, int, int]],
        count: int,
        max_key: bytes,
        table_id: int,
        bloom: BloomFilter,
        digests: bytes | None = None,
    ) -> "SSTable":
        """A table over a verified image (:func:`~repro.lsm.sstable_io.decode_sstable`):
        ``blocks`` are its ``(first_key, offset, length)`` fence pointers
        and ``count`` its number of entries.  Nothing is decoded until
        ``entries`` or ``_keys`` is first read (:meth:`__getattr__`).
        ``digests`` are its keys' digests if its builder hashed them (a
        merge output); a received image carries none."""
        table = cls.__new__(cls)
        table.table_id = table_id
        table.min_key = blocks[0][0]
        table.max_key = max_key
        table._count = count
        table.bloom = bloom
        table.opens = table.probes = 0
        table._image = image
        table._blocks = blocks
        table._digests = digests
        return table

    def __getattr__(self, name: str):
        """Python falls back here only for an unset slot: ``high_ts`` (the
        newest timestamp) of a table no merge built, or ``entries`` or
        ``_keys`` of an adopted table that nothing has read yet.  Decode
        its image, held to what adoption read from the index: each block
        starts at its fence key; the count and last key are what ``len``
        and ``max_key`` report."""
        if name == "high_ts":
            self.high_ts = max(e.timestamp for e in self.entries)
            return self.high_ts
        if name not in ("entries", "_keys"):
            raise AttributeError(name)
        view = memoryview(self._image)
        entries: list[Entry] = []
        for first_key, offset, length in self._blocks:
            block = decode_entries(view[offset : offset + length])
            if block[0].key != first_key:
                raise CorruptionError(f"sstable {self.table_id}: block not at its fence key")
            entries += block
        if len(entries) != self._count or entries[-1].key != self.max_key:
            raise CorruptionError(f"sstable {self.table_id}: entries disagree with the index")
        self.entries = entries
        self._keys = [e.key for e in entries]
        return getattr(self, name)

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SSTable(id={self.table_id}, n={self._count}, "
            f"range=[{self.min_key!r}, {self.max_key!r}])"
        )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def key_in_range(self, key: bytes) -> bool:
        """True if ``key`` falls within [min_key, max_key]."""
        return self.min_key <= key <= self.max_key

    def overlaps(self, lo: bytes, hi: bytes) -> bool:
        """True if this table's key range intersects [lo, hi]."""
        return self.min_key <= hi and lo <= self.max_key

    def overlaps_table(self, other: "SSTable") -> bool:
        """True if this table's key range intersects ``other``'s."""
        return self.overlaps(other.min_key, other.max_key)

    def get(self, key: bytes) -> Entry | None:
        """Newest version of ``key`` in this table, or None: the key
        range, then the bloom filter, then the key search."""
        if not (self.key_in_range(key) and self.bloom.might_contain(key)):
            return None
        versions = self.versions(key)
        return versions[0] if versions else None

    def versions(self, key: bytes) -> list[Entry]:
        """All versions of ``key`` in this table, newest first.

        Only the key search: the caller has already checked the key
        range and asked the bloom filter, as
        :func:`~repro.lsm.readpath.lookup` does.
        """
        self.probes += 1
        idx = bisect.bisect_left(self._keys, key)
        out = []
        # Versions are stored newest-first per key, so the *first*
        # occurrence in the run is the newest — found directly with a
        # lower-bound search (a key's versions may span block
        # boundaries, so a per-block search could land on older ones).
        while idx < len(self.entries) and self.entries[idx].key == key:
            out.append(self.entries[idx])
            idx += 1
        return out

    def scan(self, lo: bytes | None = None, hi: bytes | None = None) -> Iterator[Entry]:
        """Iterate entries with lo <= key < hi (None = unbounded).

        Lazy: no work happens (and :attr:`opens` is not incremented)
        until the first entry is requested, so a k-way merge that never
        reaches this table never touches it.
        """
        self.opens += 1
        keys = self._keys
        start = 0 if lo is None else bisect.bisect_left(keys, lo)
        stop = self._count if hi is None else bisect.bisect_left(keys, hi)
        # A slice, not islice: islice would step over the ``start``
        # entries before the range one by one.
        yield from self.entries[start:stop]

    # ------------------------------------------------------------------
    # Splitting (used when an sstable straddles compactor partitions)
    # ------------------------------------------------------------------
    def split_at(self, boundaries: list[bytes]) -> list["SSTable"]:
        """Split this table at the given sorted key boundaries.

        Returns one table per non-empty segment; segment *i* holds keys
        in ``[boundaries[i-1], boundaries[i])`` with open ends at the
        extremes.  Used by the Ingestor when a forwarded sstable spans
        more than one Compactor's range (Section III-C).

        Pieces are sliced directly out of the parent's already-sorted run
        (no per-entry re-accumulation) and encode their own images.
        """
        cuts = [0]
        for bound in boundaries:
            cuts.append(bisect.bisect_left(self._keys, bound))
        cuts.append(len(self.entries))
        pieces: list[SSTable] = []
        for start, stop in zip(cuts, cuts[1:]):
            if stop > start:
                pieces.append(SSTable(self.entries[start:stop]))
        return pieces
