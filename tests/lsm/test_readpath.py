"""The one read path (`repro.lsm.readpath`): unit cases for its stop
rule, version resolution and probe count, then a seeded differential
against the hand-rolled lookups and scans it replaced — whose
bodies are kept here, verbatim, as the reference implementations."""

import random
from dataclasses import replace

import pytest

from repro.core import MONOLITH
from repro.core.messages import RangeQuery, RangeQueryReply
from repro.lsm.entry import Entry, encode_key
from repro.lsm.iterators import dedup_newest, k_way_merge, level_scan
from repro.lsm.manifest import LevelEdit, Manifest
from repro.lsm.readpath import level_groups, level_sources, live_pairs, lookup
from repro.lsm.sstable import SSTable

from tests.conftest import entry
from tests.core.conftest import TINY, tiny_cluster
from tests.lsm.reftree import RefTree

KEY = encode_key(5)


def table(*entries):
    return SSTable.from_entries(list(entries))


# ----------------------------------------------------------------------
# (a) unit cases
# ----------------------------------------------------------------------
class TestLookup:
    def test_older_group_is_never_consulted_after_a_hit(self):
        newer, older = table(entry(5, 9)), table(entry(5, 1))
        found, probes = lookup(KEY, [[newer], [older]])
        assert (found.seqno, probes) == (9, 1)
        assert (newer.probes, older.probes) == (1, 0)

    def test_lazy_groups_past_the_hit_are_never_produced(self):
        produced = []

        def groups():
            for t in (table(entry(5, 9)), table(entry(5, 1))):
                produced.append(t)
                yield [t]

        lookup(KEY, groups())
        assert len(produced) == 1

    def test_a_miss_falls_through_to_the_next_group(self):
        found, probes = lookup(KEY, [[table(entry(4, 9), entry(6, 9))], [table(entry(5, 1))]])
        # The first table's range admits key 5; its bloom filter may or
        # may not — either way the older group answers.
        assert found.seqno == 1
        assert probes in (1, 2)

    @pytest.mark.parametrize("flip", [False, True])
    def test_inside_a_group_the_higher_version_wins_wherever_it_sits(self, flip):
        group = [table(entry(5, 2)), table(entry(5, 7)), table(entry(5, 4))]
        if flip:
            group.reverse()
        found, probes = lookup(KEY, [group, [table(entry(5, 1))]])
        assert (found.seqno, probes) == (7, 3)

    def test_as_of_visits_every_group_and_takes_newest_at_or_below(self):
        groups = [
            [table(entry(5, 9, ts=9.0))],
            [table(entry(5, 6, ts=6.0), entry(5, 3, ts=3.0))],
            [table(entry(5, 1, ts=1.0))],
        ]
        found, probes = lookup(KEY, groups, as_of=7.0)
        assert (found.seqno, probes) == (6, 3)
        found, probes = lookup(KEY, groups, as_of=3.5)
        assert (found.seqno, probes) == (3, 3)
        assert lookup(KEY, groups, as_of=0.5) == (None, 3)

    def test_buffered_hit_probes_nothing(self):
        older = table(entry(5, 1))
        found, probes = lookup(KEY, [[older]], buffered=[entry(5, 8), entry(5, 2)])
        assert (found.seqno, probes, older.probes) == (8, 0, 0)

    def test_buffered_version_above_as_of_is_skipped(self):
        found, probes = lookup(
            KEY, [[table(entry(5, 1, ts=1.0))]], buffered=[entry(5, 8, ts=8.0)], as_of=2.0
        )
        assert (found.seqno, probes) == (1, 1)

    def test_bloom_false_positive_is_a_probe_without_an_entry(self):
        keys = [k for k in range(0, 4_000, 2)]
        run = SSTable([entry(k) for k in keys])
        absent = next(
            encode_key(k)
            for k in range(1, 4_000, 2)
            if run.bloom.might_contain(encode_key(k))
        )
        assert lookup(absent, [[run]]) == (None, 1)
        assert run.probes == 1

    def test_out_of_range_table_is_not_a_probe(self):
        assert lookup(KEY, [[table(entry(7, 1), entry(9, 1))]]) == (None, 0)


def two_level_manifest(overlapping):
    manifest = Manifest(2, overlapping_levels=frozenset(overlapping))
    upper = [table(*(entry(k, 2) for k in range(lo, lo + 10))) for lo in (0, 10, 20)]
    lower = [table(*(entry(k, 1) for k in range(lo, lo + 15))) for lo in (0, 15)]
    if 0 in overlapping:
        upper.append(table(*(entry(k, 3) for k in range(5, 25))))
    manifest.apply(LevelEdit().add(0, upper).add(1, lower))
    return manifest


class TestLevelHelpers:
    def test_level_groups_bisects_only_the_levels_reached(self):
        manifest = two_level_manifest(overlapping=())
        groups = level_groups(manifest, encode_key(12), (0, 1))
        assert [t.min_key for t in next(groups)] == [encode_key(10)]
        assert manifest._indexes[1] is None  # level 1 not looked at yet
        assert [t.min_key for t in next(groups)] == [encode_key(0)]

    def test_level_sources_one_per_disjoint_level_one_per_overlapping_run(self):
        assert len(level_sources(two_level_manifest(()), (0, 1), None, None)) == 2
        stacked = two_level_manifest(overlapping=(0,))
        assert len(level_sources(stacked, (0, 1), None, None)) == 4 + 1
        lo, hi = encode_key(0), encode_key(5)
        assert len(level_sources(stacked, (0, 1), lo, hi)) == 1 + 1
        assert level_sources(stacked, (0, 1), encode_key(90), None) == []

    def test_live_pairs_newest_wins_tombstones_elided_limit_applied(self):
        newer = [entry(1, 5), entry(2, 5, tombstone=True), entry(4, 5)]
        older = [entry(1, 1), entry(2, 1), entry(3, 1)]

        def keys(limit):
            return [k for k, __ in live_pairs([newer, older], limit)]

        assert keys(None) == [encode_key(k) for k in (1, 3, 4)]
        assert keys(2) == [encode_key(k) for k in (1, 3)]
        assert keys(0) == keys(-3) == []
        assert dict(live_pairs([newer, older]))[encode_key(1)] == newer[0].value

    def test_live_pairs_pulls_no_more_than_the_limit_needs(self):
        run = SSTable([entry(k) for k in range(100)])
        pulled = []

        def spy():
            for e in run.scan():
                pulled.append(e)
                yield e

        assert len(list(live_pairs([spy()], 3))) == 3
        assert len(pulled) <= 4  # dedup looks one entry ahead, never further


# ----------------------------------------------------------------------
# (b) the parent commit's bodies, verbatim (``self`` is the live node)
# ----------------------------------------------------------------------
def _ingestor_visible(versions, as_of):
    if as_of is None:
        return versions[:1]
    return [v for v in versions if v.timestamp <= as_of]


def old_ingestor_search_local(self, key, as_of):
    probes = 0
    candidates: list[Entry] = []
    candidates.extend(_ingestor_visible(self._memtable.versions(key), as_of))
    for table in reversed(self.level0):
        if table.key_in_range(key) and table.bloom.might_contain(key):
            probes += 1
            candidates.extend(_ingestor_visible(table.versions(key), as_of))
            if candidates and as_of is None:
                break  # L0 newest-first: first hit wins
    # L1 is non-overlapping: the manifest's fence index bisects to
    # the single candidate table instead of scanning the level.
    search_l1 = self.manifest.tables_for_key(1, key)
    inflight = [
        t
        for batch in self._in_flight.values()
        for t in batch
        if t.key_in_range(key)
    ]
    for table in search_l1 + inflight:
        if table.bloom.might_contain(key):
            probes += 1
            candidates.extend(_ingestor_visible(table.versions(key), as_of))
    if not candidates:
        return None, probes
    return max(candidates, key=lambda e: e.version), probes


def old_ingestor_handle_range_query(self, src, request):
    self.stats.reads += 1
    yield from self.compute(self.config.costs.read_base)
    sources: list = [self._memtable.range(request.lo, request.hi)]
    local_tables = (
        list(reversed(self.level0))
        + list(self.level1)
        + [t for batch in self._in_flight.values() for t in batch]
    )
    for table in local_tables:
        if table.overlaps(request.lo, request.hi):
            sources.append(table.scan(request.lo, request.hi))
    # Fan out to every partition the range touches (all members of
    # overlapping groups, newest version wins).
    partitions = self.partitioning.partitions_for_range(request.lo, request.hi)
    members = [m for p in partitions for m in p.members]
    calls = [
        self.kernel.spawn(self._call_retry(m, "range_query", request))
        for m in members
    ]
    replies = yield self.kernel.all_of(calls)
    remote_by_key: dict[bytes, list[tuple[bytes, bytes]]] = {}
    for reply in replies:
        for key, value in reply.pairs:
            remote_by_key.setdefault(key, []).append((key, value))
    pairs: list[tuple[bytes, bytes]] = []
    local_merged = list(dedup_newest(k_way_merge(sources)))
    # Local levels are strictly fresher than the Compactors for any
    # key they contain (single-Ingestor deployments), so local wins.
    combined: dict[bytes, bytes | None] = {}
    for key, versions in remote_by_key.items():
        combined[key] = versions[0][1]
    for entry in local_merged:
        combined[entry.key] = None if entry.tombstone else entry.value
    for key in sorted(combined):
        value = combined[key]
        if value is None:
            continue
        pairs.append((key, value))
        if request.limit is not None and len(pairs) >= request.limit:
            break
    yield from self.compute(len(pairs) * self.config.costs.scan_per_entry)
    return RangeQueryReply(tuple(pairs))


def old_compactor_search(self, key, as_of):
    L2, L3 = 0, 1
    probes = 0
    candidates: list[Entry] = []
    for level in (L2, L3):
        # The fence index bisects to the candidate tables: exactly
        # one for a non-overlapping level, one per covering run for
        # a stacked level (version order resolves among them).
        for table in self.manifest.tables_for_key(level, key):
            if table.bloom.might_contain(key):
                probes += 1
                versions = table.versions(key)
                if as_of is not None:
                    versions = [v for v in versions if v.timestamp <= as_of]
                candidates.extend(versions[:1])
        if candidates and as_of is None:
            break  # L2 strictly newer than L3 for the same key
    if not candidates:
        return None, probes
    return max(candidates, key=lambda e: e.version), probes


def old_compactor_handle_range_query(self, src, request):
    L2, L3 = 0, 1
    self.stats.reads += 1
    yield from self.compute(self.config.costs.read_base)
    # A non-overlapping level becomes one lazy chained stream; a
    # stacked (tiered) level contributes one cursor per run, since
    # chaining overlapping tables would break sort order.  With a
    # limit the merge stops after O(limit) entries either way.
    overlapping = self.manifest.overlapping_levels
    sources = []
    for level in (L2, L3):
        run = self.manifest.tables_for_range(level, request.lo, request.hi)
        if not run:
            continue
        if level in overlapping:
            sources.extend(t.scan(request.lo, request.hi) for t in run)
        else:
            sources.append(level_scan(run, request.lo, request.hi))
    pairs: list[tuple[bytes, bytes]] = []
    for entry in dedup_newest(k_way_merge(sources)):
        if entry.tombstone:
            continue
        pairs.append((entry.key, entry.value))
        if request.limit is not None and len(pairs) >= request.limit:
            break
    yield from self.compute(len(pairs) * self.config.costs.scan_per_entry)
    return RangeQueryReply(tuple(pairs))


def _reader_visible(versions, as_of):
    if as_of is not None:
        versions = [v for v in versions if v.timestamp <= as_of]
    return versions[:1]


def old_reader_search(self, key, as_of):
    _L2, _L3 = 0, 1
    probes = 0
    candidates: list[Entry] = []
    fresh_tables = [t for run in self.fresh_area.values() for t in run]
    for table in fresh_tables:
        if table.key_in_range(key) and table.bloom.might_contain(key):
            probes += 1
            candidates.extend(_reader_visible(table.versions(key), as_of))
    # Each area's fence index narrows the level to the tables whose
    # range contains the key (areas are overlap-tolerant, so this
    # can be more than one); resolution stays purely by version.
    for level in (_L2, _L3):
        for area in self._areas.values():
            for table in area.tables_for_key(level, key):
                if table.bloom.might_contain(key):
                    probes += 1
                    candidates.extend(_reader_visible(table.versions(key), as_of))
    if not candidates:
        return None, probes
    return max(candidates, key=lambda e: e.version), probes


def old_reader_scan_pairs(self, lo, hi, limit=None):
    _L2, _L3 = 0, 1
    fresh_tables = [t for run in self.fresh_area.values() for t in run]
    sources = [t.scan(lo, hi) for t in fresh_tables]
    for area in self._areas.values():
        for level in (_L2, _L3):
            for table in area.tables_for_range(level, lo, hi):
                sources.append(table.scan(lo, hi))
    pairs: list[tuple[bytes, bytes]] = []
    for entry in dedup_newest(k_way_merge(sources)):
        if entry.tombstone:
            continue
        pairs.append((entry.key, entry.value))
        if limit is not None and len(pairs) >= limit:
            break
    return pairs


def old_tree_get_entry(self, key):
    encoded = encode_key(key)
    best = self._memtable.get(encoded)
    for table in reversed(self.manifest.level(0)):
        found = table.get(encoded)
        if found is not None and (best is None or found.version > best.version):
            best = found
        if best is not None:
            # L0 tables are newest-first; the first hit wins unless the
            # memtable already had a newer one.
            break
    if best is not None:
        return best
    for level in range(1, self.manifest.num_levels):
        # A non-overlapping level has at most one candidate; an
        # overlapping (tiered) level may hold several versions, so
        # the newest across the level's runs wins.  Either way, data
        # only moves downward, so the first level with a hit is it.
        for table in self.manifest.tables_for_key(level, encoded):
            found = table.get(encoded)
            if found is not None and (best is None or found.version > best.version):
                best = found
        if best is not None:
            return best
    return None


def old_tree_scan(self, lo=None, hi=None):
    lo_b = encode_key(lo) if lo is not None else None
    hi_b = encode_key(hi) if hi is not None else None

    sources: list = [self._memtable.range(lo_b, hi_b)]
    for table in reversed(self.manifest.level(0)):
        if (hi_b is None or table.min_key < hi_b) and (
            lo_b is None or table.max_key >= lo_b
        ):
            sources.append(table.scan(lo_b, hi_b))
    overlapping = self.manifest.overlapping_levels
    for level in range(1, self.manifest.num_levels):
        run = self.manifest.tables_for_range(level, lo_b, hi_b)
        if not run:
            continue
        if level in overlapping:
            # Tiered level: runs overlap, so each table is its own
            # merge source (chaining would break sort order).
            sources.extend(t.scan(lo_b, hi_b) for t in run)
        else:
            sources.append(level_scan(run, lo_b, hi_b))
    for entry in dedup_newest(k_way_merge(sources)):
        if not entry.tombstone:
            yield entry.key, entry.value


# ----------------------------------------------------------------------
# (b) the differential
# ----------------------------------------------------------------------
KEYS = 1_800
LIMITS = (1, 7, None)

#: (policy, ingestors, readers): the default shape, a POLICY_SHAPES
#: tiering shape, a stacked-L2 shape with a Reader, and a multi-Ingestor
#: shape (versions retained, so timestamped reads have something to pick).
SHAPES = [
    ("leveling", 1, 1),
    ("tiering", 1, 0),
    ("lazy_leveling", 1, 1),
    ("leveling", 2, 1),
]


def load(client, start, count):
    """Two writes in three sweep the key space; the third rewrites one
    of 40 hot keys, so the same key sits in several layers at once."""
    for i in range(start, start + count):
        key = (i * 7) % KEYS if i % 3 else (i * 13) % 40
        if i % 9 == 4:
            yield from client.delete(key)
        else:
            yield from client.upsert(key, b"v-%d" % i)


def filled_cluster(policy, ingestors, readers, compactor_down):
    """A cluster with data at every layer.  With ``compactor_down`` the
    second Compactor crashed before the last writes, so the Ingestor
    still holds the tables it forwarded there (nothing is quiescent:
    only synchronous reads may follow).  Otherwise everything drained,
    and the Ingestor's in-flight set is staged as "merged at the
    Compactor, ack still on the wire"."""
    cluster = tiny_cluster(
        config=replace(TINY, compaction_policy=policy),
        num_ingestors=ingestors,
        num_readers=readers,
    )
    client = cluster.add_client(colocate_with="ingestor-0")
    cluster.run_process(load(client, 0, 2_500))
    cluster.run()
    ingestor = cluster.ingestors[0]
    if compactor_down:
        cluster.compactors[1].crash()
        cluster.run_process(load(client, 2_500, 150))
        assert ingestor.level0 and ingestor.level1 and len(ingestor._memtable)
    else:
        cluster.run_process(load(client, 2_500, 90))
        cluster.run()
        ingestor._in_flight[-1] = list(cluster.compactors[1].level2[:3])
    assert ingestor._in_flight
    return cluster


def read_points(tables, rng):
    """Keys (present and absent) and read timestamps drawn from the
    versions the tables hold, plus one before and one after them all."""
    stamps = sorted({e.timestamp for t in tables for e in t.entries})
    keys = [encode_key(k) for k in range(40)]  # the hot keys of ``load``
    keys += [encode_key(rng.randrange(KEYS + 50)) for __ in range(150)]
    as_of = [None, stamps[0] - 1.0, stamps[-1] + 1.0]
    as_of += [rng.choice(stamps) for __ in range(3)]
    return keys, as_of


def ranges(rng):
    yield encode_key(0), encode_key(KEYS + 50)
    for __ in range(8):
        lo = rng.randrange(KEYS)
        yield encode_key(lo), encode_key(lo + rng.randrange(1, 400))


@pytest.mark.parametrize("policy,ingestors,readers", SHAPES)
class TestRolesMatchTheDeletedBodies:
    def test_point_lookups(self, policy, ingestors, readers):
        cluster = filled_cluster(policy, ingestors, readers, compactor_down=True)
        rng = random.Random(21)
        ingestor = cluster.ingestors[0]
        inflight = [t for batch in ingestor._in_flight.values() for t in batch]
        keys, stamps = read_points(ingestor.level0 + ingestor.level1 + inflight, rng)
        saved = 0
        for key in keys:
            for as_of in stamps:
                old_entry, old_probes = old_ingestor_search_local(ingestor, key, as_of)
                new_entry, new_probes = ingestor._search_local(key, as_of)
                assert new_entry == old_entry
                if as_of is None:
                    assert new_probes <= old_probes
                    saved += old_probes - new_probes
                else:
                    assert new_probes == old_probes
        assert saved > 0, "the early stop never fired: shape too shallow"
        for node, old_search in [(c, old_compactor_search) for c in cluster.compactors] + [
            (r, old_reader_search) for r in cluster.readers
        ]:
            keys, stamps = read_points(node.manifest.level(0) + node.manifest.level(1), rng)
            for key in keys:
                for as_of in stamps:
                    assert node._search(key, as_of) == old_search(node, key, as_of)

    def test_scans(self, policy, ingestors, readers):
        cluster = filled_cluster(policy, ingestors, readers, compactor_down=False)
        rng = random.Random(22)
        handlers = [(cluster.ingestors[0], old_ingestor_handle_range_query)]
        handlers += [(c, old_compactor_handle_range_query) for c in cluster.compactors]
        answered = 0
        for lo, hi in ranges(rng):
            for limit in LIMITS:
                for reader in cluster.readers:
                    expected = old_reader_scan_pairs(reader, lo, hi, limit)
                    assert reader.scan_pairs(lo, hi, limit) == expected
                request = RangeQuery(lo, hi, limit)
                for node, old_handler in handlers:
                    old = cluster.run_process(old_handler(node, "test", request))
                    new = cluster.run_process(node._handle_range_query("test", request))
                    assert new == old
                    answered += bool(new.pairs)
        assert answered, "every scan came back empty: nothing was compared"


@pytest.mark.parametrize("policy", ["leveling", "tiering", "lazy_leveling", "one_leveling"])
class TestTreeMatchesTheDeletedBodies:
    def build(self, policy):
        # No cache, so SSTable.probes counts every block search.
        tree = RefTree(60, 25, (3, 3, 10, 100), policy)
        rng = random.Random(23)
        for i in range(4_000):
            key = rng.randrange(700)
            if i % 11 == 3:
                tree.delete(key)
            else:
                tree.put(key, b"v-%d" % i)
        return tree

    def test_point_lookups(self, policy):
        tree = self.build(policy)
        rng = random.Random(24)
        levels = range(tree.manifest.num_levels)
        tables = [t for level in levels for t in tree.manifest.level(level)]
        for __ in range(300):
            key = rng.randrange(760)
            searched = sum(t.probes for t in tables)
            entry, probes = tree.lookup(key)
            # What a role charges is what was searched.
            assert probes == sum(t.probes for t in tables) - searched
            assert entry == old_tree_get_entry(tree, key)

    def test_scans(self, policy):
        tree = self.build(policy)
        rng = random.Random(25)
        bounds = [(None, None)]
        for __ in range(10):
            lo = rng.randrange(700)
            bounds.append((lo, lo + rng.randrange(1, 200)))
        for lo, hi in bounds:
            expected = list(old_tree_scan(tree, lo, hi))
            assert list(tree.scan(lo, hi)) == expected
            for limit in (1, 7):
                assert list(tree.scan(lo, hi, limit)) == expected[:limit]


# ----------------------------------------------------------------------
# RangeQuery.limit arrives off the wire
# ----------------------------------------------------------------------
def _monolith():
    """The single-machine deployment, scanned through its Ingestor."""
    cluster = tiny_cluster(num_compactors=1, placement=MONOLITH)
    client = cluster.add_client(colocate_with="ingestor-0")
    cluster.run_process(load(client, 0, 1_200))
    cluster.run()
    return cluster, cluster.ingestors[0]


def _reader():
    cluster = filled_cluster("leveling", 1, 1, compactor_down=False)
    return cluster, cluster.readers[0]


def _compactor_without_readers():
    cluster = filled_cluster("leveling", 1, 0, compactor_down=False)
    return cluster, cluster.compactors[0]


def _ingestor():
    cluster = filled_cluster("leveling", 1, 0, compactor_down=False)
    return cluster, cluster.ingestors[0]


@pytest.mark.parametrize("build", [_reader, _compactor_without_readers, _ingestor, _monolith])
def test_range_query_limit_is_a_prefix_of_the_unlimited_answer(build):
    cluster, node = build()

    def ask(limit):
        request = RangeQuery(encode_key(0), encode_key(KEYS), limit)
        return cluster.run_process(node._handle_range_query("test", request)).pairs

    everything = ask(None)
    assert len(everything) > 7
    for limit in (0, 1, 7):
        assert ask(limit) == everything[:limit]
    assert ask(-3) == ()
