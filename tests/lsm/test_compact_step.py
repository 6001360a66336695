"""One compaction step: ``pick_tables`` + ``compact_step`` over policy rows.

Three parts: (a) units on the two functions and on ``stacked_levels``;
(b) a seeded differential against the bodies they replaced — the four
policy classes' ``compact_tree`` / ``minor_plan`` / ``select_forward`` /
``select_l2_overflow`` and the Compactor's ``_compact_into_l2`` /
``_compact_l2_overflow_into_l3``, kept here as the reference — merging
verbatim, shipping their edits through the Compactor's one update
builder (the standalone tree's rows, deleted with that tree, are kept
here too, as :data:`TREE_ROWS`: the cascade differential runs them on
the test-local :class:`~tests.lsm.reftree.RefTree`);
(c) a structural check that no other merge site grows back in ``src/``.
"""

import ast
import pathlib
import random
import types
from dataclasses import replace

import pytest

from repro.core.compactor import L2, L3, CompactionTiming
from repro.lsm.compaction import (
    NEWEST_WINS,
    KeepPolicy,
    compact_step,
    major_compaction,
    merge_tables,
    pick_tables,
    select_overflow_rotating,
)
from repro.lsm.entry import encode_key
from repro.lsm.manifest import LevelEdit
from repro.lsm.policy import POLICIES, POLICY_NAMES, Step, stacked_levels
from repro.lsm.sstable import SSTable

from tests.conftest import entry
from tests.core.conftest import TINY, tiny_cluster
from tests.lsm.reftree import BOTTOM, RefTree


def table_of(keys, seqno=1, tombstone=False):
    return SSTable.from_entries(
        [entry(k, seqno + i, tombstone=tombstone) for i, k in enumerate(keys)]
    )


def contents(tables):
    """What a list of tables holds, table ids aside."""
    return [(t.min_key, t.max_key, len(t), tuple(t.entries)) for t in tables]


# ----------------------------------------------------------------------
# (a) units
# ----------------------------------------------------------------------
class TestCompactStep:
    def test_stack_leaves_the_target_untouched(self):
        picked = [table_of(range(0, 10), seqno=100)]
        target = [table_of(range(0, 10)), table_of(range(5, 15))]
        before = list(target)
        result, replaced = compact_step(picked, target, "stack", run_size=100)
        assert replaced == []
        assert target == before
        assert contents(result.tables) == contents(picked)

    def test_fold_replaces_the_whole_target_even_where_disjoint(self):
        picked = [table_of(range(0, 5), seqno=100)]
        target = [table_of(range(50, 55)), table_of(range(90, 95))]
        result, replaced = compact_step(picked, target, "fold", run_size=100)
        assert replaced == target
        assert sum(len(t) for t in result.tables) == 15

    def test_merge_replaces_exactly_the_overlapping_tables(self):
        picked = [table_of([10, 11], seqno=100)]
        target = [table_of([0, 5]), table_of([10, 15]), table_of([20, 25])]
        result, replaced = compact_step(picked, target, "merge", run_size=100)
        assert replaced == [target[1]]
        assert result.stats.overlap_tables == 1
        assert [e.key for t in result.tables for e in t.entries] == [
            encode_key(k) for k in (10, 11, 15)
        ]

    @pytest.mark.parametrize("move", ["fold", "merge", "stack"])
    def test_tombstones_dropped_only_under_a_dropping_keep_policy(self, move):
        picked = [table_of([1, 2], seqno=100, tombstone=True)]
        target = [table_of([1, 2, 3])]
        kept, __ = compact_step(picked, target, move, run_size=100)
        assert any(e.tombstone for t in kept.tables for e in t.entries)
        dropped, __ = compact_step(
            picked, target, move, 100, KeepPolicy(drop_tombstones=True)
        )
        assert not any(e.tombstone for t in dropped.tables for e in t.entries)

    def test_unknown_move_rejected(self):
        with pytest.raises(ValueError):
            compact_step([], [], "shuffle", run_size=10)


class TestPickTables:
    RUN = [table_of([k, k + 1]) for k in (0, 10, 20, 30)]

    @pytest.mark.parametrize("pick", ["all", "rotating", "oldest"])
    def test_nothing_at_or_under_threshold(self, pick):
        assert pick_tables(self.RUN, 4, b"ptr", pick) == ([], b"ptr")
        assert pick_tables(self.RUN, 9, None, pick) == ([], None)
        assert pick_tables([], 0, None, pick) == ([], None)

    def test_all_is_the_whole_level_newest_first(self):
        picked, pointer = pick_tables(self.RUN, 1, b"ptr", "all")
        assert picked == self.RUN[::-1] and pointer == b"ptr"

    def test_oldest_is_the_list_prefix(self):
        picked, pointer = pick_tables(self.RUN, 1, None, "oldest")
        assert picked == self.RUN[:3] and pointer is None

    def test_rotating_advances_and_wraps_the_pointer(self):
        picked, pointer = pick_tables(self.RUN, 3, None, "rotating")
        assert picked == [self.RUN[0]] and pointer == self.RUN[0].max_key
        picked, pointer = pick_tables(self.RUN, 3, pointer, "rotating")
        assert picked == [self.RUN[1]] and pointer == self.RUN[1].max_key
        picked, pointer = pick_tables(self.RUN, 2, self.RUN[2].max_key, "rotating")
        assert picked == [self.RUN[3], self.RUN[0]]  # wrapped past the end
        picked, pointer = pick_tables(self.RUN, 3, self.RUN[2].max_key, "rotating")
        assert picked == [self.RUN[3]] and pointer is None  # sweep restarts

    def test_unknown_pick_rejected(self):
        with pytest.raises(ValueError):
            pick_tables(self.RUN, 1, None, "random")


_FOLD = Step("all", "fold")
_TIER = Step("all", "stack")
_BOTTOM_RUN = Step("all", "merge", bottom=True)

#: The deleted standalone tree's rows: policy -> rows of an n-level tree.
TREE_ROWS = {
    "leveling": lambda n: (_FOLD,)
    + tuple(Step("rotating", "merge", bottom=lvl + 2 == n) for lvl in range(1, n - 1)),
    "tiering": lambda n: (_TIER,) * (n - 1),
    "lazy_leveling": lambda n: (_TIER,) * (n - 2) + (_BOTTOM_RUN,),
    "one_leveling": lambda n: (_BOTTOM_RUN,),
}

#: The twelve hand-written overlapping-level sets the rows replaced:
#: policy -> (tree_overlapping(4), ingestor_overlapping(),
#: compactor_overlapping()).
DELETED_OVERLAPPING_SETS = {
    "leveling": ({0}, {0}, set()),
    "tiering": ({0, 1, 2, 3}, {0, 1}, {0, 1}),
    "lazy_leveling": ({0, 1, 2}, {0, 1}, {0}),
    "one_leveling": ({0}, {0}, set()),
}


class TestPolicyRows:
    def test_policy_names_are_the_sorted_table_keys(self):
        assert POLICY_NAMES == tuple(sorted(POLICIES))
        assert all(POLICIES[name].name == name for name in POLICIES)

    @pytest.mark.parametrize("name", sorted(DELETED_OVERLAPPING_SETS))
    def test_stacked_levels_reproduces_the_deleted_sets(self, name):
        policy = POLICIES[name]
        tree, ingestor, compactor = DELETED_OVERLAPPING_SETS[name]
        assert stacked_levels(TREE_ROWS[name](4), range(4)) == tree
        assert stacked_levels(policy.pipeline, range(0, 2)) == ingestor
        assert stacked_levels(policy.pipeline, range(2, 4)) == compactor

    @pytest.mark.parametrize("name", sorted(POLICIES))
    @pytest.mark.parametrize("num_levels", [2, 3, 4, 6])
    def test_tree_rows_end_at_the_bottom(self, name, num_levels):
        # The reference rows the cascade differential runs are well formed.
        rows = TREE_ROWS[name](num_levels)
        assert 1 <= len(rows) <= num_levels - 1
        assert all(isinstance(row, Step) for row in rows)
        # Only a merge into the tree's last populated level may drop
        # tombstones, and a stacked run never covers its level.
        assert not any(row.bottom for row in rows[:-1])
        assert not any(row.bottom and row.move == "stack" for row in rows)


# ----------------------------------------------------------------------
# (b) the deleted bodies, verbatim, as the reference
# ----------------------------------------------------------------------
def minor_compaction(l0_tables, l1_tables, run_size, policy=KeepPolicy()):
    return merge_tables(list(l0_tables) + list(l1_tables), run_size, policy)


def _stack_oldest(tables, threshold, pointer):
    excess = len(tables) - threshold
    if excess <= 0:
        return [], pointer
    return list(tables)[:excess], pointer


class RefLevelingPolicy:
    name = "leveling"
    merges_on_absorb = True
    l2_is_bottom = False
    overflow_enabled = True
    merges_on_overflow = True

    def compact_tree(self, tree):
        config = tree.config
        manifest = tree.manifest
        # Minor compaction: tiering of L0 + L1 into a fresh L1 run.
        if len(manifest.level(0)) > config.level_thresholds[0]:
            l0 = list(reversed(manifest.level(0)))  # newest first
            l1 = manifest.level(1)
            result = minor_compaction(
                l0, l1, config.sstable_entries, tree._effective_keep_policy()
            )
            edit = LevelEdit().remove(0, l0).remove(1, list(l1)).add(1, result.tables)
            manifest.apply(edit)
            tree._record_compaction(1, result.stats)
        # Major compactions: leveling, cascading down while over threshold.
        for level in range(1, config.num_levels - 1):
            threshold = config.level_thresholds[level]
            tables = manifest.level(level)
            if threshold == 0 or len(tables) <= threshold:
                continue
            kept, overflow, tree._compaction_pointers[level] = select_overflow_rotating(
                tables, threshold, tree._compaction_pointers[level]
            )
            is_bottom_target = level + 1 == config.num_levels - 1
            policy = tree._effective_keep_policy(bottom=is_bottom_target)
            result, untouched = major_compaction(
                overflow,
                manifest.level(level + 1),
                config.sstable_entries,
                policy,
            )
            removed_next = [
                t for t in manifest.level(level + 1)
                if t not in untouched
            ]
            edit = (
                LevelEdit()
                .remove(level, overflow)
                .remove(level + 1, removed_next)
                .add(level + 1, result.tables)
            )
            manifest.apply(edit)
            tree._record_compaction(level + 1, result.stats)

    def minor_plan(self, l0_newest_first, l1_tables):
        # Tiering: everything in both levels merges into a fresh L1 run.
        return list(l0_newest_first) + list(l1_tables), list(l1_tables)

    def select_forward(self, l1_tables, threshold, pointer):
        _kept, overflow, new_pointer = select_overflow_rotating(
            list(l1_tables), threshold, pointer
        )
        return overflow, new_pointer

    def select_l2_overflow(self, l2_tables, threshold, pointer):
        _kept, overflow, new_pointer = select_overflow_rotating(
            list(l2_tables), threshold, pointer
        )
        return overflow, new_pointer


class RefTieringPolicy:
    name = "tiering"
    merges_on_absorb = False
    l2_is_bottom = False
    overflow_enabled = True
    merges_on_overflow = False

    def _tier_level_down(self, tree, level):
        config = tree.config
        tables = list(tree.manifest.level(level))
        result = merge_tables(
            list(reversed(tables)),  # newest run first
            config.sstable_entries,
            tree._effective_keep_policy(),
        )
        edit = LevelEdit().remove(level, tables).add(level + 1, result.tables)
        tree.manifest.apply(edit)
        tree._record_compaction(level + 1, result.stats)

    def compact_tree(self, tree):
        config = tree.config
        for level in range(config.num_levels - 1):
            threshold = config.level_thresholds[level]
            if threshold == 0 or len(tree.manifest.level(level)) <= threshold:
                continue
            self._tier_level_down(tree, level)

    def minor_plan(self, l0_newest_first, l1_tables):
        # Only L0 merges; the output stacks on L1 as a new run.
        return list(l0_newest_first), []

    def select_forward(self, l1_tables, threshold, pointer):
        return _stack_oldest(list(l1_tables), threshold, pointer)

    def select_l2_overflow(self, l2_tables, threshold, pointer):
        # Merge-whole-level: every L2 run moves down together.
        return list(l2_tables), pointer


class RefLazyLevelingPolicy(RefTieringPolicy):
    name = "lazy_leveling"
    merges_on_absorb = False
    l2_is_bottom = False
    overflow_enabled = True
    merges_on_overflow = True

    def compact_tree(self, tree):
        config = tree.config
        bottom = config.num_levels - 1
        for level in range(config.num_levels - 1):
            threshold = config.level_thresholds[level]
            tables = list(tree.manifest.level(level))
            if threshold == 0 or len(tables) <= threshold:
                continue
            if level + 1 < bottom:
                self._tier_level_down(tree, level)
                continue
            # Leveled merge of the penultimate level into the bottom run.
            result, untouched = major_compaction(
                list(reversed(tables)),
                tree.manifest.level(bottom),
                config.sstable_entries,
                tree._effective_keep_policy(bottom=True),
            )
            removed_next = [
                t for t in tree.manifest.level(bottom) if t not in untouched
            ]
            edit = (
                LevelEdit()
                .remove(level, tables)
                .remove(bottom, removed_next)
                .add(bottom, result.tables)
            )
            tree.manifest.apply(edit)
            tree._record_compaction(bottom, result.stats)


class RefOneLevelingPolicy(RefLevelingPolicy):
    name = "one_leveling"
    l2_is_bottom = True
    overflow_enabled = False

    def compact_tree(self, tree):
        config = tree.config
        if len(tree.manifest.level(0)) <= config.level_thresholds[0]:
            return
        l0 = list(reversed(tree.manifest.level(0)))  # newest first
        # L1 is the bottom: leveled merge, tombstones dropped.
        result, untouched = major_compaction(
            l0,
            tree.manifest.level(1),
            config.sstable_entries,
            tree._effective_keep_policy(bottom=True),
        )
        removed_next = [t for t in tree.manifest.level(1) if t not in untouched]
        edit = (
            LevelEdit()
            .remove(0, l0)
            .remove(1, removed_next)
            .add(1, result.tables)
        )
        tree.manifest.apply(edit)
        tree._record_compaction(1, result.stats)

    def select_l2_overflow(self, l2_tables, threshold, pointer):
        # L2 never overflows: it is the bottom level.
        return [], pointer


REFERENCE = {
    cls.name: cls()
    for cls in (
        RefLevelingPolicy,
        RefTieringPolicy,
        RefLazyLevelingPolicy,
        RefOneLevelingPolicy,
    )
}


class OldCascadeTree(RefTree):
    """A tree whose cascade is the deleted ``compact_tree`` of its
    policy, reading the tree through the names those bodies used."""

    @property
    def config(self):
        return types.SimpleNamespace(
            level_thresholds=self.thresholds,
            num_levels=self.manifest.num_levels,
            sstable_entries=self.sstable_entries,
        )

    @property
    def _compaction_pointers(self):
        return self.pointers

    def _effective_keep_policy(self, bottom=False):
        return BOTTOM if bottom else NEWEST_WINS

    def cascade(self):
        REFERENCE[self.policy].compact_tree(self)

    def _record_compaction(self, level, stats):
        self.compactions.append((level, stats))


def ref_process_forward_section(self, tables):
    """``Compactor._process_forward``'s critical section at the parent."""
    yield self._merge_lock.request()
    try:
        merged = yield from ref_compact_into_l2(self, tables)
        if (
            self._policy.overflow_enabled
            and len(self.level2) > self.config.l2_threshold
        ):
            yield from ref_compact_l2_overflow_into_l3(self)
    finally:
        self._merge_lock.release()
    return merged


def ref_compact_into_l2(self, incoming):
    started = self.kernel.now
    l2_before = list(self.level2)
    if self._policy.merges_on_absorb:
        # Leveled absorb: merge with the overlapping region of L2
        # (and drop tombstones if the policy makes L2 the bottom).
        result, untouched = major_compaction(
            incoming,
            l2_before,
            self.config.sstable_entries,
            self._keep_policy(bottom=self._policy.l2_is_bottom),
        )
    else:
        # Tiered absorb: sort the incoming batch into one fresh run
        # stacked on L2; existing runs are untouched (and unpaid).
        result = merge_tables(
            list(incoming),
            self.config.sstable_entries,
            self._keep_policy(bottom=False),
        )
        untouched = l2_before
    total = result.stats.entries_in
    yield from self.compute(self.config.costs.merge_cost(total))
    untouched_ids = {t.table_id for t in untouched}
    replaced = [t for t in l2_before if t.table_id not in untouched_ids]
    edit = LevelEdit().remove(L2, replaced).add(L2, result.tables)
    self.manifest.apply(edit)
    self.stats.compactions.append(
        CompactionTiming(2, self.kernel.now - started, total)
    )
    self._push_to_backups(edit)
    return total


def ref_compact_l2_overflow_into_l3(self):
    started = self.kernel.now
    overflow, self._l2_pointer = self._policy.select_l2_overflow(
        self.level2, self.config.l2_threshold, self._l2_pointer
    )
    if not overflow:
        return
    l3_before = list(self.level3)
    if self._policy.merges_on_overflow:
        # Leveled move: merge into L3's overlapping region (L3 is
        # the bottom, so tombstones may be dropped).
        result, untouched = major_compaction(
            overflow,
            l3_before,
            self.config.sstable_entries,
            self._keep_policy(bottom=True),
        )
    else:
        # Tiered move: every selected run folds into one fresh run
        # stacked on L3; existing L3 runs are untouched.
        result = merge_tables(
            list(reversed(overflow)),  # newest run first
            self.config.sstable_entries,
            self._keep_policy(bottom=False),
        )
        untouched = l3_before
    total = result.stats.entries_in
    yield from self.compute(self.config.costs.merge_cost(total))
    untouched_ids = {t.table_id for t in untouched}
    replaced = [t for t in l3_before if t.table_id not in untouched_ids]
    edit = (
        LevelEdit()
        .remove(L2, overflow)
        .remove(L3, replaced)
        .add(L3, result.tables)
    )
    self.manifest.apply(edit)
    self.stats.compactions.append(
        CompactionTiming(3, self.kernel.now - started, total)
    )
    self._push_to_backups(edit)


# -- the tree ----------------------------------------------------------
#: Thresholds per depth; the last 4-level shape leaves L1 unbounded.
TREE_THRESHOLDS = [(2, 2), (2, 2, 3), (2, 2, 3, 9), (2, 0, 3, 9)]


def churn(tree, seed, ops=700):
    rng = random.Random(seed)
    for i in range(ops):
        key = rng.randrange(160)
        if rng.random() < 0.2:
            tree.delete(key)
        else:
            tree.put(key, b"v-%d" % i)


@pytest.mark.parametrize("seed", [3, 11, 29])
@pytest.mark.parametrize("thresholds", TREE_THRESHOLDS, ids=str)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_tree_cascade_matches_the_deleted_compact_tree(policy, thresholds, seed):
    rows = TREE_ROWS[policy](len(thresholds))
    new = RefTree(8, 4, thresholds, policy, rows=rows)
    old = OldCascadeTree(8, 4, thresholds, policy, rows=rows)
    churn(new, seed)
    churn(old, seed)
    assert len(new.compactions) > 10
    for level in range(len(thresholds)):
        assert contents(new.manifest.level(level)) == contents(
            old.manifest.level(level)
        ), f"L{level}"
    assert new.pointers == old.pointers
    assert new.compactions == old.compactions


# -- the Ingestor's rows -----------------------------------------------
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_pipeline_rows_match_the_deleted_minor_plan_and_select_forward(policy):
    rng = random.Random(5)
    reference, pipeline = REFERENCE[policy], POLICIES[policy].pipeline
    l1 = [table_of(range(k, k + 10, 2)) for k in range(0, 80, 10)]
    l0 = [
        table_of(sorted(rng.sample(range(80), 12)), seqno=1_000 * (9 - i))
        for i in range(4)
    ]  # newest first
    sources, replaced_l1 = reference.minor_plan(l0, l1)
    expected = merge_tables(sources, 6)
    result, replaced = compact_step(l0, l1, pipeline[0].move, 6)
    assert contents(result.tables) == contents(expected.tables)
    assert result.stats == expected.stats
    assert replaced == replaced_l1
    pointer = ref_pointer = None
    for threshold in (8, 7, 5, 5, 3, 0):
        picked, pointer = pick_tables(l1, threshold, pointer, pipeline[1].pick)
        ref_picked, ref_pointer = reference.select_forward(l1, threshold, ref_pointer)
        assert (picked, pointer) == (ref_picked, ref_pointer)


# -- the Compactor -----------------------------------------------------
def load(client, count):
    for i in range(count):
        key = (i * 7) % 1_800 if i % 3 else (i * 13) % 40
        if i % 9 == 4:
            yield from client.delete(key)
        else:
            yield from client.upsert(key, b"v-%d" % i)


def filled_cluster(policy, reference):
    """A drained 1i/2c/1r cluster; with ``reference`` its Compactors run
    the deleted bodies.  Returns the Compactors' levels and the
    ``BackupUpdate`` stream, table ids replaced by table contents."""
    cluster = tiny_cluster(
        config=replace(TINY, compaction_policy=policy, l2_threshold=4),
        num_readers=1,
    )
    updates = {}
    for compactor in cluster.compactors:
        if reference:
            compactor._policy = REFERENCE[policy]
            compactor._absorb = types.MethodType(ref_process_forward_section, compactor)
        updates[compactor.name] = log = []

        def recording_cast(dst, method, payload, *, _cast=compactor.cast, _log=log, **kw):
            if method == "backup_update":
                _log.append(payload)
            _cast(dst, method, payload, **kw)

        compactor.cast = recording_cast
    client = cluster.add_client(colocate_with="ingestor-0")
    cluster.run_process(load(client, 3_000))
    cluster.run()
    seen = {}
    stream = []
    for name, log in updates.items():
        for update in log:
            stream.append(
                (
                    update.compactor,
                    update.seq,
                    {seen[i] for i in update.removed_ids},
                    contents(update.l2),
                    contents(update.l3),
                )
            )
            seen.update((t.table_id, contents([t])[0]) for t in update.l2 + update.l3)
        assert {update.compactor for update in log} <= {name}
    levels = [
        (contents(c.level2), contents(c.level3), c._l2_pointer)
        for c in cluster.compactors
    ]
    timings = [
        [(t.level, t.duration, t.entries_merged) for t in c.stats.compactions]
        for c in cluster.compactors
    ]
    return levels, stream, timings, cluster


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_compactor_matches_the_deleted_twin_functions(policy):
    levels, stream, timings, cluster = filled_cluster(policy, reference=False)
    ref_levels, ref_stream, ref_timings, __ = filled_cluster(policy, reference=True)
    assert len(stream) > 20
    if policy == "one_leveling":
        assert not any(update[4] for update in stream)
    else:
        assert any(update[4] for update in stream)
    assert levels == ref_levels
    assert stream == ref_stream
    assert timings == ref_timings
    # The Reader, fed by the new code, holds exactly its Compactors'
    # tables, level by level.
    reader = cluster.readers[0]
    for compactor in cluster.compactors:
        area = reader._areas[compactor.name]
        assert area.level(0) == compactor.level2
        assert area.level(1) == compactor.level3


# -- the zero-threshold rule -------------------------------------------
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_zero_threshold_means_every_flush_at_l0_and_unbounded_below(policy):
    tree = RefTree(10, 5, (0, 0, 0), policy)
    model = {}
    for i in range(200):
        key = (i * 7) % 60
        if i % 11 == 5:
            tree.delete(key)
            model.pop(key, None)
        else:
            tree.put(key, b"v-%d" % i)
            model[key] = b"v-%d" % i
        if not len(tree._memtable):  # the write just flushed
            assert tree.manifest.level(0) == []
    assert tree.flushes == 20
    assert len(tree.compactions) == 20  # every flush, L0 -> L1 only
    assert tree.manifest.level(1) and tree.manifest.level(2) == []
    assert {k: tree.get(k) for k in range(60)} == {k: model.get(k) for k in range(60)}


# ----------------------------------------------------------------------
# (c) no ninth copy
# ----------------------------------------------------------------------
SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
MERGE_PRIMITIVES = {"merge_tables", "major_compaction"}
DELETED_POLICY_METHODS = {
    "compact_tree",
    "minor_plan",
    "select_forward",
    "select_l2_overflow",
}


def test_compaction_py_is_the_only_merge_site():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        where = path.relative_to(SRC).as_posix()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and where != "lsm/compaction.py":
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in MERGE_PRIMITIVES:
                    offenders.append(f"{where}:{node.lineno} calls {name}")
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (
                        isinstance(item, ast.FunctionDef)
                        and item.name in DELETED_POLICY_METHODS
                    ):
                        offenders.append(f"{where}:{item.lineno} defines {item.name}")
    assert offenders == []
    assert not list((SRC / "lsm").glob("policy/*.py"))  # the package is gone
