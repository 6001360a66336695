"""Every state a Reader area takes is a state its Compactor had.

Snapshot linearizability (Section III-D) rests on this: a Reader's copy
of one Compactor's range only ever moves through that Compactor's past
states, in the order the Compactor went through them.  The Reader
replays the edit its Compactor applied, so the property is checked
here directly: every state a Reader area exposes is recorded, every
state each Compactor casts an update from is recorded, and the first
sequence must be an ordered subsequence of the second ending where the
second ends.
"""

import ast
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

import repro
from repro.core import reconfig, split_partition
from repro.core.compactor import Compactor
from tests.core.conftest import TINY, tiny_cluster

POLICIES = ("leveling", "tiering", "lazy_leveling", "one_leveling")
DELETED = range(300)


def ids_of(area):
    return frozenset(t.table_id for level in (0, 1) for t in area.level(level))


class AreaLog(dict):
    """Stand-in for ``Reader._areas`` recording every state an area
    exposes: whenever an area is installed under a source, and after
    every edit applied to an area while it is installed."""

    def __init__(self):
        super().__init__()
        self.states = {}

    def __setitem__(self, source, area):
        super().__setitem__(source, area)
        self.states.setdefault(source, []).append(ids_of(area))
        apply = type(area).apply

        def recording_apply(edit, _area=area, _source=source):
            version = apply(_area, edit)
            if self.get(_source) is _area:
                self.states[_source].append(ids_of(_area))
            return version

        area.apply = recording_apply


def watch(cluster):
    """Record the Reader's area states and, per Compactor, the L2+L3
    ids it holds each time it casts an update (plus the empty start).
    Compactors a reconfiguration adds later are recorded too."""
    reader = cluster.readers[0]
    areas = AreaLog()
    reader._areas = areas
    reader.manifest._areas = areas
    casts = {}

    def record(compactor):
        log = [frozenset()]
        casts[compactor.name] = (compactor, log)
        cast = compactor.cast

        def recording_cast(dst, method, payload, **kw):
            if method == "backup_update" and ids_of(compactor.manifest) != log[-1]:
                log.append(ids_of(compactor.manifest))
            cast(dst, method, payload, **kw)

        compactor.cast = recording_cast

    for compactor in cluster.compactors:
        record(compactor)
    build_node = cluster.build_node

    def recording_build_node(*args, **kwargs):
        node = build_node(*args, **kwargs)
        if isinstance(node, Compactor):
            record(node)
        return node

    cluster.build_node = recording_build_node
    return areas, casts


def delete_range_load(cluster, replace_compactor=False):
    """Upsert every key three times, delete keys 0-299, rewrite the
    rest three times: the bottom merges drop the tombstones, so merge
    outputs stop covering the key range of the tables they replace.
    With ``replace_compactor`` the Compactor is swapped for a new node
    before the deletes, so they land on the new node only."""
    client = cluster.add_client(colocate_with="ingestor-0")
    keys = cluster.config.key_range

    def driver():
        for round_ in range(3):
            for key in range(keys):
                yield from client.upsert(key, b"a%d-%d" % (round_, key))
        if replace_compactor:
            yield from reconfig.replace_compactor(cluster, "compactor-0", "compactor-0b")
        for key in DELETED:
            yield from client.delete(key)
        for round_ in range(3):
            for key in range(len(DELETED), keys):
                yield from client.upsert(key, b"b%d-%d" % (round_, key))

    cluster.run_process(driver())
    cluster.run()
    return client


def two_ingestor_load(cluster):
    """``tests/lsm/test_readpath.py``'s load over two Ingestors, with
    the Reader crashed for the middle third."""
    client = cluster.add_client(colocate_with="ingestor-0")
    reader = cluster.readers[0]

    def load(start, count):
        for i in range(start, start + count):
            key = (i * 7) % 1_800 if i % 3 else (i * 13) % 40
            if i % 9 == 4:
                yield from client.delete(key)
            else:
                yield from client.upsert(key, b"v-%d" % i)

    def driver():
        yield from load(0, 1_000)
        reader.crash()
        yield from load(1_000, 700)
        reader.recover()
        yield from load(1_700, 800)

    cluster.run_process(driver())
    cluster.run()
    return client


def split_load(cluster):
    """Write every key twice, split the Compactor's range at key 1000,
    then write every key twice more: the split drops the upper half
    from the old Compactor, and the new one builds it up."""
    client = cluster.add_client(colocate_with="ingestor-0")
    keys = cluster.config.key_range

    def upserts(tag):
        for round_ in range(2):
            for key in range(keys):
                yield from client.upsert(key, b"%s%d-%d" % (tag, round_, key))

    def driver():
        yield from upserts(b"a")
        yield from split_partition(cluster, "compactor-0", "compactor-1b", 1_000)
        yield from upserts(b"b")

    cluster.run_process(driver())
    cluster.run()
    return client


LOADS = {
    "delete-range": (dict(num_ingestors=1, num_compactors=1), delete_range_load),
    "two-ingestors-reader-crash": (
        dict(num_ingestors=2, num_compactors=2),
        two_ingestor_load,
    ),
    "split": (dict(num_ingestors=1, num_compactors=1), split_load),
    "replace-then-delete": (
        dict(num_ingestors=1, num_compactors=1),
        partial(delete_range_load, replace_compactor=True),
    ),
}


def assert_ordered_subsequence(area_states, compactor_states):
    foreign = sum(state not in compactor_states for state in area_states)
    position = 0
    for step, state in enumerate(area_states):
        while position < len(compactor_states) and compactor_states[position] != state:
            position += 1
        assert position < len(compactor_states), (
            f"area state {step} of {len(area_states)} is not a later "
            f"state of its Compactor ({foreign} are no state of it at all)"
        )


@pytest.mark.parametrize("load", sorted(LOADS))
@pytest.mark.parametrize("policy", POLICIES)
def test_every_area_state_is_a_compactor_state(policy, load):
    shape, run = LOADS[load]
    cluster = tiny_cluster(
        config=replace(TINY, compaction_policy=policy), num_readers=1, **shape
    )
    areas, casts = watch(cluster)
    client = run(cluster)
    # Every Compactor that ever ran, a retired one included.
    for name, (compactor, log) in casts.items():
        states = areas.states[name]
        assert len(log) > 5
        assert_ordered_subsequence(states, log)
        assert states[-1] == ids_of(compactor.manifest)
    if "delete" in load:

        def reads():
            values = []
            for key in DELETED:
                values.append((yield from client.read_from_backup(key)))
            return values

        assert cluster.run_process(reads()) == [None] * len(DELETED)


def test_updates_are_built_by_the_compactor_and_never_guessed():
    # One builder ships the edit the Compactor applied, and the Reader
    # only replays it: no BackupUpdate(...) outside core/compactor.py,
    # and no key-overlap test in core/reader.py to guess replacements.
    root = Path(repro.__file__).parent
    builders, guesses = set(), set()
    for path in root.rglob("*.py"):
        name = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) == "BackupUpdate":
                builders.add(name)
            if isinstance(func, ast.Attribute) and func.attr == "overlaps":
                guesses.add(name)
    assert builders == {"core/compactor.py"}
    assert "core/reader.py" not in guesses
