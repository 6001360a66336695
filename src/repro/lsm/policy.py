"""Compaction policies as data: each policy is a table of rows.

The paper hard-wires one point in the compaction design space: tiering
between L0 and L1 (minor compaction) and leveling above (major
compaction).  Sarkar et al.'s "Constructing and Analyzing the LSM
Compaction Design Space" decomposes every policy into the same
primitives — *trigger* (when), *granularity* (what to pick) and *data
movement* (how it lands) — so a policy here is nothing but rows of
:class:`Step`, one per level boundary.  Row ``i`` says how tables leave
level ``i`` and land in level ``i + 1``; the trigger is always "the
level holds more tables than its threshold".

The rows are executed by exactly two functions,
:func:`~repro.lsm.compaction.pick_tables` and
:func:`~repro.lsm.compaction.compact_step`; the hosts (the Ingestor and
the Compactor) own every yield, every cost charge and the atomic
manifest swap.  A single-machine engine is the same two roles placed on
one machine, so one row set per policy serves every deployment.  Nothing in this
module merges, applies an edit or touches a manifest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidConfigError


@dataclass(frozen=True, slots=True)
class Step:
    """How one level empties into the next.

    Attributes:
        pick: Which tables of an over-threshold level move — ``"all"``
            of them, the ``"rotating"`` excess of a sorted run, or the
            ``"oldest"`` excess runs of a stacked level.
        move: How they land — ``"fold"`` with the whole target into a
            fresh run, ``"merge"`` into the target's overlapping region,
            or ``"stack"`` as one new run beside the target's.
        bottom: The target is the tree's last level, so the merge may
            drop tombstones.
    """

    pick: str
    move: str
    bottom: bool = False


@dataclass(frozen=True, slots=True)
class CompactionPolicy:
    """A named policy: its rows for the four-level tree.

    Attributes:
        name: Canonical name, persisted in store manifests.
        pipeline: Row 0 the Ingestor's L0→L1 minor compaction, row 1
            the forward (picked at L1, moved into the Compactor's L2),
            row 2 L2→L3.  Two rows mean L3 is never populated.
    """

    name: str
    pipeline: tuple[Step, ...]


_FOLD = Step("all", "fold")
_TIER = Step("all", "stack")
_BOTTOM_RUN = Step("all", "merge", bottom=True)

POLICIES: dict[str, CompactionPolicy] = {
    # The paper's hybrid (and the default): L0 + L1 fold into a fresh L1
    # run, every level below is one sorted run absorbing a rotating
    # window of the level above.
    "leveling": CompactionPolicy(
        "leveling",
        (_FOLD, Step("rotating", "merge"), Step("rotating", "merge", bottom=True)),
    ),
    # Runs stack at every level and a full level moves down whole, so an
    # entry is rewritten once per level; no merge ever covers the bottom
    # level, so tombstones are never dropped.
    "tiering": CompactionPolicy(
        "tiering",
        (_TIER, Step("oldest", "stack"), _TIER),
    ),
    # Dostoevsky: tiering's write cost above, one leveled run at the
    # bottom where most of the data lives.
    "lazy_leveling": CompactionPolicy(
        "lazy_leveling",
        (_TIER, Step("oldest", "stack"), _BOTTOM_RUN),
    ),
    # One leveled run per level below L0, and the Compactor's L2 is the
    # bottom: L3 is never populated.
    "one_leveling": CompactionPolicy(
        "one_leveling",
        (_FOLD, Step("rotating", "merge", bottom=True)),
    ),
}

#: Canonical policy names, sorted.
POLICY_NAMES: tuple[str, ...] = tuple(sorted(POLICIES))

#: Accepted spellings -> canonical name.
_ALIASES = {
    "lazy-leveling": "lazy_leveling",
    "lazyleveling": "lazy_leveling",
    "one-leveling": "one_leveling",
    "oneleveling": "one_leveling",
    "1-leveling": "one_leveling",
    "1leveling": "one_leveling",
}


def normalize_policy_name(name: str) -> str:
    """Canonical spelling of ``name`` (raises on unknown policies)."""
    key = name.strip().lower().replace(" ", "_")
    key = _ALIASES.get(key, key)
    if key not in POLICIES:
        known = ", ".join(POLICY_NAMES)
        raise InvalidConfigError(f"unknown compaction policy {name!r} (known: {known})")
    return key


def make_policy(name: str) -> CompactionPolicy:
    """The policy registered under ``name`` (any alias)."""
    return POLICIES[normalize_policy_name(name)]


def stacked_levels(steps: Sequence[Step], levels: range) -> frozenset[int]:
    """Which of a host's levels may hold overlapping runs: L0, plus
    every level a row stacks into.

    ``steps[i]`` moves level ``i`` into level ``i + 1``; ``levels`` is
    the range of tree levels the host's manifest holds (``range(2, 4)``
    for a Compactor) and the result indexes into that manifest.
    """
    stacked = {0} | {i + 1 for i, step in enumerate(steps) if step.move == "stack"}
    return frozenset(level - levels.start for level in levels if level in stacked)
