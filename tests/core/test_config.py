"""Unit tests for CooLSM configuration."""

import ast
import inspect
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import pytest

import repro
from repro.core.cluster import ClusterSpec
from repro.core.config import CooLSMConfig
from repro.core.topology import Topology
from repro.lsm.errors import InvalidConfigError
from repro.lsm.sstable import SSTable
from repro.lsm.sstable_io import decode_sstable, write_sstable


class TestPresets:
    def test_paper_100k_matches_section_iv(self):
        config = CooLSMConfig.paper_100k()
        assert config.l0_threshold == 10
        assert config.l1_threshold == 10
        assert config.l2_threshold == 100
        assert config.l3_threshold == 1_000
        assert config.key_range == 100_000

    def test_paper_300k_matches_section_iv(self):
        config = CooLSMConfig.paper_300k()
        assert config.l2_threshold == 300
        assert config.l3_threshold == 3_000
        assert config.key_range == 300_000

    def test_for_key_range_dispatch(self):
        assert CooLSMConfig.for_key_range(100_000).l2_threshold == 100
        assert CooLSMConfig.for_key_range(300_000).l2_threshold == 300

    def test_overrides_accepted(self):
        config = CooLSMConfig.paper_100k(delta=0.1, memtable_entries=50)
        assert config.delta == 0.1
        assert config.memtable_entries == 50


class TestValidation:
    def test_rejects_bad_key_range(self):
        with pytest.raises(InvalidConfigError):
            CooLSMConfig(key_range=0)

    def test_rejects_bad_thresholds(self):
        with pytest.raises(InvalidConfigError):
            CooLSMConfig(l0_threshold=0)
        with pytest.raises(InvalidConfigError):
            CooLSMConfig(l3_threshold=-1)

    def test_rejects_gc_slack_below_two_delta(self):
        with pytest.raises(InvalidConfigError):
            CooLSMConfig(delta=1.0, gc_slack=1.5)

    def test_rejects_negative_delta(self):
        with pytest.raises(InvalidConfigError):
            CooLSMConfig(delta=-0.1)

    def test_rejects_zero_inflight_limit(self):
        with pytest.raises(InvalidConfigError):
            CooLSMConfig(max_inflight_tables=0)


class TestScaledDown:
    def test_preserves_ratios(self):
        config = CooLSMConfig.paper_100k().scaled_down(10)
        assert config.key_range == 10_000
        assert config.l2_threshold == 10
        assert config.l3_threshold == 100
        # Level thresholds for L0/L1 unchanged (structure preserved).
        assert config.l0_threshold == 10

    def test_never_degenerates(self):
        config = CooLSMConfig.paper_100k().scaled_down(10_000)
        assert config.memtable_entries >= 10
        assert config.l2_threshold >= 2

    def test_rejects_bad_factor(self):
        with pytest.raises(InvalidConfigError):
            CooLSMConfig().scaled_down(0)


class TestNoFeatureFlags:
    """One mechanism per concern: the config carries parameters, not
    switches.  Adding a knob means editing this list on purpose."""

    FIELDS = (
        "key_range",
        "memtable_entries",
        "sstable_entries",
        "l0_threshold",
        "l1_threshold",
        "l2_threshold",
        "l3_threshold",
        "delta",
        "gc_slack",
        "max_inflight_tables",
        "ack_timeout",
        "forward_backoff_base",
        "forward_backoff_cap",
        "forward_retry_budget",
        "client_timeout",
        "client_retry_budget",
        "compaction_policy",
        "costs",
    )

    def test_field_names_are_pinned(self):
        assert tuple(f.name for f in fields(CooLSMConfig)) == self.FIELDS

    def test_no_boolean_field(self):
        hints = get_type_hints(CooLSMConfig)
        assert [name for name, hint in hints.items() if hint is bool] == []

    def test_cluster_spec_has_no_boolean_field(self):
        # Placement is one mapping, not a switch per deployment shape.
        own = {f.name for f in fields(ClusterSpec)} - {f.name for f in fields(Topology)}
        hints = get_type_hints(ClusterSpec)
        assert [name for name in sorted(own) if hints[name] is bool] == []


#: Fields nothing reads yet, each with the open item that will.
UNREAD_FIELDS = {
    "l3_threshold": "ROADMAP item 19: a bound on L3 runs",
}

#: Functions whose reads of a field do not count: validating or
#: rescaling a knob is not using it.
NOT_A_USE = {"__post_init__", "scaled_down"}


def _field_reads(tree: ast.AST, names: set[str]) -> set[str]:
    """Attribute loads of ``names`` in ``tree``, outside ``NOT_A_USE``."""
    found: set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in NOT_A_USE:
                return
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr in names
        ):
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


class TestEveryFieldIsRead:
    """A knob nothing reads is dead weight that every spec file and
    preset still carries: each ``CooLSMConfig`` field must be read in
    ``src/`` somewhere besides its validation and rescaling."""

    def test_every_field_is_read_outside_validation(self):
        names = {f.name for f in fields(CooLSMConfig)}
        read: set[str] = set()
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            read |= _field_reads(ast.parse(path.read_text(), str(path)), names)
        assert sorted(names - read) == sorted(UNREAD_FIELDS)

    def test_the_walk_skips_validation_and_rescaling(self):
        source = (
            "class C:\n"
            "    def __post_init__(self):\n        self.a\n"
            "    def scaled_down(self):\n        self.b\n"
            "    def use(self):\n        self.c\n"
        )
        assert _field_reads(ast.parse(source), {"a", "b", "c"}) == {"c"}


class TestOneSSTableGranularity:
    """Every table is cut at one block size under one filter rate, both
    module constants of :mod:`repro.lsm.sstable`: no signature takes
    either, and no table carries either."""

    KNOBS = {"block_entries", "bloom_fp_rate"}

    @pytest.mark.parametrize(
        "function",
        [SSTable, SSTable.from_entries, SSTable.adopt, decode_sstable, write_sstable],
        ids=lambda function: function.__qualname__,
    )
    def test_no_signature_takes_a_granularity(self, function):
        assert self.KNOBS.isdisjoint(inspect.signature(function).parameters)

    def test_no_table_carries_a_granularity_or_a_fence_list(self):
        assert {"_fences", "_block_entries", "bloom_fp_rate"}.isdisjoint(SSTable.__slots__)
