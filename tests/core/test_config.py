"""Unit tests for CooLSM configuration."""

from dataclasses import fields
from typing import get_type_hints

import pytest

from repro.core.config import CooLSMConfig
from repro.lsm.errors import InvalidConfigError


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
        "read_cache_capacity",
        "compaction_policy",
        "costs",
    )

    def test_field_names_are_pinned(self):
        assert tuple(f.name for f in fields(CooLSMConfig)) == self.FIELDS

    def test_no_boolean_field(self):
        hints = get_type_hints(CooLSMConfig)
        assert [name for name, hint in hints.items() if hint is bool] == []
