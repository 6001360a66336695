"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


def test_list_shows_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_unknown_experiment_rejected(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_single_experiment(capsys):
    assert main(["run", "table3", "--ops", "20"]) == 0
    out = capsys.readouterr().out
    assert "Table III" in out
    assert "done in" in out


def test_run_accepts_multiple_names(capsys):
    assert main(["run", "table3", "fig9", "--ops", "5"]) == 0
    out = capsys.readouterr().out
    assert "Table III" in out
    assert "Figure 9" in out


def test_registry_covers_every_table_and_figure():
    """The CLI must expose every artefact of the paper's evaluation."""
    expected = {
        "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
        "table1", "table2", "table3", "ablations",
    }
    assert set(EXPERIMENTS) == expected


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        main([])


def test_subcommands_are_exactly_the_supported_set():
    """``chaos-bench`` is the only bench entry point: every other
    measurement belongs to ``benchmarks/e2e``, not to a subcommand."""
    (subparsers,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert set(subparsers.choices) == {
        "list", "run", "verify", "serve", "chaos-proxy", "chaos-bench",
    }


@pytest.mark.parametrize("removed", ["live-bench", "recovery-bench", "stability-bench"])
def test_removed_bench_subcommands_rejected(removed, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([removed])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
