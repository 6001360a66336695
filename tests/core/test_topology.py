"""The topology both interpreters share: one validation, one naming, one
place that constructs nodes."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.core.cluster import ClusterSpec
from repro.core.topology import Topology
from repro.live.node import LiveSpec
from repro.lsm.errors import InvalidConfigError

SPECS = pytest.mark.parametrize("spec_cls", [ClusterSpec, LiveSpec])


@SPECS
@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(compactor_replicas=0), "compactor_replicas"),
        (dict(num_readers=-1), "num_readers"),
        (dict(spare_ingestors=-1, sharded=True), "spare_ingestors"),
        (dict(spare_ingestors=1), "sharded"),
        (dict(num_compactors=3, compactor_replicas=2), "multiple"),
        (dict(num_ingestors=0), "at least one"),
        (dict(num_compactors=0), "at least one"),
    ],
)
def test_invalid_topology_rejected_at_construction(spec_cls, fields, message):
    with pytest.raises(InvalidConfigError, match=message):
        spec_cls(**fields)


@SPECS
def test_role_of_rejects_names_outside_the_topology(spec_cls):
    spec = spec_cls(num_ingestors=2, num_compactors=2, num_readers=1)
    assert [spec.role_of(n) for n in spec.node_names] == [
        "ingestor", "ingestor", "compactor", "compactor", "reader"
    ]
    for name in ("client-1", "compactor-7", "reader-1", "ingestor-2"):
        with pytest.raises(InvalidConfigError, match="unknown node name"):
            spec.role_of(name)


@SPECS
def test_spares_named_last_and_not_launched(spec_cls):
    spec = spec_cls(num_ingestors=2, num_readers=1, sharded=True, spare_ingestors=1)
    assert spec.node_names == [
        "ingestor-0", "ingestor-1", "compactor-0", "reader-0", "ingestor-2"
    ]
    assert spec.launch_names == spec.node_names[:-1]
    assert spec.role_of("ingestor-2") == "ingestor"
    assert spec.initial_shard_map().owners() == ["ingestor-0", "ingestor-1"]


def test_monolithic_sim_needs_no_ingestor_or_compactor():
    assert ClusterSpec(monolithic=True, num_ingestors=0, num_compactors=0).monolithic


def test_specs_add_only_their_own_fields():
    shared = {f.name for f in Topology.__dataclass_fields__.values()}
    assert len(shared) == 9
    live = LiveSpec.__dataclass_fields__.keys() - shared
    sim = ClusterSpec.__dataclass_fields__.keys() - shared
    assert live == {"addresses", "drain_timeout", "data_dir"}
    assert len(sim) == 7 and "monolithic" in sim


def test_nodes_are_constructed_only_by_the_topology():
    # Node wiring lives in one place, so the sim and the live cluster
    # cannot drift apart: every Ingestor(...), Compactor(...),
    # Reader(...) and Client(...) call in src/ is Topology's.
    root = Path(repro.__file__).parent
    callers = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("Ingestor", "Compactor", "Reader", "Client")
            ):
                callers.add(path.relative_to(root).as_posix())
    assert callers == {"core/topology.py"}
