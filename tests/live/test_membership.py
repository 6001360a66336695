"""Shard map properties + membership-layer units.

The shard map is the routing contract of the sharded live cluster:
every key must have exactly one owner at every epoch, splits must be
epoch-monotone, and boundary keys must route to the upper (new) shard
exactly at the split point.  These are seeded property tests — each
case draws hundreds of random split sequences and checks the
invariants after every step.
"""

from __future__ import annotations

import random

import pytest

from repro.core.keyspace import Partitioning
from repro.core.shard import (
    Shard,
    ShardMap,
    WrongShardError,
    is_wrong_shard,
)
from repro.live.harness import stop_waves
from repro.live.node import LiveSpec
from repro.lsm.entry import encode_key

KEY_RANGE = 256


def random_split_sequence(seed: int, splits: int = 12) -> list[ShardMap]:
    """Epoch-1 single-owner map plus ``splits`` random online splits."""
    rng = random.Random(seed)
    maps = [ShardMap.single("ingestor-0")]
    used = set()
    for index in range(splits):
        current = maps[-1]
        boundary = rng.randrange(1, KEY_RANGE)
        if encode_key(boundary) in used:
            continue
        used.add(encode_key(boundary))
        maps.append(current.split(boundary, f"ingestor-{index + 1}"))
    return maps


class TestShardMapProperties:
    @pytest.mark.parametrize("seed", range(20))
    def test_full_key_space_coverage_one_owner_per_key(self, seed):
        """Every key has exactly one owner at every epoch: shard_for is
        total and deterministic, and the shards tile the key space."""
        for shard_map in random_split_sequence(seed):
            for key in range(KEY_RANGE):
                shard = shard_map.shard_for(key)
                assert shard_map.owns(shard.owner, key)
                others = [
                    s.owner
                    for s in shard_map.shards
                    if s is not shard and shard_map.owns(s.owner, key)
                ]
                assert not others, f"key {key} owned by {shard.owner} and {others}"

    @pytest.mark.parametrize("seed", range(20))
    def test_no_overlap_boundaries_strictly_increase(self, seed):
        for shard_map in random_split_sequence(seed):
            assert shard_map.shards[0].lower is None
            bounds = [s.lower for s in shard_map.shards[1:]]
            assert bounds == sorted(bounds)
            assert len(bounds) == len(set(bounds))

    @pytest.mark.parametrize("seed", range(20))
    def test_epoch_strictly_monotone_across_splits(self, seed):
        maps = random_split_sequence(seed)
        epochs = [m.epoch for m in maps]
        assert epochs == sorted(epochs)
        assert len(set(epochs)) == len(epochs)
        # And the moving shard's term is bumped past its ancestor's.
        for before, after in zip(maps, maps[1:]):
            new_shards = set(after.shards) - set(before.shards)
            assert max(s.term for s in new_shards) > min(
                s.term for s in before.shards
            ) - 1

    @pytest.mark.parametrize("boundary", [1, 7, 128, KEY_RANGE - 1])
    def test_boundary_key_routes_to_new_owner_exactly_at_split(self, boundary):
        """``[boundary, next)`` moves: the boundary key itself belongs
        to the new owner, ``boundary - 1`` stays with the old one."""
        base = ShardMap.single("ingestor-0")
        after = base.split(boundary, "ingestor-1")
        assert after.owner_of(boundary) == "ingestor-1"
        assert after.owner_of(boundary - 1) == "ingestor-0"
        # Exact encoded-bytes boundary too, not just the int view.
        assert after.owner_of(encode_key(boundary)) == "ingestor-1"

    def test_split_at_existing_boundary_rejected(self):
        base = ShardMap.uniform(KEY_RANGE, ["a", "b"])
        with pytest.raises(ValueError):
            base.split(KEY_RANGE // 2, "c")

    def test_uniform_matches_partitioning_boundaries(self):
        """Ingestor shard cuts line up with how Partitioning.uniform
        thinks about integer key spaces — benches can reason about one
        boundary convention."""
        owners = ["i-0", "i-1", "i-2", "i-3"]
        shard_map = ShardMap.uniform(KEY_RANGE, owners)
        partitioning = Partitioning.uniform(KEY_RANGE, owners)
        for key in range(KEY_RANGE):
            index = owners.index(shard_map.owner_of(key))
            partition = partitioning.partition_for(encode_key(key))
            assert partition.members == [owners[index]]

    @pytest.mark.parametrize("seed", range(10))
    def test_state_round_trip_and_fingerprint(self, seed):
        for shard_map in random_split_sequence(seed):
            restored = ShardMap.from_state(shard_map.to_state())
            assert restored == shard_map
            assert restored.fingerprint() == shard_map.fingerprint()

    def test_validation_rejects_malformed_maps(self):
        with pytest.raises(ValueError):
            ShardMap(1, ())  # empty
        with pytest.raises(ValueError):
            ShardMap(1, (Shard(encode_key(1), "a"),))  # first lower not None
        with pytest.raises(ValueError):
            ShardMap(
                1,
                (
                    Shard(None, "a"),
                    Shard(encode_key(5), "b"),
                    Shard(encode_key(5), "c"),  # duplicate boundary
                ),
            )
        with pytest.raises(ValueError):
            ShardMap(-1, (Shard(None, "a"),))  # bad epoch

    def test_wrong_shard_marker_survives_rpc_stringification(self):
        """The redirect signal crosses the wire as a stringified remote
        error — the marker must survive repr/format round trips."""
        error = WrongShardError("ingestor-3", 7)
        assert is_wrong_shard(error)
        assert is_wrong_shard(str(error))
        assert is_wrong_shard(f"ingestor-3.upsert: {error!r}")
        assert not is_wrong_shard("connection reset by peer")


class TestStopWaveOrdering:
    """Dependency-wave shutdown classifies by the spec's roles, so a
    spare shard Ingestor spawned mid-run by an online split drains in
    the ingestor wave."""

    def test_spare_ingestor_added_mid_run_joins_ingestor_wave(self):
        spec = LiveSpec(num_ingestors=2, num_readers=1, sharded=True, spare_ingestors=1)
        names = ["compactor-0", "ingestor-0", "reader-0", "ingestor-1", "ingestor-2"]
        assert stop_waves(spec, names) == [
            ["ingestor-0", "ingestor-1", "ingestor-2"],
            ["compactor-0"],
            ["reader-0"],
        ]
