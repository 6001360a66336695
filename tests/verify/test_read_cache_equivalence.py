"""Read-cache coherence under the verification harness.

The read cache must be invisible to correctness: the identical
sequential trace, replayed with the cache disabled
(``read_cache_capacity=0``) and with the default capacity, must return
bit-identical point-get results — and both must match the sequential
reference model.
"""

from dataclasses import replace

from repro.core import MONOLITH, ClusterSpec, build_cluster
from repro.verify import VERIFY_CONFIG, differential_run


def test_point_gets_bit_identical_with_and_without_cache():
    seed = 11
    cached = differential_run(seed, ops=80, read_cache_capacity=None)
    uncached = differential_run(seed, ops=80, read_cache_capacity=0)
    assert cached["mismatches"] == []
    assert uncached["mismatches"] == []
    assert cached["cluster"] == uncached["cluster"]
    assert cached["monolith"] == uncached["monolith"]
    assert cached["model"] == uncached["model"]


def monolith_caches(capacity: int):
    config = replace(VERIFY_CONFIG, read_cache_capacity=capacity)
    cluster = build_cluster(ClusterSpec(config=config, placement=MONOLITH))
    return [node.read_cache for node in (*cluster.ingestors, *cluster.compactors)]


def test_monolith_cache_follows_the_configured_capacity():
    # Otherwise the monolith rows above compare two cached runs.
    assert monolith_caches(0) == [None, None]
    assert [cache.capacity for cache in monolith_caches(64)] == [64, 64]


def test_cache_equivalence_across_seeds():
    for seed in (3, 21):
        cached = differential_run(seed, ops=40, read_cache_capacity=None)
        uncached = differential_run(seed, ops=40, read_cache_capacity=0)
        assert cached["cluster"] == uncached["cluster"]
        assert cached["mismatches"] == [] and uncached["mismatches"] == []
