"""Reference single-machine engines for Figure 3's comparison points.

The paper runs LevelDB and RocksDB as reference systems; we build their
structural equivalents on our own substrate: one
:class:`~repro.lsm.tree.LSMTree` under the leveled policy
(:class:`LevelDBLikeNode`) and under the tiering policy
(:class:`RocksDBLikeNode`).
"""

from .nodes import LevelDBLikeNode, RocksDBLikeNode, build_baseline_node

__all__ = [
    "LevelDBLikeNode",
    "RocksDBLikeNode",
    "build_baseline_node",
]
