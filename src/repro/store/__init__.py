"""Durable node storage: persistent state + crash recovery for the
live runtime.

:mod:`repro.store.fsutil` is a dependency-free leaf (directory fsync,
atomic installs) that ``lsm/sstable_io.py`` imports at module level and
:mod:`repro.store.node_store` uses too; to keep that edge acyclic this
package resolves its public names lazily (PEP 562) — importing
``repro.store.fsutil`` never pulls in the node store, which imports
``lsm``.
"""

from __future__ import annotations

__all__ = [
    "MANIFEST_NAME",
    "NodeStore",
    "RecoveredState",
    "WAL_NAME",
    "atomic_write_bytes",
    "atomic_write_json",
    "fsync_dir",
]


def __getattr__(name: str):
    if name in ("NodeStore", "RecoveredState", "MANIFEST_NAME", "WAL_NAME"):
        from . import node_store

        return getattr(node_store, name)
    if name in ("atomic_write_bytes", "atomic_write_json", "fsync_dir"):
        from . import fsutil

        return getattr(fsutil, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
