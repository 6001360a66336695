"""Filesystem durability primitives shared by the persistence layers.

An ``os.replace`` makes a file's *content* atomic, but the rename itself
lives in the parent directory's metadata: until the directory is
fsynced, a power loss can roll the rename back (or lose a freshly
created file entirely).  Every atomic-install path in the repo —
:func:`repro.lsm.sstable_io.write_sstable` and the
:class:`~repro.store.node_store.NodeStore` manifest — therefore pairs
its replace/create/unlink with :func:`fsync_dir`.

This module is a dependency-free leaf: it imports nothing from
``repro``, so ``lsm/sstable_io.py`` (module-level) and ``store`` can
both use it without cycles.
"""

from __future__ import annotations

import json
import os


def fsync_dir(path: str) -> None:
    """fsync the *directory* at ``path`` so renames/creates/unlinks in
    it survive power loss.

    No-op on platforms whose directory handles reject fsync (Windows);
    POSIX is the durability target.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except (OSError, NotImplementedError):  # pragma: no cover - platform
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform quirk
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str, data: bytes) -> int:
    """Durably install ``data`` at ``path``: write a temp file, fsync
    it, rename over the target, fsync the directory; returns ``len(data)``."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    fsync_dir(os.path.dirname(os.path.abspath(path)))
    return len(data)


def atomic_write_json(path: str, document: dict) -> int:
    """Durably install a JSON document at ``path`` (see
    :func:`atomic_write_bytes`)."""
    return atomic_write_bytes(path, json.dumps(document, sort_keys=True).encode())
