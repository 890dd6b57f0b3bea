"""Pluggable snapshot storage backends.

The serving stack -- HTTP server, worker fan-out, publishers, replication,
CLI -- is written against the :class:`SnapshotBackend` contract
(:mod:`repro.service.backends.base`); this package holds the contract and
its implementations, and :func:`open_store` opens the SQLite store a URL
names:

==================  ==============================================================
``path/to/db``      SQLite (the default; any plain path, plus ``:memory:``)
``sqlite:path``     SQLite, explicitly
``memory:``         SQLite's in-process ``:memory:`` database (throwaway stores)
==================  ==============================================================

Passing ``archive_dir=`` wraps the hot backend in a
:class:`~repro.service.backends.archive.TieredBackend`: the retention cap
moves onto the wrapper and pruned snapshots are *archived* into a second,
uncapped SQLite store (``archive.db`` under that directory) instead of
deleted, so reads fall through hot to cold beyond the cap (see
:mod:`repro.service.backends.archive`).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

from repro.service.backends.archive import ARCHIVE_DB, TieredBackend, open_archive
from repro.service.backends.base import (
    SNAPSHOT_KINDS,
    ASHistoryEntry,
    FencedWriterError,
    SnapshotBackend,
    StoredSnapshot,
    StoreError,
    parse_store_url,
    snapshot_payload,
)
from repro.service.backends.sqlite import SCHEMA_VERSION, SnapshotStore


def open_store(
    url: Union[str, os.PathLike],
    *,
    retention: Optional[int] = None,
    archive_dir: Optional[Union[str, os.PathLike]] = None,
) -> SnapshotBackend:
    """Open (creating if needed) the SQLite store a store URL names.

    File paths get their parent directory ensured; ``memory:`` and
    ``:memory:`` open an in-process database that dies with the store.
    With *archive_dir* the hot backend is built uncapped and wrapped in a
    :class:`TieredBackend` carrying *retention*: the cap then demotes
    snapshots into the archive instead of deleting them.
    """
    target = parse_store_url(url)
    hot_retention = None if archive_dir is not None else retention
    path = Path(target)
    if target != ":memory:" and str(path.parent) not in ("", "."):
        path.parent.mkdir(parents=True, exist_ok=True)
    store = SnapshotStore(path, retention=hot_retention)
    if archive_dir is not None:
        return TieredBackend(store, archive_dir, retention=retention)
    return store


__all__ = [
    "ARCHIVE_DB",
    "ASHistoryEntry",
    "FencedWriterError",
    "SCHEMA_VERSION",
    "SNAPSHOT_KINDS",
    "SnapshotBackend",
    "SnapshotStore",
    "StoreError",
    "StoredSnapshot",
    "TieredBackend",
    "open_archive",
    "open_store",
    "parse_store_url",
    "snapshot_payload",
]
