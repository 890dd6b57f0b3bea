"""Snapshot storage: the SQLite store and its cold tier.

The serving stack -- HTTP server, worker fan-out, publishers, replication,
CLI -- uses one store, :class:`~repro.service.backends.sqlite.SnapshotStore`;
:mod:`repro.service.backends.base` holds the records, errors and wire codec
it shares with its callers, and :func:`open_store` opens the store a URL
names:

==================  ==============================================================
``path/to/db``      SQLite (the default; any plain path, plus ``:memory:``)
``sqlite:path``     SQLite, explicitly
``memory:``         SQLite's in-process ``:memory:`` database (throwaway stores)
==================  ==============================================================

Passing ``archive_dir=`` gives the store its cold tier: retention then
*archives* pruned snapshots into a second, uncapped SQLite store
(``archive.db`` under that directory, :func:`open_archive`) instead of
deleting them, and reads fall through to it beyond the cap.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

from repro.service.backends.base import (
    SNAPSHOT_KINDS,
    ASHistoryEntry,
    FencedWriterError,
    StoredSnapshot,
    StoreError,
    parse_store_url,
    snapshot_payload,
)
from repro.service.backends.sqlite import ARCHIVE_DB, SCHEMA_VERSION, SnapshotStore, open_archive


def open_store(
    url: Union[str, os.PathLike],
    *,
    retention: Optional[int] = None,
    archive_dir: Optional[Union[str, os.PathLike]] = None,
) -> SnapshotStore:
    """Open (creating if needed) the SQLite store a store URL names.

    File paths get their parent directory ensured; ``memory:`` and
    ``:memory:`` open an in-process database that dies with the store.
    With *archive_dir* the *retention* cap archives snapshots into that
    directory's cold tier instead of deleting them.
    """
    target = parse_store_url(url)
    path = Path(target)
    if target != ":memory:" and str(path.parent) not in ("", "."):
        path.parent.mkdir(parents=True, exist_ok=True)
    return SnapshotStore(path, retention=retention, archive_dir=archive_dir)


__all__ = [
    "ARCHIVE_DB",
    "ASHistoryEntry",
    "FencedWriterError",
    "SCHEMA_VERSION",
    "SNAPSHOT_KINDS",
    "SnapshotStore",
    "StoreError",
    "StoredSnapshot",
    "open_archive",
    "open_store",
    "parse_store_url",
    "snapshot_payload",
]
