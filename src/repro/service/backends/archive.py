"""Cold-tier archival: the tiered backend over a second snapshot store.

Retention on a plain backend *deletes* history, but the paper's analyses
are longitudinal -- per-AS churn and stability only mean something across
many windows.  :class:`TieredBackend` turns retention into **archival**: it
wraps any *hot* :class:`SnapshotBackend`, owns the retention cap itself, and
keeps its cold tier in a second, uncapped
:class:`~repro.service.backends.sqlite.SnapshotStore` at
``<archive_dir>/archive.db`` (:func:`open_archive`):

* **demotion** -- when the hot tier exceeds the cap, each oldest snapshot is
  appended to the cold store under its own (pinned) id, and only then
  dropped from the hot tier
  (:meth:`~repro.service.backends.base.SnapshotBackend.drop_snapshot`).  The
  cold store fsyncs every commit, so the cold copy is on disk before the hot
  one goes.  A crash between the two leaves the snapshot in both tiers; the
  next demotion appends it again, which the pinned id of the same window
  turns into a no-op, and drops the hot copy;
* **reads** fall through hot to cold: each one is the hot store's answer,
  else the same method on the cold store.  ``/v1/as/{asn}?history=N`` and
  ``/v1/snapshot/{window_end}`` answer beyond the cap byte-identically to
  what the hot tier served, because the cold store holds the hot tier's
  column blob, id and change set and reads them back the same way -- with
  the same ``as_buckets`` index, column cache and per-snapshot digest, so a
  snapshot whose bytes changed in the archive raises
  :class:`~repro.service.backends.base.StoreError` on read and is reported
  by ``repro archive DIR verify``.

Many processes may read one archive while one producer demotes into it
(every serving worker opens the same tiered view); SQLite's WAL shows each
read the demotions committed before it, without re-opening anything.  A
directory that holds the JSON-lines segment files of the older archive
format is refused with one :class:`StoreError`; nothing reads or migrates
them.

The replication changelog (``snapshots_since`` / ``pruned_through``) stays
a hot-tier concern: followers replicate the live window, and the horizon
still rises when snapshots demote, so a follower that fell behind the
archive boundary gets an explicit error, exactly as with delete-based
retention.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.bgp.asn import ASN
from repro.service.backends.base import (
    ASHistoryEntry,
    SnapshotBackend,
    StoredSnapshot,
    StoreError,
    require_valid_retention,
)
from repro.service.backends.sqlite import SnapshotStore
from repro.stream.engine import WindowSnapshot

#: The cold store's file inside an archive directory.
ARCHIVE_DB = "archive.db"


def open_archive(archive_dir: Union[str, os.PathLike]) -> SnapshotStore:
    """The cold-tier store of *archive_dir*, creating both if needed.

    Raises :class:`StoreError` for a directory holding ``.jsonl`` files:
    the segment archive an older version wrote, which this one does not read.
    """
    root = Path(archive_dir)
    older = sorted(root.glob("*.jsonl"))
    if older:
        raise StoreError(
            f"archive directory {root} holds {older[0].name}, a segment file of the"
            f" older JSON-lines archive format; this version keeps the cold tier in"
            f" {ARCHIVE_DB} and reads no segment files"
        )
    root.mkdir(parents=True, exist_ok=True)
    return SnapshotStore(root / ARCHIVE_DB, durable=True)


class TieredBackend(SnapshotBackend):
    """Hot backend + cold snapshot store: retention archives instead of deleting.

    The retention cap lives on this wrapper, not on the hot backend (a hot
    tier with its own cap would delete snapshots before they could be
    archived -- the constructor rejects that).  Every overflow snapshot is
    archived *before* :meth:`~SnapshotBackend.drop_snapshot` removes it
    from the hot tier, so the hot tier's generation bump and rising
    ``pruned_through`` horizon keep read caches and replication exactly as
    honest as delete-based retention did.
    """

    def __init__(
        self,
        hot: SnapshotBackend,
        archive_dir: Union[str, os.PathLike],
        *,
        retention: Optional[int] = None,
    ) -> None:
        require_valid_retention(retention)
        if hot.retention is not None:
            raise ValueError(
                "the hot backend of a tiered store must not have its own"
                " retention cap (it would delete snapshots before archival);"
                " put the cap on the TieredBackend"
            )
        self.hot = hot
        self.cold = open_archive(archive_dir)
        self.retention = retention

    @property
    def url(self) -> str:
        """The hot tier's URL plus the archive directory."""
        return f"{self.hot.url}+archive:{Path(self.cold.path).parent}"

    def close(self) -> None:
        self.hot.close()
        self.cold.close()

    # -- writes -------------------------------------------------------------------------
    def append_snapshot(
        self,
        snapshot: WindowSnapshot,
        *,
        kind: str = "window",
        if_absent: bool = False,
        snapshot_id: Optional[int] = None,
        epoch: Optional[int] = None,
    ) -> int:
        new_id = self.hot.append_snapshot(
            snapshot, kind=kind, if_absent=if_absent, snapshot_id=snapshot_id,
            epoch=epoch,
        )
        if self.retention is not None:
            self._archive_overflow()
        return new_id

    def _demote(self, meta: StoredSnapshot) -> None:
        """Copy one hot snapshot into the cold store, then drop it from the hot tier."""
        snapshot = self.hot.load_snapshot(meta.snapshot_id)
        self.cold.append_snapshot(snapshot, kind=meta.kind, snapshot_id=meta.snapshot_id)
        self.hot.drop_snapshot(meta.snapshot_id)

    def _archive_overflow(self) -> int:
        assert self.retention is not None
        metas = self.hot.snapshots()
        overflow = metas[: max(0, len(metas) - self.retention)]
        for meta in overflow:
            self._demote(meta)
        return len(overflow)

    def drop_snapshot(self, snapshot_id: int) -> bool:
        """Demote one hot snapshot to the archive (never loses history).

        Returns ``True`` only when a hot snapshot was demoted; an id that
        is already cold (or unknown) returns ``False`` -- the archive is
        append-only, so there is nothing further to drop.
        """
        meta = self.hot.get(snapshot_id)
        if meta is None:
            return False
        self._demote(meta)
        return True

    def compact(self) -> int:
        """Demote everything beyond the cap, then compact the hot tier.

        Returns the number of snapshots demoted (nothing is deleted).
        """
        demoted = self._archive_overflow() if self.retention is not None else 0
        self.hot.compact()
        return demoted

    # -- generation bookkeeping (hot-tier concerns) -------------------------------------
    def generation(self) -> int:
        return self.hot.generation()

    def pruned_through(self) -> int:
        return self.hot.pruned_through()

    def applied_generation(self) -> int:
        return self.hot.applied_generation()

    def set_applied_generation(self, generation: int) -> None:
        self.hot.set_applied_generation(generation)

    def leader_epoch(self) -> int:
        return self.hot.leader_epoch()

    def bump_leader_epoch(self) -> int:
        return self.hot.bump_leader_epoch()

    def snapshots_since(
        self, generation: int, *, limit: Optional[int] = None
    ) -> List[StoredSnapshot]:
        """The replication feed is the hot tier: followers mirror the live
        window (and archive independently if they want their own cold
        tier); the rising horizon tells a follower that fell behind the
        archive boundary, exactly as with delete-based retention.
        """
        return self.hot.snapshots_since(generation, limit=limit)

    # -- metadata reads (hot falls through to cold) -------------------------------------
    # A hot answer wins; a StoredSnapshot is always truthy.
    def __len__(self) -> int:
        return len(self.hot) + len(self.cold)

    def latest(self) -> Optional[StoredSnapshot]:
        return self.hot.latest() or self.cold.latest()

    def get(self, snapshot_id: int) -> Optional[StoredSnapshot]:
        return self.hot.get(snapshot_id) or self.cold.get(snapshot_id)

    def by_window_end(self, window_end: int) -> Optional[StoredSnapshot]:
        return self.hot.by_window_end(window_end) or self.cold.by_window_end(window_end)

    def find_window(
        self, kind: str, window_start: int, window_end: int
    ) -> Optional[StoredSnapshot]:
        key = (kind, window_start, window_end)
        return self.hot.find_window(*key) or self.cold.find_window(*key)

    def latest_window_end(self, kind: str = "window") -> Optional[int]:
        ends = (self.hot.latest_window_end(kind), self.cold.latest_window_end(kind))
        return max((end for end in ends if end is not None), default=None)

    def snapshots(self) -> List[StoredSnapshot]:
        return sorted(
            self.cold.snapshots() + self.hot.snapshots(),
            key=lambda meta: meta.snapshot_id,
        )

    # -- full snapshot reads ------------------------------------------------------------
    def load_snapshot(self, snapshot_id: int) -> WindowSnapshot:
        try:
            return self.hot.load_snapshot(snapshot_id)
        except StoreError:
            # Demoted (possibly concurrently: the cold copy commits first).
            if self.cold.get(snapshot_id) is None:
                raise
            return self.cold.load_snapshot(snapshot_id)

    def changes(self, snapshot_id: int) -> Dict[ASN, Tuple[str, str]]:
        # An unknown id is an empty change set in either tier.
        return self.hot.changes(snapshot_id) or self.cold.changes(snapshot_id)

    # -- per-AS queries -----------------------------------------------------------------
    def as_history(
        self, asn: ASN, *, limit: Optional[int] = None
    ) -> List[ASHistoryEntry]:
        entries = self.hot.as_history(asn, limit=limit)
        if limit is None or len(entries) < limit:
            rest = None if limit is None else limit - len(entries)
            entries += self.cold.as_history(asn, limit=rest)
        return entries

    # -- statistics ---------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """The hot tier's statistics plus the archive's counts and bytes.

        The archive's part is a row count and file sizes: the hot store's
        distinct-AS recount would decompress every cold blob again after
        each demotion.
        """
        hot_stats = self.hot.stats()
        cold_snapshots, cold_bytes = len(self.cold), self.cold.size_bytes()
        return {
            "backend": "tiered",
            "path": self.url,
            "generation": self.generation(),
            "snapshots": len(self.hot) + cold_snapshots,
            "retention": self.retention,
            "size_bytes": int(hot_stats.get("size_bytes", 0) or 0) + cold_bytes,
            "pruned_through": self.pruned_through(),
            "applied_generation": self.applied_generation(),
            "leader_epoch": self.leader_epoch(),
            "hot": hot_stats,
            "archive": {
                "path": self.cold.path,
                "snapshots": cold_snapshots,
                "size_bytes": cold_bytes,
            },
        }

    # -- ingest telemetry ---------------------------------------------------------------
    def set_ingest_stats(self, stats: Dict[str, object]) -> None:
        """Delegate to the hot tier (durable there when the hot tier is)."""
        self.hot.set_ingest_stats(stats)

    def ingest_stats(self) -> Optional[Dict[str, object]]:
        return self.hot.ingest_stats()
