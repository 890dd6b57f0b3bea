"""Cold-tier archival: append-only snapshot segments + the tiered backend.

Retention on a plain backend *deletes* history, but the paper's analyses
are longitudinal -- per-AS churn and stability only mean something across
many windows.  This module turns retention into **archival**:

* :class:`SnapshotArchive` manages a directory of immutable, log-structured
  JSON-lines segment files (``segment-000001.jsonl`` ...).  Each line holds
  one archived snapshot as ``{"record": {...}, "sha256": "..."}``: the
  record is :func:`~repro.service.backends.base.snapshot_record`'s (the
  snapshot's metadata, change set and base64 column blob, ``"format": 2``)
  and the checksum covers its canonical JSON encoding, so corruption (a
  flipped bit, a truncated rewrite) is detected on read and by
  ``repro archive verify`` instead of silently serving wrong history.  A
  line in any other format (every archive written before format 2) is
  refused with :class:`~repro.service.backends.base.RecordFormatError`
  naming its segment and byte offset; there is no second reader.
  Appends are idempotent by snapshot id, fsynced, and only ever touch the
  newest segment.  A crash mid-append leaves at most one unterminated
  trailing line; scans tolerate it (the append never completed, so the hot
  copy was never dropped and will be re-archived), and later appends open
  a fresh segment rather than writing after the torn bytes.
* :class:`TieredBackend` wraps any *hot* :class:`SnapshotBackend` and owns
  the retention cap itself: when the hot tier exceeds the cap, the oldest
  snapshots are recorded, appended to the archive, and only then dropped
  from the hot tier
  (:meth:`~repro.service.backends.base.SnapshotBackend.drop_snapshot`).
  Reads fall through hot to cold, so ``/v1/as/{asn}?history=N`` and
  ``/v1/snapshot/{window}`` answer beyond the cap -- byte-identically to
  what the hot tier served before pruning, because the record carries the
  hot tier's own columns and is read back the way the hot tier reads them.

Many processes may read one archive while one producer appends (every
serving worker opens the same tiered view): demoting a snapshot bumps the
hot tier's generation, and the tiered backend re-scans the archive's tail
whenever the generation moved since its last cold read, so readers pick up
freshly demoted snapshots without re-opening anything.

The replication changelog (``snapshots_since`` / ``pruned_through``) stays
a hot-tier concern: followers replicate the live window, and the horizon
still rises when snapshots demote, so a follower that fell behind the
archive boundary gets an explicit error, exactly as with delete-based
retention.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.bgp.asn import ASN
from repro.service.backends.base import (
    ASHistoryEntry,
    RecordFormatError,
    SnapshotBackend,
    StoredSnapshot,
    StoreError,
    column_history_entry,
    record_columns,
    record_meta,
    require_valid_retention,
    snapshot_from_record,
    snapshot_record,
)
from repro.stream.engine import WindowSnapshot

#: Records per segment file before a new segment is started.
SEGMENT_RECORDS = 256

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".jsonl"


def _canonical(record: Dict[str, Any]) -> str:
    """The canonical JSON encoding the checksum is computed over."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _checksum(record: Dict[str, Any]) -> str:
    return hashlib.sha256(_canonical(record).encode("utf-8")).hexdigest()


def _encode_line(record: Dict[str, Any]) -> bytes:
    return (_canonical({"record": record, "sha256": _checksum(record)}) + "\n").encode("utf-8")


def _segment_name(index: int) -> str:
    return f"{_SEGMENT_PREFIX}{index:06d}{_SEGMENT_SUFFIX}"


def _parse_line(
    name: str, offset: int, line: bytes
) -> Tuple[Dict[str, Any], StoredSnapshot, str]:
    """The record, its metadata and its stated checksum of one segment line."""
    try:
        entry = json.loads(line)
        record = entry["record"]
        return record, record_meta(record), str(entry["sha256"])
    except RecordFormatError as error:
        raise RecordFormatError(
            f"archive line in {name} at byte {offset}: {error} -- an older version"
            " wrote this archive"
        ) from None
    except (ValueError, KeyError, TypeError, AttributeError):
        raise StoreError(
            f"corrupt archive line in {name} at byte {offset} (see `repro archive verify`)"
        ) from None


class SnapshotArchive:
    """A directory of immutable, checksummed snapshot segment files.

    The whole metadata index (segment + byte offset per snapshot id) is
    built by scanning the segments at open time and kept in memory; record
    payloads stay on disk and are read (and checksum-verified) on demand.
    :meth:`refresh` re-scans incrementally -- only bytes past what was
    already indexed -- so long-running readers track a live producer
    cheaply.  One lock serialises all index access.
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        #: snapshot_id -> (segment name, byte offset of its line).
        self._locations: Dict[int, Tuple[str, int]] = {}
        self._metas: Dict[int, StoredSnapshot] = {}
        self._order: List[int] = []  # ascending snapshot ids
        #: Lines indexed per segment (what decides where an append goes).
        self._counts: Dict[str, int] = {}
        #: Per segment: how many bytes have been cleanly indexed.  A torn
        #: trailing line (crash mid-append) keeps this *before* the tear,
        #: so a refresh after the writer completes the line picks it up.
        self._scanned: Dict[str, int] = {}
        #: Segments whose tail was torn at last scan: never appended to
        #: again (writing after the junk would corrupt the next line).
        self._dirty: Set[str] = set()
        with self._lock:
            self._refresh_locked()

    # -- scanning -----------------------------------------------------------------------
    def _segment_names(self) -> List[str]:
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.name.startswith(_SEGMENT_PREFIX)
            and entry.name.endswith(_SEGMENT_SUFFIX)
        )

    def _refresh_locked(self) -> None:
        for name in self._segment_names():
            offset = self._scanned.get(name, 0)
            path = self.root / name
            if path.stat().st_size <= offset:
                continue
            self._dirty.discard(name)
            with open(path, "rb") as handle:
                handle.seek(offset)
                while True:
                    line = handle.readline()
                    if not line:
                        break
                    if not line.endswith(b"\n"):
                        # Unterminated tail: either a crashed append (the
                        # snapshot's hot copy survives and re-archives) or a
                        # concurrent writer mid-line (the next refresh sees
                        # it complete).  Do not advance past it.
                        self._dirty.add(name)
                        break
                    _, meta, _ = _parse_line(name, offset, line)
                    self._index(meta, name, offset)
                    offset += len(line)
                    self._scanned[name] = offset
        self._order.sort()

    def _index(self, meta: StoredSnapshot, name: str, offset: int) -> None:
        """Index *meta*'s line (callers keep ``_order`` sorted)."""
        if meta.snapshot_id not in self._locations:
            self._order.append(meta.snapshot_id)
        self._locations[meta.snapshot_id] = (name, offset)
        self._metas[meta.snapshot_id] = meta
        self._counts[name] = self._counts.get(name, 0) + 1

    def refresh(self) -> None:
        """Index whatever another process appended since the last scan."""
        with self._lock:
            self._refresh_locked()

    # -- appends ------------------------------------------------------------------------
    def append(self, meta: StoredSnapshot, snapshot: WindowSnapshot) -> bool:
        """Append one snapshot's record; idempotent by snapshot id.

        Returns whether a record was written.  The line is flushed and
        fsynced before the index is updated, so a snapshot is never
        considered archived until it is durable -- the tiered backend drops
        the hot copy only after this returns.
        """
        with self._lock:
            if meta.snapshot_id in self._locations:
                return False
            names = self._segment_names()
            if (
                names
                and names[-1] not in self._dirty
                and self._counts.get(names[-1], 0) < SEGMENT_RECORDS
            ):
                name = names[-1]
            else:
                name = _segment_name(len(names) + 1)
            line = _encode_line(snapshot_record(meta, snapshot))
            with open(self.root / name, "ab") as handle:
                offset = handle.tell()
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
            self._index(meta, name, offset)
            self._order.sort()
            self._scanned[name] = offset + len(line)
        return True

    # -- reads --------------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._order)

    def __contains__(self, snapshot_id: int) -> bool:
        with self._lock:
            return snapshot_id in self._locations

    def ids(self) -> List[int]:
        """Archived snapshot ids, ascending."""
        with self._lock:
            return list(self._order)

    def metas(self) -> List[StoredSnapshot]:
        """Metadata of every archived snapshot, ascending snapshot id."""
        with self._lock:
            return [self._metas[snapshot_id] for snapshot_id in self._order]

    def get(self, snapshot_id: int) -> Optional[StoredSnapshot]:
        with self._lock:
            return self._metas.get(snapshot_id)

    def _read_record(self, name: str, offset: int) -> Dict[str, Any]:
        with open(self.root / name, "rb") as handle:
            handle.seek(offset)
            line = handle.readline()
        record, meta, expected = _parse_line(name, offset, line)
        if _checksum(record) != expected:
            raise StoreError(
                f"archive checksum mismatch in {name} at byte {offset}"
                f" (snapshot {meta.snapshot_id})"
            )
        return record

    def load(self, snapshot_id: int) -> Dict[str, Any]:
        """The checksum-verified record of one archived snapshot.

        The record's checksum is verified on every read: serving corrupted
        history would be silently wrong in exactly the longitudinal queries
        the archive exists for.
        """
        with self._lock:
            location = self._locations.get(snapshot_id)
        if location is None:
            raise StoreError(f"no snapshot {snapshot_id} in archive {self.root}")
        return self._read_record(*location)

    # -- maintenance --------------------------------------------------------------------
    def segments(self) -> List[Dict[str, object]]:
        """Per-segment inventory (name, records, bytes, id range)."""
        with self._lock:
            inventory: List[Dict[str, object]] = []
            for name in self._segment_names():
                ids = [key for key, (segment, _) in self._locations.items() if segment == name]
                inventory.append(
                    {
                        "segment": name,
                        "records": self._counts.get(name, 0),
                        "bytes": (self.root / name).stat().st_size,
                        "min_snapshot_id": min(ids, default=None),
                        "max_snapshot_id": max(ids, default=None),
                        "torn_tail": name in self._dirty,
                    }
                )
            return inventory

    def verify(self) -> List[str]:
        """Re-read and checksum every record; returns problem descriptions.

        An empty list means every line parses, every checksum matches, and
        every indexed snapshot loads.  Problems are collected (not raised)
        so one bad segment does not hide the state of the others.
        """
        problems: List[str] = []
        with self._lock:
            locations = dict(self._locations)
        for snapshot_id, (name, offset) in sorted(locations.items()):
            try:
                record = self._read_record(name, offset)
            except StoreError as error:
                problems.append(str(error))
                continue
            if int(record["snapshot_id"]) != snapshot_id:
                problems.append(
                    f"index mismatch in {name} at byte {offset}:"
                    f" expected snapshot {snapshot_id}, found {record['snapshot_id']}"
                )
        return problems

    def compact(self) -> int:
        """Rewrite the archive into densely packed segments.

        Drops tolerated junk (torn trailing lines) and coalesces the
        undersized segments that many small archival batches leave behind.
        Records keep ascending snapshot-id order.  New segments are written
        to temporary files, fsynced, and atomically swapped in; returns the
        number of segment files removed by the rewrite.  Only for offline
        maintenance (``repro archive compact``): concurrent readers of the
        old segment files would race the swap.
        """
        with self._lock:
            old_names = self._segment_names()
            records = [
                self._read_record(*self._locations[snapshot_id])
                for snapshot_id in self._order
            ]
            new_locations: Dict[int, Tuple[str, int]] = {}
            new_scanned: Dict[str, int] = {}
            new_counts: Dict[str, int] = {}
            for start in range(0, len(records), SEGMENT_RECORDS):
                name = _segment_name(len(new_counts) + 1)
                temp = self.root / (name + ".tmp")
                chunk = records[start:start + SEGMENT_RECORDS]
                offset = 0
                with open(temp, "wb") as handle:
                    for record in chunk:
                        line = _encode_line(record)
                        handle.write(line)
                        new_locations[int(record["snapshot_id"])] = (name, offset)
                        offset += len(line)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(temp, self.root / name)
                new_scanned[name] = offset
                new_counts[name] = len(chunk)
            for name in old_names:
                if name not in new_counts:
                    os.unlink(self.root / name)
            self._locations = new_locations
            self._scanned = new_scanned
            self._counts = new_counts
            self._dirty = set()
            return len(old_names) - len(new_counts)

    def stats(self) -> Dict[str, object]:
        """Archive-level statistics (tier totals for ``/v1/stats``)."""
        with self._lock:
            names = self._segment_names()
            return {
                "path": str(self.root),
                "segments": len(names),
                "snapshots": len(self._order),
                "size_bytes": sum((self.root / name).stat().st_size for name in names),
            }


class TieredBackend(SnapshotBackend):
    """Hot backend + cold archive: retention archives instead of deleting.

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
        archive: Union[SnapshotArchive, str, os.PathLike],
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
        self.archive = (
            archive if isinstance(archive, SnapshotArchive) else SnapshotArchive(archive)
        )
        self.retention = retention
        #: Hot generation the archive index was last synced at.  Demotions
        #: bump the hot generation, so "generation moved" is a sufficient
        #: (and cheap) signal that another process may have archived.
        self._cold_synced = -1

    @property
    def url(self) -> str:
        """The hot tier's URL plus the archive directory."""
        return f"{self.hot.url}+archive:{self.archive.root}"

    def close(self) -> None:
        self.hot.close()

    def _cold(self) -> SnapshotArchive:
        """The archive, tail-synced if the hot tier moved since last look."""
        generation = self.hot.generation()
        if generation != self._cold_synced:
            self.archive.refresh()
            self._cold_synced = generation
        return self.archive

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
        """Archive one hot snapshot, then drop it from the hot tier."""
        self.archive.append(meta, self.hot.load_snapshot(meta.snapshot_id))
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
        immutable, so there is nothing further to drop.
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
    def __len__(self) -> int:
        return len(self.hot) + len(self._cold())

    # A hot answer wins; a StoredSnapshot is always truthy.
    def _newest_cold(
        self, match: Callable[[StoredSnapshot], bool]
    ) -> Optional[StoredSnapshot]:
        return next((meta for meta in reversed(self._cold().metas()) if match(meta)), None)

    def latest(self) -> Optional[StoredSnapshot]:
        return self.hot.latest() or self._newest_cold(lambda cold: True)

    def get(self, snapshot_id: int) -> Optional[StoredSnapshot]:
        return self.hot.get(snapshot_id) or self._cold().get(snapshot_id)

    def by_window_end(self, window_end: int) -> Optional[StoredSnapshot]:
        return self.hot.by_window_end(window_end) or self._newest_cold(
            lambda cold: cold.window_end == window_end
        )

    def find_window(
        self, kind: str, window_start: int, window_end: int
    ) -> Optional[StoredSnapshot]:
        key = (kind, window_start, window_end)
        return self.hot.find_window(*key) or self._newest_cold(
            lambda cold: (cold.kind, cold.window_start, cold.window_end) == key
        )

    def latest_window_end(self, kind: str = "window") -> Optional[int]:
        ends = [meta.window_end for meta in self._cold().metas() if meta.kind == kind]
        hot_end = self.hot.latest_window_end(kind)
        return max(ends + ([] if hot_end is None else [hot_end]), default=None)

    def snapshots(self) -> List[StoredSnapshot]:
        return sorted(
            self._cold().metas() + self.hot.snapshots(),
            key=lambda meta: meta.snapshot_id,
        )

    # -- full snapshot reads ------------------------------------------------------------
    def load_snapshot(self, snapshot_id: int) -> WindowSnapshot:
        try:
            return self.hot.load_snapshot(snapshot_id)
        except StoreError:
            # Demoted (possibly concurrently): the record holds the hot
            # tier's columns and is rebuilt the way the hot tier rebuilds
            # them, so cold reads serve byte-identical bodies.
            return snapshot_from_record(self._cold().load(snapshot_id))[1]

    def changes(self, snapshot_id: int) -> Dict[ASN, Tuple[str, str]]:
        if self.hot.get(snapshot_id) is not None:
            return self.hot.changes(snapshot_id)
        if snapshot_id in self._cold():
            return snapshot_from_record(self.archive.load(snapshot_id))[1].changed
        return {}

    # -- per-AS queries -----------------------------------------------------------------
    def as_history(
        self, asn: ASN, *, limit: Optional[int] = None
    ) -> List[ASHistoryEntry]:
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        entries = self.hot.as_history(asn, limit=limit)
        if not 0 <= int(asn) < 1 << 64:  # outside the ASN column's dtype
            return entries
        needle = np.uint64(asn)
        for meta in reversed(self._cold().metas()):
            if limit is not None and len(entries) >= limit:
                break
            columns = record_columns(self.archive.load(meta.snapshot_id))
            entry = column_history_entry(
                columns, needle, meta.snapshot_id, meta.window_start, meta.window_end
            )
            if entry is not None:
                entries.append(entry)
        return entries

    # -- statistics ---------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        hot_stats = self.hot.stats()
        archive_stats = self._cold().stats()
        return {
            "backend": "tiered",
            "path": self.url,
            "generation": self.generation(),
            "snapshots": len(self.hot) + len(self.archive),
            "retention": self.retention,
            "size_bytes": (
                int(hot_stats.get("size_bytes", 0) or 0)
                + int(archive_stats.get("size_bytes", 0) or 0)
            ),
            "pruned_through": self.pruned_through(),
            "applied_generation": self.applied_generation(),
            "leader_epoch": self.leader_epoch(),
            "hot": hot_stats,
            "archive": archive_stats,
        }

    # -- ingest telemetry ---------------------------------------------------------------
    def set_ingest_stats(self, stats: Dict[str, object]) -> None:
        """Delegate to the hot tier (durable there when the hot tier is)."""
        self.hot.set_ingest_stats(stats)

    def ingest_stats(self) -> Optional[Dict[str, object]]:
        return self.hot.ingest_stats()
