"""The dict-based snapshot store the SQLite store is held to.

:class:`ReferenceStore` is the in-process backend ``repro.service`` shipped
as ``MemoryBackend`` until ``memory:`` store URLs became SQLite's own
``:memory:`` database.  It keeps every snapshot in plain Python structures
behind one re-entrant lock, and each contract rule (id allocation,
generation monotonicity, retention horizons, pinned-id divergence) is a few
readable lines free of SQL.  It shares no storage code with production --
only the records and the shared validation helpers of
:mod:`repro.service.backends.base` -- so the conformance suite
(``tests/test_backends.py``) holds it to the store's contract, and
``tests/test_columnar_store.py`` holds the SQLite store, file-backed and
``:memory:``, to it read for read.

Snapshot ids mirror SQLite's AUTOINCREMENT semantics -- monotonically
increasing and never reused, and a pinned id advances the allocator past
itself -- so replication and archival behave identically on top of either.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bgp.asn import ASN
from repro.core.counters import ASCounters
from repro.core.results import ClassificationResult
from repro.service.backends.base import (
    ASHistoryEntry,
    StoredSnapshot,
    StoreError,
    require_current_epoch,
    require_valid_kind,
    require_valid_retention,
)
from repro.stream.engine import WindowSnapshot


def records_of(snapshot: WindowSnapshot) -> List[Tuple[int, str, int, int, int, int]]:
    """The per-AS record rows the reference keeps, in ascending ASN order."""
    return snapshot.result.records()


def snapshot_from_records(
    meta: StoredSnapshot,
    records: List[Tuple[int, str, int, int, int, int]],
    changed: Dict[ASN, Tuple[str, str]],
) -> WindowSnapshot:
    """Rebuild a :class:`WindowSnapshot` from persisted record rows.

    The reconstruction is field-faithful: per-AS codes recompute from the
    raw counters and the persisted thresholds, the observed-AS set includes
    all-zero rows, and the change map round-trips as stored.
    """
    asns = [row[0] for row in records]
    counters = np.array([row[2:] for row in records], dtype=np.int64).reshape(-1, 4).T
    result = ClassificationResult(asns, counters, meta.thresholds, meta.algorithm)
    return WindowSnapshot(
        window_start=meta.window_start,
        window_end=meta.window_end,
        skipped_windows=meta.skipped_windows,
        events_total=meta.events_total,
        unique_tuples=meta.unique_tuples,
        result=result,
        changed=dict(changed),
    )


class _Row:
    """One stored snapshot: metadata + per-AS records + change set."""

    __slots__ = ("meta", "records", "changed")

    def __init__(
        self,
        meta: StoredSnapshot,
        records: Dict[int, Tuple[str, int, int, int, int]],
        changed: Dict[ASN, Tuple[str, str]],
    ) -> None:
        self.meta = meta
        self.records = records
        self.changed = changed


class ReferenceStore:
    """Dictionary-backed snapshot store: the contract in plain Python."""

    def __init__(self, *, retention: Optional[int] = None) -> None:
        require_valid_retention(retention)
        self.retention = retention
        self._lock = threading.RLock()
        self._rows: Dict[int, _Row] = {}
        self._order: List[int] = []  # insertion order == ascending ids
        self._next_id = 1
        self._generation = 0
        self._pruned_through = 0
        self._applied_generation = 0
        self._leader_epoch = 0
        self._ingest_stats: Optional[Dict[str, object]] = None
        self._closed = False

    @property
    def url(self) -> str:
        """Anonymous: every instance is a fresh store, which no store URL opens."""
        return "reference:"

    def _check_open(self) -> None:
        if self._closed:
            raise StoreError("store is closed")

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._rows.clear()
            self._order.clear()

    def __enter__(self) -> "ReferenceStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

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
        require_valid_kind(kind)
        result = snapshot.result
        thresholds = result.thresholds
        records = {
            asn: (code, tagger, silent, forward, cleaner)
            for asn, code, tagger, silent, forward, cleaner in records_of(snapshot)
        }
        window = (kind, snapshot.window_start, snapshot.window_end)
        with self._lock:
            self._check_open()
            # Fencing first: a deposed writer must not even see dedup success.
            require_current_epoch(epoch, self._leader_epoch)
            if if_absent:
                for existing_id in reversed(self._order):
                    meta = self._rows[existing_id].meta
                    if (meta.kind, meta.window_start, meta.window_end) == window:
                        return existing_id
            if snapshot_id is not None:
                taken = self._rows.get(snapshot_id)
                if taken is not None:
                    held = (
                        taken.meta.kind,
                        taken.meta.window_start,
                        taken.meta.window_end,
                    )
                    if held == window:
                        return snapshot_id
                    raise StoreError(
                        f"snapshot id {snapshot_id} already holds window {held!r},"
                        f" not {window!r} -- replica diverged from its leader"
                    )
                # AUTOINCREMENT semantics: an explicit id advances the
                # allocator, so later auto-assigned ids never collide.
                self._next_id = max(self._next_id, snapshot_id + 1)
            else:
                snapshot_id = self._next_id
                self._next_id += 1
            self._generation += 1
            self._rows[snapshot_id] = _Row(
                meta=StoredSnapshot(
                    snapshot_id=snapshot_id,
                    kind=kind,
                    window_start=snapshot.window_start,
                    window_end=snapshot.window_end,
                    skipped_windows=snapshot.skipped_windows,
                    events_total=snapshot.events_total,
                    unique_tuples=snapshot.unique_tuples,
                    algorithm=result.algorithm,
                    thresholds=thresholds,
                    generation=self._generation,
                ),
                records=records,
                changed=dict(snapshot.changed),
            )
            # Pinned ids may arrive out of order (replication applies in the
            # leader's commit order, but batch + window kinds interleave);
            # keep the scan order id-ascending like the SQLite primary key.
            self._order.append(snapshot_id)
            self._order.sort()
            if self.retention is not None:
                self._apply_retention()
        return snapshot_id

    def _apply_retention(self) -> int:
        """Drop the oldest snapshots beyond the cap (caller holds the lock)."""
        assert self.retention is not None
        dropped = 0
        while len(self._order) > self.retention:
            stale_id = self._order.pop(0)
            row = self._rows.pop(stale_id)
            self._pruned_through = max(self._pruned_through, row.meta.generation)
            dropped += 1
        return dropped

    def drop_snapshot(self, snapshot_id: int) -> bool:
        with self._lock:
            self._check_open()
            row = self._rows.pop(snapshot_id, None)
            if row is None:
                return False
            self._order.remove(snapshot_id)
            self._pruned_through = max(self._pruned_through, row.meta.generation)
            self._generation += 1
        return True

    def compact(self) -> int:
        with self._lock:
            self._check_open()
            dropped = 0
            if self.retention is not None:
                dropped = self._apply_retention()
            if dropped:
                self._generation += 1
        return dropped

    # -- generation bookkeeping ---------------------------------------------------------
    def generation(self) -> int:
        with self._lock:
            self._check_open()
            return self._generation

    def pruned_through(self) -> int:
        with self._lock:
            self._check_open()
            return self._pruned_through

    def applied_generation(self) -> int:
        with self._lock:
            self._check_open()
            return self._applied_generation

    def set_applied_generation(self, generation: int) -> None:
        if generation < 0:
            raise ValueError(f"generation must be >= 0, got {generation}")
        with self._lock:
            self._check_open()
            self._applied_generation = max(self._applied_generation, generation)

    def leader_epoch(self) -> int:
        with self._lock:
            self._check_open()
            return self._leader_epoch

    def bump_leader_epoch(self) -> int:
        with self._lock:
            self._check_open()
            self._leader_epoch += 1
            return self._leader_epoch

    # -- metadata reads -----------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            self._check_open()
            return len(self._order)

    def latest(self) -> Optional[StoredSnapshot]:
        with self._lock:
            self._check_open()
            if not self._order:
                return None
            return self._rows[self._order[-1]].meta

    def get(self, snapshot_id: int) -> Optional[StoredSnapshot]:
        with self._lock:
            self._check_open()
            row = self._rows.get(snapshot_id)
            return row.meta if row is not None else None

    def by_window_end(self, window_end: int) -> Optional[StoredSnapshot]:
        with self._lock:
            self._check_open()
            for snapshot_id in reversed(self._order):
                meta = self._rows[snapshot_id].meta
                if meta.window_end == window_end:
                    return meta
        return None

    def find_window(
        self, kind: str, window_start: int, window_end: int
    ) -> Optional[StoredSnapshot]:
        with self._lock:
            self._check_open()
            for snapshot_id in reversed(self._order):
                meta = self._rows[snapshot_id].meta
                if (meta.kind, meta.window_start, meta.window_end) == (
                    kind,
                    window_start,
                    window_end,
                ):
                    return meta
        return None

    def latest_window_end(self, kind: str = "window") -> Optional[int]:
        with self._lock:
            self._check_open()
            ends = [
                self._rows[snapshot_id].meta.window_end
                for snapshot_id in self._order
                if self._rows[snapshot_id].meta.kind == kind
            ]
            return max(ends) if ends else None

    def snapshots(self) -> List[StoredSnapshot]:
        with self._lock:
            self._check_open()
            return [self._rows[snapshot_id].meta for snapshot_id in self._order]

    def snapshots_since(
        self, generation: int, *, limit: Optional[int] = None
    ) -> List[StoredSnapshot]:
        if generation < 0:
            raise ValueError(f"generation must be >= 0, got {generation}")
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        with self._lock:
            self._check_open()
            metas = sorted(
                (
                    self._rows[snapshot_id].meta
                    for snapshot_id in self._order
                    if self._rows[snapshot_id].meta.generation > generation
                ),
                key=lambda meta: (meta.generation, meta.snapshot_id),
            )
            return metas[:limit] if limit is not None else metas

    # -- full snapshot reads ------------------------------------------------------------
    def load_snapshot(self, snapshot_id: int) -> WindowSnapshot:
        with self._lock:
            self._check_open()
            row = self._rows.get(snapshot_id)
            if row is None:
                raise StoreError(f"no snapshot {snapshot_id} in memory store")
            records = [
                (asn, code, tagger, silent, forward, cleaner)
                for asn, (code, tagger, silent, forward, cleaner) in row.records.items()
            ]
            return snapshot_from_records(row.meta, records, row.changed)

    def changes(self, snapshot_id: int) -> Dict[ASN, Tuple[str, str]]:
        with self._lock:
            self._check_open()
            row = self._rows.get(snapshot_id)
            return dict(row.changed) if row is not None else {}

    # -- per-AS queries -----------------------------------------------------------------
    def as_history(
        self, asn: ASN, *, limit: Optional[int] = None
    ) -> List[ASHistoryEntry]:
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        key = int(asn)
        entries: List[ASHistoryEntry] = []
        with self._lock:
            self._check_open()
            for snapshot_id in reversed(self._order):
                row = self._rows[snapshot_id]
                record = row.records.get(key)
                if record is None:
                    continue
                code, tagger, silent, forward, cleaner = record
                entries.append(
                    ASHistoryEntry(
                        snapshot_id=snapshot_id,
                        window_start=row.meta.window_start,
                        window_end=row.meta.window_end,
                        code=code,
                        counters=ASCounters(
                            tagger=tagger, silent=silent, forward=forward, cleaner=cleaner
                        ),
                    )
                )
                if limit is not None and len(entries) >= limit:
                    break
        return entries

    def as_latest(self, asn: ASN) -> Optional[ASHistoryEntry]:
        history = self.as_history(asn, limit=1)
        return history[0] if history else None

    # -- statistics ---------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        with self._lock:
            self._check_open()
            record_count = sum(len(row.records) for row in self._rows.values())
            distinct = len({asn for row in self._rows.values() for asn in row.records})
            size_bytes = sum(
                sys.getsizeof(row.records) + sys.getsizeof(row.changed)
                for row in self._rows.values()
            )
            return {
                "backend": "reference",
                "path": self.url,
                "generation": self._generation,
                "snapshots": len(self._order),
                "as_records": record_count,
                "distinct_ases": distinct,
                "retention": self.retention,
                "size_bytes": size_bytes,
                "pruned_through": self._pruned_through,
                "applied_generation": self._applied_generation,
                "leader_epoch": self._leader_epoch,
            }

    # -- ingest telemetry ---------------------------------------------------------------
    def set_ingest_stats(self, stats: Dict[str, object]) -> None:
        self._ingest_stats = dict(stats)

    def ingest_stats(self) -> Optional[Dict[str, object]]:
        return self._ingest_stats
