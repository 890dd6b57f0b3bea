"""Types, validation and the wire codec shared by the snapshot store.

The store itself is :class:`~repro.service.backends.sqlite.SnapshotStore`
(SQLite, on a WAL file or in process as ``:memory:``, with an optional cold
tier that is a second ``SnapshotStore``).  This module holds what it shares
with its callers and with the dict-based reference store of
``tests/store_oracle.py``: the metadata and history records, the errors,
and the append-path validation helpers.

This module also owns the one snapshot encoding below the HTTP edge: a
result's column blob (``_encode_columns``: ascending ASNs, class codes and
the ``(4, n)`` counters, zlib'd) that the SQLite store keeps per snapshot,
in the hot tier and the cold one alike.  Replication pages carry it wrapped
by :func:`snapshot_record` in a flat record with the snapshot's metadata and
change set; :func:`snapshot_from_record` is its one reader.
:func:`snapshot_payload`, the per-AS JSON the HTTP API serves, is built from
a loaded snapshot at the edge only.
"""

from __future__ import annotations

import base64
import os
import zlib
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import NDArray

from repro.bgp.asn import ASN
from repro.core.counters import COUNTER_NAMES, ASCounters
from repro.core.results import ClassificationResult
from repro.core.thresholds import Thresholds
from repro.stream.engine import WindowSnapshot

#: Snapshot kinds a store accepts.
SNAPSHOT_KINDS = ("window", "batch")

#: The ``"format"`` of a :func:`snapshot_record`; a reader refuses any other.
RECORD_FORMAT = 2

#: One snapshot's decoded ``(asns <u8, codes u1, (4, n) counters <i8)``.
Columns = Tuple[NDArray[np.uint64], NDArray[np.uint8], NDArray[np.int64]]


class StoreError(Exception):
    """Raised for unusable stores and invalid store operations."""


class FencedWriterError(StoreError):
    """A write carried a stale leader epoch and was rejected.

    The failover fence: writers capture the store's ``leader_epoch()``
    when they attach and stamp it on every append.  Promotion bumps the
    durable epoch, so a deposed leader that wakes up and keeps publishing
    is rejected on its first append instead of forking history.  Recover by
    re-attaching to the store (which captures the new epoch) -- or, for a
    deposed leader, by demoting it to a follower of the promoted host.
    """


class RecordFormatError(StoreError):
    """A snapshot record is not in :data:`RECORD_FORMAT` (another version wrote it)."""


@dataclass(frozen=True)
class StoredSnapshot:
    """Metadata row of one persisted snapshot (records fetched separately)."""

    snapshot_id: int
    kind: str
    window_start: int
    window_end: int
    skipped_windows: int
    events_total: int
    unique_tuples: int
    algorithm: str
    thresholds: Thresholds
    #: Store generation this snapshot committed at.  Local to the writing
    #: store: a replica applying this snapshot gets its *own* generation, and
    #: tracks the leader's separately (see ``applied_generation``).
    generation: int = 0


@dataclass(frozen=True)
class ASHistoryEntry:
    """One AS's classification in one persisted snapshot."""

    snapshot_id: int
    window_start: int
    window_end: int
    code: str
    counters: ASCounters

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly view used by the HTTP API."""
        return {
            "snapshot_id": self.snapshot_id,
            "window_start": self.window_start,
            "window_end": self.window_end,
            "code": self.code,
            "counters": _counters_dict(self.counters),
        }


def _counters_dict(counters: ASCounters) -> Dict[str, int]:
    return dict(zip(COUNTER_NAMES, counters.as_tuple()))


def _shares_dict(counters: ASCounters) -> Dict[str, float]:
    return {
        "tagger": counters.tagger_share(),
        "silent": counters.silent_share(),
        "forward": counters.forward_share(),
        "cleaner": counters.cleaner_share(),
    }


def snapshot_payload(snapshot: WindowSnapshot) -> Dict[str, object]:
    """The per-AS JSON body of one window snapshot, as the HTTP API serves it.

    Built at the HTTP edge only, from a snapshot loaded from a store;
    tests compare it against the payload of the engine's in-memory snapshot
    to pin down store round-trip fidelity field by field.
    """
    result = snapshot.result
    ases: Dict[str, object] = {}
    for asn, code, *quad in result.records():
        counters = ASCounters.from_tuple(quad)
        ases[str(asn)] = {
            "code": code,
            "counters": _counters_dict(counters),
            "shares": _shares_dict(counters),
        }
    return {
        "window_start": snapshot.window_start,
        "window_end": snapshot.window_end,
        "skipped_windows": snapshot.skipped_windows,
        "events_total": snapshot.events_total,
        "unique_tuples": snapshot.unique_tuples,
        "algorithm": result.algorithm,
        "summary": snapshot.summary(),
        "ases": ases,
        "changed": {
            str(asn): [old, new] for asn, (old, new) in sorted(snapshot.changed.items())
        },
    }


def _encode_columns(
    asns: Sequence[int], codes: NDArray[np.uint8], counters: NDArray[np.int64]
) -> bytes:
    """One snapshot's column blob: ``zlib(asns <u8 || codes u1 || counters <i8)``."""
    raw = np.asarray(asns, "<u8").tobytes() + np.asarray(codes, "u1").tobytes()
    return zlib.compress(raw + np.asarray(counters, "<i8").tobytes(), 1)


def _decode_columns(rows: int, blob: bytes) -> Columns:
    """Read-only views over the decompressed *blob* of *rows* AS rows."""
    raw = zlib.decompress(blob)
    return (
        np.frombuffer(raw, "<u8", rows),
        np.frombuffer(raw, "u1", rows, 8 * rows),
        np.frombuffer(raw, "<i8", 4 * rows, 9 * rows).reshape(4, rows),
    )


def stored_window(
    meta: StoredSnapshot, columns: Columns, changed: Dict[ASN, Tuple[str, str]]
) -> WindowSnapshot:
    """The snapshot *meta* describes, rebuilt over its decoded *columns*.

    Codes are recomputed from the counters and *meta*'s thresholds; every
    stored snapshot (hot, cold or replicated) is read back through here.
    """
    asns, _, counters = columns
    return WindowSnapshot(
        window_start=meta.window_start,
        window_end=meta.window_end,
        skipped_windows=meta.skipped_windows,
        events_total=meta.events_total,
        unique_tuples=meta.unique_tuples,
        result=ClassificationResult(asns, counters, meta.thresholds, meta.algorithm),
        changed=changed,
    )


def snapshot_record(meta: StoredSnapshot, snapshot: WindowSnapshot) -> Dict[str, Any]:
    """The flat, JSON-ready record of one stored snapshot: *meta*'s fields,
    the change set and the result's column blob (base64)."""
    asns, codes, counters = snapshot.result.columns()
    return {
        "format": RECORD_FORMAT,
        **{field.name: getattr(meta, field.name) for field in fields(meta)},
        "thresholds": meta.thresholds.as_list(),
        "changed": {str(asn): [old, new] for asn, (old, new) in snapshot.changed.items()},
        "rows": len(asns),
        "columns": base64.b64encode(_encode_columns(asns, codes, counters)).decode("ascii"),
    }


def record_meta(record: Dict[str, Any]) -> StoredSnapshot:
    """The :class:`StoredSnapshot` of a :func:`snapshot_record`.

    Raises :class:`RecordFormatError` for any other format.
    """
    if record.get("format") != RECORD_FORMAT:
        raise RecordFormatError(
            f"snapshot record format {record.get('format')!r}, this version reads"
            f" format {RECORD_FORMAT} only"
        )
    values = {field.name: record[field.name] for field in fields(StoredSnapshot)}
    return StoredSnapshot(**{**values, "thresholds": Thresholds(*values["thresholds"])})


def snapshot_from_record(record: Dict[str, Any]) -> Tuple[StoredSnapshot, WindowSnapshot]:
    """The metadata and the snapshot of a :func:`snapshot_record`."""
    meta = record_meta(record)
    changed = {int(asn): (old, new) for asn, (old, new) in record["changed"].items()}
    columns = _decode_columns(record["rows"], base64.b64decode(record["columns"]))
    return meta, stored_window(meta, columns, changed)


def require_valid_kind(kind: str) -> None:
    """Shared append-path validation of the snapshot kind."""
    if kind not in SNAPSHOT_KINDS:
        raise ValueError(f"unknown snapshot kind {kind!r}")


def require_valid_retention(retention: Optional[int]) -> None:
    """Shared constructor validation of a retention cap."""
    if retention is not None and retention < 1:
        raise ValueError(f"retention must be >= 1, got {retention}")


def require_current_epoch(epoch: Optional[int], leader_epoch: int) -> None:
    """Shared append-path fencing check.

    Stores call this inside their write transaction (or under their write
    lock), so the comparison and the append are atomic with respect to a
    concurrent promotion.  ``None`` means the writer opted out of fencing
    (local single-writer deployments), which keeps every pre-failover call
    site working unchanged.
    """
    if epoch is not None and epoch < leader_epoch:
        raise FencedWriterError(
            f"write fenced: writer epoch {epoch} is behind leader epoch "
            f"{leader_epoch} -- this writer was deposed by a promotion; "
            "re-attach to the store or demote it to a follower"
        )


def parse_store_url(url: Union[str, os.PathLike]) -> str:
    """The SQLite target (a file path or ``":memory:"``) a store URL names.

    ``sqlite:path`` is explicit, and ``memory:`` names SQLite's own
    in-process ``:memory:`` database; anything else (including the
    SQLite-native ``:memory:`` spelling) is a plain filesystem path, so
    every pre-URL call site keeps working unchanged.
    """
    text = str(url)
    if text.startswith("memory:"):
        if text != "memory:":
            raise ValueError(
                f"memory: stores are anonymous and per-process, got {text!r}"
            )
        return ":memory:"
    if text.startswith("sqlite:"):
        target = text[len("sqlite:"):]
        if not target:
            raise ValueError(f"sqlite: store URL needs a path, got {text!r}")
        return target
    return text


__all__ = [
    "ASHistoryEntry",
    "FencedWriterError",
    "RECORD_FORMAT",
    "RecordFormatError",
    "SNAPSHOT_KINDS",
    "StoreError",
    "StoredSnapshot",
    "parse_store_url",
    "require_current_epoch",
    "require_valid_kind",
    "require_valid_retention",
    "snapshot_from_record",
    "snapshot_payload",
    "snapshot_record",
    "stored_window",
]
