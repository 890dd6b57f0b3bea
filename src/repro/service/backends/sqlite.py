"""The snapshot store: SQLite in WAL mode, with an optional cold tier.

:class:`SnapshotStore` persists every
:class:`~repro.stream.engine.WindowSnapshot` (and batch
:class:`~repro.core.results.ClassificationResult`) into a single SQLite
database in WAL mode, so results outlive the producing process and many
concurrent readers can share one producer.  The HTTP server, the worker
fan-out, the publishers, replication and the CLI all use it:

* **atomic writes** -- one snapshot is one transaction; readers never see a
  half-written snapshot;
* **one schema version** -- the database carries its schema version, and
  the store opens only :data:`SCHEMA_VERSION` files: any other version is
  one :class:`StoreError`, raised before anything is written, so the file
  is left as it was (rebuild it with ``repro stream --store`` or ``repro
  replicate --store``);
* **retention / compaction** -- an optional cap on retained window
  snapshots, applied at append time, plus an explicit :meth:`compact`;
* **a cold tier** -- with ``archive_dir`` the snapshots retention removes
  are *archived* into a second, uncapped store at
  ``<archive_dir>/archive.db`` (:func:`open_archive`) instead of deleted,
  and reads fall through to it for the ids this file does not hold, so
  per-AS history and old windows stay queryable beyond the cap;
* **one row of columns per snapshot** -- ``snapshot_columns``
  holds a snapshot's per-AS rows as ``zlib.compress(asns <u8 || codes u1 ||
  counters <i8 (4 x n, row-major), level 1)``, apart from the ``snapshots``
  metadata so metadata scans never touch blob pages.  ``as_buckets (asn,
  bucket)`` indexes which runs of ``2 ** _BUCKET_BITS`` snapshot ids held an
  AS; per-AS history probes it and ``searchsorted``-s the ASN columns of
  those runs' snapshots, newest first.  Decoded columns are cached on
  ``(snapshot_id, generation)`` -- unique, so a pinned id re-used after a
  drop never hits a stale entry -- up to ``_CACHE_ROWS`` AS rows;
* **a digest per snapshot** -- ``snapshots.digest`` is the
  32-byte sha256 of the snapshot's metadata row (its store-local
  ``generation`` excepted), its column blob and its change set, kept on the
  small metadata row rather than beside the blob.  It is the same on a
  leader, its followers and the cold tier.  Every read that
  decodes a blob (a cache miss) and every :meth:`changes` read check it
  first, and :meth:`verify` re-checks every row, so a changed byte raises
  :class:`StoreError` instead of serving wrong history;
* **generation counter** -- every committed write bumps a monotonically
  increasing generation, which the HTTP server uses to key its read cache;
* **generation-addressed changelog** -- every snapshot records the
  generation it committed at, so :meth:`snapshots_since` can page through
  "everything committed after generation G" in commit order.  This is the
  replication feed (:mod:`repro.service.replication`): a follower remembers
  the last leader generation it applied (:meth:`set_applied_generation`,
  durably in the ``meta`` table) and the leader remembers the newest
  generation its retention ever pruned (:meth:`pruned_through`), so a
  lagging follower that retention overtook is detected instead of silently
  skipping windows.

Reads and writes may come from different threads: each thread gets its own
SQLite connection (WAL readers do not block the writer), and writes are
serialised through a lock.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
import zlib
from collections import OrderedDict
from contextlib import closing, contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.bgp.asn import ASN
from repro.core.classes import CLASS_CODES
from repro.core.counters import ASCounters
from repro.core.thresholds import Thresholds
from repro.service.backends.base import (
    ASHistoryEntry,
    Columns,
    StoredSnapshot,
    StoreError,
    _decode_columns,
    _encode_columns,
    require_current_epoch,
    require_valid_kind,
    require_valid_retention,
    stored_window,
)
from repro.stream.engine import WindowSnapshot

#: The one on-disk schema version this module reads and writes.
SCHEMA_VERSION = 4

#: The cold tier's file inside an archive directory.
ARCHIVE_DB = "archive.db"

#: Decoded column sets stay cached until they hold this many AS rows in all
#: (41 bytes a row: ~43 MB at most per store object).
_CACHE_ROWS = 1 << 20

#: ``as_buckets`` indexes runs of ``2 ** _BUCKET_BITS`` snapshot ids.  Part of
#: the on-disk format: a file is only readable under the width it was written
#: with.
_BUCKET_BITS = 6

#: SQLite's historic default variable cap is 999; retention prunes delete in
#: chunks below it so one giant prune still batches instead of erroring.
_DELETE_CHUNK = 500

#: Leaving a fresh file's rollback journal for WAL takes an exclusive lock.
#: SQLite refuses one of two first opens that ask at once ("database is
#: locked") rather than wait into a deadlock, so an open asks up to this many
#: times, 10 ms apart.
_WAL_ATTEMPTS = 100

#: One snapshot's digest-checked columns and change set (a cache entry).
Stored = Tuple[Columns, Dict[ASN, Tuple[str, str]]]


# Individual statements (not one script) so initialisation can run them
# inside a single BEGIN IMMEDIATE transaction: executescript() would commit
# the transaction first, and concurrent multi-process first opens (every
# fan-out worker opens the store) must serialise creating a fresh file.
_SCHEMA_STATEMENTS = (
    """
    CREATE TABLE IF NOT EXISTS snapshots (
        id              INTEGER PRIMARY KEY AUTOINCREMENT,
        kind            TEXT NOT NULL,
        window_start    INTEGER NOT NULL,
        window_end      INTEGER NOT NULL,
        skipped_windows INTEGER NOT NULL,
        events_total    INTEGER NOT NULL,
        unique_tuples   INTEGER NOT NULL,
        algorithm       TEXT NOT NULL,
        thresholds      TEXT NOT NULL,
        generation      INTEGER NOT NULL DEFAULT 0,
        digest          BLOB
    )
    """,
    "CREATE INDEX IF NOT EXISTS idx_snapshots_window_end ON snapshots (window_end)",
    "CREATE INDEX IF NOT EXISTS idx_snapshots_generation ON snapshots (generation)",
    """
    CREATE TABLE IF NOT EXISTS snapshot_columns (
        snapshot_id INTEGER PRIMARY KEY,
        rows        INTEGER NOT NULL,
        columns     BLOB NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS as_buckets (
        asn    INTEGER NOT NULL,
        bucket INTEGER NOT NULL,
        PRIMARY KEY (asn, bucket)
    ) WITHOUT ROWID
    """,
    "CREATE INDEX IF NOT EXISTS idx_as_buckets_bucket ON as_buckets (bucket)",
    """
    CREATE TABLE IF NOT EXISTS changes (
        snapshot_id INTEGER NOT NULL,
        asn         INTEGER NOT NULL,
        old_code    TEXT NOT NULL,
        new_code    TEXT NOT NULL,
        PRIMARY KEY (snapshot_id, asn)
    ) WITHOUT ROWID
    """,
)


#: One snapshot as its digest covers it: the ``snapshots`` row (``generation``
#: excepted), the column row count, then the digest, the blob and the change
#: set (as JSON), read in one statement so a concurrent drop cannot tear it.
_STORED = (
    "SELECT s.id, s.kind, s.window_start, s.window_end, s.skipped_windows,"
    " s.events_total, s.unique_tuples, s.algorithm, s.thresholds, c.rows, s.digest,"
    " c.columns, (SELECT json_group_array(json_array(asn, old_code, new_code))"
    " FROM changes WHERE snapshot_id = s.id)"
    " FROM snapshots s LEFT JOIN snapshot_columns c ON c.snapshot_id = s.id"
)


def _digest(header: Sequence[object], blob: bytes, changes: Sequence[Sequence[object]]) -> bytes:
    """The sha256 of one snapshot: *header* (``_STORED``'s leading columns), its
    change set in ascending ASN order, and its column *blob*."""
    text = json.dumps([list(header), sorted(changes)], separators=(",", ":"))
    return hashlib.sha256(text.encode() + blob).digest()


def _checked(row: Tuple[Any, ...]) -> Tuple[int, bytes, Dict[ASN, Tuple[str, str]]]:
    """The row count, blob and change set of one ``_STORED`` row.

    Raises :class:`StoreError` unless the row's digest matches what it holds.
    """
    *header, digest, blob, text = row
    changes = sorted(json.loads(text))
    if blob is None or digest != _digest(header, blob, changes):
        raise StoreError(
            f"snapshot {header[0]} does not match its digest: its columns, metadata"
            " or change set changed after it was written"
        )
    return header[-1], blob, {asn: (old, new) for asn, old, new in changes}


def _write_columns(
    connection: sqlite3.Connection, snapshot_id: int, asns: List[int], blob: bytes
) -> None:
    """Store one snapshot's column *blob* and index its ASNs under its bucket.

    ``json_each`` keeps the index insert one statement; ASNs already in the
    bucket (most of them, window after window) cost a probe, not a write.
    """
    connection.execute(
        "INSERT INTO snapshot_columns (snapshot_id, rows, columns) VALUES (?, ?, ?)",
        (snapshot_id, len(asns), blob),
    )
    connection.execute(
        "INSERT OR IGNORE INTO as_buckets (asn, bucket) SELECT value, ? FROM json_each(?)",
        (snapshot_id >> _BUCKET_BITS, json.dumps(asns)),
    )


class SnapshotStore:
    """SQLite-WAL-backed persistence for classification snapshots.

    The store keeps these invariants (``tests/test_backends.py`` holds it,
    and the dict-based ``tests/store_oracle.py::ReferenceStore``, to them):
    one append is atomic -- readers see the whole snapshot at a newer
    generation or none of it; ``if_absent`` appends are idempotent per
    ``(kind, window_start, window_end)`` and do not move the generation
    when they deduplicate; pinned snapshot ids are honoured, and a pinned id
    already taken by a *different* window raises :class:`StoreError`
    (replica divergence); ids are never reused after a drop; the generation
    is strictly monotonic across committed writes, ``pruned_through`` only
    rises and ``set_applied_generation`` only moves forward; and reads may
    come from many threads while one writer appends.  With an archive every
    read counts each snapshot id once, whichever tiers hold it.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        *,
        retention: Optional[int] = None,
        archive_dir: Optional[Union[str, os.PathLike]] = None,
        durable: bool = False,
    ) -> None:
        """Open (creating if needed) the store at *path*.

        *archive_dir* gives the store a cold tier (:func:`open_archive`):
        the snapshots retention, :meth:`compact` or :meth:`drop_snapshot`
        remove are archived there first.  *durable* fsyncs every commit
        (``PRAGMA synchronous=FULL``) instead of at WAL checkpoints: the cold
        tier, whose copy of a snapshot must be on disk before the hot copy
        is deleted.
        """
        require_valid_retention(retention)
        self.path = str(path)
        self.retention = retention
        self._synchronous = "FULL" if durable else "NORMAL"
        self._write_lock = threading.Lock()
        self._local = threading.local()
        self._closed = False
        # Every connection ever opened, so close() can release them all --
        # thread-local handles of retired reader threads included.
        self._connections: List[sqlite3.Connection] = []
        self._connections_lock = threading.Lock()
        # In-memory databases are per-connection; share one connection (and
        # serialise reads through the write lock) so ":memory:" (what a
        # ``memory:`` store URL opens) is one database.
        self._shared: Optional[sqlite3.Connection] = None
        self._column_cache: "OrderedDict[Tuple[int, int], Stored]" = OrderedDict()
        self._cached_rows = 0
        self._cache_lock = threading.Lock()
        # ``(generation, distinct ASes)`` of the last stats() scan.
        self._distinct = (-1, 0)
        self._archive: Optional[SnapshotStore] = None
        try:
            if self.path == ":memory:":
                self._shared = self._connect()
            self._initialise()
            if archive_dir is not None:
                self._archive = open_archive(archive_dir)
        except BaseException:
            self.close()  # a refused open leaves no connection to the collector
            raise

    @property
    def url(self) -> str:
        """The ``sqlite:path`` URL of this store, plus its archive directory."""
        if self._archive is None:
            return f"sqlite:{self.path}"
        return f"sqlite:{self.path}+archive:{Path(self._archive.path).parent}"

    # -- connection management ----------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        connection = sqlite3.connect(self.path, check_same_thread=False)
        try:
            for attempt in range(1, _WAL_ATTEMPTS + 1):
                try:
                    connection.execute("PRAGMA journal_mode=WAL")
                    break
                except sqlite3.OperationalError as error:
                    if attempt == _WAL_ATTEMPTS or "locked" not in str(error):
                        raise
                    time.sleep(0.01)
        except sqlite3.DatabaseError as error:  # "file is not a database"
            connection.close()
            raise StoreError(f"store {self.path!r} is unreadable: {error}") from None
        connection.execute(f"PRAGMA synchronous={self._synchronous}")
        with self._connections_lock:
            self._connections.append(connection)
        return connection

    def _conn(self) -> sqlite3.Connection:
        if self._closed:
            raise StoreError("store is closed")
        if self._shared is not None:
            return self._shared
        connection: Optional[sqlite3.Connection] = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._connect()
            self._local.connection = connection
        return connection

    def _rows(self, sql: str, parameters: Tuple[object, ...] = ()) -> List[Tuple]:
        """Every row of one read statement.

        On the shared in-memory connection a reader would see the rows of a
        write still in progress (one connection, one uncommitted view), so
        there the statement runs under the write lock.
        """
        if self._shared is None:
            return self._conn().execute(sql, parameters).fetchall()
        with self._write_lock:
            return self._conn().execute(sql, parameters).fetchall()

    def _row(self, sql: str, parameters: Tuple[object, ...] = ()) -> Optional[Tuple]:
        """The first row of one read statement (``None`` when there is none)."""
        rows = self._rows(sql, parameters)
        return rows[0] if rows else None

    def _initialise(self) -> None:
        with self._write_lock:
            connection = self._conn()
            with connection:
                # One BEGIN IMMEDIATE transaction around the check and the
                # create: concurrent first opens from sibling processes (a
                # fan-out worker fleet, a serving replica's syncer) must not
                # both insert the meta rows of a fresh file.
                connection.execute("BEGIN IMMEDIATE")
                connection.execute(
                    "CREATE TABLE IF NOT EXISTS meta"
                    " (key TEXT PRIMARY KEY, value TEXT NOT NULL)"
                )
                row = connection.execute(
                    "SELECT value FROM meta WHERE key = 'schema_version'"
                ).fetchone()
                if row is not None:
                    if row[0] != str(SCHEMA_VERSION):
                        raise StoreError(
                            f"store {self.path!r} has schema version {row[0]}, this build"
                            f" reads version {SCHEMA_VERSION} only; rebuild it with"
                            " `repro stream --store NEW` or"
                            " `repro replicate --from LEADER --store NEW`"
                        )
                    return
                for statement in _SCHEMA_STATEMENTS:
                    connection.execute(statement)
                connection.executemany(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    [
                        ("schema_version", str(SCHEMA_VERSION)),
                        ("generation", "0"),
                        ("pruned_through", "0"),
                        ("leader_epoch", "0"),
                    ],
                )

    def close(self) -> None:
        """Close every connection this store ever opened, on any thread.

        Thread-local reader connections are tracked at :meth:`_connect`
        time, so the handles of retired reader threads are released too --
        a long-lived process that recycles request threads must not leak
        one WAL file handle per dead thread.  Safe because every connection
        is opened with ``check_same_thread=False``.
        """
        self._closed = True
        with self._connections_lock:
            connections, self._connections = self._connections, []
        for connection in connections:
            try:
                connection.close()
            except sqlite3.ProgrammingError:  # pragma: no cover - already closed
                pass
        self._shared = None
        self._local.connection = None
        if self._archive is not None:
            self._archive.close()

    def __enter__(self) -> "SnapshotStore":
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
        """Durably persist one snapshot; returns its snapshot id.

        The snapshot metadata, the result's column blob, the per-window
        change set and the digest over all three commit in a single
        transaction, and the store generation is bumped with them: readers
        either see the whole snapshot at a newer generation or none of it.
        The committed generation is recorded on the snapshot row, which is
        what makes the store a generation-addressed changelog
        (:meth:`snapshots_since`).

        With ``if_absent=True`` the append is idempotent per
        ``(kind, window_start, window_end)``: if the store already holds a
        snapshot for that window the existing id is returned, nothing is
        written, and the generation does not move.  This is what makes
        resumed producers exactly-once -- a window re-emitted after a
        checkpoint restore lands on the copy the store already has.  The
        existence check runs inside the write transaction, so concurrent
        publishers on the same store cannot both insert.

        *snapshot_id* pins the row id instead of letting SQLite assign one.
        Replication uses this to carry the leader's ids onto followers, so
        id-bearing payloads (``/v1/as``, ``/v1/diff``) are byte-identical
        across hosts.  Window identity across hosts stays id-independent --
        dedup keys on ``(kind, window_start, window_end)`` -- and a pinned
        id that is already taken by a *different* window raises
        :class:`StoreError` (the replica diverged from its leader).

        *epoch* is the failover fence: a writer that captured the leader
        epoch before a promotion bumped it is rejected with
        :class:`~repro.service.backends.base.FencedWriterError` *before*
        any check runs -- a deposed leader must not even observe dedup
        success.  The comparison happens inside the write transaction, so
        it is atomic against a concurrent promotion.
        """
        require_valid_kind(kind)
        result = snapshot.result
        asns, codes, counters = result.columns()
        blob = _encode_columns(asns, codes, counters)
        with self._write_lock:
            connection = self._conn()
            with connection:
                # sqlite3's legacy isolation starts the transaction at the
                # first DML, so the SELECTs below would otherwise run in
                # autocommit and two *processes* could both miss an existing
                # row or read the same generation.  BEGIN IMMEDIATE takes
                # the write lock up front, making check + insert one atomic
                # unit (the surrounding `with connection` still commits it).
                connection.execute("BEGIN IMMEDIATE")
                if epoch is not None:
                    fence = connection.execute(
                        "SELECT value FROM meta WHERE key = 'leader_epoch'"
                    ).fetchone()
                    require_current_epoch(
                        epoch, int(fence[0]) if fence is not None else 0
                    )
                if if_absent:
                    existing = connection.execute(
                        "SELECT id FROM snapshots WHERE kind = ? AND window_start = ?"
                        " AND window_end = ? ORDER BY id DESC LIMIT 1",
                        (kind, snapshot.window_start, snapshot.window_end),
                    ).fetchone()
                    if existing is not None:
                        return int(existing[0])
                if snapshot_id is not None:
                    taken = connection.execute(
                        "SELECT kind, window_start, window_end FROM snapshots"
                        " WHERE id = ?",
                        (snapshot_id,),
                    ).fetchone()
                    if taken is not None:
                        if tuple(taken) == (
                            kind,
                            snapshot.window_start,
                            snapshot.window_end,
                        ):
                            return snapshot_id
                        raise StoreError(
                            f"snapshot id {snapshot_id} already holds window"
                            f" {tuple(taken)!r}, not"
                            f" {(kind, snapshot.window_start, snapshot.window_end)!r}"
                            " -- replica diverged from its leader"
                        )
                row = connection.execute(
                    "SELECT value FROM meta WHERE key = 'generation'"
                ).fetchone()
                generation = (int(row[0]) if row is not None else 0) + 1
                header = [
                    kind,
                    snapshot.window_start,
                    snapshot.window_end,
                    snapshot.skipped_windows,
                    snapshot.events_total,
                    snapshot.unique_tuples,
                    result.algorithm,
                    json.dumps(result.thresholds.as_list()),
                ]
                cursor = connection.execute(
                    "INSERT INTO snapshots (id, kind, window_start, window_end,"
                    " skipped_windows, events_total, unique_tuples, algorithm,"
                    " thresholds, generation) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (snapshot_id, *header, generation),
                )
                snapshot_id = int(cursor.lastrowid or 0)
                _write_columns(connection, snapshot_id, asns, blob)
                changes = [(int(asn), old, new) for asn, (old, new) in snapshot.changed.items()]
                connection.executemany(
                    "INSERT INTO changes (snapshot_id, asn, old_code, new_code)"
                    " VALUES (?, ?, ?, ?)",
                    [(snapshot_id, *change) for change in changes],
                )
                connection.execute(
                    "UPDATE snapshots SET digest = ? WHERE id = ?",
                    (_digest([snapshot_id, *header, len(asns)], blob, changes), snapshot_id),
                )
                archived = self._remove(connection, self._overflow(connection))
                connection.execute(
                    "UPDATE meta SET value = ? WHERE key = 'generation'",
                    (str(generation + archived),),
                )
        return snapshot_id

    def _delete_snapshot_rows(
        self, connection: sqlite3.Connection, snapshot_ids: Sequence[int]
    ) -> None:
        """Delete all rows of *snapshot_ids* with batched ``IN`` statements.

        One statement per table per chunk (instead of three statements per
        snapshot in a Python loop), so a large prune does not stall the
        append path's write transaction.  The ``as_buckets`` rows of a
        bucket go with its last snapshot; until then a dropped snapshot's
        ASNs stay indexed, and a read skips the bucket's other snapshots.
        """
        for start in range(0, len(snapshot_ids), _DELETE_CHUNK):
            chunk = list(snapshot_ids[start:start + _DELETE_CHUNK])
            placeholders = ",".join("?" * len(chunk))
            for table, column in (
                ("snapshot_columns", "snapshot_id"),
                ("changes", "snapshot_id"),
                ("snapshots", "id"),
            ):
                connection.execute(
                    f"DELETE FROM {table} WHERE {column} IN ({placeholders})", chunk
                )
        for bucket in {snapshot_id >> _BUCKET_BITS for snapshot_id in snapshot_ids}:
            low = bucket << _BUCKET_BITS
            if connection.execute(
                "SELECT 1 FROM snapshots WHERE id BETWEEN ? AND ? LIMIT 1",
                (low, low + (1 << _BUCKET_BITS) - 1),
            ).fetchone() is None:
                connection.execute("DELETE FROM as_buckets WHERE bucket = ?", (bucket,))

    def _overflow(self, connection: sqlite3.Connection) -> List[Tuple[int, int]]:
        """The ``(id, generation)`` of every snapshot beyond the retention cap."""
        if self.retention is None:
            return []
        return connection.execute(
            "SELECT id, generation FROM snapshots ORDER BY id DESC LIMIT -1 OFFSET ?",
            (self.retention,),
        ).fetchall()

    def _remove(self, connection: sqlite3.Connection, stale: List[Tuple[int, int]]) -> int:
        """Remove the ``(id, generation)`` snapshots *stale*; returns how many
        were archived.

        The one retention path: append, :meth:`compact` and
        :meth:`drop_snapshot` call it inside their write transaction.  With
        an archive each snapshot, oldest first, is appended to it under its
        own id -- a durable commit of the archive -- before its rows here are
        deleted, and counts as one committed write of this store: the caller
        moves the generation once per archived snapshot.  A crash in between
        leaves a snapshot in both tiers; reads count it once, and the next
        removal's append of the same window under the same id writes nothing.
        The newest removed commit generation is remembered in the meta table
        (``pruned_through``): it is the replication horizon below which a
        follower can no longer catch up from this store's changelog.
        """
        if not stale:
            return 0
        stale = sorted(stale)
        if self._archive is not None:
            for snapshot_id, _ in stale:
                loaded = self._load(connection, snapshot_id)
                assert loaded is not None  # the caller's transaction read its row
                meta, snapshot = loaded
                self._archive.append_snapshot(snapshot, kind=meta.kind, snapshot_id=snapshot_id)
        self._delete_snapshot_rows(connection, [snapshot_id for snapshot_id, _ in stale])
        connection.execute(
            "UPDATE meta SET value = CAST(MAX(CAST(value AS INTEGER), ?) AS TEXT)"
            " WHERE key = 'pruned_through'",
            (max(generation for _, generation in stale),),
        )
        return len(stale) if self._archive is not None else 0

    @staticmethod
    def _advance(connection: sqlite3.Connection, steps: int) -> None:
        """Move the store generation *steps* commits forward."""
        connection.execute(
            "UPDATE meta SET value = CAST(value AS INTEGER) + ? WHERE key = 'generation'",
            (steps,),
        )

    def drop_snapshot(self, snapshot_id: int) -> bool:
        """Remove one snapshot -- archiving it first when the store has an
        archive -- and advance the ``pruned_through`` horizon.

        Returns whether this file held the id (an archived id is not dropped
        again: the archive is append-only).  A successful drop is a committed
        write and bumps the generation (read caches keyed on the old
        generation must not survive it).
        """
        with self._write_lock:
            connection = self._conn()
            with connection:
                connection.execute("BEGIN IMMEDIATE")
                row = connection.execute(
                    "SELECT generation FROM snapshots WHERE id = ?", (snapshot_id,)
                ).fetchone()
                if row is None:
                    return False
                self._remove(connection, [(snapshot_id, int(row[0]))])
                self._advance(connection, 1)
        return True

    def compact(self) -> int:
        """Apply retention, reclaim free pages, and truncate the WAL.

        Returns the number of snapshots removed (archived, with an archive).
        Safe to call while readers are active (VACUUM briefly takes the
        database over, so compaction is an explicit maintenance call rather
        than part of the append path).
        """
        with self._write_lock:
            connection = self._conn()
            with connection:
                connection.execute("BEGIN IMMEDIATE")
                stale = self._overflow(connection)
                if stale:
                    self._advance(connection, self._remove(connection, stale) or 1)
            connection.execute("VACUUM")
            connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        return len(stale)

    # -- metadata reads -----------------------------------------------------------------
    def generation(self) -> int:
        """Monotonic write counter (the read-cache key of the server)."""
        row = self._row("SELECT value FROM meta WHERE key = 'generation'")
        return int(row[0]) if row is not None else 0

    def pruned_through(self) -> int:
        """Newest commit generation retention ever pruned (0: nothing yet).

        The replication horizon: a follower whose applied generation is
        below this may have missed pruned snapshots for good, and must
        surface that as a sync error instead of skipping them silently.
        """
        row = self._row("SELECT value FROM meta WHERE key = 'pruned_through'")
        return int(row[0]) if row is not None else 0

    def applied_generation(self) -> int:
        """The leader generation this replica store has applied through.

        0 on a store that never replicated.  Durable in the ``meta`` table,
        so a killed follower resumes from where it left off -- the same
        exactly-once contract resumed producers get, since re-applied
        snapshots land on the idempotent window key anyway.
        """
        row = self._row("SELECT value FROM meta WHERE key = 'applied_generation'")
        return int(row[0]) if row is not None else 0

    def set_applied_generation(self, generation: int) -> None:
        """Durably record the applied leader generation (monotonic: only
        moves forward).  A meta-only write: the store's own generation does
        not bump, so follower read caches stay valid across bookkeeping."""
        if generation < 0:
            raise ValueError(f"generation must be >= 0, got {generation}")
        with self._write_lock:
            connection = self._conn()
            with connection:
                connection.execute(
                    "INSERT INTO meta (key, value) VALUES ('applied_generation', ?)"
                    " ON CONFLICT(key) DO UPDATE SET value = CAST(MAX("
                    "CAST(value AS INTEGER), CAST(excluded.value AS INTEGER)"
                    ") AS TEXT)",
                    (str(generation),),
                )

    def leader_epoch(self) -> int:
        """The durable fencing epoch writers must carry (0 on a new store)."""
        row = self._row("SELECT value FROM meta WHERE key = 'leader_epoch'")
        return int(row[0]) if row is not None else 0

    def bump_leader_epoch(self) -> int:
        """Advance the fencing epoch (promotion); returns the new epoch.

        A meta-only committed write: the store generation does not move
        (nothing a reader could serve changed), but every append stamped
        with the previous epoch is rejected from this point on.
        """
        with self._write_lock:
            connection = self._conn()
            with connection:
                connection.execute("BEGIN IMMEDIATE")
                row = connection.execute(
                    "SELECT value FROM meta WHERE key = 'leader_epoch'"
                ).fetchone()
                epoch = (int(row[0]) if row is not None else 0) + 1
                connection.execute(
                    "INSERT INTO meta (key, value) VALUES ('leader_epoch', ?)"
                    " ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                    (str(epoch),),
                )
        return epoch

    def __len__(self) -> int:
        """Number of queryable snapshots, archived ones included."""
        row = self._row("SELECT COUNT(*) FROM snapshots")
        if self._archive is None:
            return int(row[0])
        return int(row[0]) + len(self._archive) - len(self._doubled())

    def _doubled(self) -> Set[int]:
        """The ids both this file and the archive hold.

        Empty except while a removal is archiving, or after one was cut
        short between the archive's commit and this file's.  Any such id is
        at or above this file's lowest, so the probe reads only those
        archive ids.
        """
        assert self._archive is not None
        low = self._row("SELECT MIN(id) FROM snapshots")
        if low is None or low[0] is None:
            return set()
        cold = self._archive._rows("SELECT id FROM snapshots WHERE id >= ?", (low[0],))
        if not cold:
            return set()
        rows = self._rows(
            "SELECT id FROM snapshots WHERE id IN (SELECT value FROM json_each(?))",
            (json.dumps([snapshot_id for (snapshot_id,) in cold]),),
        )
        return {snapshot_id for (snapshot_id,) in rows}

    def _snapshot_from_row(
        self, row: Tuple[int, str, int, int, int, int, int, str, str, int]
    ) -> StoredSnapshot:
        return StoredSnapshot(*row[:8], Thresholds(*json.loads(row[8])), row[9])

    _SNAPSHOT_COLUMNS = (
        "id, kind, window_start, window_end, skipped_windows,"
        " events_total, unique_tuples, algorithm, thresholds, generation"
    )

    def _newest(self, where: str, parameters: Tuple[object, ...] = ()) -> Optional[StoredSnapshot]:
        """Metadata of the newest snapshot matching the SQL *where* clause,
        in this file, else in the archive."""
        row = self._row(
            f"SELECT {self._SNAPSHOT_COLUMNS} FROM snapshots {where} ORDER BY id DESC LIMIT 1",
            parameters,
        )
        if row is not None:
            return self._snapshot_from_row(row)
        return self._archive._newest(where, parameters) if self._archive is not None else None

    def latest(self) -> Optional[StoredSnapshot]:
        """Metadata of the newest snapshot, or ``None`` on an empty store."""
        return self._newest("")

    def get(self, snapshot_id: int) -> Optional[StoredSnapshot]:
        """Metadata of one snapshot by id."""
        return self._newest("WHERE id = ?", (snapshot_id,))

    def by_window_end(self, window_end: int) -> Optional[StoredSnapshot]:
        """Metadata of the newest snapshot whose window ends at *window_end*."""
        return self._newest("WHERE window_end = ?", (window_end,))

    def find_window(
        self, kind: str, window_start: int, window_end: int
    ) -> Optional[StoredSnapshot]:
        """Metadata of the newest snapshot matching the exact window key.

        This is the idempotency key of :meth:`append_snapshot`: one
        ``(kind, window_start, window_end)`` triple identifies one published
        window of one producer run (or its exact re-emission after resume).
        """
        return self._newest(
            "WHERE kind = ? AND window_start = ? AND window_end = ?",
            (kind, window_start, window_end),
        )

    def latest_window_end(self, kind: str = "window") -> Optional[int]:
        """The largest persisted ``window_end`` of *kind* (``None`` when empty).

        A resume-aware publisher reads this once at attach time: windows at
        or before it may already be in the store and need the idempotency
        check; windows past it are certainly new.
        """
        row = self._row("SELECT MAX(window_end) FROM snapshots WHERE kind = ?", (kind,))
        end = int(row[0]) if row is not None and row[0] is not None else None
        if self._archive is None:
            return end
        ends = [end, self._archive.latest_window_end(kind)]
        return max((end for end in ends if end is not None), default=None)

    def snapshots(self) -> List[StoredSnapshot]:
        """Metadata of every queryable snapshot, archived ones included, oldest first."""
        rows = self._rows(f"SELECT {self._SNAPSHOT_COLUMNS} FROM snapshots ORDER BY id")
        metas = [self._snapshot_from_row(row) for row in rows]
        if self._archive is None:
            return metas
        held = {meta.snapshot_id for meta in metas}
        cold = [meta for meta in self._archive.snapshots() if meta.snapshot_id not in held]
        return sorted(cold + metas, key=lambda meta: meta.snapshot_id)

    def snapshots_since(
        self, generation: int, *, limit: Optional[int] = None
    ) -> List[StoredSnapshot]:
        """Retained snapshots committed after *generation*, commit order.

        The replication feed: a follower that applied through generation G
        asks for everything after G.  Served by the generation index, so the
        cost is proportional to the page, not the store.  Retention prunes
        oldest-first and commit generations grow with ids, so every retained
        snapshot's generation is above :meth:`pruned_through` -- a page from
        ``generation >= pruned_through`` is gap-free.
        """
        if generation < 0:
            raise ValueError(f"generation must be >= 0, got {generation}")
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        query = (
            f"SELECT {self._SNAPSHOT_COLUMNS} FROM snapshots"
            " WHERE generation > ? ORDER BY generation, id"
        )
        parameters: Tuple[int, ...] = (generation,)
        if limit is not None:
            query += " LIMIT ?"
            parameters = (generation, limit)
        rows = self._rows(query, parameters)
        return [self._snapshot_from_row(row) for row in rows]

    # -- full snapshot reads ------------------------------------------------------------
    @contextmanager
    def _read_txn(self) -> Iterator[sqlite3.Connection]:
        """A consistent multi-statement read view.

        WAL gives snapshot isolation per transaction, not per statement; a
        concurrent retention prune between two autocommit SELECTs would
        otherwise tear a multi-query read (metadata found, columns already
        deleted).  On the shared in-memory connection the write lock stands
        in for the transaction.
        """
        connection = self._conn()
        if self._shared is not None:
            with self._write_lock:
                yield connection
            return
        connection.execute("BEGIN")
        try:
            yield connection
        finally:
            connection.execute("COMMIT")

    def _decoded(
        self, connection: sqlite3.Connection, snapshot_id: int, generation: int
    ) -> Optional[Stored]:
        """The decoded columns and change set of one snapshot, through the cache.

        ``None`` when the snapshot no longer holds that commit *generation*:
        the blob is read together with the generation, so the columns always
        belong to the metadata the caller read, in a transaction or not.  A
        miss checks the snapshot's digest before decoding (:class:`StoreError`
        if it fails), so only checked snapshots enter the cache.  A hit moves
        the entry to the hot end; a miss evicts from the cold end until it
        fits and goes in *at the cold end*, so a history walk longer than the
        cache cycles through the cold slots instead of flushing the entries
        other reads keep hitting.
        """
        key = (snapshot_id, generation)
        with self._cache_lock:
            cached = self._column_cache.get(key)
            if cached is not None:
                self._column_cache.move_to_end(key)
                return cached
        row = connection.execute(
            _STORED + " WHERE s.id = ? AND s.generation = ?", (snapshot_id, generation)
        ).fetchone()
        if row is None:
            return None
        rows, blob, changed = _checked(row)
        stored = (_decode_columns(rows, blob), changed)
        with self._cache_lock:
            if key not in self._column_cache:
                while self._column_cache and self._cached_rows + rows > _CACHE_ROWS:
                    _, (evicted, _) = self._column_cache.popitem(last=False)
                    self._cached_rows -= len(evicted[0])
                self._column_cache[key] = stored
                self._column_cache.move_to_end(key, last=False)
                self._cached_rows += rows
        return stored

    def _load(
        self, connection: sqlite3.Connection, snapshot_id: int
    ) -> Optional[Tuple[StoredSnapshot, WindowSnapshot]]:
        """The metadata and the snapshot this file holds under *snapshot_id*
        (``None`` if it holds none), read through *connection* inside a
        transaction or the write lock."""
        row = connection.execute(
            f"SELECT {self._SNAPSHOT_COLUMNS} FROM snapshots WHERE id = ?", (snapshot_id,)
        ).fetchone()
        if row is None:
            return None
        meta = self._snapshot_from_row(row)
        stored = self._decoded(connection, snapshot_id, meta.generation)
        assert stored is not None  # one transaction: the row has its columns
        columns, changed = stored
        return meta, stored_window(meta, columns, dict(changed))

    def load_snapshot(self, snapshot_id: int) -> WindowSnapshot:
        """Reconstruct the full :class:`WindowSnapshot` persisted under *snapshot_id*.

        The reconstruction is field-faithful: per-AS codes, raw counters
        (hence shares), the observed-AS set, the algorithm, the thresholds,
        and the per-window change map all round-trip.  All reads happen in
        one transaction, so a snapshot pruned concurrently either loads
        whole or raises :class:`StoreError` -- never a torn half -- and so
        does one that fails its digest.  An id this file does not hold is
        read from the archive (the archive's copy commits first, so a
        snapshot archived while this read ran is found there).
        """
        with self._read_txn() as connection:
            loaded = self._load(connection, snapshot_id)
        if loaded is not None:
            return loaded[1]
        if self._archive is not None and self._archive.get(snapshot_id) is not None:
            return self._archive.load_snapshot(snapshot_id)
        raise StoreError(f"no snapshot {snapshot_id} in {self.path!r}")

    def changes(self, snapshot_id: int) -> Dict[ASN, Tuple[str, str]]:
        """The ``{asn: (old_code, new_code)}`` change set of one snapshot
        (empty for an unknown id).

        Checked against the snapshot's digest on every call, without
        decoding the columns: a churn scan over every snapshot neither pays
        the decodes nor evicts the columns per-AS reads keep hitting.
        """
        row = self._row(_STORED + " WHERE s.id = ?", (snapshot_id,))
        if row is not None:
            return _checked(row)[2]
        return self._archive.changes(snapshot_id) if self._archive is not None else {}

    # -- per-AS queries -----------------------------------------------------------------
    def as_history(self, asn: ASN, *, limit: Optional[int] = None) -> List[ASHistoryEntry]:
        """Classification history of one AS, newest snapshot first.

        One ``as_buckets`` probe names the buckets that held the AS; their
        snapshots are searched newest first, binary-searching each one's
        (cached) ASN column.  The cost follows the AS's own history (in
        buckets), not the store size: an AS the store never held costs the
        probe alone.  The walk is one statement, so it needs no transaction
        while the columns come from the cache; a snapshot that went away
        before its columns were read sends the whole read again, in one.
        """
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        key = int(asn)
        if not 0 <= key < 1 << 63:  # SQLite integers: nothing stored out there
            return []
        # The shared in-memory connection reads under the write lock only.
        entries = self._history(self._conn(), key, limit) if self._shared is None else None
        while entries is None:
            with self._read_txn() as connection:
                entries = self._history(connection, key, limit)
        if self._archive is None or len(entries) == limit:
            return entries
        # The archive's entries for ids this file holds are read here already.
        doubled = self._doubled()
        rest = None if limit is None else limit - len(entries) + len(doubled)
        cold = self._archive.as_history(asn, limit=rest)
        entries += [entry for entry in cold if entry.snapshot_id not in doubled]
        return entries[:limit]

    def as_latest(self, asn: ASN) -> Optional[ASHistoryEntry]:
        """The newest persisted classification of one AS (``None`` if unseen)."""
        history = self.as_history(asn, limit=1)
        return history[0] if history else None

    def _history(
        self, connection: sqlite3.Connection, key: int, limit: Optional[int]
    ) -> Optional[List[ASHistoryEntry]]:
        entries: List[ASHistoryEntry] = []
        needle = np.uint64(key)
        # Nested-loop order (bucket, then id, both descending) is the ORDER
        # BY, so rows stream without a sort and the walk can stop early; the
        # cursor is closed on the way out, or it would pin the read snapshot.
        with closing(
            connection.execute(
                "SELECT s.id, s.window_start, s.window_end, s.generation FROM as_buckets b"
                " JOIN snapshots s ON s.id BETWEEN b.bucket << ? AND ((b.bucket + 1) << ?) - 1"
                " WHERE b.asn = ? ORDER BY b.bucket DESC, s.id DESC",
                (_BUCKET_BITS, _BUCKET_BITS, key),
            )
        ) as cursor:
            for snapshot_id, window_start, end, generation in cursor:
                stored = self._decoded(connection, snapshot_id, generation)
                if stored is None:
                    return None
                asns, codes, counters = stored[0]
                row = asns.searchsorted(needle)
                if row < len(asns) and asns[row] == needle:
                    code = CLASS_CODES[codes[row]]
                    quad = ASCounters(*counters[:, row].tolist())
                    entries.append(ASHistoryEntry(snapshot_id, window_start, end, code, quad))
                    if len(entries) == limit:
                        break
        return entries

    def verify(self) -> List[str]:
        """Re-check every snapshot of this file against its digest; returns
        the problems (``repro archive DIR verify`` checks an archive).

        An empty list means every snapshot's metadata row, column blob and
        change set are what its append wrote.  Problems are collected, not
        raised, so one bad snapshot does not hide the state of the others.
        """
        problems: List[str] = []
        with self._read_txn() as connection:
            for row in connection.execute(_STORED + " ORDER BY s.id"):
                try:
                    _checked(row)
                except StoreError as error:
                    problems.append(str(error))
        return problems

    # -- statistics ---------------------------------------------------------------------
    def _distinct_ases(self, connection: sqlite3.Connection) -> int:
        """ASes in any retained snapshot, recounted once per generation.

        Decodes only the ASN prefix of each blob and bypasses the column
        cache, so a stats scrape never evicts what per-AS reads use.
        """
        row = connection.execute("SELECT value FROM meta WHERE key = 'generation'").fetchone()
        generation = int(row[0]) if row is not None else 0
        if self._distinct[0] != generation:
            seen: Set[int] = set()
            for rows, blob in connection.execute("SELECT rows, columns FROM snapshot_columns"):
                raw = zlib.decompressobj().decompress(blob, 8 * rows)
                seen.update(np.frombuffer(raw, "<u8", rows).tolist())
            self._distinct = (generation, len(seen))
        return self._distinct[1]

    def size_bytes(self) -> int:
        """Bytes of the store's files (0 in memory).

        Under WAL the main file alone can understate on-disk size by the
        whole uncheckpointed log; retention and replication-lag operations
        read this number, so the sidecars count too.
        """
        size_bytes = 0
        if self.path != ":memory:":
            for path in (self.path, self.path + "-wal", self.path + "-shm"):
                try:
                    size_bytes += os.stat(path).st_size
                except OSError:
                    pass
        return size_bytes

    def stats(self) -> Dict[str, object]:
        """Store-level statistics for ``/v1/stats`` and operations.

        With an archive: the counts of both tiers, this file's own statistics
        under ``hot`` (where the cap is not its own: it archives rather than
        deletes) and the archive's row count and file sizes under
        ``archive`` -- this file's distinct-AS recount would decompress every
        archived blob again after each removal.
        """
        with self._read_txn() as connection:
            snapshots, records = connection.execute(
                "SELECT COUNT(*), COALESCE(SUM(rows), 0) FROM snapshot_columns"
            ).fetchone()
            distinct = self._distinct_ases(connection)
        size_bytes = self.size_bytes()
        hot: Dict[str, object] = {
            "backend": "sqlite",
            "path": self.path,
            "schema_version": SCHEMA_VERSION,
            "generation": self.generation(),
            "snapshots": snapshots,
            "as_records": records,
            "distinct_ases": distinct,
            "retention": self.retention if self._archive is None else None,
            "size_bytes": size_bytes,
            "pruned_through": self.pruned_through(),
            "applied_generation": self.applied_generation(),
            "leader_epoch": self.leader_epoch(),
        }
        if self._archive is None:
            return hot
        cold_snapshots, cold_bytes = len(self._archive), self._archive.size_bytes()
        return {
            "backend": "tiered",
            "path": self.url,
            "generation": hot["generation"],
            "snapshots": snapshots + cold_snapshots - len(self._doubled()),
            "retention": self.retention,
            "size_bytes": size_bytes + cold_bytes,
            **{key: hot[key] for key in ("pruned_through", "applied_generation", "leader_epoch")},
            "hot": hot,
            "archive": {
                "path": self._archive.path,
                "snapshots": cold_snapshots,
                "size_bytes": cold_bytes,
            },
        }

    # -- ingest telemetry ---------------------------------------------------------------
    def set_ingest_stats(self, stats: Dict[str, object]) -> None:
        """Persist the producer's ingest telemetry as JSON in the meta table.

        A meta-only write like :meth:`set_applied_generation`: the store
        generation does not move, so server read caches stay valid across
        telemetry refreshes.
        """
        payload = json.dumps(stats, sort_keys=True)
        with self._write_lock:
            connection = self._conn()
            with connection:
                connection.execute(
                    "INSERT INTO meta (key, value) VALUES ('ingest_stats', ?)"
                    " ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                    (payload,),
                )

    def ingest_stats(self) -> Optional[Dict[str, object]]:
        """The last persisted ingest telemetry, surviving server restarts."""
        row = self._row("SELECT value FROM meta WHERE key = 'ingest_stats'")
        if row is None:
            return None
        try:
            payload = json.loads(row[0])
        except ValueError:
            return None
        return payload if isinstance(payload, dict) else None


def open_archive(archive_dir: Union[str, os.PathLike]) -> SnapshotStore:
    """The cold-tier store of *archive_dir*, creating both if needed.

    Uncapped, and *durable*: a snapshot's archived copy is on disk before
    its hot rows are deleted.  Raises :class:`StoreError` for a directory
    holding ``.jsonl`` files: the segment archive an older version wrote,
    which this one does not read.
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
