"""Publisher hooks: wire running producers into a :class:`SnapshotStore`.

The streaming engine already exposes an ``on_window`` callback; a
:class:`SnapshotPublisher` is such a callback that durably appends every
emitted snapshot (and chains to any previously installed callback, so
persistence composes with progress reporting).  :func:`attach_store` does
the wiring on a live engine, and :func:`publish_result` materialises a
one-shot batch :class:`~repro.core.results.ClassificationResult` as a
``kind="batch"`` snapshot.

Exactly-once resume
-------------------

A checkpointed engine restores to its *last checkpoint*, which is usually
older than the *last published window*: every window closed between the
checkpoint and the crash is already in the store, and a naive resumed run
re-publishes all of them.  A publisher attached with ``resume=True`` learns
the store's latest persisted ``window_end`` at attach time and routes every
re-emitted window at or before it through the store's idempotent append, so
the resumed producer lands exactly one copy of every window.  Windows past
the resume point are provably new and take the plain fast path.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.bgp.asn import ASN
from repro.core.results import ClassificationResult
from repro.service.backends.base import StoreError
from repro.service.backends.sqlite import SnapshotStore
from repro.stream.engine import StreamEngine, WindowSnapshot

#: Signature of an ``on_window`` engine callback.
WindowCallback = Callable[[WindowSnapshot], None]


def ensure_snapshot(
    store: SnapshotStore,
    snapshot: WindowSnapshot,
    *,
    kind: str = "window",
    snapshot_id: Optional[int] = None,
    epoch: Optional[int] = None,
) -> Tuple[int, bool]:
    """Idempotently land one snapshot; returns ``(snapshot_id, was_new)``.

    The shared apply path of everything that may offer a window the store
    already holds: resumed producers re-emitting windows published before a
    crash, and replica syncers re-applying a page after a follower restart.
    The window key ``(kind, window_start, window_end)`` decides identity;
    *snapshot_id* (replication) additionally pins the row id so follower
    ids mirror the leader's.  The pre-check keeps ``was_new`` honest for
    progress reporting; the ``if_absent`` append closes the remaining race
    atomically inside the store's write transaction.  *epoch* is passed
    through to the append's failover fence (see
    :meth:`SnapshotStore.append_snapshot`).
    """
    existing = store.find_window(kind, snapshot.window_start, snapshot.window_end)
    if existing is not None:
        return existing.snapshot_id, False
    applied = store.append_snapshot(
        snapshot, kind=kind, if_absent=True, snapshot_id=snapshot_id, epoch=epoch
    )
    return applied, True


class SnapshotPublisher:
    """An ``on_window`` callback that persists snapshots into a store."""

    def __init__(
        self,
        store: SnapshotStore,
        *,
        kind: str = "window",
        forward: Optional[WindowCallback] = None,
        resume: bool = False,
    ) -> None:
        self.store = store
        self.kind = kind
        self.forward = forward
        #: The leader epoch captured at attach time, stamped on every
        #: append.  If another host is promoted while this producer runs,
        #: its next append raises FencedWriterError instead of forking
        #: history (the failover fence; see repro.service.replication).
        self.epoch = store.leader_epoch()
        self.published = 0
        self.deduplicated = 0
        self.last_snapshot_id: Optional[int] = None
        #: The store's newest persisted window_end when this publisher
        #: attached with ``resume=True`` (``None``: no dedup, or empty store).
        self.resume_window_end: Optional[int] = None
        #: Highest window_end this publisher has durably confirmed; engines
        #: record it in their checkpoints (see StreamEngine.state_dict).
        self.published_through: Optional[int] = None
        #: Optional zero-argument callable returning the producer's ingest
        #: telemetry dict; refreshed into the store after every publish so
        #: ``/metrics`` scrapes see block/drop counters that are at most one
        #: window stale.  Wired by :func:`attach_store`.
        self.ingest_source: Optional[Callable[[], Dict[str, object]]] = None
        if resume:
            self.resume_window_end = store.latest_window_end(kind)
            self.published_through = self.resume_window_end

    def __call__(self, snapshot: WindowSnapshot) -> None:
        """Persist one snapshot, then invoke the chained callback (if any).

        The store write happens *first*: if persistence fails the error
        surfaces in the producer instead of being silently swallowed after
        a cosmetic progress line.
        """
        dedupe = (
            self.resume_window_end is not None
            and snapshot.window_end <= self.resume_window_end
        )
        if dedupe:
            self.last_snapshot_id, was_new = ensure_snapshot(
                self.store, snapshot, kind=self.kind, epoch=self.epoch
            )
            if was_new:
                self.published += 1
            else:
                # The window survived the crash: keep the store's copy.
                self.deduplicated += 1
        else:
            self.last_snapshot_id = self.store.append_snapshot(
                snapshot, kind=self.kind, epoch=self.epoch
            )
            self.published += 1
        if self.published_through is None or snapshot.window_end > self.published_through:
            self.published_through = snapshot.window_end
        if self.ingest_source is not None:
            try:
                self.store.set_ingest_stats(self.ingest_source())
            except StoreError:
                # Telemetry must never fail the window publish it rides on.
                pass
        if self.forward is not None:
            self.forward(snapshot)


def attach_store(
    engine: StreamEngine, store: SnapshotStore, *, resume: bool = False
) -> SnapshotPublisher:
    """Make *engine* persist every window snapshot into *store*.

    Any ``on_window`` callback already installed keeps firing (after the
    write).  With ``resume=True`` (the ``stream --resume`` path) the
    publisher deduplicates against the windows the store already holds, so
    a restored engine re-emitting windows it published before the crash
    appends nothing twice.  The dedup bound is the *later* of the store's
    newest persisted window and the publish progress recorded in the
    checkpoint the engine was restored from -- raising the bound is always
    safe (it only widens the range of windows that get the idempotent
    existence check; absent windows are still appended), and it keeps the
    exactly-once guarantee even if the two records disagree.  Returns the
    publisher so callers can inspect what was written (``published``) and
    what was skipped (``deduplicated``).
    """
    publisher = SnapshotPublisher(store, forward=engine.on_window, resume=resume)
    publisher.ingest_source = engine.ingest_stats
    if resume:
        checkpointed = engine.restored_published_through
        if checkpointed is not None and (
            publisher.resume_window_end is None
            or checkpointed > publisher.resume_window_end
        ):
            publisher.resume_window_end = checkpointed
    engine.on_window = publisher
    return publisher


def publish_result(
    store: SnapshotStore,
    result: ClassificationResult,
    *,
    events_total: int = 0,
    unique_tuples: int = 0,
    window_start: int = 0,
    window_end: int = 0,
) -> int:
    """Persist a batch classification result as a ``kind="batch"`` snapshot.

    Batch runs have no window clock; callers pass whatever provenance they
    have (observation count, unique tuples, the time span of the input).
    The change map is computed against the store's current latest snapshot,
    so repeated batch publishes surface classification drift the same way
    streaming windows do.
    """
    previous = store.latest()
    last_codes: Dict[ASN, str] = {}
    if previous is not None:
        last_codes = store.load_snapshot(previous.snapshot_id).result.as_code_map()
    snapshot = WindowSnapshot(
        window_start=window_start,
        window_end=window_end,
        skipped_windows=0,
        events_total=events_total,
        unique_tuples=unique_tuples,
        result=result,
        changed=result.changed_since(last_codes),
    )
    return store.append_snapshot(snapshot, kind="batch")
