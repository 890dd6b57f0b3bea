"""Generation-addressed changelog replication between snapshot stores.

PR 4 scaled reads on *one* host: ``repro serve --http-workers N`` fans one
store out across worker processes sharing one listening socket.  This
module scales reads across *hosts*: any store served over the HTTP API is a
**leader** whose commit history is a generation-addressed changelog
(``/v1/replication/changes?since=G``), and a :class:`ReplicaSyncer` turns
any other host's store into a **follower** that converges on it.

The contract, piece by piece:

* **generation addressing** -- every snapshot records the store generation
  it committed at (:meth:`SnapshotStore.snapshots_since`), so "everything
  after G" is a single indexed range read, paged to keep responses bounded;
* **one encoding** -- each page entry is a snapshot record (metadata plus
  the store's column blob, :func:`~repro.service.backends.base.snapshot_record`);
  an entry without columns (a leader on the older format) raises
  :class:`ReplicationError`: leader and followers upgrade together;
* **idempotent apply** -- each fetched snapshot lands through the same
  :func:`~repro.service.publish.ensure_snapshot` path resumed producers
  use: window identity is ``(kind, window_start, window_end)``, never a
  host-local row id, so re-offering an applied window is a no-op;
* **durable progress** -- the follower records the applied leader
  generation in its ``meta`` table after every applied snapshot.  A killed
  follower resumes from that mark and re-applies at most the page it died
  in, which the idempotent append deduplicates: exactly-once, the same
  guarantee ``stream --resume --store`` pins for producers;
* **id mirroring** -- applied snapshots pin the leader's row ids, so
  id-bearing payloads (``/v1/as/{asn}`` history entries, ``/v1/diff``) are
  byte-identical between leader and follower;
* **pruning detection** -- the leader reports the newest generation its
  retention ever pruned (the *horizon*).  A follower that fell behind it
  raises :class:`ReplicationError` instead of silently skipping windows;
  a follower starting from an *empty* store treats the horizon as its seed
  point (the pruned prefix is gone everywhere, so the retained set *is*
  convergence).

``repro replicate --from URL --store PATH [--serve]`` wraps this into a
long-running follower process, optionally serving the replica through the
existing single- or multi-worker HTTP stack for true cross-host read
scaling.

Failover rests on a durable fencing epoch: every store persists a
``leader_epoch`` in its meta, writers capture it when they attach and stamp
it on every append, and an append carrying an older epoch raises
:class:`~repro.service.backends.base.FencedWriterError` inside the write
transaction, so a deposed leader waking up mid-write cannot fork history.
:func:`promote` turns a follower store into the new leader: one
best-effort final :meth:`ReplicaSyncer.sync_once` drains whatever the old
leader can still serve, then the epoch is bumped.  ``repro replicate
--promote`` is the CLI front door (see the README failover runbook).
Picking *which* follower to promote is left to the operator; the fence
makes any choice safe.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Union, cast

from repro.service.backends.base import (
    FencedWriterError,
    StoreError,
    snapshot_from_record,
)
from repro.service.backends.sqlite import SnapshotStore
from repro.service.client import ServiceClient, ServiceError
from repro.service.publish import ensure_snapshot

__all__ = [
    "DEFAULT_PAGE_SIZE",
    "PromotionReport",
    "ReplicaSyncer",
    "ReplicationError",
    "SyncReport",
    "promote",
]

#: Snapshots fetched per changelog page by default (mirrors the server's
#: default page; the server caps explicit requests at its own maximum).
DEFAULT_PAGE_SIZE = 64


class ReplicationError(Exception):
    """The follower can no longer converge by syncing.

    Raised when the leader's retention pruned its changelog past this
    follower's applied generation: the missing windows are gone for good,
    and continuing would hide the gap.  Recover by re-seeding the follower
    from an empty store (which adopts the leader's retained set) or by
    raising the leader's retention.
    """


@dataclass(frozen=True)
class SyncReport:
    """What one :meth:`ReplicaSyncer.sync_once` pass accomplished."""

    #: Snapshots newly applied to the replica store.
    applied: int
    #: Snapshots the store already held (a restarted follower's re-offers).
    deduplicated: int
    #: Changelog pages fetched.
    pages: int
    #: The leader generation the replica has applied through.
    applied_generation: int
    #: The leader's generation when the final page was served.
    leader_generation: int

    @property
    def caught_up(self) -> bool:
        """Whether the replica covered everything the leader reported."""
        return self.applied_generation >= self.leader_generation

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly view (CLI progress lines, tests)."""
        return {
            "applied": self.applied,
            "deduplicated": self.deduplicated,
            "pages": self.pages,
            "applied_generation": self.applied_generation,
            "leader_generation": self.leader_generation,
            "caught_up": self.caught_up,
        }


class ReplicaSyncer:
    """Polls a leader's changelog and applies it to a follower store.

    One syncer owns one ``(leader URL, follower store)`` pair.  It is the
    only writer a replica store should have; readers (the serving stack)
    share the store freely, in-process or from sibling worker processes.
    """

    def __init__(
        self,
        client: Union[str, ServiceClient],
        store: SnapshotStore,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        follower: Optional[str] = None,
    ) -> None:
        if page_size < 1:
            raise ValueError(f"page_size must be >= 1, got {page_size}")
        self.client = ServiceClient(client) if isinstance(client, str) else client
        self.store = store
        self.page_size = page_size
        #: Name this follower reports on changelog polls; the leader
        #: publishes a per-follower replication-lag gauge under it.
        self.follower = follower
        #: The replica store's leader epoch at attach time: the syncer is
        #: the replica's single writer, and promotion of the *replica*
        #: (repro replicate --promote) bumps the epoch so a stale syncer
        #: still applying old-leader pages is fenced instead of clobbering
        #: the newly promoted history.
        self.epoch = store.leader_epoch()
        #: Lifetime counters across every sync pass.
        self.applied_total = 0
        self.deduplicated_total = 0
        #: Message of the last transient leader failure seen by :meth:`run`.
        self.last_error: Optional[str] = None

    def _apply_entry(self, entry: Dict[str, Any]) -> bool:
        """Apply one changelog entry (a snapshot record); returns whether it was new."""
        if "columns" not in entry:
            raise ReplicationError(
                f"leader snapshot {entry.get('snapshot_id')} arrived without columns:"
                " the leader and this follower are on different formats -- upgrade"
                " leader and followers together"
            )
        try:
            meta, snapshot = snapshot_from_record(entry)
            _, was_new = ensure_snapshot(
                self.store,
                snapshot,
                kind=meta.kind,
                snapshot_id=meta.snapshot_id,
                epoch=self.epoch,
            )
        except FencedWriterError:
            # The replica was promoted out from under this syncer; the
            # fence is the message, not a wrappable apply failure.
            raise
        except StoreError as error:
            # Most commonly: the leader's snapshot id is taken by a different
            # window because this store holds locally-produced snapshots.
            # That is divergence, not a transient hiccup -- surface it as
            # the non-retriable replication failure it is.
            raise ReplicationError(
                f"cannot apply leader snapshot {entry['snapshot_id']}"
                f" (generation {entry['generation']}): {error}"
            ) from error
        # Progress is durable per entry: a follower killed here resumes at
        # this generation and re-fetches at most the rest of the page,
        # which the idempotent window key deduplicates (exactly-once).
        self.store.set_applied_generation(meta.generation)
        return was_new

    def sync_once(self) -> SyncReport:
        """Fetch and apply changelog pages until the leader reports no more.

        Raises :class:`ReplicationError` when the leader's retention pruned
        past this (non-empty) follower, and lets :class:`ServiceError` /
        ``OSError`` propagate for transient HTTP and socket failures
        (callers retry).
        """
        applied = deduplicated = pages = 0
        leader_generation = self.store.applied_generation()
        while True:
            since = self.store.applied_generation()
            page = self.client.replication_changes(
                since=since, limit=self.page_size, follower=self.follower
            )
            pages += 1
            leader_generation = int(cast(int, page["generation"]))
            horizon = int(cast(int, page["horizon"]))
            if since < horizon and len(self.store) > 0:
                raise ReplicationError(
                    f"leader pruned its changelog through generation {horizon} "
                    f"but this replica only applied through {since}: the gap "
                    "is unrecoverable from the changelog -- re-seed the "
                    "replica from an empty store or raise the leader's "
                    "retention"
                )
            entries = cast(List[Dict[str, Any]], page["changes"])
            for entry in entries:
                if self._apply_entry(entry):
                    applied += 1
                else:
                    deduplicated += 1
            if not bool(page["more"]):
                if not entries:
                    # Generations move without snapshots too (compaction);
                    # an empty final page proves nothing retained is newer,
                    # so fast-forward instead of polling that gap forever.
                    self.store.set_applied_generation(leader_generation)
                    break
                if self.store.applied_generation() >= leader_generation:
                    break
        self.applied_total += applied
        self.deduplicated_total += deduplicated
        return SyncReport(
            applied=applied,
            deduplicated=deduplicated,
            pages=pages,
            applied_generation=self.store.applied_generation(),
            leader_generation=leader_generation,
        )

    def run(
        self,
        *,
        poll_interval: float = 1.0,
        stop: Optional[threading.Event] = None,
        on_sync: Optional[Callable[[SyncReport], None]] = None,
    ) -> None:
        """Sync continuously every *poll_interval* seconds until *stop* is set.

        Transient leader failures (connection refused, proxy 5xx, a page
        torn by concurrent pruning) are remembered in :attr:`last_error`
        and retried on the next tick -- a follower keeps serving its last
        converged state while its leader is down.  :class:`ReplicationError`
        is not transient and propagates.
        """
        waiter = stop if stop is not None else threading.Event()
        while not waiter.is_set():
            try:
                report = self.sync_once()
            except (ServiceError, OSError) as error:
                self.last_error = str(error)
            else:
                self.last_error = None
                if on_sync is not None and (report.applied or report.deduplicated):
                    on_sync(report)
            waiter.wait(poll_interval)


@dataclass(frozen=True)
class PromotionReport:
    """What one :func:`promote` call accomplished."""

    #: Snapshots applied by the final catch-up sync (0 when none ran).
    applied: int
    #: Snapshots the final sync re-offered that the store already held.
    deduplicated: int
    #: The promoted store's own generation after promotion.
    leader_generation: int
    #: The epoch the store held before promotion.
    previous_epoch: int
    #: The new durable epoch; writers attached before it are now fenced.
    epoch: int
    #: Whether the final catch-up sync reached the old leader at all.
    synced: bool
    #: The error that cut the final sync short, if any (promotion proceeds).
    sync_error: Optional[str]

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly view (CLI output, tests)."""
        return asdict(self)


def promote(store: SnapshotStore, syncer: Optional[ReplicaSyncer] = None) -> PromotionReport:
    """Promote a follower store to leader, fencing the deposed writer.

    With *syncer* (the replica's own, pointed at the old leader) a final
    :meth:`ReplicaSyncer.sync_once` drains whatever the old leader can
    still serve -- best effort, because the usual reason to promote is that
    the old leader is *dead*; an unreachable leader, or one whose retention
    pruned its changelog past this follower, is recorded in
    :attr:`PromotionReport.sync_error` and promotion proceeds on the
    follower's state.  The epoch bump is the promotion: it commits durably
    before this function returns, after which appends stamped with the
    previous epoch raise :class:`FencedWriterError` on this store.
    """
    applied = deduplicated = 0
    synced = False
    sync_error: Optional[str] = None
    if syncer is not None:
        try:
            report = syncer.sync_once()
        except (ServiceError, OSError, ReplicationError) as error:
            sync_error = str(error)
        else:
            synced = True
            applied = report.applied
            deduplicated = report.deduplicated
    previous_epoch = store.leader_epoch()
    epoch = store.bump_leader_epoch()
    return PromotionReport(
        applied=applied,
        deduplicated=deduplicated,
        leader_generation=store.generation(),
        previous_epoch=previous_epoch,
        epoch=epoch,
        synced=synced,
        sync_error=sync_error,
    )
