"""Leader failover with durable epoch fencing.

The replication layer (:mod:`repro.service.replication`) gives a leader any
number of converging followers, but the leader itself was static: if its
host died, the fleet could serve stale reads forever and no follower could
safely take over writes.  This module closes that gap with two pieces:

* **a durable fencing epoch** -- every backend persists a ``leader_epoch``
  counter in its meta (:meth:`~repro.service.backends.base.SnapshotBackend.leader_epoch`).
  Writers capture it when they attach and stamp it on every append; an
  append carrying an older epoch raises
  :class:`~repro.service.backends.base.FencedWriterError` inside the write
  transaction, so a deposed leader that wakes up mid-write cannot fork
  history no matter how the race lands;
* **promotion** -- :func:`promote` turns a follower store into the new
  leader: one best-effort final sync drains whatever the old leader can
  still serve, then the epoch is bumped.  From that commit on, the promoted
  store accepts appends from writers attached at the new epoch and fences
  everything older.

The CLI front door is ``repro replicate --from URL --store PATH --promote``
(combinable with ``--serve`` to start taking traffic immediately); see the
README failover runbook.  What this module deliberately does **not** do is
elect anyone: picking *which* follower to promote is an operator (or
external coordinator) decision, and the epoch fence makes whichever choice
they make safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.service.backends.base import FencedWriterError, SnapshotBackend
from repro.service.client import ServiceClient, ServiceError
from repro.service.replication import DEFAULT_PAGE_SIZE, ReplicaSyncer, ReplicationError

__all__ = [
    "FencedWriterError",  # re-exported: the failover-facing name of the fence
    "PromotionReport",
    "promote",
]


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
        return {
            "applied": self.applied,
            "deduplicated": self.deduplicated,
            "leader_generation": self.leader_generation,
            "previous_epoch": self.previous_epoch,
            "epoch": self.epoch,
            "synced": self.synced,
            "sync_error": self.sync_error,
        }


def promote(
    store: SnapshotBackend,
    *,
    leader_url: Optional[str] = None,
    token: Optional[str] = None,
    page_size: int = DEFAULT_PAGE_SIZE,
) -> PromotionReport:
    """Promote a follower store to leader, fencing the deposed writer.

    With *leader_url* a final :meth:`~repro.service.replication.ReplicaSyncer.sync_once`
    drains whatever the old leader can still serve -- best effort, because
    the usual reason to promote is that the old leader is *dead*; an
    unreachable leader, or one whose retention pruned its changelog past
    this follower, is recorded in :attr:`PromotionReport.sync_error` and
    promotion proceeds on the follower's state.  The epoch
    bump is the promotion: it commits durably before this function returns,
    after which appends stamped with the previous epoch raise
    :class:`FencedWriterError` on every backend.
    """
    applied = deduplicated = 0
    synced = False
    sync_error: Optional[str] = None
    if leader_url is not None:
        client = ServiceClient(leader_url, token=token)
        syncer = ReplicaSyncer(client, store, page_size=page_size)
        try:
            report = syncer.sync_once()
        except (ServiceError, OSError, ReplicationError) as error:
            sync_error = str(error)
        else:
            synced = True
            applied = report.applied
            deduplicated = report.deduplicated
        finally:
            client.close()
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
