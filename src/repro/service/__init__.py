"""Persistence and serving of classification results.

The streaming engine (PR 1) and the parallel execution layer (PR 2) built
the *producer* side of a live community-usage classification: results exist
as in-memory :class:`~repro.stream.engine.WindowSnapshot` objects capped at
``repro.stream.engine.MAX_SNAPSHOTS``, or as one-shot batch exports.  This package
builds the *consumer* side:

* :mod:`repro.service.backends` -- the one store, the SQLite
  :class:`SnapshotStore` (schema versioning, atomic writes, retention /
  compaction, indexed per-AS history; a WAL file, or SQLite's own
  ``:memory:`` for throwaway stores).  Given an archive directory, its
  retention *archives* pruned snapshots into a second, digest-checked
  :class:`SnapshotStore` instead of deleting them, and its reads fall
  through to that cold tier; :func:`open_store` opens ``sqlite:path``,
  plain path and ``memory:`` store URLs, all SQLite;
* :mod:`repro.service.server` -- a stdlib-only JSON HTTP API over a store
  (``/v1/as/{asn}``, ``/v1/snapshot/latest``, ``/v1/snapshot/{window}``,
  ``/v1/diff``, ``/v1/stats``, ``/healthz``) with an LRU read cache keyed
  on the store generation, so hot ASes are served without touching disk;
* :mod:`repro.service.publish` -- publisher hooks that wire a running
  :class:`~repro.stream.engine.StreamEngine` (or the batch pipeline) into a
  store, so ``repro stream --store`` / ``repro classify --store``
  materialise results as they run;
* :mod:`repro.service.client` -- a small stdlib HTTP client for the API;
* :mod:`repro.service.workers` -- horizontal fan-out: N supervised
  worker processes accepting on the supervisor's one listening socket,
  serving one store on one port, respawned on crash (connections wait in
  the listen backlog meanwhile), with fleet-aggregated ``/v1/stats``;
* :mod:`repro.service.replication` -- cross-host fan-out and failover:
  any served store is a replication leader (``/v1/replication/changes``
  changelog pages), a :class:`ReplicaSyncer` converges a follower store on
  it with exactly-once resume, byte-identical served payloads, and explicit
  errors when the leader's retention outran the follower, and
  :func:`promote` (``repro replicate --promote``) turns a follower into the
  new leader behind a durable fencing epoch, so appends from the deposed
  epoch raise :class:`FencedWriterError` instead of forking history;
* :mod:`repro.service.auth` -- bearer-token authentication enforced as
  route-table middleware on every ``/v1/*`` endpoint (``/healthz`` and
  ``/metrics`` stay open), constant-time comparison, token from
  ``--auth-token`` or ``REPRO_AUTH_TOKEN``;
* :mod:`repro.service.metrics` -- a Prometheus-text ``/metrics`` endpoint:
  per-endpoint request/latency histograms, cache hit/miss counters, store
  gauges, per-follower replication lag, and per-AS classification churn,
  aggregated fleet-wide through the shared worker board -- the one ledger
  of requests and follower polls, each worker keeping a bounded follower
  table on it.

Entry points most callers want: ``repro serve --store db.sqlite``
(``--http-workers N`` to fan out, ``--auth-token`` to lock the API),
``repro replicate --from URL --store replica.db --serve`` (cross-host read
replicas; ``--promote`` for failover), and ``repro query http://host:port
latest`` on the CLI, or :func:`attach_store` +
:class:`ClassificationServer` / :class:`MultiWorkerServer` /
:class:`ReplicaSyncer` / :func:`promote` in code.
"""

from repro.service.backends import (
    SCHEMA_VERSION,
    ASHistoryEntry,
    FencedWriterError,
    SnapshotStore,
    StoredSnapshot,
    StoreError,
    open_store,
    parse_store_url,
    snapshot_payload,
)
from repro.service.client import (
    AuthError,
    BadRequestError,
    NotFoundError,
    ServiceClient,
    ServiceError,
)
from repro.service.metrics import (
    METRICS_CONTENT_TYPE,
    WorkerStatsBoard,
    render_metrics,
)
from repro.service.publish import (
    SnapshotPublisher,
    attach_store,
    ensure_snapshot,
    publish_result,
)
from repro.service.replication import (
    PromotionReport,
    ReplicaSyncer,
    ReplicationError,
    SyncReport,
    promote,
)
from repro.service.server import (
    ClassificationServer,
    ClassificationService,
    LRUCache,
    ServiceStats,
)
from repro.service.workers import MultiWorkerServer

__all__ = [
    "METRICS_CONTENT_TYPE",
    "SCHEMA_VERSION",
    "ASHistoryEntry",
    "AuthError",
    "BadRequestError",
    "ClassificationServer",
    "ClassificationService",
    "FencedWriterError",
    "LRUCache",
    "MultiWorkerServer",
    "NotFoundError",
    "PromotionReport",
    "ReplicaSyncer",
    "ReplicationError",
    "ServiceClient",
    "ServiceError",
    "ServiceStats",
    "SnapshotPublisher",
    "SnapshotStore",
    "StoreError",
    "StoredSnapshot",
    "SyncReport",
    "WorkerStatsBoard",
    "attach_store",
    "ensure_snapshot",
    "open_store",
    "parse_store_url",
    "promote",
    "publish_result",
    "render_metrics",
    "snapshot_payload",
]
