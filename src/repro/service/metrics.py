"""Prometheus-text observability for the classification service.

The ``/metrics`` endpoint renders the standard text exposition format
(``name{labels} value`` lines with ``# HELP`` / ``# TYPE`` headers) straight
from stdlib primitives -- no client library.  What it exposes:

* **per-endpoint request counters and latency histograms** -- every entry in
  the server's route table names its metric series (``endpoint=`` label), so
  a new endpoint is instrumented by construction;
* **cache hit / miss counters** per endpoint plus a fleet hit-ratio gauge;
* **store gauges** -- generation, snapshot count, on-disk size, leader
  epoch, replication horizon and applied generation;
* **per-follower replication lag** -- followers identify themselves on the
  changelog endpoint (``?follower=name``), and the leader publishes
  ``leader_generation - follower_since`` per name;
* **classification churn** -- per-AS class-change counters fed from the
  change maps the publisher persists with every snapshot (total churn plus
  the top churning ASes, cardinality-capped).

Every served request is counted once, in one ledger: the serving worker's
slot of a :class:`WorkerStatsBoard`, an mmap whose slot layout is generated
from :data:`METRIC_ENDPOINTS` and :data:`LATENCY_BUCKETS` here.  A worker
fleet shares one board file, so any worker the kernel picks answers
``/v1/stats`` and a scrape for the whole deployment; a single server is a
fleet of one, its board one slot over an anonymous map.  Follower lag is
merged from per-worker sidecar files (:class:`FileFollowerLag`) the same
way.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import tempfile
import threading
import time
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

#: Histogram bucket upper bounds in seconds (``+Inf`` is implicit).  Chosen
#: for a cache-backed read API: most hits land under 1ms, a cold SQLite
#: read in the low milliseconds, and anything near a second is pathological.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)

#: Every endpoint the route table may account under, in slot order.  The
#: mmap worker board sizes its per-endpoint regions from this tuple, so the
#: order is part of the board layout; ``unknown`` bounds the cardinality of
#: unroutable request paths to one series.
METRIC_ENDPOINTS: Tuple[str, ...] = (
    "healthz",
    "metrics",
    "snapshot_latest",
    "snapshot_window",
    "as_info",
    "diff",
    "stats",
    "replication_changes",
    "unknown",
)

#: Catch-all endpoint label for paths the route table does not know.
UNKNOWN_ENDPOINT = "unknown"

#: Integer counter fields of one endpoint's accounting, in slot order.
ENDPOINT_COUNTER_FIELDS: Tuple[str, ...] = (
    "requests",
    "errors",
    "cache_hits",
    "cache_misses",
)

#: Prometheus text exposition content type.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: How many per-AS churn series a scrape may expose (cardinality cap).
CHURN_TOP_N = 20


def empty_endpoint_stats() -> Dict[str, object]:
    """A zeroed per-endpoint accounting dict (the aggregate wire shape)."""
    stats: Dict[str, object] = {field: 0 for field in ENDPOINT_COUNTER_FIELDS}
    stats["latency_sum"] = 0.0
    stats["buckets"] = [0] * (len(LATENCY_BUCKETS) + 1)
    return stats


def bucket_index(seconds: float) -> int:
    """The (non-cumulative) histogram bucket one observation falls into."""
    for index, bound in enumerate(LATENCY_BUCKETS):
        if seconds <= bound:
            return index
    return len(LATENCY_BUCKETS)


#: One endpoint's accounting on the board: the four integer counters, the
#: latency sum (float64 seconds), and one count per histogram bucket
#: (``len(LATENCY_BUCKETS)`` finite bounds + the ``+Inf`` overflow).
_ENDPOINT = struct.Struct(
    "<" + "q" * len(ENDPOINT_COUNTER_FIELDS) + "d" + "q" * (len(LATENCY_BUCKETS) + 1)
)

#: Full per-worker slot: one endpoint block per :data:`METRIC_ENDPOINTS`
#: entry, in tuple order.
_WORKER_SLOT_SIZE = len(METRIC_ENDPOINTS) * _ENDPOINT.size

_ENDPOINT_INDEX = {name: index for index, name in enumerate(METRIC_ENDPOINTS)}


class WorkerStatsBoard:
    """Per-worker request accounting in one mmap: the service's only ledger.

    Each worker owns one slot: one block per :data:`METRIC_ENDPOINTS` entry
    holding that endpoint's counters, latency sum, and histogram bucket
    counts; the worker's aggregate counters are the sums of its blocks.  A
    fleet's board lives in a per-fleet temporary file every worker process
    maps (:meth:`create`); a board built without a *path* is one slot over
    an anonymous map, the ledger of a single server.  Exactly one worker
    writes each slot (its request threads serialise through a per-process
    lock), so there is no cross-process locking; concurrent readers may see
    a counter mid-increment, which is harmless for monotonically growing
    statistics.
    """

    def __init__(self, path: Optional[str] = None, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.path = path
        self.workers = workers
        self._lock = threading.Lock()
        size = workers * _WORKER_SLOT_SIZE
        self._file = open(path, "r+b") if path is not None else None
        self._map = mmap.mmap(-1 if self._file is None else self._file.fileno(), size)

    @classmethod
    def create(cls, workers: int) -> "WorkerStatsBoard":
        """Allocate a zeroed board in a fresh temporary file."""
        fd, path = tempfile.mkstemp(prefix="repro-serve-stats-", suffix=".bin")
        with os.fdopen(fd, "wb") as handle:
            handle.write(b"\x00" * workers * _WORKER_SLOT_SIZE)
        return cls(path, workers)

    def observe(
        self, worker_id: int, endpoint: str, *, hit: bool, error: bool, seconds: float
    ) -> None:
        """Count one request of *worker_id* in its block for *endpoint*."""
        index = _ENDPOINT_INDEX.get(endpoint, _ENDPOINT_INDEX[UNKNOWN_ENDPOINT])
        offset = worker_id * _WORKER_SLOT_SIZE + index * _ENDPOINT.size
        with self._lock:
            values = list(_ENDPOINT.unpack_from(self._map, offset))
            values[0] += 1  # requests
            if error:
                values[1] += 1  # errors
            elif hit:
                values[2] += 1  # cache_hits
            else:
                values[3] += 1  # cache_misses
            values[4] += seconds  # latency_sum
            values[5 + bucket_index(seconds)] += 1
            _ENDPOINT.pack_into(self._map, offset, *values)

    def counters(self, worker_id: int) -> Dict[str, int]:
        """One worker's aggregate counters (its endpoint blocks summed)."""
        start = worker_id * _WORKER_SLOT_SIZE
        slot = self._map[start:start + _WORKER_SLOT_SIZE]
        sums = [sum(column) for column in zip(*_ENDPOINT.iter_unpack(slot))]
        return dict(zip(ENDPOINT_COUNTER_FIELDS, sums))

    def per_worker(self) -> List[Dict[str, int]]:
        """Each worker's aggregate counters, in worker order."""
        return [self.counters(worker_id) for worker_id in range(self.workers)]

    def payload(self) -> Dict[str, object]:
        """JSON-friendly fleet aggregate for ``/v1/stats``."""
        rows = self.per_worker()
        aggregate = {field: sum(row[field] for row in rows) for field in ENDPOINT_COUNTER_FIELDS}
        return {"count": self.workers, "aggregate": aggregate, "per_worker": rows}

    def metrics_payload(self) -> Dict[str, Dict[str, object]]:
        """Fleet-wide per-endpoint aggregate (the ``/metrics`` data source).

        Sums every worker's endpoint blocks into
        :func:`empty_endpoint_stats` dicts, the shape :func:`render_metrics`
        reads.
        """
        endpoints = {name: empty_endpoint_stats() for name in METRIC_ENDPOINTS}
        for worker_id in range(self.workers):
            base = worker_id * _WORKER_SLOT_SIZE
            for index, name in enumerate(METRIC_ENDPOINTS):
                values = _ENDPOINT.unpack_from(self._map, base + index * _ENDPOINT.size)
                stats = endpoints[name]
                for field_index, field in enumerate(ENDPOINT_COUNTER_FIELDS):
                    stats[field] = int(stats[field]) + int(values[field_index])  # type: ignore[call-overload]
                stats["latency_sum"] = float(stats["latency_sum"]) + float(values[4])  # type: ignore[arg-type]
                buckets = stats["buckets"]
                assert isinstance(buckets, list)
                for bucket, count in enumerate(values[5:]):
                    buckets[bucket] += int(count)
        return endpoints

    def close(self, *, unlink: bool = False) -> None:
        """Unmap the board; the supervisor also unlinks the backing file."""
        self._map.close()
        if self._file is not None:
            self._file.close()
        if unlink and self.path is not None:
            try:
                os.unlink(self.path)
            except OSError:
                pass


# ---------------------------------------------------------------------------------------
# Follower replication-lag tracking
# ---------------------------------------------------------------------------------------
class MemoryFollowerLag:
    """Per-follower replication lag of one serving process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._followers: Dict[str, Dict[str, float]] = {}

    def record(self, follower: str, *, since: int, generation: int) -> None:
        """Record one changelog poll: the follower is *lag* commits behind."""
        with self._lock:
            self._followers[follower] = {
                "since": float(since),
                "generation": float(generation),
                "lag": float(max(0, generation - since)),
                "updated": time.time(),
            }
            self._persist()

    def _persist(self) -> None:
        """Run under the lock after every :meth:`record`; nothing to do in memory."""

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """The last-known state per follower name."""
        with self._lock:
            return {name: dict(state) for name, state in self._followers.items()}


class FileFollowerLag(MemoryFollowerLag):
    """Follower lag shared across a worker fleet via per-worker files.

    Changelog polls land on whichever worker the kernel picked; for a scrape
    (on any worker) to see every follower, each worker persists its own
    last-known state into ``followers-<worker_id>.json`` under a shared
    directory (atomic ``os.replace`` writes, no cross-process locking), and
    :meth:`snapshot` merges all files taking the newest record per follower.
    """

    def __init__(self, directory: str, worker_id: int) -> None:
        super().__init__()
        self.directory = directory
        self.worker_id = worker_id
        self._path = os.path.join(directory, f"followers-{worker_id}.json")

    def _persist(self) -> None:
        # Dump, write and replace under the one lock acquisition of record():
        # request threads of one worker share the temp path, so a dump
        # written outside the lock could truncate another's temp file or
        # replace a newer dump with an older one.
        temp = f"{self._path}.tmp"
        try:
            with open(temp, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(self._followers, sort_keys=True))
            os.replace(temp, self._path)
        except OSError:
            # Telemetry must never fail the changelog request it rides on.
            pass

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        merged: Dict[str, Dict[str, float]] = {}
        try:
            names = os.listdir(self.directory)
        except OSError:
            return super().snapshot()
        for name in sorted(names):
            if not (name.startswith("followers-") and name.endswith(".json")):
                continue
            try:
                with open(os.path.join(self.directory, name), encoding="utf-8") as handle:
                    per_worker = json.load(handle)
            except (OSError, ValueError):
                continue  # a torn write loses one poll, never the scrape
            if not isinstance(per_worker, dict):
                continue
            for follower, state in per_worker.items():
                known = merged.get(follower)
                if known is None or state.get("updated", 0) >= known.get("updated", 0):
                    merged[follower] = {key: float(value) for key, value in state.items()}
        return merged


# ---------------------------------------------------------------------------------------
# Text exposition rendering
# ---------------------------------------------------------------------------------------
def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format rules."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


class _Lines:
    """Accumulates exposition lines, emitting HELP/TYPE headers once."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._declared: set = set()

    def declare(self, name: str, kind: str, help_text: str) -> None:
        if name not in self._declared:
            self._declared.add(name)
            self.lines.append(f"# HELP {name} {help_text}")
            self.lines.append(f"# TYPE {name} {kind}")

    def sample(
        self, name: str, labels: Optional[Mapping[str, str]], value: float
    ) -> None:
        if labels:
            rendered = ",".join(
                f'{key}="{escape_label_value(str(text))}"'
                for key, text in labels.items()
            )
            self.lines.append(f"{name}{{{rendered}}} {_format_value(value)}")
        else:
            self.lines.append(f"{name} {_format_value(value)}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def render_metrics(
    *,
    endpoints: Mapping[str, Mapping[str, object]],
    store_stats: Mapping[str, object],
    followers: Mapping[str, Mapping[str, float]],
    churn_total: int,
    churn_top: Iterable[Tuple[int, int]],
    workers: int,
    ingest: Optional[Mapping[str, object]] = None,
) -> str:
    """Render one scrape of the whole service as Prometheus text.

    *endpoints* is the board's per-endpoint aggregate over its *workers*
    slots (:meth:`WorkerStatsBoard.metrics_payload`), *store_stats* the
    backend's :meth:`stats` dict, *followers* the merged lag tracker
    snapshot, and *churn* the per-AS classification change counts derived
    from the persisted change maps.  *ingest* is the
    producing engine's ingest-batching telemetry
    (:meth:`~repro.stream.engine.StreamEngine.ingest_stats`) as last
    recorded in the store -- ``None`` when no producer ever published.
    """
    out = _Lines()

    out.declare(
        "repro_http_requests_total",
        "counter",
        "Requests handled, by route-table endpoint.",
    )
    for endpoint in METRIC_ENDPOINTS:
        stats = endpoints.get(endpoint)
        if stats is None:
            continue
        out.sample(
            "repro_http_requests_total",
            {"endpoint": endpoint},
            float(stats["requests"]),  # type: ignore[arg-type]
        )
    out.declare(
        "repro_http_request_errors_total",
        "counter",
        "Non-2xx responses, by route-table endpoint.",
    )
    for endpoint in METRIC_ENDPOINTS:
        stats = endpoints.get(endpoint)
        if stats is None:
            continue
        out.sample(
            "repro_http_request_errors_total",
            {"endpoint": endpoint},
            float(stats["errors"]),  # type: ignore[arg-type]
        )

    out.declare(
        "repro_http_request_latency_seconds",
        "histogram",
        "Request handling latency, by route-table endpoint.",
    )
    for endpoint in METRIC_ENDPOINTS:
        stats = endpoints.get(endpoint)
        if stats is None:
            continue
        buckets = stats["buckets"]
        assert isinstance(buckets, list)
        cumulative = 0
        for bound, count in zip(LATENCY_BUCKETS, buckets):
            cumulative += int(count)
            out.sample(
                "repro_http_request_latency_seconds_bucket",
                {"endpoint": endpoint, "le": repr(bound)},
                float(cumulative),
            )
        cumulative += int(buckets[-1])
        out.sample(
            "repro_http_request_latency_seconds_bucket",
            {"endpoint": endpoint, "le": "+Inf"},
            float(cumulative),
        )
        out.sample(
            "repro_http_request_latency_seconds_sum",
            {"endpoint": endpoint},
            float(stats["latency_sum"]),  # type: ignore[arg-type]
        )
        out.sample(
            "repro_http_request_latency_seconds_count",
            {"endpoint": endpoint},
            float(cumulative),
        )

    total_hits = sum(int(stats["cache_hits"]) for stats in endpoints.values())  # type: ignore[call-overload]
    total_misses = sum(int(stats["cache_misses"]) for stats in endpoints.values())  # type: ignore[call-overload]
    out.declare(
        "repro_cache_hits_total", "counter", "Response-cache hits, by endpoint."
    )
    out.declare(
        "repro_cache_misses_total", "counter", "Response-cache misses, by endpoint."
    )
    for endpoint in METRIC_ENDPOINTS:
        stats = endpoints.get(endpoint)
        if stats is None:
            continue
        out.sample(
            "repro_cache_hits_total",
            {"endpoint": endpoint},
            float(stats["cache_hits"]),  # type: ignore[arg-type]
        )
        out.sample(
            "repro_cache_misses_total",
            {"endpoint": endpoint},
            float(stats["cache_misses"]),  # type: ignore[arg-type]
        )
    looked_up = total_hits + total_misses
    out.declare(
        "repro_cache_hit_ratio",
        "gauge",
        "Fleet-wide response-cache hit ratio since start.",
    )
    out.sample(
        "repro_cache_hit_ratio", None, (total_hits / looked_up) if looked_up else 0.0
    )

    gauges = (
        ("generation", "repro_store_generation", "Store commit generation."),
        ("snapshots", "repro_store_snapshots", "Queryable snapshots in the store."),
        ("size_bytes", "repro_store_size_bytes", "Store size on disk in bytes."),
        ("leader_epoch", "repro_store_leader_epoch", "Durable leader epoch (failover fencing)."),
        ("pruned_through", "repro_store_pruned_through", "Replication horizon: newest pruned commit generation."),
        ("applied_generation", "repro_store_applied_generation", "Leader generation this replica applied through."),
    )
    for key, name, help_text in gauges:
        value = store_stats.get(key)
        if value is None:
            continue
        out.declare(name, "gauge", help_text)
        out.sample(name, None, float(value))  # type: ignore[arg-type]

    out.declare("repro_serve_workers", "gauge", "Serving workers sharing this port.")
    out.sample("repro_serve_workers", None, float(workers))

    out.declare(
        "repro_replication_follower_lag",
        "gauge",
        "Commits behind the leader, per follower (from changelog polls).",
    )
    for follower in sorted(followers):
        out.sample(
            "repro_replication_follower_lag",
            {"follower": follower},
            float(followers[follower].get("lag", 0.0)),
        )

    if ingest is not None:
        out.declare(
            "repro_ingest_blocks_total",
            "counter",
            "Event blocks the producing engine absorbed.",
        )
        out.sample(
            "repro_ingest_blocks_total", None, float(ingest.get("blocks_total", 0))  # type: ignore[arg-type]
        )
        out.declare(
            "repro_ingest_events_total",
            "counter",
            "Events the producing engine ingested.",
        )
        out.sample(
            "repro_ingest_events_total", None, float(ingest.get("events_total", 0))  # type: ignore[arg-type]
        )
        bounds = ingest.get("events_per_block_bounds")
        buckets = ingest.get("events_per_block_buckets")
        if isinstance(bounds, list) and isinstance(buckets, list):
            out.declare(
                "repro_ingest_events_per_block",
                "histogram",
                "Events per absorbed ingest block.",
            )
            cumulative = 0
            for bound, count in zip(bounds, buckets):
                cumulative += int(count)
                out.sample(
                    "repro_ingest_events_per_block_bucket",
                    {"le": str(bound)},
                    float(cumulative),
                )
            if len(buckets) > len(bounds):
                cumulative += int(buckets[len(bounds)])
            out.sample(
                "repro_ingest_events_per_block_bucket", {"le": "+Inf"}, float(cumulative)
            )
            # Every block observation's value is its event count, so the
            # histogram sum is exactly the events-ingested counter.
            out.sample(
                "repro_ingest_events_per_block_sum",
                None,
                float(ingest.get("events_total", 0)),  # type: ignore[arg-type]
            )
            out.sample(
                "repro_ingest_events_per_block_count", None, float(cumulative)
            )
        dropped = ingest.get("dropped")
        if isinstance(dropped, Mapping):
            out.declare(
                "repro_ingest_sanitation_dropped_total",
                "counter",
                "Observations dropped by sanitation, by drop reason.",
            )
            for reason in sorted(dropped):
                out.sample(
                    "repro_ingest_sanitation_dropped_total",
                    {"reason": str(reason)},
                    float(dropped[reason]),  # type: ignore[arg-type]
                )

    out.declare(
        "repro_classification_churn_total",
        "counter",
        "Per-AS class changes across retained snapshots (publisher change maps).",
    )
    out.sample("repro_classification_churn_total", None, float(churn_total))
    out.declare(
        "repro_as_classification_churn",
        "counter",
        f"Class changes of the top-{CHURN_TOP_N} churning ASes.",
    )
    for asn, count in churn_top:
        out.sample("repro_as_classification_churn", {"asn": str(asn)}, float(count))

    return out.text()


__all__ = [
    "CHURN_TOP_N",
    "ENDPOINT_COUNTER_FIELDS",
    "FileFollowerLag",
    "LATENCY_BUCKETS",
    "METRICS_CONTENT_TYPE",
    "METRIC_ENDPOINTS",
    "MemoryFollowerLag",
    "UNKNOWN_ENDPOINT",
    "WorkerStatsBoard",
    "bucket_index",
    "empty_endpoint_stats",
    "escape_label_value",
    "render_metrics",
]
