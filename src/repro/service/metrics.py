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
  ``leader_generation - follower_since`` per name, for at most
  :data:`FOLLOWER_TABLE_SIZE` names per worker;
* **classification churn** -- per-AS class-change counters fed from the
  change maps the publisher persists with every snapshot (total churn plus
  the top churning ASes, cardinality-capped).

Every served request is counted once, in one ledger: the serving worker's
slot of a :class:`WorkerStatsBoard`, an mmap whose slot layout is generated
from :data:`METRIC_ENDPOINTS` and :data:`LATENCY_BUCKETS` here.  A worker
fleet shares one board file, so any worker the kernel picks answers
``/v1/stats`` and a scrape for the whole deployment; a single server is a
fleet of one, its board one slot over an anonymous map.  Follower lag lives
on the same board: each worker keeps a fixed table of the followers whose
changelog polls it served, and a scrape merges every worker's table.
"""

from __future__ import annotations

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

#: Followers each worker's table holds; a poll from a new name when the
#: table is full evicts the least recently polled entry.
FOLLOWER_TABLE_SIZE = 64

#: Longest follower name, in UTF-8 bytes, the board records.
FOLLOWER_NAME_MAX_BYTES = 64

#: One follower entry: a sequence word (odd while its worker rewrites the
#: entry), the poll's ``since`` and leader ``generation``, its wall-clock
#: time, and the length-prefixed UTF-8 name (length 0: a free entry).
_FOLLOWER = struct.Struct(f"<QqqdB{FOLLOWER_NAME_MAX_BYTES}s")
_SEQUENCE = struct.Struct("<Q")

#: One worker's follower table, in bytes.
_FOLLOWER_TABLE_BYTES = FOLLOWER_TABLE_SIZE * _FOLLOWER.size


def _board_size(workers: int) -> int:
    """Bytes of a *workers*-slot board: every request slot, then every follower table."""
    return workers * (_WORKER_SLOT_SIZE + _FOLLOWER_TABLE_BYTES)


class WorkerStatsBoard:
    """Per-worker request and follower accounting in one mmap: the only ledger.

    Each worker owns one slot: one block per :data:`METRIC_ENDPOINTS` entry
    holding that endpoint's counters, latency sum, and histogram bucket
    counts; the worker's aggregate counters are the sums of its blocks.
    After every request slot, each worker also owns a table of
    :data:`FOLLOWER_TABLE_SIZE` follower entries, the last changelog poll
    it served per follower name.  A fleet's board lives in a per-fleet
    temporary file every worker process maps (:meth:`create`); a board
    built without a *path* is one slot over an anonymous map, the ledger of
    a single server.  Exactly one worker writes each slot and table (its
    request threads serialise through a per-process lock), so there is no
    cross-process locking; concurrent readers may see a counter
    mid-increment, which is harmless for monotonically growing statistics,
    and skip a follower entry whose sequence word says it is mid-write.
    """

    def __init__(self, path: Optional[str] = None, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.path = path
        self.workers = workers
        self._lock = threading.Lock()
        self._followers_base = workers * _WORKER_SLOT_SIZE
        self._file = open(path, "r+b") if path is not None else None
        self._map = mmap.mmap(
            -1 if self._file is None else self._file.fileno(), _board_size(workers)
        )

    @classmethod
    def create(cls, workers: int) -> "WorkerStatsBoard":
        """Allocate a zeroed board in a fresh temporary file."""
        fd, path = tempfile.mkstemp(prefix="repro-serve-stats-", suffix=".bin")
        with os.fdopen(fd, "wb") as handle:
            handle.write(b"\x00" * _board_size(workers))
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

    def record_follower(
        self, worker_id: int, name: str, *, since: int, generation: int
    ) -> None:
        """Record one changelog poll of follower *name* in *worker_id*'s table.

        The name's entry is rewritten; a new name takes a free entry, or
        evicts the least recently polled one.  A name that is empty or over
        :data:`FOLLOWER_NAME_MAX_BYTES` records nothing: telemetry never
        fails the poll it rides on.
        """
        try:
            encoded = name.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate
            return
        if not 0 < len(encoded) <= FOLLOWER_NAME_MAX_BYTES:
            return
        base = self._followers_base + worker_id * _FOLLOWER_TABLE_BYTES
        key = (len(encoded), encoded.ljust(FOLLOWER_NAME_MAX_BYTES, b"\x00"))
        with self._lock:
            entries = [
                _FOLLOWER.unpack_from(self._map, base + index * _FOLLOWER.size)
                for index in range(FOLLOWER_TABLE_SIZE)
            ]
            index = next(
                (index for index, entry in enumerate(entries) if entry[4:] == key), None
            )
            if index is None:  # a free entry (length 0) first, else the stalest
                index = min(
                    range(FOLLOWER_TABLE_SIZE),
                    key=lambda at: (entries[at][4] != 0, entries[at][3]),
                )
            offset = base + index * _FOLLOWER.size
            sequence = entries[index][0] | 1  # odd while the entry is written
            _SEQUENCE.pack_into(self._map, offset, sequence)
            _FOLLOWER.pack_into(
                self._map, offset, sequence, since, generation, time.time(), *key
            )
            _SEQUENCE.pack_into(self._map, offset, sequence + 1)

    def followers(self) -> Dict[str, Dict[str, float]]:
        """Every worker's follower table merged, the newest poll per name.

        Takes no lock: an entry whose sequence word is odd, or moved while
        it was read, is mid-write in its worker and is skipped, so a scrape
        may miss that one poll but never reports a torn entry.
        """
        merged: Dict[str, Dict[str, float]] = {}
        for worker_id in range(self.workers):
            base = self._followers_base + worker_id * _FOLLOWER_TABLE_BYTES
            for index in range(FOLLOWER_TABLE_SIZE):
                offset = base + index * _FOLLOWER.size
                # The sequence word is the entry's first field, so it is
                # read before the rest, and read again after it.
                sequence, since, generation, updated, length, raw = _FOLLOWER.unpack_from(
                    self._map, offset
                )
                if length == 0 or sequence % 2:
                    continue
                if _SEQUENCE.unpack_from(self._map, offset)[0] != sequence:
                    continue
                try:
                    name = raw[:length].decode("utf-8")
                except UnicodeDecodeError:
                    continue
                known = merged.get(name)
                if known is None or updated >= known["updated"]:
                    merged[name] = {
                        "since": float(since),
                        "generation": float(generation),
                        "lag": float(max(0, generation - since)),
                        "updated": updated,
                    }
        return merged

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
    """Accumulates exposition lines: each family's header, then its samples."""

    def __init__(self) -> None:
        self.lines: List[str] = []

    def declare(self, name: str, kind: str, help_text: str) -> None:
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


def _endpoint_counters(
    out: _Lines,
    endpoints: List[Tuple[str, Mapping[str, object]]],
    families: Iterable[Tuple[str, str, str]],
) -> None:
    """Per-endpoint counter families, each ``(name, board field, help)``:
    its header, then one sample per endpoint."""
    for name, field, help_text in families:
        out.declare(name, "counter", help_text)
        for endpoint, stats in endpoints:
            out.sample(name, {"endpoint": endpoint}, float(stats[field]))  # type: ignore[arg-type]


def _histogram(
    out: _Lines,
    name: str,
    help_text: str,
    bounds: List[str],
    series: Iterable[Tuple[Dict[str, str], object, object]],
) -> None:
    """One histogram family: its header, then per ``(labels, buckets, sum)``
    series the cumulative ``le`` buckets, ``+Inf``, ``_sum`` and ``_count``.

    *buckets* holds one count per bound, then the count past the last one.
    """
    out.declare(name, "histogram", help_text)
    for labels, buckets, total in series:
        assert isinstance(buckets, list)
        cumulative = 0
        for bound, count in zip(bounds, buckets):
            cumulative += int(count)
            out.sample(f"{name}_bucket", {**labels, "le": bound}, float(cumulative))
        if len(buckets) > len(bounds):
            cumulative += int(buckets[len(bounds)])
        out.sample(f"{name}_bucket", {**labels, "le": "+Inf"}, float(cumulative))
        out.sample(f"{name}_sum", labels, float(total))  # type: ignore[arg-type]
        out.sample(f"{name}_count", labels, float(cumulative))


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
    backend's :meth:`stats` dict, *followers* the board's merged follower
    tables (:meth:`WorkerStatsBoard.followers`), and *churn* the per-AS
    classification change counts derived from the persisted change maps.
    *ingest* is the producing engine's ingest-batching telemetry
    (:meth:`~repro.stream.engine.StreamEngine.ingest_stats`) as last
    recorded in the store -- ``None`` when no producer ever published.
    """
    out = _Lines()

    present = [(name, endpoints[name]) for name in METRIC_ENDPOINTS if name in endpoints]
    _endpoint_counters(
        out,
        present,
        [
            ("repro_http_requests_total", "requests", "Requests handled, by route-table endpoint."),
            ("repro_http_request_errors_total", "errors", "Non-2xx responses, by route-table endpoint."),
        ],
    )
    _histogram(
        out,
        "repro_http_request_latency_seconds",
        "Request handling latency, by route-table endpoint.",
        [repr(bound) for bound in LATENCY_BUCKETS],
        [
            ({"endpoint": name}, stats["buckets"], stats["latency_sum"])
            for name, stats in present
        ],
    )
    _endpoint_counters(
        out,
        present,
        [
            ("repro_cache_hits_total", "cache_hits", "Response-cache hits, by endpoint."),
            ("repro_cache_misses_total", "cache_misses", "Response-cache misses, by endpoint."),
        ],
    )

    total_hits = sum(int(stats["cache_hits"]) for stats in endpoints.values())  # type: ignore[call-overload]
    total_misses = sum(int(stats["cache_misses"]) for stats in endpoints.values())  # type: ignore[call-overload]
    looked_up = total_hits + total_misses
    out.declare(
        "repro_cache_hit_ratio", "gauge", "Fleet-wide response-cache hit ratio since start."
    )
    out.sample("repro_cache_hit_ratio", None, (total_hits / looked_up) if looked_up else 0.0)

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
        for key, name, help_text in (
            ("blocks_total", "repro_ingest_blocks_total", "Event blocks the producing engine absorbed."),
            ("events_total", "repro_ingest_events_total", "Events the producing engine ingested."),
        ):
            out.declare(name, "counter", help_text)
            out.sample(name, None, float(ingest.get(key, 0)))  # type: ignore[arg-type]
        bounds = ingest.get("events_per_block_bounds")
        buckets = ingest.get("events_per_block_buckets")
        if isinstance(bounds, list) and isinstance(buckets, list):
            # Every block observation's value is its event count, so the
            # histogram sum is exactly the events-ingested counter.
            _histogram(
                out,
                "repro_ingest_events_per_block",
                "Events per absorbed ingest block.",
                [str(bound) for bound in bounds],
                [({}, buckets, ingest.get("events_total", 0))],
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
    "FOLLOWER_NAME_MAX_BYTES",
    "FOLLOWER_TABLE_SIZE",
    "LATENCY_BUCKETS",
    "METRICS_CONTENT_TYPE",
    "METRIC_ENDPOINTS",
    "UNKNOWN_ENDPOINT",
    "WorkerStatsBoard",
    "bucket_index",
    "empty_endpoint_stats",
    "escape_label_value",
    "render_metrics",
]
