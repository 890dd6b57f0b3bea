"""Stdlib-only JSON HTTP API over a :class:`SnapshotStore`.

Endpoints (all ``GET``; JSON unless noted):

=============================  =====================================================
``/healthz``                   liveness + store generation / snapshot count (open)
``/metrics``                   Prometheus text exposition (open)
``/v1/snapshot/latest``        the newest persisted snapshot, full payload
``/v1/snapshot/{window_end}``  the snapshot whose window ends at ``window_end``
``/v1/as/{asn}``               latest classification of one AS (+ ``?history=N``)
``/v1/diff``                   change set of the latest (or ``?window=``) snapshot
``/v1/stats``                  store statistics + server request / cache counters
``/v1/replication/changes``    snapshots committed after ``?since=`` (replication)
=============================  =====================================================

Routing is a **declarative table**: each :class:`Route` carries its URL
pattern, handler, and three middleware flags -- ``cacheable`` (response
cache), ``auth_required`` (bearer-token check), ``metric_name`` (the
``endpoint=`` label of its Prometheus series).  The cache, auth, and
metrics middleware all read the table, so a new endpoint cannot silently
skip any of the three; adding one is adding one table row.

Errors are a structured envelope, uniformly:
``{"error": {"status": N, "code": "...", "message": "..."}}`` -- which
:class:`~repro.service.client.ServiceClient` parses back into typed
exceptions.

The service keeps an LRU cache of encoded response bodies keyed on
``(store generation, request path)``.  The generation bumps on every store
commit, so a cache hit is always consistent with the durable state, and hot
entries (the latest snapshot, popular ASes) are served from memory without
rebuilding multi-thousand-row payloads from the backend.  Requests are
handled on a :class:`ThreadingHTTPServer`; the SQLite backend uses
per-thread connections against the WAL, so readers never block the producer.

The HTTP adapter (:class:`_Handler`) keeps the stdlib's request-line rules:
keep-alive by default on ``HTTP/1.1`` only (``Connection: close`` /
``keep-alive`` override), HTTP/0.9 ``GET`` with a bare body, 400 for a bad
version or syntax, 505 for ``HTTP/2+``, 501 for any method but ``GET``,
``Expect: 100-continue`` honoured, a leading ``//`` collapsed.  It reads the
head itself: a line over 65 536 bytes is 414 (request line) or 431, more than
100 header lines 431; names are case-insensitive, the first of duplicate
headers wins, obs-fold lines continue the header above.  A response -- status
line, ``Server``, ``Date``, ``Content-Type``, ``Content-Length``, body -- is one
socket send.
"""

from __future__ import annotations

import json
import re
import socket
import sqlite3
import threading
import time
from collections import OrderedDict
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Type,
    Union,
    cast,
)
from urllib.parse import parse_qs

from repro.bgp.asn import MAX_ASN_32BIT
from repro.service.auth import check_token
from repro.service.backends.base import (
    StoreError,
    snapshot_payload,
    snapshot_record,
)
from repro.service.backends.sqlite import SnapshotStore
from repro.service.metrics import (
    CHURN_TOP_N,
    METRICS_CONTENT_TYPE,
    UNKNOWN_ENDPOINT,
    WorkerStatsBoard,
    render_metrics,
)

#: Content type of every JSON endpoint (everything except ``/metrics``).
JSON_CONTENT_TYPE = "application/json"


#: Error codes of the structured envelope, by status (fallback: the family).
_ERROR_CODES = {
    400: "bad_request",
    401: "unauthorized",
    403: "forbidden",
    404: "not_found",
    500: "internal",
}


class ApiError(Exception):
    """An HTTP error response raised by route handlers.

    Carries the three fields of the error envelope; *code* defaults from
    the status so handlers only spell it out when a status has more than
    one meaning (e.g. 500 ``internal`` vs ``store_failure``).
    """

    def __init__(self, status: int, message: str, *, code: Optional[str] = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.code = code if code is not None else _ERROR_CODES.get(status, "error")


class ServiceStats(NamedTuple):
    """One service's request / cache counters: its endpoint series summed."""

    requests: int
    cache_hits: int
    cache_misses: int
    errors: int

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for ``/v1/stats``."""
        return dict(self._asdict())


class LRUCache:
    """A small thread-safe LRU mapping cache keys to encoded bodies."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[int, str], bytes]" = OrderedDict()

    def get(self, key: Tuple[int, str]) -> Optional[bytes]:
        """The cached body for *key*, refreshing its recency."""
        with self._lock:
            body = self._entries.get(key)
            if body is not None:
                self._entries.move_to_end(key)
            return body

    def put(self, key: Tuple[int, str], body: bytes) -> None:
        """Insert *body*, evicting the least recently used entry when full."""
        with self._lock:
            self._entries[key] = body
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: Default number of encoded responses kept hot.
DEFAULT_CACHE_SIZE = 512

#: What a route handler returns: a JSON payload, or pre-rendered text
#: (the Prometheus exposition) tagged with its content type.
RoutePayload = Union[Dict[str, object], str]

#: Handler signature: ``(service, path params, query params) -> payload``.
RouteHandler = Callable[
    ["ClassificationService", Dict[str, str], Dict[str, List[str]]], RoutePayload
]


class Route(NamedTuple):
    """One row of the declarative route table.

    The three flags are the middleware contract: the response cache honours
    ``cacheable``, the auth middleware honours ``auth_required``, and the
    metrics middleware labels the endpoint's series ``metric_name`` -- all
    read from here, never hard-coded per handler.
    """

    pattern: str
    handler: RouteHandler
    cacheable: bool
    auth_required: bool
    metric_name: str


def _match_route(pattern: str, parts: List[str]) -> Optional[Dict[str, str]]:
    """Match normalized path segments against a route pattern.

    Pattern segments match literally, except ``{name}`` placeholders, which
    capture one segment into the returned params dict.  ``None``: no match.
    """
    expected = [segment for segment in pattern.split("/") if segment]
    if len(expected) != len(parts):
        return None
    params: Dict[str, str] = {}
    for want, got in zip(expected, parts):
        if want.startswith("{") and want.endswith("}"):
            params[want[1:-1]] = got
        elif want != got:
            return None
    return params


class ServiceResponse(NamedTuple):
    """One handled request: status, encoded body, and its content type."""

    status: int
    body: bytes
    content_type: str = JSON_CONTENT_TYPE


class ClassificationService:
    """Routing + caching + middleware logic of the API, socket-independent.

    Tests (and the benchmark's store-level mode) drive :meth:`handle`
    directly; the HTTP handler below is a thin socket adapter around it.
    Every request is counted once, and every named changelog poll
    recorded, in slot *worker_id* of *stats_sink*: the board a worker fleet
    shares, or by default a private one-slot board, so a single service is
    a fleet of one.
    """

    def __init__(
        self,
        store: SnapshotStore,
        *,
        cache_size: int = DEFAULT_CACHE_SIZE,
        worker_id: int = 0,
        stats_sink: Optional[WorkerStatsBoard] = None,
        auth_token: Optional[str] = None,
    ) -> None:
        self.store = store
        self.cache = LRUCache(cache_size)
        self.board = stats_sink if stats_sink is not None else WorkerStatsBoard()
        if not 0 <= worker_id < self.board.workers:
            raise ValueError(
                f"worker_id {worker_id} has no slot on a {self.board.workers}-worker board"
            )
        self.worker_id = worker_id
        self.auth_token = auth_token
        self._churn_lock = threading.Lock()
        self._churn_cache: Optional[Tuple[int, int, List[Tuple[int, int]]]] = None

    # -- entry point --------------------------------------------------------------------
    @property
    def stats(self) -> ServiceStats:
        """This service's request / cache counters: its slot of the board."""
        return ServiceStats(**self.board.counters(self.worker_id))

    def resolve(self, path: str) -> Tuple[Optional[Route], Dict[str, str]]:
        """The route table row (and captured params) serving *path*."""
        parts = [part for part in path.split("/") if part]
        for route in self.ROUTES:
            params = _match_route(route.pattern, parts)
            if params is not None:
                return route, params
        return None, {}

    def handle(
        self, target: str, headers: Optional[Mapping[str, str]] = None
    ) -> ServiceResponse:
        """Serve one request target through the full middleware stack.

        *headers* carries the ``Authorization`` header when auth is
        enabled (tests may pass a plain dict; the HTTP adapter passes the
        request's header mapping).  Middleware order: resolve -> auth ->
        cache -> handler -> cache put -> metrics; metrics see every
        outcome, auth rejections and cache hits included.
        """
        started = time.perf_counter()
        # HTTP request targets are origin-form: everything before `?` is
        # the path (urlsplit would misread `//healthz` as a netloc).
        raw_path, _, query_text = target.partition("?")
        # Normalize the path exactly as routing sees it (empty segments
        # dropped) and use the normalized form for BOTH the route flags
        # and the cache key.  Checking the raw path would let aliases like
        # `/healthz/` or `//healthz` slip past the volatile routes into the
        # cache and serve stale liveness / fleet counters forever; keying
        # the cache on the raw target would also store one entry per alias
        # of the same resource.
        path = "/" + "/".join(part for part in raw_path.split("/") if part)
        route, params = self.resolve(path)
        endpoint = route.metric_name if route is not None else UNKNOWN_ENDPOINT

        def finish(
            status: int, body: bytes, content_type: str, *, hit: bool = False
        ) -> ServiceResponse:
            # Metrics see every outcome, once, in this service's board slot.
            self.board.observe(
                self.worker_id,
                endpoint,
                hit=hit,
                error=status >= 400,
                seconds=time.perf_counter() - started,
            )
            return ServiceResponse(status, body, content_type)

        if self.auth_token is not None:
            # Unroutable /v1/* paths are checked too: probing for endpoints
            # must not be cheaper without credentials than with them.
            protected = (
                route.auth_required if route is not None else path.startswith("/v1/")
            )
            if protected:
                failure = check_token(headers, self.auth_token)
                if failure is not None:
                    return finish(
                        failure.status,
                        _encode_error(failure.status, failure.code, failure.message),
                        JSON_CONTENT_TYPE,
                    )
        cacheable = route is not None and route.cacheable
        cache_key = (0, "")
        if cacheable:
            normalized = path + ("?" + query_text if query_text else "")
            cache_key = (self.store.generation(), normalized)
            cached = self.cache.get(cache_key)
            if cached is not None:
                return finish(200, cached, JSON_CONTENT_TYPE, hit=True)
        try:
            if route is None:
                raise ApiError(404, f"unknown endpoint {path!r}")
            payload = self._dispatch(route, params, parse_qs(query_text))
        except ApiError as error:
            return finish(
                error.status,
                _encode_error(error.status, error.code, error.message),
                JSON_CONTENT_TYPE,
            )
        except StoreError as error:
            # A snapshot resolved a moment ago may be pruned by the producer
            # before its rows are read; that is a 404, not a dropped socket.
            return finish(404, _encode_error(404, "not_found", str(error)), JSON_CONTENT_TYPE)
        except sqlite3.Error as error:
            return finish(
                500,
                _encode_error(500, "store_failure", f"store failure: {error}"),
                JSON_CONTENT_TYPE,
            )
        if isinstance(payload, str):
            # Pre-rendered text (the /metrics exposition), never cached.
            return finish(200, payload.encode("utf-8"), METRICS_CONTENT_TYPE)
        body = _encode(payload)
        # Re-read the generation before publishing the body to the cache: a
        # commit that landed after the key was computed means the payload
        # may reflect the *newer* state, and caching it under the older
        # generation would serve divergent bytes until the next write.  A
        # replica applying windows mid-read makes this window wide, not
        # theoretical.  (Commits after this check are harmless: the body
        # was built before them, so it is consistent with the keyed
        # generation.)
        if cacheable and self.store.generation() == cache_key[0]:
            self.cache.put(cache_key, body)
        return finish(200, body, JSON_CONTENT_TYPE)

    # -- routing ------------------------------------------------------------------------
    def _dispatch(
        self, route: Route, params: Dict[str, str], query: Dict[str, List[str]]
    ) -> RoutePayload:
        """Invoke the handler of the route :meth:`handle` resolved."""
        return route.handler(self, params, query)

    # -- endpoints ----------------------------------------------------------------------
    def _healthz(
        self, params: Dict[str, str], query: Dict[str, List[str]]
    ) -> RoutePayload:
        return {
            "status": "ok",
            "generation": self.store.generation(),
            "snapshots": len(self.store),
        }

    def _churn(self) -> Tuple[int, List[Tuple[int, int]]]:
        """Per-AS classification churn from the persisted change maps.

        Computed by summing every retained snapshot's change set; memoized
        by store generation, so repeated scrapes of an idle store cost one
        dict lookup and a generation read.
        """
        generation = self.store.generation()
        with self._churn_lock:
            cached = self._churn_cache
            if cached is not None and cached[0] == generation:
                return cached[1], cached[2]
        counts: Dict[int, int] = {}
        for meta in self.store.snapshots():
            for asn in self.store.changes(meta.snapshot_id):
                counts[int(asn)] = counts.get(int(asn), 0) + 1
        total = sum(counts.values())
        top = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:CHURN_TOP_N]
        with self._churn_lock:
            self._churn_cache = (generation, total, top)
        return total, top

    def _metrics(
        self, params: Dict[str, str], query: Dict[str, List[str]]
    ) -> RoutePayload:
        """One Prometheus scrape of the whole deployment.

        The per-endpoint aggregate comes off the board, so any worker the
        kernel picks answers for the entire ``--http-workers N`` fleet.
        """
        churn_total, churn_top = self._churn()
        return render_metrics(
            endpoints=self.board.metrics_payload(),
            store_stats=self.store.stats(),
            followers=self.board.followers(),
            churn_total=churn_total,
            churn_top=churn_top,
            workers=self.board.workers,
            ingest=self.store.ingest_stats(),
        )

    def _latest_or_404(self) -> int:
        latest = self.store.latest()
        if latest is None:
            raise ApiError(404, "store holds no snapshots yet")
        return latest.snapshot_id

    def _snapshot_latest(
        self, params: Dict[str, str], query: Dict[str, List[str]]
    ) -> RoutePayload:
        return snapshot_payload(self.store.load_snapshot(self._latest_or_404()))

    def _snapshot_by_window(
        self, params: Dict[str, str], query: Dict[str, List[str]]
    ) -> RoutePayload:
        window_end = _int_operand(params["window_end"], "window")
        meta = self.store.by_window_end(window_end)
        if meta is None:
            raise ApiError(404, f"no snapshot with window_end {window_end}")
        return snapshot_payload(self.store.load_snapshot(meta.snapshot_id))

    def _as_info(
        self, params: Dict[str, str], query: Dict[str, List[str]]
    ) -> RoutePayload:
        asn = _int_operand(params["asn"], "asn", 0, MAX_ASN_32BIT)
        self._latest_or_404()
        history_limit = None
        if "history" in query:
            history_limit = _int_operand(query["history"][-1], "history")
            if history_limit < 1:
                raise ApiError(400, "history must be >= 1")
        # One store read: the newest entry of the history is the latest.
        history = self.store.as_history(asn, limit=history_limit or 1)
        latest = history[0] if history else None
        payload: Dict[str, object] = {
            "asn": asn,
            # An AS the store never saw is validly "nn": no evidence at all.
            "code": latest.code if latest is not None else "nn",
            "observed": latest is not None,
        }
        if latest is not None:
            payload["latest"] = latest.to_dict()
        if history_limit is not None:
            payload["history"] = [entry.to_dict() for entry in history]
        return payload

    def _diff(
        self, params: Dict[str, str], query: Dict[str, List[str]]
    ) -> RoutePayload:
        if "window" in query:
            window_end = _int_operand(query["window"][-1], "window")
            meta = self.store.by_window_end(window_end)
            if meta is None:
                raise ApiError(404, f"no snapshot with window_end {window_end}")
            snapshot_id = meta.snapshot_id
        else:
            snapshot_id = self._latest_or_404()
            meta = self.store.get(snapshot_id)
            assert meta is not None
        return {
            "snapshot_id": snapshot_id,
            "window_start": meta.window_start,
            "window_end": meta.window_end,
            "changed": {
                str(asn): [old, new]
                for asn, (old, new) in sorted(self.store.changes(snapshot_id).items())
            },
        }

    #: Default / maximum page size of ``/v1/replication/changes`` (full
    #: snapshot payloads are heavy; pages keep one response bounded).
    REPLICATION_PAGE = 64
    REPLICATION_PAGE_MAX = 256

    def _replication_changes(
        self, params: Dict[str, str], query: Dict[str, List[str]]
    ) -> RoutePayload:
        """The changelog page a follower polls: snapshot records after ``since``.

        Deterministic given the store state, but deliberately *not* cached
        (``cacheable=False`` in the route table): pages are large and each
        ``since`` is requested at most once per follower.  The current
        generation is read *before* the page so a concurrent commit can
        only make the reported generation conservative (the follower polls
        again), never claim coverage of snapshots the page omitted; the
        horizon is read *after*, so a concurrent prune surfaces as a raised
        horizon rather than a silent gap.

        Followers that pass ``?follower=name`` feed the per-follower
        replication-lag gauges of ``/metrics``: the poll itself states how
        far behind the poller is (``generation - since``), and the board
        records it in this worker's follower table.
        """
        since = 0
        if "since" in query:
            since = _int_operand(query["since"][-1], "since")
            if since < 0:
                raise ApiError(400, f"since must be >= 0, got {since}")
        limit = self.REPLICATION_PAGE
        if "limit" in query:
            limit = _int_operand(query["limit"][-1], "limit")
            if limit < 1:
                raise ApiError(400, f"limit must be >= 1, got {limit}")
            limit = min(limit, self.REPLICATION_PAGE_MAX)
        generation = self.store.generation()
        if "follower" in query:
            self.board.record_follower(
                self.worker_id, query["follower"][-1], since=since, generation=generation
            )
        metas = self.store.snapshots_since(since, limit=limit + 1)
        more = len(metas) > limit
        changes = [
            snapshot_record(meta, self.store.load_snapshot(meta.snapshot_id))
            for meta in metas[:limit]
        ]
        return {
            "since": since,
            "generation": generation,
            "horizon": self.store.pruned_through(),
            "changes": changes,
            "more": more,
        }

    def _stats(
        self, params: Dict[str, str], query: Dict[str, List[str]]
    ) -> RoutePayload:
        # Any worker answers for the whole fleet: the board aggregates every
        # sibling's slot, and ``server`` is this worker's row of one reading.
        workers = self.board.payload()
        own = cast(List[Dict[str, int]], workers["per_worker"])[self.worker_id]
        return {
            "store": self.store.stats(),
            "server": {**own, "cache_entries": len(self.cache), "worker_id": self.worker_id},
            "auth": {"enabled": self.auth_token is not None},
            "workers": workers,
        }

    #: The route table.  Order matters only where patterns overlap: the
    #: literal ``/v1/snapshot/latest`` must precede the ``{window_end}``
    #: capture.  ``metric_name`` values come from
    #: :data:`repro.service.metrics.METRIC_ENDPOINTS` (asserted by test).
    #: Four routes stay out of the response cache.  ``/healthz``,
    #: ``/metrics`` and ``/v1/stats`` change without a store write (request
    #: counters, liveness): served stale they would hide live operational
    #: state.  Replication changelog pages are huge (up to hundreds of full
    #: snapshots) and keyed by a ``since`` no follower asks for twice
    #: (applied generations only move forward): cached, they would evict the
    #: hot per-AS entries for one-shot bodies.
    ROUTES: Tuple[Route, ...] = (
        Route("/healthz", _healthz, False, False, "healthz"),
        Route("/metrics", _metrics, False, False, "metrics"),
        Route("/v1/snapshot/latest", _snapshot_latest, True, True, "snapshot_latest"),
        Route("/v1/snapshot/{window_end}", _snapshot_by_window, True, True, "snapshot_window"),
        Route("/v1/as/{asn}", _as_info, True, True, "as_info"),
        Route("/v1/diff", _diff, True, True, "diff"),
        Route("/v1/stats", _stats, False, True, "stats"),
        Route("/v1/replication/changes", _replication_changes, False, True, "replication_changes"),
    )


def _encode(payload: Dict[str, object]) -> bytes:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")


def _encode_error(status: int, code: str, message: str) -> bytes:
    """Encode the structured error envelope every non-2xx response uses."""
    return _encode(
        {"error": {"status": status, "code": code, "message": message}}
    )


#: SQLite's INTEGER range: an operand outside it cannot reach a query.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _int_operand(text: str, name: str, low: int = _INT64_MIN, high: int = _INT64_MAX) -> int:
    """*text* as an integer in ``[low, high]``, else a 400."""
    try:
        value = int(text)
    except ValueError:
        raise ApiError(400, f"{name} must be an integer, got {text!r}") from None
    if not low <= value <= high:
        raise ApiError(400, f"invalid {name} {value}")
    return value


#: The stdlib's request-head limits: longest line, most lines before the blank one.
_MAX_LINE, _MAX_HEADERS = 65536, 100
#: One line of a request head (a bare CR ends a line too), and a field's name.
_HEAD_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")
_FIELD_NAME = re.compile(r"[!-9;-~]*:")


class RequestHeaders(Mapping[str, str]):
    """One request's headers, keyed case-insensitively: the first duplicate wins."""

    __slots__ = ("_values",)

    def __init__(self, values: Dict[str, str]) -> None:
        self._values = values  # lower-cased name -> value

    def __getitem__(self, name: str) -> str:
        return self._values[name.lower()]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)


class _Handler(BaseHTTPRequestHandler):
    """Socket adapter: one request head parsed, one response written.

    ``parse_request`` keeps the stdlib's request-line rules and head limits
    but reads the header lines itself into :class:`RequestHeaders`;
    ``do_GET`` writes status line, headers and body in one ``wfile.write``.
    The module docstring states the whole wire contract.
    """

    # Keep-alive matters for the queries/sec target: HTTP/1.1 + an explicit
    # Content-Length lets clients reuse one TCP connection for many queries.
    protocol_version = "HTTP/1.1"
    # Error responses (``send_error``) still write headers and body apart;
    # with Nagle enabled the kernel would hold the second one for the
    # peer's delayed ACK (~40ms).
    disable_nagle_algorithm = True
    service: ClassificationService  # injected by ClassificationServer
    request_headers: RequestHeaders
    _date: Tuple[int, str] = (-1, "")  # (second, its Date value)

    def parse_request(self) -> bool:
        """Parse the request line and head; on failure the error is sent."""
        self.command = ""  # set in case of error on the first line
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) >= 3:  # enough to determine the protocol version
            version = words[-1]
            number = version[5:].split(".") if version.startswith("HTTP/") else []
            if len(number) != 2 or not all(
                part.isascii() and part.isdigit() and len(part) <= 10 for part in number
            ):
                self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request version ({version!r})")
                return False
            if int(number[0]) >= 2:
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED, f"Invalid HTTP version ({version[5:]})"
                )
                return False
            self.close_connection = (int(number[0]), int(number[1])) < (1, 1)
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request syntax ({self.requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(
                    HTTPStatus.BAD_REQUEST, f"Bad HTTP/0.9 request type ({command!r})"
                )
                return False
        self.command = command
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        lines: List[bytes] = []
        for count in range(_MAX_HEADERS + 1):  # the blank line counts too
            line = self.rfile.readline(_MAX_LINE + 1)
            too_long = len(line) > _MAX_LINE
            if too_long or count == _MAX_HEADERS:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Line too long" if too_long else "Too many headers",
                    f"got more than {_MAX_LINE} bytes when reading header line"
                    if too_long
                    else f"got more than {_MAX_HEADERS} headers",
                )
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            lines.append(line)
        values: Dict[str, str] = {}
        name: Optional[str] = None  # the header an obs-fold line continues
        for text in _HEAD_LINE.findall(str(b"".join(lines), "iso-8859-1")):
            if text[0] in " \t":
                if name is not None:
                    values[name] += text
                continue
            field = _FIELD_NAME.match(text)
            if field is None:
                if text.startswith("From "):  # an envelope line is skipped
                    continue
                break  # not a field: the rest of the head is no header
            if field.end() > 1:  # a nameless field is skipped
                key = field.group()[:-1].lower()
                name = key if key not in values else None  # the first duplicate wins
                if name is not None:
                    values[name] = text[field.end():].lstrip(" \t")
        headers = {key: value.rstrip("\r\n") for key, value in values.items()}
        self.request_headers = RequestHeaders(headers)
        connection = headers.get("connection", "").lower()
        if connection in ("close", "keep-alive"):
            self.close_connection = connection == "close"
        if headers.get("expect", "").lower() == "100-continue" and (
            self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        response = self.service.handle(self.path, self.request_headers)
        head = b""
        if self.request_version != "HTTP/0.9":  # HTTP/0.9 gets the bare body
            head = (
                f"{self.protocol_version} {response.status}"
                f" {self.responses[response.status][0]}\r\n"
                f"Server: {self.version_string()}\r\nDate: {self._http_date()}\r\n"
                f"Content-Type: {response.content_type}\r\n"
                f"Content-Length: {len(response.body)}\r\n\r\n"
            ).encode("latin-1")
        self.wfile.write(head + response.body)

    def _http_date(self) -> str:
        """The RFC 7231 ``Date`` value, formatted again only when the second changes."""
        now, cached = int(time.time()), _Handler._date
        if cached[0] != now:  # a whole tuple is swapped in: no lock needed
            cached = _Handler._date = (now, self.date_time_string(now))
        return cached[1]

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # keep the serving hot path quiet; stats live in /v1/stats


def build_handler(service: ClassificationService) -> Type[BaseHTTPRequestHandler]:
    """A request-handler class bound to one :class:`ClassificationService`.

    Both the single-process :class:`ClassificationServer` and the
    multi-worker fan-out (:mod:`repro.service.workers`) serve through this
    adapter, so every worker speaks byte-identical HTTP.
    """
    return type("BoundHandler", (_Handler,), {"service": service})


def listen_socket(host: str, port: int) -> socket.socket:
    """A TCP socket listening on *host*:*port*, in the family *host* resolves to.

    ``::1`` gets an IPv6 socket and ``127.0.0.1`` an IPv4 one; a host that
    does not resolve raises :class:`socket.gaierror`.
    """
    family, _, _, _, address = socket.getaddrinfo(host, port, type=socket.SOCK_STREAM)[0]
    return socket.create_server(address, family=family, backlog=128)


def http_url(host: str, port: int) -> str:
    """The base URL of a server on *host*:*port* (an IPv6 host in brackets)."""
    return f"http://[{host}]:{port}" if ":" in host else f"http://{host}:{port}"


class _SharedListenerHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` accepting on a listener from :func:`listen_socket`.

    One server is a fleet of one; the workers of
    :class:`~repro.service.workers.MultiWorkerServer` share the supervisor's
    listener.  The listener is non-blocking: when several accept loops wake
    for the same connection, the losers' ``accept`` raises
    ``BlockingIOError``, which ``socketserver`` swallows
    (``_handle_request_noblock`` treats any ``OSError`` from
    ``get_request`` as "no request after all").
    """

    daemon_threads = True

    def __init__(
        self, listener: socket.socket, handler: Type[BaseHTTPRequestHandler]
    ) -> None:
        super().__init__(listener.getsockname()[:2], handler, bind_and_activate=False)
        self.socket.close()  # replace the unused fresh socket
        listener.setblocking(False)
        self.socket = listener

    def get_request(self) -> Tuple[socket.socket, object]:
        request, client_address = self.socket.accept()
        # Some platforms (Winsock, classic BSD) make accepted sockets
        # inherit the listener's non-blocking flag, and CPython does not
        # reset it for a zero-timeout listener; request handling assumes
        # a blocking connection.
        request.setblocking(True)
        return request, client_address


class ClassificationServer:
    """A :class:`_SharedListenerHTTPServer` over one store.

    ``start()`` serves from a daemon thread (tests, examples, embedding into
    a producer process); ``serve_forever()`` blocks (the ``repro serve``
    CLI).  Always ``close()`` when done.
    """

    def __init__(
        self,
        store: SnapshotStore,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = DEFAULT_CACHE_SIZE,
        auth_token: Optional[str] = None,
    ) -> None:
        self.service = ClassificationService(
            store, cache_size=cache_size, auth_token=auth_token
        )
        self.httpd = _SharedListenerHTTPServer(
            listen_socket(host, port), build_handler(self.service)
        )
        self._thread: Optional[threading.Thread] = None
        self._served = False

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (port resolved when 0 was requested)."""
        return self.httpd.server_address[0], self.httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        return http_url(*self.address)

    def start(self) -> "ClassificationServer":
        """Serve requests from a background daemon thread."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._served = True
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve requests on the calling thread until interrupted."""
        self._served = True
        self.httpd.serve_forever()

    def close(self) -> None:
        """Stop serving and release the socket.

        Safe on a server that never served: ``BaseServer.shutdown()`` blocks
        forever unless ``serve_forever`` ran (it waits on an event only the
        serve loop sets), so it is only called after a serve actually
        started.  This is what lets ``repro serve`` stack the server in an
        ``ExitStack`` *before* blocking on it -- a failure between construction
        and serving still unwinds cleanly.
        """
        if self._served:
            self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "ClassificationServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
