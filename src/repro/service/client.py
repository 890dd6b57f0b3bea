"""Stdlib HTTP client for the classification results API.

A thin convenience wrapper around :mod:`http.client` that keeps one TCP
connection alive across queries (the server speaks HTTP/1.1), decodes the
JSON bodies, and raises typed errors for non-200 responses.  Used by the
``repro query`` CLI, replication pulls, the end-to-end tests, and the
serving benchmark.

Error handling follows the server's structured envelope
(``{"error": {"status", "code", "message"}}``): :class:`ServiceError` is
the base every caller can keep catching, with typed subclasses for the
statuses callers branch on -- :class:`AuthError` (401/403),
:class:`NotFoundError` (404), :class:`BadRequestError` (400).

Built with ``token=``, the client sends ``Authorization: Bearer <token>``
on **every** request -- replication pulls included, which is how a
follower syncs from an auth-enabled leader.  Every query string is built
with :func:`urllib.parse.urlencode`, so an operand such as a follower name
reaches the server verbatim.
"""

from __future__ import annotations

import http.client
import json
from typing import Dict, Mapping, Optional, Tuple, Type
from urllib.parse import urlencode, urlsplit


class ServiceError(Exception):
    """A non-200 response from the service (carries the HTTP status)."""

    def __init__(self, status: int, message: str, *, code: str = "error") -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        #: The envelope's machine-readable code (``"error"`` when absent).
        self.code = code


class AuthError(ServiceError):
    """401/403: missing or invalid bearer token."""


class NotFoundError(ServiceError):
    """404: the endpoint or resource does not exist."""


class BadRequestError(ServiceError):
    """400: the request was malformed (bad operand, bad query param)."""


#: Error class per status; anything unlisted raises the base class.
_ERROR_CLASSES: Dict[int, Type[ServiceError]] = {
    400: BadRequestError,
    401: AuthError,
    403: AuthError,
    404: NotFoundError,
}


def _error_fields(body: bytes) -> Tuple[str, str]:
    """Best-effort ``(message, code)`` from a non-200 body.

    Understands the structured envelope, the pre-envelope flat shape
    (``{"error": "msg"}`` -- an older server), and non-JSON bodies (a
    fronting proxy's HTML error page).
    """
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        text = " ".join(body.decode("utf-8", "replace").split())
        return (text[:120] if text else "non-JSON error body", "error")
    if isinstance(payload, dict):
        envelope = payload.get("error", "")
        if isinstance(envelope, dict):
            return str(envelope.get("message", "")), str(envelope.get("code", "error"))
        return str(envelope), "error"
    return "", "error"


def raise_for_error(status: int, body: bytes) -> "ServiceError":
    """Build the typed error a non-200 response maps to (does not raise)."""
    message, code = _error_fields(body)
    return _ERROR_CLASSES.get(status, ServiceError)(status, message, code=code)


class ServiceClient:
    """A persistent-connection client for one service base URL."""

    def __init__(
        self, base_url: str, *, timeout: float = 10.0, token: Optional[str] = None
    ) -> None:
        split = urlsplit(base_url)
        if split.scheme != "http" or not split.netloc:
            raise ValueError(f"expected an http://host:port base URL, got {base_url!r}")
        self.base_url = base_url.rstrip("/")
        self._host = split.hostname or "127.0.0.1"
        self._port = split.port or 80
        self._timeout = timeout
        self._token = token
        self._connection: Optional[http.client.HTTPConnection] = None

    # -- plumbing -----------------------------------------------------------------------
    def _conn(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
        return self._connection

    def _headers(self) -> Dict[str, str]:
        headers = {"Accept": "application/json"}
        if self._token is not None:
            headers["Authorization"] = f"Bearer {self._token}"
        return headers

    def _exchange(self, target: str) -> Tuple[int, bytes]:
        connection = self._conn()
        connection.request("GET", target, headers=self._headers())
        response = connection.getresponse()
        return response.status, response.read()

    def _fetch(self, path: str, query: Optional[Mapping[str, object]]) -> bytes:
        """``GET`` *path* with *query* URL-encoded; the body of a 200, else raise.

        A dead keep-alive connection -- most visibly
        ``http.client.RemoteDisconnected`` when a fan-out worker was
        respawned mid-idle -- is closed, rebuilt, and retried exactly once;
        a failure on the fresh connection propagates.
        """
        target = f"{path}?{urlencode(query)}" if query else path
        try:
            status, body = self._exchange(target)
        except (http.client.HTTPException, OSError):
            self.close()
            status, body = self._exchange(target)
        if status != 200:
            raise raise_for_error(status, body)
        return body

    def get(self, target: str, query: Optional[Mapping[str, object]] = None) -> Dict[str, object]:
        """``GET`` *target* (plus the URL-encoded *query*) and decode the JSON body.

        The status is decided *before* the body is trusted to be JSON: a
        fronting proxy (the recommended deployment) answers 502/504 with an
        HTML error page, which must surface as a :class:`ServiceError`
        rather than escape as a raw ``JSONDecodeError``.
        """
        body = self._fetch(target, query)
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise ServiceError(200, "malformed response body") from None
        if not isinstance(payload, dict):
            raise ServiceError(200, "malformed response body")
        return payload

    def close(self) -> None:
        """Drop the persistent connection."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- endpoints ----------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        """``/healthz``."""
        return self.get("/healthz")

    def latest_snapshot(self) -> Dict[str, object]:
        """``/v1/snapshot/latest``."""
        return self.get("/v1/snapshot/latest")

    def snapshot(self, window_end: int) -> Dict[str, object]:
        """``/v1/snapshot/{window_end}``."""
        return self.get(f"/v1/snapshot/{int(window_end)}")

    def as_info(self, asn: int, *, history: Optional[int] = None) -> Dict[str, object]:
        """``/v1/as/{asn}`` (optionally with ``?history=N``)."""
        query = None if history is None else {"history": int(history)}
        return self.get(f"/v1/as/{int(asn)}", query)

    def diff(self, *, window_end: Optional[int] = None) -> Dict[str, object]:
        """``/v1/diff`` (optionally pinned to one window)."""
        return self.get("/v1/diff", None if window_end is None else {"window": int(window_end)})

    def stats(self) -> Dict[str, object]:
        """``/v1/stats``."""
        return self.get("/v1/stats")

    def metrics_text(self) -> str:
        """``/metrics`` -- the raw Prometheus exposition text, not JSON.

        The endpoint is auth-exempt, so no token is needed (one is still
        sent when configured).
        """
        return self._fetch("/metrics", None).decode("utf-8")

    def replication_changes(
        self,
        *,
        since: int,
        limit: Optional[int] = None,
        follower: Optional[str] = None,
    ) -> Dict[str, object]:
        """``/v1/replication/changes`` -- one changelog page after *since*.

        Returns the leader's page: ``changes`` (snapshot records in commit
        order: metadata plus the base64 column blob of
        :func:`~repro.service.backends.base.snapshot_record`, not the
        per-AS JSON of ``/v1/snapshot``), ``generation`` (the leader's
        current generation), ``horizon`` (newest generation its retention
        pruned), and ``more`` (another page is waiting).
        :class:`~repro.service.replication.ReplicaSyncer` drives this in a
        loop; it is exposed here for tooling and tests.
        *follower* self-identifies the poller, feeding the leader's
        per-follower replication-lag gauges on ``/metrics``.
        """
        query: Dict[str, object] = {"since": int(since)}
        if limit is not None:
            query["limit"] = int(limit)
        if follower:
            query["follower"] = follower
        return self.get("/v1/replication/changes", query)
