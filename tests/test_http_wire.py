"""The serving handler on the wire, against the stdlib handler it replaced.

Every case of :data:`CORPUS` is sent as raw bytes, over a fresh socket, to
two servers on one store: one serves through
:class:`repro.service.server._Handler` (its own request-head parser, one
write per response), the other through ``tests/http_oracle.py`` (the stdlib's
``parse_request`` and its two writes).  Both must answer with the same
status lines, the same header names in the same order, the same header
values (``Date`` aside: it only has to be a valid RFC 7231 date), the same
bodies, and must leave the connection open or closed alike -- probed with a
follow-up request.  A 200 response must be exactly one socket send.
"""

from __future__ import annotations

import re
import socket
import threading
from email.utils import parsedate_to_datetime
from http.server import ThreadingHTTPServer
from typing import List, NamedTuple, Optional, Tuple

import pytest

from repro.service import ClassificationService, SnapshotStore
from repro.service.server import build_handler
from tests.http_oracle import build_oracle_handler
from tests.test_backends import build_snapshots

TOKEN = "wire-tok3n"
AUTH = f"Authorization: Bearer {TOKEN}\r\n".encode()
HOST = b"Host: wire.test\r\n"


def get(target: str, *lines: bytes, version: str = "HTTP/1.1") -> bytes:
    """One request head: request line, ``Host``, *lines*, the blank line."""
    return f"GET {target} {version}\r\n".encode() + HOST + b"".join(lines) + b"\r\n"


def many_headers(count: int) -> bytes:
    return b"".join(b"X-Filler-%d: %d\r\n" % (index, index) for index in range(count))


#: ``(case id, bytes sent in one sendall, responses to read)``.  A response
#: count of 0 reads until the server closes: an HTTP/0.9 request, and a
#: request line rejected before its version is accepted, get a bare body.
CORPUS: Tuple[Tuple[str, bytes, int], ...] = (
    ("keep-alive-sequence", get("/healthz") + get("/v1/as/10", AUTH) + get("/v1/diff", AUTH), 3),
    ("pipelined-pair", get("/v1/as/10", AUTH) + get("/healthz"), 2),
    ("http10", get("/healthz", version="HTTP/1.0"), 1),
    ("http10-keep-alive", get("/healthz", b"Connection: keep-alive\r\n", version="HTTP/1.0"), 1),
    ("http11-close", get("/healthz", b"Connection: close\r\n"), 1),
    ("http09", b"GET /healthz\r\n\r\n", 0),
    ("http09-not-get", b"POST /healthz\r\n\r\n", 0),
    ("post", b"POST /v1/as/10 HTTP/1.1\r\n" + HOST + b"\r\n", 1),
    ("head", b"HEAD /healthz HTTP/1.1\r\n" + HOST + b"\r\n", 1),
    ("http2", get("/healthz", version="HTTP/2.0"), 0),
    ("httx", get("/healthz", version="HTTX/1.1"), 0),
    ("version-not-a-number", get("/healthz", version="HTTP/1.x"), 0),
    ("version-three-parts", get("/healthz", version="HTTP/1.1.1"), 0),
    ("one-word", b"GET\r\n" + HOST + b"\r\n", 0),
    ("four-words", b"GET /healthz extra HTTP/1.1\r\n" + HOST + b"\r\n", 1),
    ("empty-request-line", b"\r\n", 1),
    ("request-line-too-long", b"GET /" + b"a" * 65532, 1),
    ("header-line-too-long", b"GET /healthz HTTP/1.1\r\nX-Long: " + b"b" * 65529, 1),
    ("99-headers", get("/healthz", many_headers(98)), 1),
    ("100-headers", get("/healthz", many_headers(99)), 1),
    ("101-headers", get("/healthz", many_headers(100)), 1),
    ("expect-100-continue", get("/healthz", b"Expect: 100-continue\r\n"), 2),
    ("expect-100-continue-http10", get("/healthz", b"Expect: 100-continue\r\n", version="HTTP/1.0"), 1),
    ("mixed-case-names", get("/v1/as/10", b"aUtHoRiZaTiOn: Bearer " + TOKEN.encode() + b"\r\n", b"cOnNeCtIoN: ClOsE\r\n"), 1),
    ("duplicate-authorization-first-valid", get("/v1/as/10", AUTH, b"Authorization: Bearer wrong\r\n"), 1),
    ("duplicate-authorization-first-wrong", get("/v1/as/10", b"Authorization: Bearer wrong\r\n", AUTH), 1),
    ("obs-fold", get("/v1/as/10", b"X-Note: first\r\n  second\r\n", AUTH), 1),
    ("obs-fold-on-authorization", get("/v1/as/10", b"Authorization: Bearer\r\n " + TOKEN.encode() + b"\r\n"), 1),
    ("obs-fold-on-connection", get("/healthz", b"Connection: close\r\n\tnot-really\r\n"), 1),
    ("header-value-whitespace", get("/healthz", b"Connection:\t close\r\n"), 1),
    ("bare-lf-lines", b"GET /healthz HTTP/1.1\nHost: wire.test\nConnection: close\n\n", 1),
    ("header-without-colon", get("/v1/as/10", b"no colon here\r\n", AUTH), 1),
    ("header-name-with-space", get("/v1/as/10", b"Bad Name: x\r\n", AUTH), 1),
    ("header-without-name", get("/v1/as/10", b": nameless\r\n", AUTH), 1),
    ("envelope-line", get("/v1/as/10", b"From someone\r\n", AUTH), 1),
    ("double-slash", get("//v1/as/10", AUTH), 1),
    ("unknown-route", get("/v1/nowhere", AUTH), 1),
    ("unauthenticated", get("/v1/as/10"), 1),
    ("bearer-lower-case", get("/v1/as/10", b"Authorization: bearer " + TOKEN.encode() + b"\r\n"), 1),
    ("basic-scheme", get("/v1/as/10", b"Authorization: Basic d2lyZTp0b2s=\r\n"), 1),
    ("latin-1-header", get("/healthz", b"X-Name: caf\xe9\r\n"), 1),
    ("query-string", get("/v1/as/10?history=2", AUTH), 1),
    ("window-past-int64", get("/v1/snapshot/100000000000000000000", AUTH), 1),
)


class Response(NamedTuple):
    status_line: bytes
    headers: List[Tuple[str, str]]
    body: bytes


class Outcome(NamedTuple):
    responses: List[Optional[Response]]
    open_after: bool


def read_response(reader) -> Optional[Response]:
    """One response off *reader*; ``None`` when the server closed instead."""
    try:
        status_line = reader.readline()
        if not status_line:
            return None
        headers: List[Tuple[str, str]] = []
        while True:
            line = reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers.append((name, value.strip()))
        length = dict(headers).get("Content-Length")
        body = reader.read(int(length)) if length is not None else b""
    except ConnectionResetError:
        return None
    return Response(status_line, headers, body)


def exchange(address: Tuple[str, int], payload: bytes, responses: int) -> Outcome:
    """Send *payload*, read the responses, then probe whether it is still open."""
    with socket.create_connection(address, timeout=3) as sock:
        sock.sendall(payload)
        reader = sock.makefile("rb")
        if responses == 0:
            got: List[Optional[Response]] = [Response(b"", [], reader.read())]
        else:
            got = [read_response(reader) for _ in range(responses)]
        try:
            sock.sendall(get("/healthz"))
            probe = read_response(reader)
        except (BrokenPipeError, ConnectionResetError):
            probe = None
        reader.close()
    return Outcome(got, probe is not None and probe.status_line.startswith(b"HTTP/1.1 200"))


def comparable(outcome: Outcome) -> Outcome:
    """*outcome* with every ``Date`` value checked and blanked."""
    responses: List[Optional[Response]] = []
    for response in outcome.responses:
        if response is not None:
            headers = []
            for name, value in response.headers:
                if name == "Date":
                    assert parsedate_to_datetime(value).tzinfo is not None, value
                    value = "<date>"
                headers.append((name, value))
            response = response._replace(headers=headers)
        responses.append(response)
    return outcome._replace(responses=responses)


class _QuietServer(ThreadingHTTPServer):
    daemon_threads = True

    def handle_error(self, request, client_address) -> None:
        pass  # a client of the corpus that hangs up early breaks the oracle's second write


class _Served:
    def __init__(self, handler) -> None:
        self.httpd = _QuietServer(("127.0.0.1", 0), handler)
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[0], self.httpd.server_address[1]

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=5)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    with SnapshotStore(tmp_path_factory.mktemp("wire") / "wire.db") as snapshot_store:
        for snapshot in build_snapshots(2):
            snapshot_store.append_snapshot(snapshot)
        yield snapshot_store


@pytest.fixture(scope="module")
def servers(store):
    """``(handler under test, stdlib oracle)``, each with its own service."""
    served = [
        _Served(build(ClassificationService(store, auth_token=TOKEN)))
        for build in (build_handler, build_oracle_handler)
    ]
    yield served
    for server in served:
        server.close()


@pytest.mark.parametrize("payload, responses", [case[1:] for case in CORPUS], ids=[case[0] for case in CORPUS])
def test_wire_identical_to_the_stdlib_handler(servers, payload, responses):
    handler, oracle = servers
    got = comparable(exchange(handler.address, payload, responses))
    want = comparable(exchange(oracle.address, payload, responses))
    assert got == want


def status_of(response: Optional[Response]) -> Optional[bytes]:
    """The status code of *response*, read off the error page of a bare body."""
    if response is None:
        return None
    if not response.status_line:
        match = re.search(rb"Error code: (\d+)", response.body)
        return match.group(1) if match else b""
    return response.status_line.split()[1]


def test_the_corpus_covers_what_it_claims(servers):
    """Spot checks on the oracle's side, so the corpus cannot drift to no-ops."""
    oracle = servers[1]
    expected = {
        "keep-alive-sequence": ([b"200"] * 3, True),
        "pipelined-pair": ([b"200"] * 2, True),
        "http10": ([b"200"], False),
        "http10-keep-alive": ([b"200"], True),
        "http11-close": ([b"200"], False),
        "post": ([b"501"], False),
        "head": ([b"501"], False),
        "http09-not-get": ([b"400"], False),
        "http2": ([b"505"], False),
        "httx": ([b"400"], False),
        "version-not-a-number": ([b"400"], False),
        "version-three-parts": ([b"400"], False),
        "one-word": ([b"400"], False),
        "four-words": ([b"400"], False),
        "empty-request-line": ([None], False),
        "request-line-too-long": ([b"414"], False),
        "header-line-too-long": ([b"431"], False),
        "99-headers": ([b"200"], True),
        "100-headers": ([b"431"], False),
        "101-headers": ([b"431"], False),
        "expect-100-continue": ([b"100", b"200"], True),
        "mixed-case-names": ([b"200"], False),
        "duplicate-authorization-first-valid": ([b"200"], True),
        "duplicate-authorization-first-wrong": ([b"403"], True),
        "obs-fold-on-authorization": ([b"403"], True),
        "header-without-colon": ([b"401"], True),
        "header-without-name": ([b"200"], True),
        "double-slash": ([b"200"], True),
        "unauthenticated": ([b"401"], True),
        "bearer-lower-case": ([b"200"], True),
        "basic-scheme": ([b"403"], True),
        "window-past-int64": ([b"400"], True),
    }
    cases = {case[0]: case[1:] for case in CORPUS}
    for name, (statuses, open_after) in expected.items():
        outcome = exchange(oracle.address, *cases[name])
        got = [status_of(response) for response in outcome.responses]
        assert (got, outcome.open_after) == (statuses, open_after), name


def test_http09_gets_the_bare_body(servers):
    handler = servers[0]
    outcome = exchange(handler.address, b"GET /healthz\r\n\r\n", 0)
    assert outcome.responses[0].body.startswith(b'{"generation":')
    assert not outcome.open_after


def test_a_client_gone_mid_headers_leaves_the_server_serving(servers):
    for server in servers:
        with socket.create_connection(server.address, timeout=3) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: wire.test\r\nX-Cut: ab")
        outcome = exchange(server.address, get("/healthz"), 1)
        assert outcome.responses[0].status_line.startswith(b"HTTP/1.1 200")
        assert outcome.open_after


class _CountingSocket:
    """A connected socket that records the size of every send."""

    def __init__(self, sock: socket.socket, sends: List[int]) -> None:
        self._sock = sock
        self._sends = sends

    def sendall(self, data, *args):
        self._sends.append(len(data))
        return self._sock.sendall(data, *args)

    def send(self, data, *args):
        self._sends.append(len(data))
        return self._sock.send(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _counting(handler_class, sends: List[int]):
    def setup(self):
        self.request = _CountingSocket(self.request, sends)
        handler_class.setup(self)

    return type("Counting" + handler_class.__name__, (handler_class,), {"setup": setup})


@pytest.mark.parametrize("build, sends_per_response", [(build_handler, 1), (build_oracle_handler, 2)])
def test_a_response_is_one_socket_send(store, build, sends_per_response):
    sends: List[int] = []
    server = _Served(_counting(build(ClassificationService(store, auth_token=TOKEN)), sends))
    try:
        targets = ["/healthz", "/v1/as/10", "/v1/snapshot/latest", "/v1/as/10", "/metrics"]
        payload = b"".join(get(target, AUTH) for target in targets)
        with socket.create_connection(server.address, timeout=3) as sock:
            sock.sendall(payload)
            reader = sock.makefile("rb")
            responses = [read_response(reader) for _ in targets]
            reader.close()
    finally:
        server.close()
    assert [response.status_line for response in responses] == [b"HTTP/1.1 200 OK\r\n"] * 5
    wire = [
        len(response.status_line)
        + sum(len(f"{name}: {value}\r\n") for name, value in response.headers)
        + 2
        + len(response.body)
        for response in responses
    ]
    assert len(sends) == sends_per_response * len(targets)
    assert sum(sends) == sum(wire)
    if sends_per_response == 1:
        assert sends == wire
