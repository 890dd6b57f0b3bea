"""The stdlib request handler the serving tier used before it parsed its own heads.

``BaseHTTPRequestHandler.parse_request`` reads the headers through
``http.client.parse_headers`` into an ``email``-parsed ``HTTPMessage``, and
the response goes out through ``send_response`` / ``send_header`` /
``end_headers`` (status line and headers in one write) and a second write
for the body.  ``tests/test_http_wire.py`` serves the same store through
this handler and through :class:`repro.service.server._Handler` and holds
the two to the same bytes on the wire, ``Date`` aside.
"""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler
from typing import Type

from repro.service.server import ClassificationService


class OracleHandler(BaseHTTPRequestHandler):
    """Socket adapter: one GET in, one cached body out (stdlib parsing)."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    service: ClassificationService

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        response = self.service.handle(self.path, self.headers)
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        self.end_headers()
        self.wfile.write(response.body)

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass


def build_oracle_handler(service: ClassificationService) -> Type[BaseHTTPRequestHandler]:
    """:class:`OracleHandler` bound to *service* (cf. ``server.build_handler``)."""
    return type("BoundOracleHandler", (OracleHandler,), {"service": service})
