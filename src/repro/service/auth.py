"""Bearer-token authentication for the classification HTTP API.

One shared secret guards every ``/v1/*`` endpoint; ``/healthz`` and
``/metrics`` stay open so load balancers and Prometheus scrapers need no
credentials.  The check is **route-table middleware**: the server resolves
the request's :class:`~repro.service.server.Route` first and consults its
``auth_required`` flag, so a newly added endpoint is protected by
construction instead of by remembering to call a helper in its handler.

Design points:

* **constant-time comparison** -- :func:`check_token` compares through
  :func:`hmac.compare_digest`, so a probing client learns nothing about the
  token from response timing;
* **one wire shape** -- clients send ``Authorization: Bearer <token>``
  (the scheme in any case);
  :class:`~repro.service.client.ServiceClient` adds the header on every
  request (replication pulls included) when built with ``token=``;
* **explicit failures** -- a missing header is ``401 unauthorized``, a
  malformed or wrong one ``403 forbidden``; both surface as the structured
  JSON error envelope, which the client raises as
  :class:`~repro.service.client.AuthError`.

The token itself comes from ``--auth-token`` or the ``REPRO_AUTH_TOKEN``
environment variable (:func:`resolve_token`); with neither set the service
runs open, exactly as before this module existed.
"""

from __future__ import annotations

import hmac
import os
from dataclasses import dataclass
from typing import Mapping, Optional

#: Environment variable ``--auth-token`` falls back to on the CLI.
AUTH_TOKEN_ENV = "REPRO_AUTH_TOKEN"

#: The auth-scheme and its separator, lower-cased (schemes are case-insensitive).
_BEARER_PREFIX = "bearer "


@dataclass(frozen=True)
class AuthFailure:
    """Why a request was rejected (maps 1:1 onto the error envelope)."""

    status: int
    code: str
    message: str


#: No credentials at all: the client should send the header.
MISSING_TOKEN = AuthFailure(401, "unauthorized", "missing bearer token")
#: Credentials present but wrong (or not a bearer scheme).
BAD_TOKEN = AuthFailure(403, "forbidden", "invalid bearer token")


def resolve_token(flag_value: Optional[str]) -> Optional[str]:
    """The effective token: the CLI flag, else ``REPRO_AUTH_TOKEN``, else none."""
    if flag_value:
        return flag_value
    return os.environ.get(AUTH_TOKEN_ENV) or None


def bearer_token(headers: Optional[Mapping[str, str]]) -> Optional[str]:
    """Extract the bearer token from request headers (``None`` if absent).

    Accepts any mapping with a ``get`` -- a plain dict in tests, the
    server's :class:`~repro.service.server.RequestHeaders` in production
    (whose ``get`` is case-insensitive on header names).  The scheme is
    matched case-insensitively (RFC 7235 §2.1: ``bearer`` is ``Bearer``);
    the token is returned exactly as sent.
    """
    if headers is None:
        return None
    value = headers.get("Authorization") or headers.get("authorization")
    if value is None:
        return None
    if value[: len(_BEARER_PREFIX)].lower() != _BEARER_PREFIX:
        # A present-but-unusable header is a credential, just a wrong one.
        return ""
    return value[len(_BEARER_PREFIX):]


def check_token(
    headers: Optional[Mapping[str, str]], expected: str
) -> Optional[AuthFailure]:
    """Validate a request against the configured token.

    Returns ``None`` when the request is authorized, otherwise the
    :class:`AuthFailure` the server must answer with.  The comparison is
    constant-time regardless of where the provided token diverges.
    """
    provided = bearer_token(headers)
    if provided is None:
        return MISSING_TOKEN
    if not hmac.compare_digest(provided.encode("utf-8"), expected.encode("utf-8")):
        return BAD_TOKEN
    return None


__all__ = [
    "AUTH_TOKEN_ENV",
    "AuthFailure",
    "BAD_TOKEN",
    "MISSING_TOKEN",
    "bearer_token",
    "check_token",
    "resolve_token",
]
