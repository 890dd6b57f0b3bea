"""Bearer-token auth: the middleware matrix and the typed client errors.

Pins the production-hardening contract of ``repro.service.auth``:

* the full matrix of (no token / wrong token / valid token) against
  (protected ``/v1/*`` endpoints / exempt ``/healthz`` + ``/metrics``),
  both at the service layer and over real HTTP;
* the structured error envelope of every 4xx the API can produce, and the
  typed exceptions (:class:`AuthError`, :class:`NotFoundError`,
  :class:`BadRequestError`) the client raises from it;
* replication pulls against an auth-enabled leader (the follower's client
  sends the token on every page);
* the auth-scheme matches in any case (``bearer`` is ``Bearer``, RFC 7235
  §2.1), the token exactly;
* token resolution precedence: flag first, ``REPRO_AUTH_TOKEN`` fallback.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.service import (
    AuthError,
    BadRequestError,
    ClassificationServer,
    ClassificationService,
    NotFoundError,
    ReplicaSyncer,
    ServiceClient,
    ServiceError,
    SnapshotStore,
)
from repro.service.auth import (
    AUTH_TOKEN_ENV,
    BAD_TOKEN,
    bearer_token,
    check_token,
    resolve_token,
)
from tests.test_backends import build_snapshots

TOKEN = "s3cret-tok3n"

PROTECTED = (
    "/v1/snapshot/latest",
    "/v1/snapshot/100",
    "/v1/as/10",
    "/v1/diff",
    "/v1/stats",
    "/v1/replication/changes",
)
EXEMPT = ("/healthz", "/metrics")


@pytest.fixture()
def store(tmp_path):
    with SnapshotStore(tmp_path / "auth.db") as snapshot_store:
        for snapshot in build_snapshots(2):
            snapshot_store.append_snapshot(snapshot)
        yield snapshot_store


def _envelope(response):
    return json.loads(response.body.decode())["error"]


# ---------------------------------------------------------------------------------------
# Token plumbing
# ---------------------------------------------------------------------------------------
class TestTokenPlumbing:
    def test_resolve_token_prefers_the_flag(self, monkeypatch):
        monkeypatch.setenv(AUTH_TOKEN_ENV, "from-env")
        assert resolve_token("from-flag") == "from-flag"
        assert resolve_token(None) == "from-env"
        assert resolve_token("") == "from-env"
        monkeypatch.delenv(AUTH_TOKEN_ENV)
        assert resolve_token(None) is None

    def test_bearer_token_extraction(self):
        assert bearer_token(None) is None
        assert bearer_token({}) is None
        assert bearer_token({"Authorization": f"Bearer {TOKEN}"}) == TOKEN
        assert bearer_token({"authorization": f"Bearer {TOKEN}"}) == TOKEN
        # Present but not a bearer scheme: a credential, just a wrong one.
        assert bearer_token({"Authorization": "Basic dXNlcg=="}) == ""

    def test_bearer_scheme_is_case_insensitive(self):
        """RFC 7235 §2.1: the auth-scheme is a case-insensitive token."""
        for scheme in ("Bearer", "bearer", "BEARER", "bEaReR"):
            assert bearer_token({"Authorization": f"{scheme} {TOKEN}"}) == TOKEN, scheme
        # The token itself is compared exactly: only the scheme folds case.
        assert bearer_token({"Authorization": f"bearer {TOKEN.upper()}"}) == TOKEN.upper()
        assert check_token({"Authorization": f"BEARER {TOKEN.upper()}"}, TOKEN) == BAD_TOKEN
        for value in ("Bearer", "Bearer" + TOKEN, f"Bearerx {TOKEN}", f"Basic {TOKEN}"):
            assert bearer_token({"Authorization": value}) == "", value

    def test_check_token_statuses(self):
        assert check_token({"Authorization": f"Bearer {TOKEN}"}, TOKEN) is None
        missing = check_token(None, TOKEN)
        assert missing is not None and (missing.status, missing.code) == (
            401,
            "unauthorized",
        )
        wrong = check_token({"Authorization": "Bearer nope"}, TOKEN)
        assert wrong is not None and (wrong.status, wrong.code) == (403, "forbidden")
        basic = check_token({"Authorization": "Basic dXNlcg=="}, TOKEN)
        assert basic is not None and basic.status == 403


# ---------------------------------------------------------------------------------------
# The middleware matrix, service layer
# ---------------------------------------------------------------------------------------
class TestAuthMatrix:
    def test_no_token_configured_keeps_everything_open(self, store):
        service = ClassificationService(store)
        for target in PROTECTED + EXEMPT:
            response = service.handle(target)
            assert response.status in (200, 404), target

    def test_protected_endpoints_reject_missing_and_wrong_tokens(self, store):
        service = ClassificationService(store, auth_token=TOKEN)
        for target in PROTECTED:
            missing = service.handle(target)
            assert missing.status == 401, target
            assert _envelope(missing)["code"] == "unauthorized"
            wrong = service.handle(target, {"Authorization": "Bearer nope"})
            assert wrong.status == 403, target
            assert _envelope(wrong)["code"] == "forbidden"
            valid = service.handle(target, {"Authorization": f"Bearer {TOKEN}"})
            assert valid.status in (200, 404), target

    def test_bearer_scheme_in_any_case(self, store):
        service = ClassificationService(store, auth_token=TOKEN)
        for scheme in ("bearer", "BEARER", "Bearer"):
            response = service.handle("/v1/as/10", {"Authorization": f"{scheme} {TOKEN}"})
            assert response.status == 200, scheme
        basic = service.handle("/v1/as/10", {"Authorization": "Basic dXNlcg=="})
        assert basic.status == 403
        assert _envelope(basic)["code"] == "forbidden"

    def test_exempt_endpoints_need_no_credentials(self, store):
        service = ClassificationService(store, auth_token=TOKEN)
        for target in EXEMPT:
            assert service.handle(target).status == 200, target

    def test_unroutable_v1_paths_are_still_auth_checked(self, store):
        """Probing for endpoints must not be cheaper without credentials."""
        service = ClassificationService(store, auth_token=TOKEN)
        response = service.handle("/v1/does/not/exist")
        assert response.status == 401
        # With credentials the probe gets the honest 404.
        response = service.handle(
            "/v1/does/not/exist", {"Authorization": f"Bearer {TOKEN}"}
        )
        assert response.status == 404

    def test_auth_rejections_never_touch_the_cache(self, store):
        service = ClassificationService(store, auth_token=TOKEN)
        authed = {"Authorization": f"Bearer {TOKEN}"}
        assert service.handle("/v1/snapshot/latest", authed).status == 200
        assert len(service.cache) == 1
        # A rejected request must not be served the cached body.
        assert service.handle("/v1/snapshot/latest").status == 401
        assert service.handle("/v1/snapshot/latest", authed).status == 200
        assert service.stats.cache_hits == 1


# ---------------------------------------------------------------------------------------
# Over real HTTP: envelope contract and typed client errors
# ---------------------------------------------------------------------------------------
class TestAuthOverHttp:
    @pytest.fixture()
    def served(self, store):
        with ClassificationServer(store, auth_token=TOKEN) as server:
            server.start()
            yield server

    def test_typed_errors_carry_the_envelope(self, served):
        with ServiceClient(served.url) as anonymous:
            assert anonymous.health()["status"] == "ok"  # exempt
            with pytest.raises(AuthError) as excinfo:
                anonymous.latest_snapshot()
            assert excinfo.value.status == 401
            assert excinfo.value.code == "unauthorized"
            assert "missing bearer token" in excinfo.value.message
        with ServiceClient(served.url, token="wrong") as impostor:
            with pytest.raises(AuthError) as excinfo:
                impostor.latest_snapshot()
            assert (excinfo.value.status, excinfo.value.code) == (403, "forbidden")

    def test_every_4xx_is_an_enveloped_typed_error(self, served):
        with ServiceClient(served.url, token=TOKEN) as client:
            assert "window_end" in client.latest_snapshot()
            with pytest.raises(BadRequestError) as bad:
                client.get("/v1/as/abc")
            assert (bad.value.status, bad.value.code) == (400, "bad_request")
            with pytest.raises(NotFoundError) as missing:
                client.snapshot(999_999)
            assert (missing.value.status, missing.value.code) == (404, "not_found")
            # Every typed error is still the base class for old callers.
            for excclass in (AuthError, BadRequestError, NotFoundError):
                assert issubclass(excclass, ServiceError)

    def test_bearer_scheme_in_any_case_over_http(self, served):
        connection = http.client.HTTPConnection(*served.address, timeout=5)
        try:
            for scheme, status in (("bearer", 200), ("BEARER", 200), ("Bearer", 200),
                                   ("Basic", 403)):
                connection.request(
                    "GET", "/v1/as/10", headers={"Authorization": f"{scheme} {TOKEN}"}
                )
                response = connection.getresponse()
                body = response.read()
                assert response.status == status, (scheme, body)
        finally:
            connection.close()

    def test_stats_reports_auth_enabled(self, served):
        with ServiceClient(served.url, token=TOKEN) as client:
            assert client.stats()["auth"] == {"enabled": True}


# ---------------------------------------------------------------------------------------
# Replication against an auth-enabled leader
# ---------------------------------------------------------------------------------------
class TestAuthedReplication:
    def test_follower_pulls_with_token(self, store):
        with ClassificationServer(store, auth_token=TOKEN) as server:
            server.start()
            follower = SnapshotStore(":memory:")
            with ServiceClient(server.url, token=TOKEN) as client:
                report = ReplicaSyncer(client, follower).sync_once()
            assert report.applied == 2 and report.caught_up

    def test_follower_without_token_is_rejected(self, store):
        with ClassificationServer(store, auth_token=TOKEN) as server:
            server.start()
            follower = SnapshotStore(":memory:")
            with ServiceClient(server.url) as client:
                with pytest.raises(AuthError):
                    ReplicaSyncer(client, follower).sync_once()
            assert len(follower) == 0

    def test_cli_replicate_sends_the_token(self, tmp_path, store, capsys):
        from repro.cli import main

        with ClassificationServer(store, auth_token=TOKEN) as server:
            server.start()
            args = [
                "replicate",
                "--from",
                server.url,
                "--store",
                str(tmp_path / "replica.db"),
                "--once",
            ]
            # Without the token the first sync is rejected outright...
            assert main(args) == 1
            assert "HTTP 401" in capsys.readouterr().err
            # ...and with it (via the env fallback) the replica converges.
            assert main(args + ["--auth-token", TOKEN]) == 0
            assert "applied 2 snapshots" in capsys.readouterr().err
