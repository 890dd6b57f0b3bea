"""/metrics observability: exposition validity, aggregation, lag, churn.

Pins the Prometheus contract of ``repro.service.metrics``:

* every ``/metrics`` line parses as valid text exposition format 0.0.4
  (``name{labels} value`` samples, ``# HELP`` / ``# TYPE`` headers, every
  sample preceded by its declaration);
* histograms are well-formed: cumulative ``le`` buckets ending in ``+Inf``,
  with ``_count`` equal to the ``+Inf`` bucket;
* the route table's ``metric_name`` values and the board slot layout come
  from one list (:data:`METRIC_ENDPOINTS`), so counters and the mmap board
  cannot drift apart;
* request / cache counters and store gauges move with real traffic, each
  request counted once in the serving worker's board slot, whether the
  board is a fleet's or a single service's private one;
* per-follower replication-lag gauges appear when a follower identifies
  itself on changelog polls, merged across workers from each worker's
  bounded follower table on the board;
* every metric family is one contiguous run of lines, headers first;
* per-AS classification churn is rendered from the persisted change maps,
  cardinality-capped at :data:`CHURN_TOP_N`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import sys
import threading
import time
import types
import urllib.parse

import pytest

from repro.service import (
    ClassificationServer,
    ClassificationService,
    ReplicaSyncer,
    ServiceClient,
    SnapshotStore,
    WorkerStatsBoard,
)
from repro.service.client import NotFoundError
from repro.service.metrics import (
    CHURN_TOP_N,
    FOLLOWER_NAME_MAX_BYTES,
    FOLLOWER_TABLE_SIZE,
    LATENCY_BUCKETS,
    METRIC_ENDPOINTS,
    METRICS_CONTENT_TYPE,
    bucket_index,
    empty_endpoint_stats,
    render_metrics,
)
import repro.service.server as server_module
from repro.service.server import ClassificationService as Service
from tests.test_backends import build_snapshots

#: One exposition sample: metric name, optional {labels}, numeric value.
SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})?"
    r" (-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|-Inf|NaN)$"
)


@pytest.fixture()
def store(tmp_path):
    with SnapshotStore(tmp_path / "metrics.db") as snapshot_store:
        for snapshot in build_snapshots(3):
            snapshot_store.append_snapshot(snapshot)
        yield snapshot_store


def parse_exposition(text: str):
    """Validate exposition text; returns ``{name: {labels-tuple: value}}``."""
    samples = {}
    declared = set()
    for line in text.splitlines():
        assert line == line.strip() and line, f"stray whitespace: {line!r}"
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            declared.add(line.split()[2])
            continue
        assert SAMPLE_RE.match(line), f"invalid exposition line: {line!r}"
        name_and_labels, value = line.rsplit(" ", 1)
        name, _, labels = name_and_labels.partition("{")
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in declared or base in declared, f"undeclared metric: {name}"
        samples.setdefault(name, {})[labels.rstrip("}")] = float(value)
    assert text.endswith("\n")
    return samples


def scrape(service) -> dict:
    response = service.handle("/metrics")
    assert response.status == 200
    assert response.content_type == METRICS_CONTENT_TYPE
    return parse_exposition(response.body.decode())


# ---------------------------------------------------------------------------------------
# Exposition format validity
# ---------------------------------------------------------------------------------------
class TestExpositionFormat:
    def test_every_line_parses(self, store):
        service = ClassificationService(store)
        for target in ("/healthz", "/v1/snapshot/latest", "/v1/as/10", "/nope"):
            service.handle(target)
        samples = scrape(service)
        assert "repro_http_requests_total" in samples
        assert "repro_store_generation" in samples

    def test_histogram_is_cumulative_and_ends_at_inf(self, store):
        service = ClassificationService(store)
        for _ in range(5):
            service.handle("/v1/snapshot/latest")
        samples = scrape(service)
        buckets = samples["repro_http_request_latency_seconds_bucket"]
        endpoint = 'endpoint="snapshot_latest"'
        series = [
            (labels, value)
            for labels, value in buckets.items()
            if labels.startswith(endpoint)
        ]
        assert len(series) == len(LATENCY_BUCKETS) + 1
        values = [value for _, value in series]
        assert values == sorted(values)  # cumulative, by construction
        inf = buckets[f'{endpoint},le="+Inf"']
        assert inf == 5
        count = samples["repro_http_request_latency_seconds_count"][endpoint]
        assert count == inf
        assert samples["repro_http_request_latency_seconds_sum"][endpoint] >= 0

    def test_every_family_is_one_contiguous_run(self, store):
        """The exposition format wants each metric family as one group of
        lines, its HELP and TYPE first: a full scrape -- traffic on every
        endpoint, ingest stats, a follower, churn -- never interleaves two."""
        store.set_ingest_stats(
            {
                "blocks_total": 3,
                "events_total": 21,
                "events_per_block_bounds": [1, 4, 16],
                "events_per_block_buckets": [1, 1, 0, 1],
                "dropped": {"unallocated_asn": 2, "private_asn": 1},
            }
        )
        service = ClassificationService(store)
        window_end = store.snapshots()[0].window_end
        for target in (
            "/healthz", "/metrics", "/v1/snapshot/latest", f"/v1/snapshot/{window_end}",
            "/v1/as/10", "/v1/as/10", "/v1/diff", "/v1/stats", "/nope",
            "/v1/replication/changes?since=1&follower=replica-a",
        ):
            service.handle(target)
        text = service.handle("/metrics").body.decode()
        samples = parse_exposition(text)
        assert all(value > 0 for value in samples["repro_http_requests_total"].values())
        assert len(samples["repro_http_requests_total"]) == len(METRIC_ENDPOINTS)
        for family in (
            "repro_replication_follower_lag",
            "repro_ingest_events_per_block_bucket",
            "repro_ingest_sanitation_dropped_total",
            "repro_as_classification_churn",
        ):
            assert samples[family], family

        kinds = {}
        runs = []  # (family, lines) in order of appearance
        for line in text.splitlines():
            if line.startswith("# "):
                _, keyword, name, rest = line.split(" ", 3)
                if keyword == "TYPE":
                    kinds[name] = rest
                family = name
            else:
                family = re.split(r"[{ ]", line, 1)[0]
                base = re.sub(r"_(bucket|sum|count)$", "", family)
                if kinds.get(base) == "histogram":
                    family = base
            if not runs or runs[-1][0] != family:
                runs.append((family, []))
            runs[-1][1].append(line)
        families = [family for family, _ in runs]
        assert len(families) == len(set(families)), families
        for family, lines in runs:
            assert lines[0] == f"# HELP {family} " + lines[0].split(" ", 3)[3], family
            assert lines[1].startswith(f"# TYPE {family} "), family
            assert not any(line.startswith("# ") for line in lines[2:]), family

    def test_bucket_index_matches_bounds(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(LATENCY_BUCKETS[0]) == 0
        assert bucket_index(LATENCY_BUCKETS[-1]) == len(LATENCY_BUCKETS) - 1
        assert bucket_index(LATENCY_BUCKETS[-1] + 1) == len(LATENCY_BUCKETS)

    def test_label_values_are_escaped(self):
        text = render_metrics(
            endpoints={name: empty_endpoint_stats() for name in METRIC_ENDPOINTS},
            store_stats={"generation": 1},
            followers={'evil"name\n': {"lag": 1.0}},
            churn_total=0,
            churn_top=[],
            workers=1,
        )
        assert '\\"' in text and "\\n" in text
        parse_exposition(text)


# ---------------------------------------------------------------------------------------
# One source of truth for endpoint names
# ---------------------------------------------------------------------------------------
class TestEndpointConsistency:
    def test_route_table_metric_names_are_board_slots(self):
        table_names = {route.metric_name for route in Service.ROUTES}
        assert table_names <= set(METRIC_ENDPOINTS)
        # The catch-all for unroutable paths is a board slot too.
        assert "unknown" in METRIC_ENDPOINTS

    def test_route_table_flags_match_documented_sets(self):
        """The route table is the one source of both flags: the routes its
        comment keeps out of the cache, and the two auth exemptions."""
        uncached = {r.pattern for r in Service.ROUTES if not r.cacheable}
        assert uncached == {"/healthz", "/metrics", "/v1/stats", "/v1/replication/changes"}
        exempt = {r.pattern for r in Service.ROUTES if not r.auth_required}
        assert exempt == {"/healthz", "/metrics"}


# ---------------------------------------------------------------------------------------
# Counters move with real traffic
# ---------------------------------------------------------------------------------------
class TestCounters:
    def test_requests_hits_errors_and_unknown(self, store):
        service = ClassificationService(store)
        service.handle("/v1/as/10")
        service.handle("/v1/as/10")  # cache hit
        service.handle("/v1/as/abc")  # 400
        service.handle("/totally/bogus")  # unroutable -> unknown
        samples = scrape(service)
        requests = samples["repro_http_requests_total"]
        assert requests['endpoint="as_info"'] == 3
        assert requests['endpoint="unknown"'] == 1
        assert samples["repro_http_request_errors_total"]['endpoint="as_info"'] == 1
        assert samples["repro_cache_hits_total"]['endpoint="as_info"'] == 1
        assert samples["repro_cache_misses_total"]['endpoint="as_info"'] == 1
        ratio = samples["repro_cache_hit_ratio"][""]
        assert 0.0 < ratio < 1.0

    def test_store_gauges_track_the_backend(self, store):
        service = ClassificationService(store)
        samples = scrape(service)
        assert samples["repro_store_generation"][""] == store.generation()
        assert samples["repro_store_snapshots"][""] == len(store)
        assert samples["repro_store_leader_epoch"][""] == 0
        store.bump_leader_epoch()
        assert scrape(service)["repro_store_leader_epoch"][""] == 1

    def test_fleet_aggregation_through_the_board(self, store):
        board = WorkerStatsBoard.create(2)
        try:
            services = [
                ClassificationService(store, worker_id=i, stats_sink=board)
                for i in range(2)
            ]
            services[0].handle("/v1/snapshot/latest")
            services[1].handle("/v1/snapshot/latest")
            services[1].handle("/v1/as/10")
            # Either worker answers the scrape with the fleet-wide sums.
            for service in services:
                samples = scrape(service)
                requests = samples["repro_http_requests_total"]
                assert requests['endpoint="snapshot_latest"'] == 2
                assert requests['endpoint="as_info"'] == 1
                assert samples["repro_serve_workers"][""] == 2
            aggregated = board.metrics_payload()
            assert aggregated["snapshot_latest"]["requests"] == 2
            assert sum(aggregated["snapshot_latest"]["buckets"]) == 2
        finally:
            board.close()


# ---------------------------------------------------------------------------------------
# One ledger: each handled request is one board write
# ---------------------------------------------------------------------------------------
class SpyBoard(WorkerStatsBoard):
    """A one-slot board that also lists every ledger write it takes."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def observe(self, worker_id, endpoint, *, hit, error, seconds):
        self.writes.append((endpoint, hit, error))
        super().observe(worker_id, endpoint, hit=hit, error=error, seconds=seconds)


class TestOneLedger:
    TOKEN = "ledger-tok3n"
    AUTH = {"Authorization": f"Bearer {TOKEN}"}
    HUGE = 10**20
    #: ``(target, headers, status, the one write: (endpoint, hit, error))``.
    CASES = (
        ("/v1/as/10", None, 401, ("as_info", False, True)),
        ("/v1/as/10", {"Authorization": "Bearer nope"}, 403, ("as_info", False, True)),
        ("/v1/nowhere", None, 401, ("unknown", False, True)),
        ("/v1/as/10", AUTH, 200, ("as_info", False, False)),
        ("/v1/as/10", AUTH, 200, ("as_info", True, False)),
        ("/v1/snapshot/999999", AUTH, 404, ("snapshot_window", False, True)),
        ("/nope", None, 404, ("unknown", False, True)),
        (f"/v1/snapshot/{HUGE}", AUTH, 400, ("snapshot_window", False, True)),
        (f"/v1/snapshot/-{HUGE}", AUTH, 400, ("snapshot_window", False, True)),
        (f"/v1/diff?window={HUGE}", AUTH, 400, ("diff", False, True)),
        (f"/v1/replication/changes?since={HUGE}", AUTH, 400, ("replication_changes", False, True)),
        ("/v1/as/x", AUTH, 400, ("as_info", False, True)),
        ("/healthz", None, 200, ("healthz", False, False)),
        ("/metrics", None, 200, ("metrics", False, False)),
        ("/v1/stats", AUTH, 200, ("stats", False, False)),
    )

    def test_one_write_per_request_whatever_the_outcome(self, store):
        board = SpyBoard()
        service = ClassificationService(store, stats_sink=board, auth_token=self.TOKEN)
        for count, (target, headers, status, write) in enumerate(self.CASES, 1):
            assert service.handle(target, headers).status == status, target
            assert len(board.writes) == count, target
            assert board.writes[-1] == write, target
        assert service.stats.requests == len(self.CASES)
        board.close()

    @pytest.mark.parametrize("fleet", [False, True], ids=["single", "fleet"])
    def test_server_block_is_the_services_board_row(self, store, fleet):
        board = WorkerStatsBoard.create(3) if fleet else None
        try:
            worker_id = 2 if fleet else 0
            service = ClassificationService(store, worker_id=worker_id, stats_sink=board)
            for target in ("/healthz", "/v1/as/10", "/v1/as/10", "/v1/as/x", "/nope"):
                service.handle(target)
            stats = json.loads(service.handle("/v1/stats").body)
            row = stats["workers"]["per_worker"][stats["server"]["worker_id"]]
            server = {key: stats["server"][key] for key in row}
            assert server == row == {
                "requests": 5, "cache_hits": 1, "cache_misses": 2, "errors": 2,
            }
            assert stats["workers"]["count"] == (3 if fleet else 1)
            assert stats["workers"]["aggregate"] == row
        finally:
            if board is not None:
                board.close(unlink=True)

    def test_worker_id_names_a_slot_of_the_board(self, store):
        with pytest.raises(ValueError):
            ClassificationService(store, worker_id=1)
        board = WorkerStatsBoard.create(2)
        try:
            with pytest.raises(ValueError):
                ClassificationService(store, worker_id=2, stats_sink=board)
        finally:
            board.close(unlink=True)

    def test_a_private_board_maps_no_file(self):
        board = WorkerStatsBoard()
        board.observe(0, "diff", hit=False, error=False, seconds=0.001)
        assert (board.path, board.workers) == (None, 1)
        assert board.payload()["per_worker"] == [
            {"requests": 1, "errors": 0, "cache_hits": 0, "cache_misses": 1}
        ]
        board.close(unlink=True)


# ---------------------------------------------------------------------------------------
# Follower lag gauges
# ---------------------------------------------------------------------------------------
class TestFollowerLag:
    @pytest.mark.parametrize("name", ["replica-a", "a b", "x&limit=1", "we#ird", "é"])
    def test_named_follower_poll_appears_as_lag_gauge(self, store, name):
        """The name reaches the leader verbatim, whatever URL syntax it holds."""
        follower = SnapshotStore(":memory:")
        label = f'follower="{name}"'
        with ClassificationServer(store) as server:
            server.start()
            with ServiceClient(server.url) as client:
                syncer = ReplicaSyncer(client, follower, follower=name)
                # One page holds all three snapshots: a name smuggling in
                # ``&limit=1`` must not shorten it.
                assert syncer.sync_once().pages == 1
                # The first poll stated the full backlog at poll time.
                first = scrape(server.service)["repro_replication_follower_lag"]
                assert list(first) == [label]
                assert first[label] == store.generation()
                syncer.sync_once()  # caught up: the next poll reports 0
            samples = scrape(server.service)
        lag = samples["repro_replication_follower_lag"]
        assert lag[label] == 0.0

    def test_anonymous_polls_add_no_series(self, store):
        service = ClassificationService(store)
        service.handle("/v1/replication/changes?since=0")
        assert scrape(service).get("repro_replication_follower_lag", {}) == {}

    def test_lag_tables_merge_across_workers(self, store):
        """Polls landing on different workers are merged at scrape time."""
        board = WorkerStatsBoard.create(2)
        try:
            services = [
                ClassificationService(store, worker_id=worker_id, stats_sink=board)
                for worker_id in range(2)
            ]
            services[0].handle("/v1/replication/changes?since=1&follower=replica-a")
            services[1].handle("/v1/replication/changes?since=2&follower=replica-b")
            for service in services:  # either worker sees both followers
                lag = scrape(service)["repro_replication_follower_lag"]
                assert lag['follower="replica-a"'] == store.generation() - 1
                assert lag['follower="replica-b"'] == store.generation() - 2
            # A later poll of the same name on the other worker wins.
            services[1].handle("/v1/replication/changes?since=3&follower=replica-a")
            assert board.followers()["replica-a"]["since"] == 3
        finally:
            board.close(unlink=True)

    def test_board_keeps_the_newest_poll_under_threads(self):
        """Request threads of one worker share its follower table: after
        every round of concurrent polls, and after the threads join, the
        merged view holds each name's newest poll, and a reader racing the
        writers never sees a torn entry."""
        board = WorkerStatsBoard()
        threads, rounds = 8, 50
        stale_rounds, torn = [], []
        polled = itertools.count()

        def compare():
            expected = next(polled)
            view = board.followers()
            if sorted(view) != sorted(f"replica-{i}" for i in range(threads)) or any(
                (state["since"], state["generation"]) != (expected, expected + index)
                for index, state in ((int(name.split("-")[1]), view[name]) for name in view)
            ):
                stale_rounds.append(expected)

        barrier = threading.Barrier(threads, action=compare, timeout=30)
        finished = []
        done = threading.Event()

        def poll(index):
            for since in range(rounds):
                board.record_follower(
                    0, f"replica-{index}", since=since, generation=since + index
                )
                barrier.wait()
            finished.append(index)

        def read():
            while not done.is_set():
                for name, state in board.followers().items():
                    if state["generation"] - state["since"] != int(name.split("-")[1]):
                        torn.append((name, state))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        reader = threading.Thread(target=read)
        try:
            reader.start()
            workers = [threading.Thread(target=poll, args=(i,)) for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            done.set()
            reader.join(timeout=30)
            sys.setswitchinterval(interval)
        assert sorted(finished) == list(range(threads)) and not reader.is_alive()
        assert stale_rounds == [] and torn == []
        view = board.followers()
        assert {name: (state["since"], state["lag"]) for name, state in view.items()} == {
            f"replica-{i}": (rounds - 1, i) for i in range(threads)
        }
        board.close()

    def test_table_evicts_the_least_recently_polled(self):
        """1 000 distinct names leave at most one table of entries: a name
        polled all along survives, the newest name is present."""
        board = WorkerStatsBoard()
        for number in range(1000):
            board.record_follower(0, f"f{number}", since=number, generation=1000)
            if number % 8 == 0:
                board.record_follower(0, "steady", since=number, generation=1000)
        view = board.followers()
        assert len(view) <= FOLLOWER_TABLE_SIZE
        assert {"f999", "steady"} <= set(view)
        assert "f0" not in view
        assert view["f999"]["lag"] == 1
        board.close()

    def test_fleet_tables_hold_at_most_one_table_per_worker(self, store):
        board = WorkerStatsBoard.create(2)
        try:
            services = [
                ClassificationService(store, worker_id=worker_id, stats_sink=board)
                for worker_id in range(2)
            ]
            for number in range(200):
                services[number % 2].handle(
                    f"/v1/replication/changes?since=0&follower=f{number}"
                )
            lag = scrape(services[0]).get("repro_replication_follower_lag", {})
            assert 'follower="f199"' in lag
            assert len(lag) <= 2 * FOLLOWER_TABLE_SIZE
        finally:
            board.close(unlink=True)

    @pytest.mark.parametrize(
        "name, recorded",
        [
            ("x" * FOLLOWER_NAME_MAX_BYTES, True),
            ("x" * (FOLLOWER_NAME_MAX_BYTES + 1), False),
            ("é" * (FOLLOWER_NAME_MAX_BYTES // 2), True),
            ("é" * (FOLLOWER_NAME_MAX_BYTES // 2 + 1), False),
        ],
        ids=["64-bytes", "65-bytes", "64-utf8-bytes", "66-utf8-bytes"],
    )
    def test_name_budget_is_utf8_bytes(self, store, name, recorded):
        """A name over the budget still gets its 200 page, and adds no series."""
        service = ClassificationService(store)
        response = service.handle(
            f"/v1/replication/changes?since=0&follower={urllib.parse.quote(name)}"
        )
        assert response.status == 200
        assert json.loads(response.body)["generation"] == store.generation()
        lag = scrape(service).get("repro_replication_follower_lag", {})
        assert list(lag) == ([f'follower="{name}"'] if recorded else [])


# ---------------------------------------------------------------------------------------
# Classification churn
# ---------------------------------------------------------------------------------------
class TestChurn:
    def test_churn_totals_match_the_change_maps(self, store):
        expected = sum(len(store.changes(m.snapshot_id)) for m in store.snapshots())
        assert expected > 0
        service = ClassificationService(store)
        samples = scrape(service)
        assert samples["repro_classification_churn_total"][""] == expected
        per_as = samples["repro_as_classification_churn"]
        assert 0 < len(per_as) <= CHURN_TOP_N
        assert sum(per_as.values()) <= expected

    def test_churn_memoized_by_generation(self, store):
        service = ClassificationService(store)
        scrape(service)
        assert service._churn_cache is not None
        generation, total, top = service._churn_cache
        assert generation == store.generation()
        # A new commit invalidates the memo on the next scrape.
        store.append_snapshot(build_snapshots(4)[-1])
        scrape(service)
        assert service._churn_cache[0] == store.generation()


# ---------------------------------------------------------------------------------------
# Over HTTP: content type and the client helper
# ---------------------------------------------------------------------------------------
class TestMetricsOverHttp:
    def test_scrape_via_client(self, store):
        with ClassificationServer(store) as server:
            server.start()
            with ServiceClient(server.url) as client:
                client.health()
                with pytest.raises(NotFoundError):
                    client.snapshot(999_999)
                text = client.metrics_text()
        samples = parse_exposition(text)
        assert samples["repro_http_requests_total"]['endpoint="healthz"'] == 1
        assert samples["repro_http_request_errors_total"]['endpoint="snapshot_window"'] == 1


# ---------------------------------------------------------------------------------------
# The fleet board's bodies, pinned
# ---------------------------------------------------------------------------------------
class TestFleetBodiesPinned:
    """``/v1/stats`` and ``/metrics`` of a two-worker board after a fixed
    request sequence under a fake clock.  The literals were read off the
    board that kept separate aggregate counters beside the endpoint blocks;
    the board now sums the blocks, and every byte must stay the same (the
    store's size gauge aside: it is the interpreter's ``getsizeof``).  The
    digest was re-read once since, when the cache hit and miss samples
    were regrouped into one contiguous run per family: the old body with
    only that regrouping applied hashes to it.
    """

    SEQUENCE = (
        "/healthz", "/v1/as/10", "/v1/as/10", "/v1/snapshot/latest", "/nope",
        "/v1/diff", "/v1/as/x", "/metrics", "/v1/stats", "/v1/as/20?history=2",
    )
    STATS = {
        "auth": {"enabled": False},
        "server": {
            "cache_entries": 1, "cache_hits": 2, "cache_misses": 7, "errors": 6,
            "requests": 15, "worker_id": 0,
        },
        "workers": {
            "aggregate": {"cache_hits": 10, "cache_misses": 14, "errors": 6, "requests": 30},
            "count": 2,
            "per_worker": [
                {"cache_hits": 2, "cache_misses": 7, "errors": 6, "requests": 15},
                {"cache_hits": 8, "cache_misses": 7, "errors": 0, "requests": 15},
            ],
        },
    }
    METRICS_LINES = 212
    METRICS_SHA256 = "f5a90816108e45669f981a0878a3fde7b3b608847b6ccb9d283124b9c115b8de"

    def test_bodies_after_a_fixed_sequence(self, monkeypatch):
        ticks = itertools.count()
        clock = types.SimpleNamespace(
            perf_counter=lambda: next(ticks) ** 2 * 1e-5, time=time.time
        )
        monkeypatch.setattr(server_module, "time", clock)
        store = SnapshotStore(":memory:")
        for snapshot in build_snapshots(2):
            store.append_snapshot(snapshot)
        board = WorkerStatsBoard.create(2)
        try:
            services = [
                ClassificationService(store, worker_id=worker, stats_sink=board)
                for worker in (0, 1)
            ]
            for index, target in enumerate(self.SEQUENCE * 3):
                services[index % 2].handle(target)
            stats = json.loads(services[0].handle("/v1/stats").body)
            metrics = services[1].handle("/metrics").body.decode()
        finally:
            board.close(unlink=True)
        del stats["store"]
        assert stats == self.STATS
        lines = [line for line in metrics.splitlines() if "repro_store_size_bytes" not in line]
        assert len(lines) == self.METRICS_LINES
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.METRICS_SHA256


class TestSingleBodiesPinned:
    """The bodies of one service (no fleet) after :class:`TestFleetBodiesPinned`'s
    request sequence, all sent to it, under the same fake clock.  ``STATS``,
    ``METRICS_LINES`` and ``METRICS_SHA256`` were read off the server that
    kept a private recorder and rendered no fleet view; a single server is
    now a fleet of one, and the only difference is the ``workers`` block of
    ``/v1/stats`` and the ``repro_serve_workers 1`` lines of ``/metrics``.
    The digest was re-read with :class:`TestFleetBodiesPinned`'s, for the
    same regrouping of the cache samples.
    """

    STATS = {
        "auth": {"enabled": False},
        "server": {
            "cache_entries": 4, "cache_hits": 11, "cache_misses": 13, "errors": 6,
            "requests": 30, "worker_id": 0,
        },
    }
    WORKERS = {
        "aggregate": {"cache_hits": 11, "cache_misses": 13, "errors": 6, "requests": 30},
        "count": 1,
        "per_worker": [{"cache_hits": 11, "cache_misses": 13, "errors": 6, "requests": 30}],
    }
    METRICS_LINES = 209
    METRICS_SHA256 = "52fd07a9117b62d2a563d515ab74ec55d901587de388336206893de15ff75859"
    WORKERS_LINES = [
        "# HELP repro_serve_workers Serving workers sharing this port.",
        "# TYPE repro_serve_workers gauge",
        "repro_serve_workers 1",
    ]

    def test_bodies_after_a_fixed_sequence(self, monkeypatch):
        ticks = itertools.count()
        clock = types.SimpleNamespace(
            perf_counter=lambda: next(ticks) ** 2 * 1e-5, time=time.time
        )
        monkeypatch.setattr(server_module, "time", clock)
        store = SnapshotStore(":memory:")
        for snapshot in build_snapshots(2):
            store.append_snapshot(snapshot)
        service = ClassificationService(store)
        for target in TestFleetBodiesPinned.SEQUENCE * 3:
            service.handle(target)
        stats = json.loads(service.handle("/v1/stats").body)
        metrics = service.handle("/metrics").body.decode()
        del stats["store"]
        assert stats.pop("workers") == self.WORKERS
        assert stats == self.STATS
        lines = [line for line in metrics.splitlines() if "repro_store_size_bytes" not in line]
        assert [line for line in lines if "repro_serve_workers" in line] == self.WORKERS_LINES
        lines = [line for line in lines if "repro_serve_workers" not in line]
        assert len(lines) == self.METRICS_LINES
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.METRICS_SHA256
