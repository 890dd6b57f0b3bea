"""Benchmarks of the classification results service.

Measures what the consumer side of the system cares about:

* sustained query throughput over HTTP against a warm store — recorded in
  ``extra_info``; an absolute floor applies only when the
  ``REPRO_BENCH_MIN_SERVICE_QPS`` environment variable sets one (a shared
  host halves its speed for minutes at a time; the rate itself is gated by
  ``serve_hot`` ``throughput`` in ``BENCHMARK.json``);
* the same hot path without the socket (service routing + LRU cache), which
  bounds what the HTTP layer costs;
* cold store reads (cache disabled by rotating ASes), pinning the indexed
  per-AS lookup path;
* producer-side write throughput: snapshots persisted per second;
* the multi-worker fan-out: 4 worker processes sharing one listening
  socket under concurrent client load must sustain at least 2x the
  single-worker queries/sec while answering byte-identically — the floor
  only makes sense with >= 4 CPUs, so below that it is disabled by
  default (override via ``REPRO_BENCH_MIN_WORKER_SPEEDUP``, 0 disables);
* the replica fan-out: a leader plus one synced read replica, each served
  from its own worker process (simulating two hosts), must sustain at
  least 1.5x the single-store queries/sec under the same total client
  load, with leader/replica byte-identity pinned first — gated like the
  worker fan-out (override via ``REPRO_BENCH_MIN_REPLICA_SPEEDUP``,
  0 disables).
"""

from __future__ import annotations

import http.client
import multiprocessing
import os
import time

import pytest

from repro.service import (
    ClassificationServer,
    ClassificationService,
    MultiWorkerServer,
    ReplicaSyncer,
    ServiceClient,
    SnapshotStore,
    attach_store,
)
from repro.stream import MemorySource, ScenarioSource, StreamConfig, StreamEngine, WindowSpec

#: Acceptance floor for sustained HTTP query throughput (unset: record only).
MIN_QUERIES_PER_SEC = float(os.environ.get("REPRO_BENCH_MIN_SERVICE_QPS", "0"))

#: Queries issued per measured round.
QUERY_BATCH = 500

#: Worker processes (and concurrent client processes) of the fan-out bench.
WORKER_FANOUT = 4

#: Acceptance floor for the 4-worker fan-out speedup over one worker.
MIN_WORKER_SPEEDUP = float(
    os.environ.get(
        "REPRO_BENCH_MIN_WORKER_SPEEDUP",
        "2.0" if (os.cpu_count() or 1) >= WORKER_FANOUT else "0",
    )
)

#: Acceptance floor for 1 leader + 1 synced replica over the leader alone.
#: Needs one process per simulated host plus the client processes, so the
#: floor is only meaningful with spare cores.
MIN_REPLICA_SPEEDUP = float(
    os.environ.get(
        "REPRO_BENCH_MIN_REPLICA_SPEEDUP",
        "1.5" if (os.cpu_count() or 1) >= WORKER_FANOUT else "0",
    )
)


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory, context):
    """A store populated by a fully drained stream run (the warm serving set)."""
    path = tmp_path_factory.mktemp("bench-service") / "snapshots.db"
    store = SnapshotStore(path)
    engine = StreamEngine(StreamConfig(window=WindowSpec(size=7200), shards=2))
    attach_store(engine, store)
    engine.run(MemorySource(ScenarioSource(context.aggregate_tuples, duration=86400)))
    yield store, engine
    store.close()


@pytest.fixture()
def hot_ases(warm_store):
    """A rotating set of popular ASes for per-AS query load."""
    _, engine = warm_store
    observed = sorted(engine.snapshots[-1].result.observed_ases)
    return observed[:: max(1, len(observed) // 32)][:32]


@pytest.mark.benchmark(group="service")
def test_bench_service_http_queries_per_sec(benchmark, warm_store, hot_ases):
    """Sustained mixed GET load over one keep-alive HTTP connection."""
    store, engine = warm_store
    with ClassificationServer(store) as server:
        server.start()
        client = ServiceClient(server.url)
        targets = ["/healthz", "/v1/snapshot/latest", "/v1/diff"] + [
            f"/v1/as/{asn}" for asn in hot_ases
        ]
        client.health()  # connection + cache warmup

        def query_batch():
            for index in range(QUERY_BATCH):
                client.get(targets[index % len(targets)])

        benchmark.pedantic(query_batch, rounds=5, iterations=1)
        client.close()

    queries_per_sec = QUERY_BATCH / benchmark.stats.stats.mean
    benchmark.extra_info["queries_per_sec"] = round(queries_per_sec)
    benchmark.extra_info["ases_served"] = len(engine.snapshots[-1].result.observed_ases)
    if MIN_QUERIES_PER_SEC:
        assert queries_per_sec >= MIN_QUERIES_PER_SEC, (
            f"sustained {queries_per_sec:,.0f} queries/sec is below the "
            f"{MIN_QUERIES_PER_SEC:,.0f} floor set by REPRO_BENCH_MIN_SERVICE_QPS"
        )


@pytest.mark.benchmark(group="service")
def test_bench_service_routing_hot_path(benchmark, warm_store, hot_ases):
    """The socket-free hot path: routing + generation check + LRU hit."""
    store, _ = warm_store
    service = ClassificationService(store)
    targets = ["/v1/snapshot/latest"] + [f"/v1/as/{asn}" for asn in hot_ases]
    for target in targets:  # warm the cache
        service.handle(target)

    def serve_batch():
        for index in range(QUERY_BATCH):
            response = service.handle(targets[index % len(targets)])
            assert response.status == 200

    benchmark.pedantic(serve_batch, rounds=5, iterations=1)
    hits_per_sec = QUERY_BATCH / benchmark.stats.stats.mean
    benchmark.extra_info["cached_queries_per_sec"] = round(hits_per_sec)
    stats = service.stats.as_dict()
    assert stats["cache_hits"] >= QUERY_BATCH  # the hot path really hit the cache


@pytest.mark.benchmark(group="service")
def test_bench_service_cold_as_lookups(benchmark, warm_store):
    """Indexed per-AS history queries straight off SQLite (cache bypassed)."""
    store, engine = warm_store
    observed = sorted(engine.snapshots[-1].result.observed_ases)

    def lookup_all():
        for asn in observed:
            entry = store.as_latest(asn)
            assert entry is not None

    benchmark.pedantic(lookup_all, rounds=3, iterations=1)
    lookups_per_sec = len(observed) / benchmark.stats.stats.mean
    benchmark.extra_info["as_lookups_per_sec"] = round(lookups_per_sec)


def _hammer(host, port, targets, count, results):
    """One load-generator process: *count* keep-alive GETs, no JSON decode.

    Module-level so every multiprocessing start method can import it; the
    per-client wall time goes back through *results*.
    """
    connection = http.client.HTTPConnection(host, port, timeout=60)
    started = time.perf_counter()
    for index in range(count):
        connection.request("GET", targets[index % len(targets)])
        response = connection.getresponse()
        response.read()
        assert response.status == 200
    elapsed = time.perf_counter() - started
    connection.close()
    results.put(elapsed)


def _concurrent_qps_multi(addresses, targets, per_client):
    """Queries/sec sustained by one client process per address in *addresses*.

    Repeating an address adds a concurrent client on it, so this measures
    both same-host concurrency and leader/replica pairs.
    """
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    results = ctx.Queue()
    processes = [
        ctx.Process(target=_hammer, args=(host, port, targets, per_client, results))
        for host, port in addresses
    ]
    started = time.perf_counter()
    for process in processes:
        process.start()
    elapsed = [results.get(timeout=120) for _ in processes]
    wall = time.perf_counter() - started
    for process in processes:
        process.join(timeout=10)
    assert max(elapsed) <= wall
    return len(addresses) * per_client / wall


def _concurrent_qps(address, targets, clients, per_client):
    """Queries/sec sustained by *clients* concurrent processes on one address."""
    return _concurrent_qps_multi([address] * clients, targets, per_client)


def _fetch(address, target):
    """One GET on a fresh connection; returns the raw body bytes."""
    host, port = address
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", target)
        response = connection.getresponse()
        body = response.read()
        assert response.status == 200
        return body
    finally:
        connection.close()


@pytest.mark.benchmark(group="service")
def test_bench_service_multi_worker_fanout(benchmark, warm_store, hot_ases):
    """4 worker processes vs one server under concurrent client load.

    Also pins the fan-out contract the speedup is worthless without:
    every deterministic endpoint answers byte-identically from the fleet,
    on both the uncached (first hit) and the cached (second hit) path.
    """
    store, engine = warm_store
    targets = ["/healthz", "/v1/snapshot/latest", "/v1/diff"] + [
        f"/v1/as/{asn}" for asn in hot_ases
    ]

    with ClassificationServer(store) as single:
        single.start()
        # Uncached then cached bytes of every endpoint, single-worker.
        expected = [(target, _fetch(single.address, target)) for target in targets]
        for target, body in expected:
            assert _fetch(single.address, target) == body  # cached == uncached
        single_times = []
        for _ in range(3):
            started = time.perf_counter()
            _concurrent_qps(single.address, targets, WORKER_FANOUT, QUERY_BATCH)
            single_times.append(time.perf_counter() - started)
        single_qps = WORKER_FANOUT * QUERY_BATCH / min(single_times)

    with MultiWorkerServer(store.path, workers=WORKER_FANOUT) as fanout:
        fanout.start()
        # Byte-identity across the fleet: enough fresh connections per
        # target that every worker serves both its cold and its warm path.
        for target, body in expected:
            for _ in range(2 * WORKER_FANOUT):
                assert _fetch(fanout.address, target) == body

        def fanout_round():
            return _concurrent_qps(fanout.address, targets, WORKER_FANOUT, QUERY_BATCH)

        benchmark.pedantic(fanout_round, rounds=3, iterations=1)
        fanout_qps = WORKER_FANOUT * QUERY_BATCH / benchmark.stats.stats.min

    speedup = fanout_qps / single_qps
    benchmark.extra_info["workers"] = WORKER_FANOUT
    benchmark.extra_info["single_worker_qps"] = round(single_qps)
    benchmark.extra_info["fanout_qps"] = round(fanout_qps)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    if MIN_WORKER_SPEEDUP:
        assert speedup >= MIN_WORKER_SPEEDUP, (
            f"{WORKER_FANOUT}-worker fan-out is only {speedup:.2f}x one worker "
            f"({fanout_qps:,.0f} vs {single_qps:,.0f} queries/sec), below the "
            f"{MIN_WORKER_SPEEDUP:.1f}x floor (override via REPRO_BENCH_MIN_WORKER_SPEEDUP)"
        )


@pytest.mark.benchmark(group="service")
def test_bench_service_replica_fanout(benchmark, warm_store, hot_ases, tmp_path):
    """1 leader + 1 synced read replica vs the single store, two clients.

    Each store is served by its own one-worker process fleet, simulating
    two hosts; the replica is converged over the real replication path
    first, and byte-identity on every deterministic endpoint is pinned
    before any throughput is trusted.
    """
    store, engine = warm_store
    targets = ["/v1/snapshot/latest", "/v1/diff"] + [f"/v1/as/{asn}" for asn in hot_ases]
    replica_path = tmp_path / "replica.db"

    with MultiWorkerServer(store.path, workers=1) as leader:
        leader.start()
        with SnapshotStore(replica_path) as replica:
            with ServiceClient(leader.url) as sync_client:
                report = ReplicaSyncer(sync_client, replica).sync_once()
            assert report.caught_up and report.applied == len(engine.snapshots)

            single_times = []
            for _ in range(3):
                started = time.perf_counter()
                _concurrent_qps_multi([leader.address] * 2, targets, QUERY_BATCH)
                single_times.append(time.perf_counter() - started)
            single_qps = 2 * QUERY_BATCH / min(single_times)

            with MultiWorkerServer(str(replica_path), workers=1) as follower:
                follower.start()
                # Byte-identity across hosts, cold and warm path both.
                for target in targets:
                    expected = _fetch(leader.address, target)
                    for _ in range(2):
                        assert _fetch(follower.address, target) == expected

                def replica_round():
                    return _concurrent_qps_multi(
                        [leader.address, follower.address], targets, QUERY_BATCH
                    )

                benchmark.pedantic(replica_round, rounds=3, iterations=1)
                pair_qps = 2 * QUERY_BATCH / benchmark.stats.stats.min

    speedup = pair_qps / single_qps
    benchmark.extra_info["single_store_qps"] = round(single_qps)
    benchmark.extra_info["replica_pair_qps"] = round(pair_qps)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    if MIN_REPLICA_SPEEDUP:
        assert speedup >= MIN_REPLICA_SPEEDUP, (
            f"leader+replica pair is only {speedup:.2f}x the single store "
            f"({pair_qps:,.0f} vs {single_qps:,.0f} queries/sec), below the "
            f"{MIN_REPLICA_SPEEDUP:.1f}x floor (override via "
            "REPRO_BENCH_MIN_REPLICA_SPEEDUP)"
        )


@pytest.mark.benchmark(group="service")
def test_bench_service_snapshot_writes(benchmark, tmp_path, context):
    """Producer-side cost: persisting one full snapshot per window close."""
    engine = StreamEngine(StreamConfig(window=WindowSpec(size=7200)))
    engine.run(MemorySource(ScenarioSource(context.aggregate_tuples, duration=86400)))
    snapshot = engine.snapshots[-1]
    store = SnapshotStore(tmp_path / "writes.db")

    def persist():
        store.append_snapshot(snapshot)

    benchmark(persist)
    benchmark.extra_info["records_per_snapshot"] = len(snapshot.result.observed_ases)
    assert len(store) > 0
    store.close()
