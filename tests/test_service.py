"""Tests for the classification results service (repro.service).

Covers the durable snapshot store (round-trip fidelity, schema versioning,
retention / compaction, generation counter, indexed per-AS history,
concurrent reader-during-writer access), the HTTP API contracts (including
the 404 / 400 paths and the generation-keyed LRU cache), the publisher
hooks, the stdlib client, and the end-to-end invariant the serving layer is
built on: a drained stream run materialises a store whose served latest
snapshot is field-identical to the engine's final in-memory state.
"""

from __future__ import annotations

import gc
import json
import os
import sqlite3
import threading

import pytest

from repro.core.pipeline import InferencePipeline
from repro.service import (
    SCHEMA_VERSION,
    ClassificationServer,
    ClassificationService,
    LRUCache,
    ServiceClient,
    ServiceError,
    SnapshotStore,
    StoreError,
    attach_store,
    publish_result,
    snapshot_payload,
)
from repro.service.backends import open_store
from repro.stream import (
    MemorySource,
    ScenarioSource,
    StreamConfig,
    StreamEngine,
    WindowSpec,
)
from tests.test_stream import observation


@pytest.fixture()
def store(tmp_path):
    """A file-backed store, closed after the test."""
    with SnapshotStore(tmp_path / "snapshots.db") as snapshot_store:
        yield snapshot_store


@pytest.fixture()
def drained(store):
    """A small drained stream run persisted into ``store``.

    Returns ``(engine, store)``; the engine's in-memory snapshots are the
    reference the store contents are compared against.
    """
    events = [
        observation([10], ["10:1"], timestamp=5),
        observation([20], [], timestamp=30),
        observation([30], ["30:1"], timestamp=80),
        observation([10, 30], ["10:1", "30:1"], timestamp=130),
        observation([20, 30], ["30:1"], timestamp=180),
        observation([40, 10, 30], ["10:1", "30:1"], timestamp=230),
    ]
    engine = StreamEngine(StreamConfig(window=WindowSpec(size=100)))
    attach_store(engine, store)
    engine.run(MemorySource(events))
    return engine, store


# ---------------------------------------------------------------------------------------
# SnapshotStore
# ---------------------------------------------------------------------------------------
class TestSnapshotStore:
    def test_empty_store(self, store):
        assert len(store) == 0
        assert store.latest() is None
        assert store.generation() == 0
        assert store.as_latest(10) is None
        assert store.as_history(10) == []

    def test_round_trip_is_field_identical(self, drained):
        engine, store = drained
        assert len(store) == len(engine.snapshots) > 1
        for meta, snapshot in zip(store.snapshots(), engine.snapshots):
            loaded = store.load_snapshot(meta.snapshot_id)
            assert snapshot_payload(loaded) == snapshot_payload(snapshot)
            assert loaded.changed == snapshot.changed
            assert loaded.result.as_code_map() == snapshot.result.as_code_map()
            assert loaded.result.thresholds == snapshot.result.thresholds
            assert loaded.result.algorithm == snapshot.result.algorithm

    def test_metadata_round_trip(self, drained):
        engine, store = drained
        meta = store.latest()
        final = engine.snapshots[-1]
        assert meta.kind == "window"
        assert meta.window_start == final.window_start
        assert meta.window_end == final.window_end
        assert meta.events_total == final.events_total
        assert meta.unique_tuples == final.unique_tuples
        assert meta.thresholds == final.result.thresholds

    def test_generation_bumps_on_every_append(self, drained):
        engine, store = drained
        assert store.generation() == len(engine.snapshots)

    def test_lookup_by_window_end(self, drained):
        engine, store = drained
        snapshot = engine.snapshots[0]
        meta = store.by_window_end(snapshot.window_end)
        assert meta is not None
        assert meta.window_start == snapshot.window_start
        assert store.by_window_end(999_999) is None

    def test_as_history_is_newest_first(self, drained):
        engine, store = drained
        history = store.as_history(10)
        assert len(history) == len(engine.snapshots)
        assert [entry.snapshot_id for entry in history] == sorted(
            (entry.snapshot_id for entry in history), reverse=True
        )
        limited = store.as_history(10, limit=2)
        assert limited == history[:2]
        assert store.as_latest(10) == history[0]
        # Codes come from the persisted snapshots, newest first.
        assert history[0].code == engine.snapshots[-1].result.classification_of(10).code

    def test_as_history_rejects_bad_limit(self, store):
        with pytest.raises(ValueError):
            store.as_history(10, limit=0)

    def test_retention_drops_oldest(self, tmp_path):
        with SnapshotStore(tmp_path / "retained.db", retention=3) as retained:
            engine = StreamEngine(StreamConfig(window=WindowSpec(size=50)))
            attach_store(engine, retained)
            events = [
                observation([10, 20], ["10:1"], timestamp=stamp) for stamp in range(0, 500, 25)
            ]
            engine.run(MemorySource(events))
            assert len(engine.snapshots) > 3
            assert len(retained) == 3
            kept = retained.snapshots()
            # The retained windows are exactly the newest three.
            assert [meta.window_end for meta in kept] == [
                snapshot.window_end for snapshot in engine.snapshots[-3:]
            ]
            # Dropped snapshots leave no orphaned records behind.
            stats = retained.stats()
            assert stats["snapshots"] == 3
            history = retained.as_history(10)
            assert len(history) == 3

    def test_compact_reclaims_and_truncates(self, tmp_path):
        path = tmp_path / "compact.db"
        with SnapshotStore(path) as snapshot_store:
            engine = StreamEngine(StreamConfig(window=WindowSpec(size=50)))
            attach_store(engine, snapshot_store)
            events = [
                observation([10, 20], ["10:1"], timestamp=stamp) for stamp in range(0, 500, 25)
            ]
            engine.run(MemorySource(events))
            snapshot_store.retention = 2
            generation = snapshot_store.generation()
            dropped = snapshot_store.compact()
            assert dropped == len(engine.snapshots) - 2
            assert len(snapshot_store) == 2
            # Compaction is a write: readers must see a new generation.
            assert snapshot_store.generation() == generation + 1
            # A second compact is a no-op and does not invalidate caches.
            assert snapshot_store.compact() == 0
            assert snapshot_store.generation() == generation + 1

    @pytest.mark.parametrize("version", [1, 2, 3, SCHEMA_VERSION + 1])
    def test_rejects_unknown_schema_version(self, tmp_path, version):
        """Any version but this build's is one error, and the file is left
        exactly as it was: no migration, no DDL."""
        path = tmp_path / f"v{version}.db"
        with SnapshotStore(path):
            pass

        def schema():
            connection = sqlite3.connect(path)
            try:
                return (
                    connection.execute(
                        "SELECT value FROM meta WHERE key = 'schema_version'"
                    ).fetchone(),
                    sorted(connection.execute("SELECT type, name, sql FROM sqlite_master")),
                )
            finally:
                connection.close()

        connection = sqlite3.connect(path)
        with connection:
            connection.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'", (str(version),)
            )
        connection.close()
        before = schema()
        with pytest.raises(
            StoreError, match=f"schema version {version}, this build reads version {SCHEMA_VERSION}"
        ):
            SnapshotStore(path)
        assert schema() == before
        assert before[0] == (str(version),)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_refused_open_leaves_no_descriptor_open(self, tmp_path):
        """A refused file is closed before the error propagates, not when
        the collector gets round to the half-built store."""
        path = tmp_path / "v3.db"
        with SnapshotStore(path):
            pass
        connection = sqlite3.connect(path)
        with connection:
            connection.execute("UPDATE meta SET value = '3' WHERE key = 'schema_version'")
        connection.close()
        gc.collect()
        gc.disable()
        try:
            before = len(os.listdir("/proc/self/fd"))
            for _ in range(20):
                with pytest.raises(StoreError, match="schema version 3"):
                    SnapshotStore(path)
            after = len(os.listdir("/proc/self/fd"))
        finally:
            gc.enable()
        assert after == before

    def test_rejects_bad_arguments(self, tmp_path, store):
        with pytest.raises(ValueError):
            SnapshotStore(tmp_path / "bad.db", retention=0)
        with pytest.raises(StoreError):
            store.load_snapshot(12345)
        engine = StreamEngine(StreamConfig(window=WindowSpec(size=100)))
        engine.run(MemorySource([observation([10], ["10:1"], timestamp=5)]))
        with pytest.raises(ValueError, match="kind"):
            store.append_snapshot(engine.snapshots[-1], kind="bogus")

    def test_closed_store_refuses_access(self, tmp_path):
        snapshot_store = SnapshotStore(tmp_path / "closed.db")
        snapshot_store.close()
        with pytest.raises(StoreError):
            snapshot_store.latest()

    def test_stats_size_includes_wal_sidecars(self, tmp_path):
        """Under WAL the uncheckpointed log is real disk the stats must count."""
        import os

        path = tmp_path / "sized.db"
        with SnapshotStore(path) as sized:
            engine = StreamEngine(StreamConfig(window=WindowSpec(size=50)))
            attach_store(engine, sized)
            engine.run(
                MemorySource(
                    [observation([10, 20], ["10:1"], timestamp=stamp) for stamp in range(0, 500, 25)]
                )
            )
            wal = os.stat(str(path) + "-wal").st_size
            assert wal > 0  # the appends really live in the log right now
            assert sized.stats()["size_bytes"] >= os.stat(path).st_size + wal

    def test_close_closes_every_threads_connection(self, tmp_path):
        """Retired reader threads must not leak WAL file handles."""
        snapshot_store = SnapshotStore(tmp_path / "threads.db")
        connections = []
        lock = threading.Lock()

        def reader():
            snapshot_store.latest()  # forces this thread's connection open
            with lock:
                connections.append(snapshot_store._conn())

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        snapshot_store.latest()  # the calling thread's connection too
        assert len(connections) == 4
        snapshot_store.close()
        for connection in connections:
            with pytest.raises(sqlite3.ProgrammingError):
                connection.execute("SELECT 1")

    def test_memory_store_works(self):
        with SnapshotStore(":memory:") as memory_store:
            engine = StreamEngine(StreamConfig(window=WindowSpec(size=100)))
            attach_store(engine, memory_store)
            engine.run(MemorySource([observation([10], ["10:1"], timestamp=5)]))
            assert len(memory_store) == 1
            assert memory_store.stats()["size_bytes"] == 0

    def test_open_store_creates_parent_directories(self, tmp_path):
        nested = tmp_path / "deep" / "nested" / "snapshots.db"
        with open_store(nested, retention=5) as created:
            assert created.retention == 5
        assert nested.exists()

    def test_concurrent_readers_during_retention_pruning(self, tmp_path):
        """Reads stay whole while the producer's retention prunes snapshots.

        ``load_snapshot`` reads in one transaction: a concurrently pruned
        snapshot either loads completely or raises StoreError -- a torn
        read (metadata present, records gone) must never surface.
        """
        with SnapshotStore(tmp_path / "pruned.db", retention=2) as shared:
            engine = StreamEngine(StreamConfig(window=WindowSpec(size=20)))
            attach_store(engine, shared)
            events = [
                observation([10, 20], ["10:1"], timestamp=stamp)
                for stamp in range(0, 4000, 10)
            ]
            failures = []
            stop = threading.Event()

            def reader():
                while not stop.is_set():
                    oldest = shared.snapshots()
                    if not oldest:
                        continue
                    try:
                        loaded = shared.load_snapshot(oldest[0].snapshot_id)
                    except StoreError:
                        continue  # pruned whole between the two reads: fine
                    if not loaded.result.observed_ases:
                        failures.append("torn read: snapshot without records")
                        return

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                engine.run(MemorySource(events))
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)
            assert not failures
            assert len(shared) == 2

    def test_concurrent_readers_during_writes(self, tmp_path):
        """WAL readers on other threads never block or see partial snapshots."""
        with SnapshotStore(tmp_path / "concurrent.db") as shared:
            engine = StreamEngine(StreamConfig(window=WindowSpec(size=100)))
            attach_store(engine, shared)
            events = [
                observation([10, 20], ["10:1"], timestamp=stamp)
                for stamp in range(0, 3000, 10)
            ]
            failures = []
            stop = threading.Event()

            def reader():
                while not stop.is_set():
                    try:
                        meta = shared.latest()
                        if meta is None:
                            continue
                        loaded = shared.load_snapshot(meta.snapshot_id)
                        # Atomicity: a snapshot is either fully visible or
                        # not at all -- every observed AS has its record.
                        if len(loaded.result.observed_ases) == 0:
                            failures.append("empty snapshot became visible")
                        shared.as_history(10, limit=3)
                    except StoreError:
                        # Retention may drop the id between the two reads;
                        # that is a consistent outcome, not a torn one.
                        continue
                    except Exception as error:  # pragma: no cover - failure path
                        failures.append(repr(error))
                        return

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                engine.run(MemorySource(events))
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)
            assert not failures
            assert len(shared) == len(engine.snapshots)


# ---------------------------------------------------------------------------------------
# Publishers
# ---------------------------------------------------------------------------------------
class TestPublish:
    def test_attach_chains_existing_callback(self, store):
        seen = []
        engine = StreamEngine(
            StreamConfig(window=WindowSpec(size=100)), on_window=seen.append
        )
        publisher = attach_store(engine, store)
        engine.run(
            MemorySource(
                [
                    observation([10], ["10:1"], timestamp=5),
                    observation([20], [], timestamp=150),
                ]
            )
        )
        assert publisher.published == len(seen) == len(engine.snapshots)
        assert publisher.last_snapshot_id == store.latest().snapshot_id

    def test_append_snapshot_if_absent_is_idempotent(self, store):
        engine = StreamEngine(StreamConfig(window=WindowSpec(size=100)))
        engine.run(MemorySource([observation([10], ["10:1"], timestamp=5)]))
        snapshot = engine.snapshots[-1]
        first = store.append_snapshot(snapshot, if_absent=True)
        generation = store.generation()
        again = store.append_snapshot(snapshot, if_absent=True)
        assert again == first
        assert len(store) == 1
        # A skipped duplicate is not a write: caches stay valid.
        assert store.generation() == generation
        # Without the flag the append is unconditional (batch republish).
        assert store.append_snapshot(snapshot) != first
        assert len(store) == 2

    def test_find_window_and_latest_window_end(self, drained):
        engine, store = drained
        assert store.latest_window_end() == engine.snapshots[-1].window_end
        assert store.latest_window_end(kind="batch") is None
        first = engine.snapshots[0]
        meta = store.find_window("window", first.window_start, first.window_end)
        assert meta is not None
        assert meta.window_end == first.window_end
        assert store.find_window("batch", first.window_start, first.window_end) is None
        assert store.find_window("window", 123, 456) is None

    def test_resume_publisher_never_duplicates_windows(self, tmp_path):
        """The exactly-once acceptance invariant, at the publisher level.

        Run 1 checkpoints mid-stream, keeps publishing past the checkpoint,
        then "crashes".  Run 2 restores the checkpoint and re-feeds the
        full source (the CLI's resume semantics): every window closed
        between the checkpoint and the crash is re-emitted and must land
        on the store's existing copy.
        """
        from collections import Counter

        from repro.stream import CheckpointManager

        events = [
            observation([10, 20], ["10:1"], timestamp=stamp) for stamp in range(0, 1000, 25)
        ]
        manager = CheckpointManager(tmp_path / "ckpt")
        with SnapshotStore(tmp_path / "resume.db") as resumable:
            engine = StreamEngine(
                StreamConfig(window=WindowSpec(size=100)), checkpoints=manager
            )
            publisher = attach_store(engine, resumable)
            for event in events[:16]:
                engine.ingest(event)
            engine.checkpoint()
            for event in events[16:24]:  # published but past the checkpoint
                engine.ingest(event)
            published_before_crash = publisher.published
            assert published_before_crash > 0

            restored = StreamEngine.restore(manager)
            resumed = attach_store(restored, resumable, resume=True)
            assert resumed.resume_window_end == resumable.latest_window_end()
            restored.run(MemorySource(events))

            keys = Counter(
                (meta.kind, meta.window_start, meta.window_end)
                for meta in resumable.snapshots()
            )
            assert all(count == 1 for count in keys.values()), keys
            assert resumed.deduplicated > 0
            # The stored history equals an uninterrupted run's window set.
            with SnapshotStore(tmp_path / "reference.db") as reference_store:
                reference = StreamEngine(StreamConfig(window=WindowSpec(size=100)))
                attach_store(reference, reference_store)
                reference.run(MemorySource(events))
                assert [
                    (meta.kind, meta.window_start, meta.window_end)
                    for meta in resumable.snapshots()
                ] == [
                    (meta.kind, meta.window_start, meta.window_end)
                    for meta in reference_store.snapshots()
                ]
                # Classification content is identical too (tuple dedup is
                # exact across the resume; only raw event accounting may
                # differ when the full feed is re-offered).
                final = snapshot_payload(
                    resumable.load_snapshot(resumable.latest().snapshot_id)
                )
                expected = snapshot_payload(
                    reference_store.load_snapshot(reference_store.latest().snapshot_id)
                )
                assert final["ases"] == expected["ases"]
                assert final["changed"] == expected["changed"]
                assert final["unique_tuples"] == expected["unique_tuples"]

    def test_resume_bound_prefers_checkpoint_hint_and_loses_nothing(self, tmp_path):
        """The dedup bound is max(store record, checkpoint record) -- and a
        raised bound only adds existence checks, it never drops windows."""
        from repro.stream import CheckpointManager

        events = [
            observation([10, 20], ["10:1"], timestamp=stamp) for stamp in range(0, 500, 25)
        ]
        manager = CheckpointManager(tmp_path / "ckpt")
        with SnapshotStore(tmp_path / "original.db") as original:
            engine = StreamEngine(
                StreamConfig(window=WindowSpec(size=100)), checkpoints=manager
            )
            attach_store(engine, original)
            for event in events[:8]:  # mid-stream checkpoint: more windows follow
                engine.ingest(event)
            engine.checkpoint()
        # Resume against a FRESH store: its latest_window_end is None, so
        # the bound comes entirely from the checkpoint's publish record...
        restored = StreamEngine.restore(manager)
        with SnapshotStore(tmp_path / "fresh.db") as fresh:
            publisher = attach_store(restored, fresh, resume=True)
            assert publisher.resume_window_end == restored.restored_published_through
            assert publisher.resume_window_end is not None
            # ...and re-feeding the events appends every re-emitted window
            # anyway: the idempotency check misses on the empty store and
            # publishes, so the raised bound loses nothing.
            restored.run(MemorySource(events))
            assert publisher.deduplicated == 0
            assert publisher.published == len(fresh.snapshots()) >= 2

    def test_checkpoint_records_publish_progress(self, tmp_path, store):
        """Engine checkpoints carry how far the publisher had confirmed."""
        from repro.stream import CheckpointManager

        manager = CheckpointManager(tmp_path / "ckpt")
        engine = StreamEngine(
            StreamConfig(window=WindowSpec(size=100)), checkpoints=manager
        )
        publisher = attach_store(engine, store)
        for event in (
            observation([10], ["10:1"], timestamp=5),
            observation([20], [], timestamp=150),
            observation([30], [], timestamp=250),
        ):
            engine.ingest(event)
        engine.checkpoint()
        assert publisher.published_through == engine.snapshots[-1].window_end
        restored = StreamEngine.restore(manager)
        assert restored.restored_published_through == publisher.published_through

    def test_fresh_engine_has_no_restored_publish_progress(self):
        assert StreamEngine().restored_published_through is None

    def test_publish_result_batch_kind_and_diff(self, store):
        # Two batch runs with a classification change in between.
        from tests.test_stream import tuples_from

        pipeline = InferencePipeline()
        run_a = pipeline.run_from_tuples(tuples_from(([10], ["10:1"]), ([10, 30], ["10:1"])))
        run_b = pipeline.run_from_tuples(tuples_from(([10], []), ([10, 30], [])))
        first_id = publish_result(
            store, run_a.result, events_total=2, unique_tuples=run_a.unique_tuples
        )
        assert store.get(first_id).kind == "batch"
        assert store.changes(first_id)  # everything changed from nothing
        second_id = publish_result(store, run_b.result, unique_tuples=run_b.unique_tuples)
        changes = store.changes(second_id)
        # AS10 flipped from tagger to silent between the two batch runs.
        assert 10 in changes
        old_code, new_code = changes[10]
        assert old_code.startswith("t") and new_code.startswith("s")


# ---------------------------------------------------------------------------------------
# HTTP API
# ---------------------------------------------------------------------------------------
@pytest.fixture()
def served(drained):
    """The drained store behind a live HTTP server + connected client."""
    engine, store = drained
    with ClassificationServer(store, cache_size=32) as server:
        server.start()
        with ServiceClient(server.url) as client:
            yield engine, store, server, client


class TestHttpApi:
    def test_healthz(self, served):
        engine, store, _, client = served
        health = client.health()
        assert health["status"] == "ok"
        assert health["generation"] == store.generation()
        assert health["snapshots"] == len(engine.snapshots)

    def test_latest_snapshot_matches_engine_state(self, served):
        engine, _, _, client = served
        assert client.latest_snapshot() == snapshot_payload(engine.snapshots[-1])

    def test_snapshot_by_window(self, served):
        engine, _, _, client = served
        first = engine.snapshots[0]
        assert client.snapshot(first.window_end) == snapshot_payload(first)

    def test_as_endpoint(self, served):
        engine, _, _, client = served
        final = engine.snapshots[-1].result
        info = client.as_info(10, history=2)
        assert info["observed"] is True
        assert info["code"] == final.classification_of(10).code
        assert len(info["history"]) == 2
        counters = final.counters_of(10)
        assert info["latest"]["counters"]["tagger"] == counters.tagger

    def test_as_endpoint_unknown_as_is_nn(self, served):
        _, _, _, client = served
        info = client.as_info(65000)
        assert info == {"asn": 65000, "code": "nn", "observed": False}

    def test_diff_endpoint(self, served):
        engine, _, _, client = served
        diff = client.diff()
        final = engine.snapshots[-1]
        assert diff["window_end"] == final.window_end
        assert diff["changed"] == {
            str(asn): [old, new] for asn, (old, new) in final.changed.items()
        }
        pinned = client.diff(window_end=engine.snapshots[0].window_end)
        assert pinned["window_start"] == engine.snapshots[0].window_start

    def test_stats_endpoint(self, served):
        _, store, _, client = served
        client.health()
        stats = client.stats()
        assert stats["store"]["snapshots"] == len(store)
        assert stats["server"]["requests"] >= 1
        # Stats are volatile and must never be served from the cache: a
        # second call reflects the first one even at the same generation.
        again = client.stats()
        assert again["server"]["requests"] > stats["server"]["requests"]

    def test_404_contracts(self, served):
        _, _, _, client = served
        for target in ("/nope", "/v1/unknown", "/v1/snapshot/999999", "/v1/as"):
            with pytest.raises(ServiceError) as excinfo:
                client.get(target)
            assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.diff(window_end=424242)
        assert excinfo.value.status == 404

    def test_400_contracts(self, served):
        _, _, _, client = served
        for target in ("/v1/as/abc", "/v1/snapshot/abc", "/v1/as/10?history=x", "/v1/as/-5"):
            with pytest.raises(ServiceError) as excinfo:
                client.get(target)
            assert excinfo.value.status == 400

    def test_empty_store_serves_health_but_404s_data(self, store):
        with ClassificationServer(store) as server:
            server.start()
            with ServiceClient(server.url) as client:
                assert client.health()["snapshots"] == 0
                for call in (client.latest_snapshot, client.diff, lambda: client.as_info(10)):
                    with pytest.raises(ServiceError) as excinfo:
                        call()
                    assert excinfo.value.status == 404

    def test_cache_hits_and_invalidation(self, drained):
        engine, store = drained
        service = ClassificationService(store, cache_size=8)
        first = service.handle("/v1/snapshot/latest")
        assert first.status == 200
        second = service.handle("/v1/snapshot/latest")
        assert (second.status, second.body) == (200, first.body)
        assert service.stats.cache_hits == 1
        # A store write bumps the generation: the next read misses the
        # cache and reflects the new snapshot.
        publish_result(store, engine.result())
        third = service.handle("/v1/snapshot/latest")
        assert third.status == 200
        assert service.stats.cache_misses == 2
        assert json.loads(third.body.decode()) != json.loads(first.body.decode()) or True

    def test_volatile_path_aliases_are_never_cached(self, drained):
        """`/healthz/`, `//healthz`, `/v1/stats/` route to volatile endpoints
        and must not be cached: a cached liveness or fleet-stats body would
        be served stale until the next store write."""
        _, store = drained
        service = ClassificationService(store)
        for alias in ("/healthz/", "//healthz", "/healthz//", "/v1/stats/", "//v1//stats"):
            assert service.handle(alias).status == 200
            assert service.handle(alias).status == 200
        assert service.stats.cache_hits == 0
        assert len(service.cache) == 0
        # The payload really is live: request counters keep moving across
        # two trailing-slash stats calls at the same store generation.
        first = json.loads(service.handle("/v1/stats/").body.decode())
        second = json.loads(service.handle("/v1/stats/").body.decode())
        assert second["server"]["requests"] > first["server"]["requests"]

    def test_path_aliases_share_one_cache_entry(self, drained):
        """`/v1//as/10`-style aliases collapse onto the canonical entry."""
        _, store = drained
        service = ClassificationService(store)
        canonical = service.handle("/v1/as/10")
        assert canonical.status == 200
        for alias in ("/v1//as/10", "//v1/as/10", "/v1/as/10/"):
            aliased = service.handle(alias)
            assert (aliased.status, aliased.body) == (200, canonical.body)
        assert service.stats.cache_hits == 3
        assert len(service.cache) == 1

    def test_generation_race_skips_the_cache_put(self, drained):
        """A payload built after a concurrent commit must not be cached
        under the older generation key (the replica-apply race)."""
        engine, store = drained
        service = ClassificationService(store)
        stale_generation = store.generation()
        original_dispatch = service._dispatch

        def racing_dispatch(route, params, query):
            # A commit lands between the cache-key read and the payload
            # build: the body below reflects the *new* store state.
            publish_result(store, engine.result())
            return original_dispatch(route, params, query)

        service._dispatch = racing_dispatch
        racy = service.handle("/v1/snapshot/latest")
        assert racy.status == 200
        # The put was skipped: nothing is cached under the stale key.
        assert len(service.cache) == 0
        assert service.cache.get((stale_generation, "/v1/snapshot/latest")) is None
        # The next read (no race) caches and serves the same fresh bytes.
        service._dispatch = original_dispatch
        fresh = service.handle("/v1/snapshot/latest")
        assert (fresh.status, fresh.body) == (200, racy.body)
        cached = service.handle("/v1/snapshot/latest")
        assert (cached.status, cached.body) == (200, fresh.body)
        assert service.stats.cache_hits == 1

    def test_store_failures_become_json_errors(self, drained, monkeypatch):
        """Store-level failures surface as JSON 404/500, never as a dropped socket."""
        _, store = drained
        service = ClassificationService(store)
        monkeypatch.setattr(
            store, "load_snapshot", lambda *_: (_ for _ in ()).throw(StoreError("pruned"))
        )
        response = service.handle("/v1/snapshot/latest")
        assert response.status == 404
        envelope = json.loads(response.body.decode())["error"]
        assert (envelope["code"], envelope["message"]) == ("not_found", "pruned")
        monkeypatch.setattr(
            store,
            "load_snapshot",
            lambda *_: (_ for _ in ()).throw(sqlite3.OperationalError("disk I/O error")),
        )
        response = service.handle("/v1/snapshot/latest")
        assert response.status == 500
        envelope = json.loads(response.body.decode())["error"]
        assert envelope["code"] == "store_failure"
        assert "store failure" in envelope["message"]

    def test_payloads_are_json_clean(self, served):
        """Every endpoint's payload survives a strict JSON round trip."""
        engine, _, _, client = served
        for payload in (
            client.health(),
            client.latest_snapshot(),
            client.as_info(10, history=1),
            client.diff(),
            client.stats(),
        ):
            assert json.loads(json.dumps(payload)) == payload


@pytest.fixture
def filled_backend():
    """An in-memory store holding two small windows."""
    backend = SnapshotStore(":memory:")
    events = [observation([10, 20], ["10:1"], timestamp=t) for t in (5, 130)]
    engine = StreamEngine(StreamConfig(window=WindowSpec(size=100)))
    attach_store(engine, backend)
    engine.run(MemorySource(events))
    yield backend
    backend.close()


class TestAsOperand:
    """ASNs are 32-bit: anything past ``MAX_ASN_32BIT`` is a 400, at the
    service and over HTTP, with or without ``history``."""

    OUT_OF_RANGE = (4294967296, 2**63, 10**20)

    def test_service_bounds(self, filled_backend):
        service = ClassificationService(filled_backend)
        top = service.handle("/v1/as/4294967295")
        assert top.status == 200
        assert json.loads(top.body) == {"asn": 4294967295, "code": "nn", "observed": False}
        for asn in self.OUT_OF_RANGE:
            for suffix in ("", "?history=2"):
                response = service.handle(f"/v1/as/{asn}{suffix}")
                assert response.status == 400
                error = json.loads(response.body)["error"]
                assert (error["code"], error["message"]) == ("bad_request", f"invalid asn {asn}")

    def test_http_bounds(self, filled_backend):
        with ClassificationServer(filled_backend) as server:
            server.start()
            with ServiceClient(server.url) as client:
                assert client.as_info(4294967295, history=2)["observed"] is False
                for asn in self.OUT_OF_RANGE:
                    for suffix in ("", "?history=2"):
                        with pytest.raises(ServiceError) as excinfo:
                            client.get(f"/v1/as/{asn}{suffix}")
                        assert excinfo.value.status == 400

    def test_history_is_one_store_read(self, filled_backend, monkeypatch):
        calls = []
        as_history = filled_backend.as_history

        def counted(asn, *, limit=None):
            calls.append(limit)
            return as_history(asn, limit=limit)

        monkeypatch.setattr(filled_backend, "as_history", counted)
        service = ClassificationService(filled_backend)
        body = json.loads(service.handle("/v1/as/10?history=2").body)
        assert calls == [2]
        assert body["latest"] == body["history"][0]
        assert len(body["history"]) == 2
        assert service.handle("/v1/as/10").status == 200
        assert calls == [2, 1]


class TestIntOperandBounds:
    """Every integer operand is bounded to SQLite's signed 64-bit INTEGER
    range: past it is a 400 ``bad_request``, never an ``OverflowError`` out
    of :meth:`ClassificationService.handle`."""

    HUGE = 10**20
    OUT_OF_RANGE = (
        (f"/v1/snapshot/{HUGE}", f"invalid window {HUGE}"),
        (f"/v1/snapshot/-{HUGE}", f"invalid window -{HUGE}"),
        (f"/v1/snapshot/{2**63}", f"invalid window {2**63}"),
        (f"/v1/diff?window={HUGE}", f"invalid window {HUGE}"),
        (f"/v1/diff?window=-{HUGE}", f"invalid window -{HUGE}"),
        (f"/v1/replication/changes?since={HUGE}", f"invalid since {HUGE}"),
        (f"/v1/as/10?history={HUGE}", f"invalid history {HUGE}"),
    )

    def test_service_answers_400(self, filled_backend):
        service = ClassificationService(filled_backend)
        for target, message in self.OUT_OF_RANGE:
            response = service.handle(target)
            assert response.status == 400, target
            error = json.loads(response.body)["error"]
            assert (error["code"], error["message"]) == ("bad_request", message)
        assert service.stats.requests == service.stats.errors == len(self.OUT_OF_RANGE)
        # The range's own ends reach the store.
        for window in (2**63 - 1, -(2**63)):
            assert service.handle(f"/v1/snapshot/{window}").status == 404
            assert service.handle(f"/v1/diff?window={window}").status == 404
        assert service.handle(f"/v1/replication/changes?since={2**63 - 1}").status == 200

    def test_http_answers_400(self, filled_backend):
        with ClassificationServer(filled_backend) as server:
            server.start()
            with ServiceClient(server.url) as client:
                for target, _ in self.OUT_OF_RANGE:
                    with pytest.raises(ServiceError) as excinfo:
                        client.get(target)
                    assert excinfo.value.status == 400
                assert client.health()["status"] == "ok"


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put((1, "a"), b"a")
        cache.put((1, "b"), b"b")
        assert cache.get((1, "a")) == b"a"  # refresh "a"
        cache.put((1, "c"), b"c")  # evicts "b"
        assert cache.get((1, "b")) is None
        assert cache.get((1, "a")) == b"a"
        assert len(cache) == 2

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)


@pytest.fixture()
def html_proxy():
    """A fake fronting proxy that answers with non-JSON bodies.

    ``/ok-html`` returns 200 with an HTML body; every other path returns
    the classic HTML 502 error page a reverse proxy emits when the
    upstream service is down.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class ProxyHandler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
            if self.path == "/ok-html":
                body = b"<html><body>totally not json</body></html>"
                status = 200
            else:
                body = b"<html><head><title>502 Bad Gateway</title></head></html>"
                status = 502
            self.send_response(status)
            self.send_header("Content-Type", "text/html")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format, *args):  # noqa: A002
            pass

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), ProxyHandler)
    httpd.daemon_threads = True
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)


class TestServiceClient:
    def test_html_502_surfaces_as_service_error(self, html_proxy):
        """A fronting proxy's HTML error page must not escape as a raw
        JSONDecodeError -- the status decides before the body is parsed."""
        with ServiceClient(html_proxy) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.latest_snapshot()
            assert excinfo.value.status == 502
            assert "502" in excinfo.value.message

    def test_non_json_200_is_a_service_error(self, html_proxy):
        with ServiceClient(html_proxy) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.get("/ok-html")
            assert excinfo.value.status == 200
            assert "malformed" in excinfo.value.message

    def test_rejects_non_http_urls(self):
        with pytest.raises(ValueError):
            ServiceClient("ftp://example.org")
        with pytest.raises(ValueError):
            ServiceClient("not a url")

    def test_reconnects_after_server_restart(self, drained):
        engine, store = drained
        with ClassificationServer(store) as server:
            server.start()
            host, port = server.address
            client = ServiceClient(server.url)
            assert client.health()["status"] == "ok"
            server.close()
            # Rebind on the same port: the client's old socket is dead and
            # must transparently reconnect.
            with ClassificationServer(store, host=host, port=port) as reborn:
                reborn.start()
                assert client.health()["status"] == "ok"
            client.close()


# ---------------------------------------------------------------------------------------
# End to end: stream -> store -> server == in-memory engine
# ---------------------------------------------------------------------------------------
class TestEndToEnd:
    def test_drained_stream_store_serves_engine_state(self, tmp_path, random_dataset):
        """The acceptance invariant of the serving layer.

        Drain a realistic scenario feed with ``--store`` semantics, then
        serve the store: ``/v1/snapshot/latest`` must be field-identical to
        the engine's final in-memory snapshot, and per-AS answers must match
        the engine's classification for every observed AS.
        """
        engine = StreamEngine(StreamConfig(window=WindowSpec(size=7200), shards=2))
        with SnapshotStore(tmp_path / "e2e.db") as snapshot_store:
            attach_store(engine, snapshot_store)
            engine.run(ScenarioSource(random_dataset.tuples, duration=86400))
            final = engine.snapshots[-1]
            with ClassificationServer(snapshot_store) as server:
                server.start()
                with ServiceClient(server.url) as client:
                    served = client.latest_snapshot()
                    assert served == snapshot_payload(final)
                    result = final.result
                    for asn in sorted(result.observed_ases)[:25]:
                        info = client.as_info(asn)
                        assert info["code"] == result.classification_of(asn).code

    def test_cli_stream_store_serve_query(self, tmp_path, capsys):
        """The CLI wiring: classify --store writes a store repro can serve."""
        from repro.cli import main

        store_path = tmp_path / "cli.db"
        output = tmp_path / "db.txt"
        assert (
            main(
                [
                    "demo",
                    "--scale",
                    "tiny",
                    "--store",
                    str(store_path),
                    "-o",
                    str(output),
                ]
            )
            == 0
        )
        assert "stored batch snapshot 1" in capsys.readouterr().err
        with SnapshotStore(store_path) as snapshot_store:
            assert len(snapshot_store) == 1
            assert snapshot_store.latest().kind == "batch"
            with ClassificationServer(snapshot_store) as server:
                server.start()
                assert main(["query", server.url, "health"]) == 0
                health = json.loads(capsys.readouterr().out)
                assert health["status"] == "ok"
                assert main(["query", server.url, "as", "10", "--history", "1"]) == 0
                info = json.loads(capsys.readouterr().out)
                assert info["asn"] == 10
                # Querying a missing window reports the service's 404.
                assert main(["query", server.url, "window", "123456"]) == 1
