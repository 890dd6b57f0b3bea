"""Tests for cross-host store replication (repro.service.replication).

Covers the leader's changelog endpoint (paging, generation addressing, the
pruning horizon), the follower syncer (convergence to byte-identical served
payloads, exactly-once resume after a mid-sync kill, explicit errors when
leader retention outruns a lagging follower, bootstrap of an empty follower
from an already-pruned leader), concurrent first opens of one store file,
and the ``repro replicate`` CLI wiring.
"""

from __future__ import annotations

import json
import sqlite3
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.classes import CLASS_CODES
from repro.core.results import ClassificationResult
from repro.service import (
    ClassificationServer,
    ClassificationService,
    ReplicaSyncer,
    ReplicationError,
    ServiceClient,
    ServiceError,
    SnapshotStore,
    StoreError,
    attach_store,
    open_store,
    snapshot_payload,
)
from repro.core.thresholds import Thresholds
from repro.service.backends.base import (
    RECORD_FORMAT,
    SNAPSHOT_KINDS,
    StoredSnapshot,
    snapshot_from_record,
    snapshot_record,
)
from repro.stream import MemorySource, StreamConfig, StreamEngine, WindowSpec
from repro.stream.engine import WindowSnapshot
from tests.test_stream import observation


def feed(count, *, start=0, step=25):
    """A deterministic little update feed closing several 100s windows."""
    return [
        observation([10, 20], ["10:1"], timestamp=start + index * step)
        for index in range(count)
    ]


@pytest.fixture()
def leader(tmp_path):
    """A drained leader store with several window snapshots."""
    with SnapshotStore(tmp_path / "leader.db") as store:
        engine = StreamEngine(StreamConfig(window=WindowSpec(size=100)))
        attach_store(engine, store)
        engine.run(MemorySource(feed(32)))
        yield engine, store


@pytest.fixture()
def leader_served(leader):
    """The leader behind a live HTTP server + a connected client."""
    engine, store = leader
    with ClassificationServer(store) as server:
        server.start()
        with ServiceClient(server.url) as client:
            yield engine, store, server, client


#: The deterministic endpoints replication must serve byte-identically.
def identity_targets(engine):
    targets = ["/v1/snapshot/latest", "/v1/diff"]
    final = engine.snapshots[-1]
    targets.append(f"/v1/snapshot/{final.window_end}")
    targets.append(f"/v1/diff?window={engine.snapshots[0].window_end}")
    for asn in sorted(final.result.observed_ases):
        targets.append(f"/v1/as/{asn}")
        targets.append(f"/v1/as/{asn}?history=3")
    return targets


# ---------------------------------------------------------------------------------------
# Store-level: generation addressing
# ---------------------------------------------------------------------------------------
class TestGenerationAddressing:
    def test_snapshots_record_commit_generations(self, leader):
        engine, store = leader
        metas = store.snapshots()
        assert [meta.generation for meta in metas] == list(range(1, len(metas) + 1))
        assert store.generation() == metas[-1].generation

    def test_snapshots_since_pages_in_commit_order(self, leader):
        _, store = leader
        everything = store.snapshots_since(0)
        assert everything == store.snapshots()
        page = store.snapshots_since(0, limit=3)
        assert page == everything[:3]
        rest = store.snapshots_since(page[-1].generation)
        assert page + rest == everything
        assert store.snapshots_since(store.generation()) == []

    def test_snapshots_since_rejects_bad_arguments(self, leader):
        _, store = leader
        with pytest.raises(ValueError):
            store.snapshots_since(-1)
        with pytest.raises(ValueError):
            store.snapshots_since(0, limit=0)

    def test_retention_moves_pruned_through(self, tmp_path):
        with SnapshotStore(tmp_path / "pruned.db", retention=3) as store:
            engine = StreamEngine(StreamConfig(window=WindowSpec(size=100)))
            attach_store(engine, store)
            engine.run(MemorySource(feed(32)))
            assert len(store) == 3
            retained = store.snapshots()
            # Everything retained is above the horizon: a follower at or
            # past the horizon reads a gap-free changelog.
            assert store.pruned_through() > 0
            assert all(meta.generation > store.pruned_through() for meta in retained)

    def test_applied_generation_is_durable_and_monotonic(self, tmp_path):
        path = tmp_path / "replica.db"
        with SnapshotStore(path) as store:
            assert store.applied_generation() == 0
            store.set_applied_generation(7)
            store.set_applied_generation(3)  # never moves backwards
            assert store.applied_generation() == 7
            with pytest.raises(ValueError):
                store.set_applied_generation(-1)
            generation = store.generation()
        with SnapshotStore(path) as reopened:
            assert reopened.applied_generation() == 7
            # Bookkeeping is not a data write: caches keyed on the store
            # generation stay valid.
            assert reopened.generation() == generation

    def test_append_with_pinned_id(self, tmp_path, leader):
        engine, _ = leader
        with SnapshotStore(tmp_path / "pinned.db") as store:
            first = store.append_snapshot(engine.snapshots[0], snapshot_id=41)
            assert first == 41
            # Re-offering the same window at the same id is idempotent.
            assert store.append_snapshot(engine.snapshots[0], snapshot_id=41) == 41
            assert len(store) == 1
            # A different window claiming a taken id is divergence.
            with pytest.raises(StoreError, match="diverged"):
                store.append_snapshot(engine.snapshots[1], snapshot_id=41)
            # Auto-assigned ids continue past the pinned one.
            assert store.append_snapshot(engine.snapshots[1]) == 42


def make_stored(
    asns, quads, thresholds, changed, *, window=(3600, 7200, 2, 9, 4),
    algorithm="column", snapshot_id=3, kind="window", generation=5,
):
    """A ``(StoredSnapshot, WindowSnapshot)`` pair over ascending *asns*.

    *window* is ``(start, end, skipped windows, events, unique tuples)``.
    """
    names = ("window_start", "window_end", "skipped_windows", "events_total", "unique_tuples")
    fields = dict(zip(names, window))
    counters = np.array(quads, dtype=np.int64).reshape(-1, 4).T
    meta = StoredSnapshot(
        snapshot_id=snapshot_id, kind=kind, algorithm=algorithm, thresholds=thresholds,
        generation=generation, **fields,
    )
    result = ClassificationResult(asns, counters, thresholds, algorithm)
    return meta, WindowSnapshot(result=result, changed=changed, **fields)


#: The explicit edge cases of the record property: an empty result, and
#: ASNs 0 and 2^32 - 1 with counters of 2^40.
EDGE_THRESHOLDS = Thresholds(0.55, 0.6, 0.9, 1.0)
EDGE_CHANGES = {2**32 - 1: ("nn", "tf"), 5: ("sc", "nn")}
EDGE_QUAD = (2**40, 0, 1, 2**40 - 1)

BIG = st.integers(0, 2**40)
ASN32 = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))
SHARE = st.floats(0.5, 1.0, exclude_min=True)
CODE = st.sampled_from(CLASS_CODES)


@st.composite
def stored_snapshots(draw):
    """Random stored snapshots: ASNs 0 .. 2^32 - 1, counters up to 2^40,
    non-uniform thresholds, any change set (empty results included)."""
    asns = sorted(draw(st.lists(ASN32, unique=True, max_size=30)))
    quads = draw(st.lists(st.tuples(BIG, BIG, BIG, BIG), min_size=len(asns), max_size=len(asns)))
    changed = draw(st.dictionaries(ASN32, st.tuples(CODE, CODE), max_size=6))
    start = draw(BIG)
    return make_stored(
        asns, quads, Thresholds(*(draw(SHARE) for _ in range(4))), changed,
        window=(start, start + draw(BIG), draw(BIG), draw(BIG), draw(BIG)),
        algorithm=draw(st.sampled_from(["column", "row"])), snapshot_id=draw(BIG),
        kind=draw(st.sampled_from(SNAPSHOT_KINDS)), generation=draw(BIG),
    )


# ---------------------------------------------------------------------------------------
# Leader endpoint
# ---------------------------------------------------------------------------------------
class TestReplicationEndpoint:
    def test_full_changelog_from_zero(self, leader_served):
        engine, store, _, client = leader_served
        page = client.replication_changes(since=0, limit=256)
        assert page["since"] == 0
        assert page["generation"] == store.generation()
        assert page["horizon"] == 0
        assert page["more"] is False
        assert len(page["changes"]) == len(engine.snapshots)
        generations = [entry["generation"] for entry in page["changes"]]
        assert generations == sorted(generations)
        for entry, snapshot in zip(page["changes"], engine.snapshots):
            assert (entry["format"], entry["kind"]) == (RECORD_FORMAT, "window")
            assert snapshot_payload(snapshot_from_record(entry)[1]) == snapshot_payload(snapshot)

    def test_paging_and_since(self, leader_served):
        engine, _, _, client = leader_served
        page = client.replication_changes(since=0, limit=3)
        assert page["more"] is True
        assert len(page["changes"]) == 3
        tail = client.replication_changes(since=page["changes"][-1]["generation"], limit=256)
        assert tail["more"] is False
        assert len(page["changes"]) + len(tail["changes"]) == len(engine.snapshots)

    def test_caught_up_page_is_empty(self, leader_served):
        _, store, _, client = leader_served
        page = client.replication_changes(since=store.generation())
        assert page["changes"] == []
        assert page["more"] is False

    def test_bad_arguments_are_400(self, leader_served):
        _, _, _, client = leader_served
        for target in (
            "/v1/replication/changes?since=-1",
            "/v1/replication/changes?since=abc",
            "/v1/replication/changes?since=0&limit=0",
            "/v1/replication/changes?limit=x",
        ):
            with pytest.raises(ServiceError) as excinfo:
                client.get(target)
            assert excinfo.value.status == 400

    def test_changelog_pages_stay_out_of_the_cache(self, leader):
        """Pages are huge one-shot bodies keyed by ever-advancing `since`
        values: caching them would evict the hot per-AS entries."""
        from repro.service import ClassificationService

        _, store = leader
        service = ClassificationService(store)
        first = service.handle("/v1/replication/changes?since=0&limit=2")
        assert first.status == 200
        second = service.handle("/v1/replication/changes?since=0&limit=2")
        assert (second.status, second.body) == (200, first.body)  # still deterministic
        assert service.stats.cache_hits == 0
        assert len(service.cache) == 0


# ---------------------------------------------------------------------------------------
# Payload round trip
# ---------------------------------------------------------------------------------------
class TestRecordRoundTrip:
    def test_thresholds_keep_their_wire_form_everywhere(self, tmp_path):
        """``[tagger, silent, forward, cleaner]`` in the stored row, the
        cold tier's row and the replication page, read back field by field."""
        thresholds = Thresholds(tagger=0.6, silent=0.7, forward=0.8, cleaner=0.9)
        engine = StreamEngine(
            StreamConfig(window=WindowSpec(size=100), thresholds=thresholds)
        )
        with open_store(
            tmp_path / "leader.db", retention=1, archive_dir=tmp_path / "cold"
        ) as store:
            attach_store(engine, store)
            engine.run(MemorySource(feed(8)))
            assert len(engine.snapshots) >= 2
            store.compact()  # everything but the newest window goes cold
            with sqlite3.connect(tmp_path / "leader.db") as raw:
                rows = raw.execute("SELECT thresholds FROM snapshots").fetchall()
            assert rows == [("[0.6, 0.7, 0.8, 0.9]",)]
            with sqlite3.connect(tmp_path / "cold" / "archive.db") as raw:
                rows = raw.execute("SELECT thresholds FROM snapshots").fetchall()
            assert rows == [("[0.6, 0.7, 0.8, 0.9]",)] * (len(engine.snapshots) - 1)
            hot = store.snapshots_since(0)
            page = ClassificationService(store).handle("/v1/replication/changes")
            assert page.body.count(b'"thresholds":[0.6,0.7,0.8,0.9]') == len(hot)
            with ClassificationServer(store) as server, ServiceClient(
                server.start().url
            ) as client, SnapshotStore(tmp_path / "replica.db") as replica:
                assert ReplicaSyncer(client, replica).sync_once().applied == len(hot)
                copied = replica.snapshots()
        with open_store(tmp_path / "leader.db", archive_dir=tmp_path / "cold") as reopened:
            stored = reopened.snapshots()  # the cold ones read from the cold store
        assert len(stored) == len(engine.snapshots)
        assert {meta.thresholds for meta in stored + copied} == {thresholds}

    @settings(max_examples=60, deadline=None)
    @given(stored=stored_snapshots())
    @example(stored=make_stored([], [], EDGE_THRESHOLDS, EDGE_CHANGES))
    @example(stored=make_stored([0, 7, 2**32 - 1], [EDGE_QUAD] * 3, EDGE_THRESHOLDS, EDGE_CHANGES))
    def test_snapshot_from_record_inverts_snapshot_record(self, stored):
        meta, snapshot = stored
        # Through a JSON round trip, like a replication page does it.
        record = json.loads(json.dumps(snapshot_record(meta, snapshot)))
        rebuilt_meta, rebuilt = snapshot_from_record(record)
        assert rebuilt_meta == meta
        assert rebuilt.changed == snapshot.changed
        assert snapshot_payload(rebuilt) == snapshot_payload(snapshot)


class TestOneEncoding:
    """A hot leader, a follower synced through the changelog and the cold
    tier after demotion serve the same bytes on every read endpoint, and
    hold the same digest for every snapshot."""

    EDGES = (0, 7, 2**32 - 1)
    THRESHOLDS = Thresholds(0.6, 0.7, 0.8, 0.95)

    def snapshots(self):
        built = []
        for index in range(4):
            quads = [(index + 1, 3 - index % 2, 2**40 - index, index), (9, 1, 0, 0),
                     (0, 0, 5, 5 * index)]
            changed = {2**32 - 1: ("nn", "sc"), 0: ("tf", "tn")} if index else {}
            window = (index * 100, index * 100 + 100, index % 2, 10 + index, 3)
            _, snapshot = make_stored(self.EDGES, quads, self.THRESHOLDS, changed, window=window)
            built.append(snapshot)
        return built

    def test_leader_follower_and_cold_tier_serve_identical_bytes(self, tmp_path):
        snapshots = self.snapshots()
        targets = ["/v1/snapshot/latest", "/v1/diff"]
        for snapshot in snapshots:
            targets += [f"/v1/snapshot/{snapshot.window_end}",
                        f"/v1/diff?window={snapshot.window_end}"]
        targets += [f"/v1/as/{asn}?history=10" for asn in self.EDGES]
        with SnapshotStore(tmp_path / "leader.db") as leader:
            for snapshot in snapshots:
                leader.append_snapshot(snapshot)
            hot = {target: ClassificationService(leader).handle(target) for target in targets}
            assert {response.status for response in hot.values()} == {200}
            with ClassificationServer(leader) as server, ServiceClient(
                server.start().url
            ) as client, SnapshotStore(tmp_path / "follower.db") as follower:
                assert ReplicaSyncer(client, follower).sync_once().applied == len(snapshots)
                replicated = ClassificationService(follower)
                for target in targets:
                    assert replicated.handle(target).body == hot[target].body, target
            digests = _digests(tmp_path / "leader.db")
            assert len(set(digests)) == len(snapshots)
            assert _digests(tmp_path / "follower.db") == digests
            with open_store(tmp_path / "leader.db", archive_dir=tmp_path / "cold") as tiered:
                # Newest first: the archive's own commit generations then differ
                # from the leader's, which the (store-local) digest must not cover.
                for meta in reversed(leader.snapshots()):
                    assert tiered.drop_snapshot(meta.snapshot_id)
                assert len(leader) == 0 and len(tiered) == len(snapshots)
                cold = ClassificationService(tiered)
                for target in targets:
                    assert cold.handle(target).body == hot[target].body, target
            assert _digests(tmp_path / "cold" / "archive.db") == digests
        history = json.loads(hot["/v1/as/4294967295?history=10"].body)["history"]
        assert [entry["counters"]["cleaner"] for entry in history] == [15, 10, 5, 0]


# ---------------------------------------------------------------------------------------
# Follower syncer
# ---------------------------------------------------------------------------------------
class TestReplicaSyncer:
    def test_follower_converges_byte_identically(self, tmp_path, leader_served):
        engine, store, server, client = leader_served
        with SnapshotStore(tmp_path / "follower.db") as follower:
            report = ReplicaSyncer(client, follower, page_size=5).sync_once()
            assert report.caught_up
            assert report.applied == len(engine.snapshots)
            assert report.pages >= 2  # page_size 5 over 8 windows: really paged
            assert follower.applied_generation() == store.generation()
            # Same ids, same windows, same payloads -- and the served bytes
            # are identical on every deterministic endpoint.
            assert [m.snapshot_id for m in follower.snapshots()] == [
                m.snapshot_id for m in store.snapshots()
            ]
            with ClassificationServer(follower) as fserver:
                fserver.start()
                with ServiceClient(fserver.url) as fclient:
                    for target in identity_targets(engine):
                        assert fclient.get(target) == client.get(target), target

    def test_second_sync_is_a_noop(self, tmp_path, leader_served):
        _, _, _, client = leader_served
        with SnapshotStore(tmp_path / "follower.db") as follower:
            syncer = ReplicaSyncer(client, follower)
            syncer.sync_once()
            again = syncer.sync_once()
            assert again.applied == 0 and again.deduplicated == 0
            assert again.caught_up

    def test_follower_tracks_ongoing_leader_writes(self, tmp_path, leader_served):
        engine, store, _, client = leader_served
        with SnapshotStore(tmp_path / "follower.db") as follower:
            syncer = ReplicaSyncer(client, follower)
            syncer.sync_once()
            drained = StreamEngine(StreamConfig(window=WindowSpec(size=100)))
            attach_store(drained, store)
            drained.run(MemorySource(feed(8, start=3200)))
            report = syncer.sync_once()
            assert report.applied == len(drained.snapshots)
            assert follower.applied_generation() == store.generation()
            assert len(follower) == len(store)

    def test_killed_follower_resumes_exactly_once(self, tmp_path, leader_served):
        """The acceptance invariant: a kill mid-sync appends no duplicates."""
        engine, store, server, _ = leader_served

        class DyingClient(ServiceClient):
            """Dies (like a SIGKILL would) after serving two pages."""

            pages = 0

            def replication_changes(self, **kwargs):
                if DyingClient.pages >= 2:
                    raise ServiceError(503, "follower process killed")
                DyingClient.pages += 1
                return super().replication_changes(**kwargs)

        path = tmp_path / "follower.db"
        with SnapshotStore(path) as follower:
            with DyingClient(server.url) as dying:
                with pytest.raises(ServiceError):
                    ReplicaSyncer(dying, follower, page_size=3).sync_once()
            applied_before_kill = follower.applied_generation()
            assert 0 < len(follower) < len(store)
            assert applied_before_kill == follower.snapshots()[-1].generation

        # "Restart": a fresh process opens the same store and resumes from
        # the durably recorded generation.
        with SnapshotStore(path) as restarted:
            assert restarted.applied_generation() == applied_before_kill
            with ServiceClient(server.url) as client:
                report = ReplicaSyncer(client, restarted, page_size=3).sync_once()
            assert report.caught_up
            keys = Counter(
                (meta.kind, meta.window_start, meta.window_end)
                for meta in restarted.snapshots()
            )
            assert all(count == 1 for count in keys.values()), keys
            assert [
                (meta.snapshot_id, meta.kind, meta.window_start, meta.window_end)
                for meta in restarted.snapshots()
            ] == [
                (meta.snapshot_id, meta.kind, meta.window_start, meta.window_end)
                for meta in store.snapshots()
            ]

    def test_empty_follower_bootstraps_from_pruned_leader(self, tmp_path):
        with SnapshotStore(tmp_path / "leader.db", retention=3) as leader_store:
            engine = StreamEngine(StreamConfig(window=WindowSpec(size=100)))
            attach_store(engine, leader_store)
            engine.run(MemorySource(feed(32)))
            assert leader_store.pruned_through() > 0
            with ClassificationServer(leader_store) as server:
                server.start()
                with SnapshotStore(tmp_path / "follower.db") as follower:
                    with ServiceClient(server.url) as client:
                        report = ReplicaSyncer(client, follower).sync_once()
                    # The pruned prefix is gone everywhere; adopting the
                    # retained set as the seed *is* convergence.
                    assert report.caught_up
                    assert [m.snapshot_id for m in follower.snapshots()] == [
                        m.snapshot_id for m in leader_store.snapshots()
                    ]

    def test_retention_overtaking_a_lagging_follower_is_an_error(self, tmp_path):
        with SnapshotStore(tmp_path / "leader.db", retention=3) as leader_store:
            engine = StreamEngine(StreamConfig(window=WindowSpec(size=100)))
            attach_store(engine, leader_store)
            engine.run(MemorySource(feed(8)))
            with ClassificationServer(leader_store) as server:
                server.start()
                with SnapshotStore(tmp_path / "follower.db") as follower:
                    with ServiceClient(server.url) as client:
                        syncer = ReplicaSyncer(client, follower)
                        syncer.sync_once()
                        # The leader races far ahead; retention prunes
                        # windows the follower never fetched.
                        more = StreamEngine(StreamConfig(window=WindowSpec(size=100)))
                        attach_store(more, leader_store)
                        more.run(MemorySource(feed(32, start=800)))
                        assert leader_store.pruned_through() > follower.applied_generation()
                        with pytest.raises(ReplicationError, match="re-seed"):
                            syncer.sync_once()

    def test_compaction_generation_bump_fast_forwards(self, tmp_path, leader_served):
        _, store, _, client = leader_served
        with SnapshotStore(tmp_path / "follower.db") as follower:
            syncer = ReplicaSyncer(client, follower)
            syncer.sync_once()
            # A generation bump without new snapshots (compaction) must not
            # strand the follower behind forever, nor be a false gap.
            store.retention = len(store) - 2
            assert store.compact() == 2
            report = syncer.sync_once()
            assert report.caught_up
            assert follower.applied_generation() == store.generation()

    def test_run_survives_transient_leader_failures(self, tmp_path, leader):
        import threading

        engine, store = leader
        with SnapshotStore(tmp_path / "follower.db") as follower:
            syncer = ReplicaSyncer("http://127.0.0.1:9", follower)
            stop = threading.Event()
            reports = []

            def stop_after_first(report):
                reports.append(report)
                stop.set()

            # Leader down: run records the failure and keeps going...
            worker = threading.Thread(
                target=syncer.run,
                kwargs={"poll_interval": 0.05, "stop": stop, "on_sync": stop_after_first},
                daemon=True,
            )
            worker.start()
            deadline = threading.Event()
            for _ in range(100):
                if syncer.last_error is not None:
                    break
                deadline.wait(0.05)
            assert syncer.last_error is not None
            # ...and converges once a leader appears on a reachable URL.
            with ClassificationServer(store) as server:
                server.start()
                syncer.client = ServiceClient(server.url)
                worker.join(timeout=30)
                assert not worker.is_alive()
            assert reports and reports[0].applied == len(engine.snapshots)
            assert syncer.last_error is None

    def test_an_entry_without_columns_names_the_format_split(self, tmp_path):
        """A leader on the older changelog (per-AS payloads) is refused
        before anything is written, not half-applied."""

        class OlderLeader:
            def replication_changes(self, **_):
                entry = {"generation": 1, "snapshot_id": 1, "kind": "window",
                         "thresholds": [0.99] * 4, "payload": {"ases": {}}}
                return {"since": 0, "generation": 1, "horizon": 0, "changes": [entry],
                        "more": False}

        with SnapshotStore(tmp_path / "replica.db") as replica:
            with pytest.raises(ReplicationError, match="different formats"):
                ReplicaSyncer(OlderLeader(), replica).sync_once()
            assert (len(replica), replica.applied_generation()) == (0, 0)

    def test_rejects_bad_page_size(self, tmp_path):
        with SnapshotStore(tmp_path / "follower.db") as follower:
            with pytest.raises(ValueError):
                ReplicaSyncer("http://127.0.0.1:9", follower, page_size=0)

    def test_diverged_local_store_is_a_replication_error(self, tmp_path, leader_served):
        """A follower store holding locally-produced snapshots whose ids
        collide with the leader's surfaces as ReplicationError, not a raw
        StoreError traceback out of the sync loop."""
        engine, _, _, client = leader_served
        with SnapshotStore(tmp_path / "diverged.db") as diverged:
            local = StreamEngine(StreamConfig(window=WindowSpec(size=100)))
            local.run(MemorySource(feed(4, start=100_000)))
            for snapshot in local.snapshots:  # ids 1..N, different windows
                diverged.append_snapshot(snapshot)
            with pytest.raises(ReplicationError, match="diverged"):
                ReplicaSyncer(client, diverged).sync_once()


# ---------------------------------------------------------------------------------------
# Concurrent first opens
# ---------------------------------------------------------------------------------------
def _open_store_process(paths, results, start):
    """Child-process entry: for each of *paths*, wait at the *start* barrier,
    then open that store and report its length.

    Module-level so the spawn start method can import it.
    """
    for path in paths:
        try:
            start.wait(timeout=60)
            with SnapshotStore(path) as store:
                results.put(("ok", len(store)))
        except Exception as error:  # noqa: BLE001 - reported to the parent
            results.put(("error", repr(error)))


class TestConcurrentFirstOpen:
    def test_racing_first_opens_create_the_file_once(self, tmp_path):
        """Several processes first-opening one absent path (a fan-out worker
        fleet) serialise on the open's transaction: every open succeeds and
        the fresh file holds each meta row once.  A barrier lines the four
        opens up, and 16 fresh paths make the race likely to bite where the
        transaction is missing."""
        import multiprocessing

        paths = [str(tmp_path / f"contended-{index}.db") for index in range(16)]
        ctx = multiprocessing.get_context("spawn")
        results, start = ctx.Queue(), ctx.Barrier(4)
        processes = [
            ctx.Process(target=_open_store_process, args=(paths, results, start))
            for _ in range(4)
        ]
        for process in processes:
            process.start()
        outcomes = [results.get(timeout=60) for _ in range(4 * len(paths))]
        for process in processes:
            process.join(timeout=10)
        assert outcomes == [("ok", 0)] * len(outcomes), Counter(outcomes)
        for path in paths:
            connection = sqlite3.connect(path)
            try:
                keys = Counter(key for (key,) in connection.execute("SELECT key FROM meta"))
            finally:
                connection.close()
            assert (keys["schema_version"], keys["generation"]) == (1, 1), keys


def _digests(path):
    """Every snapshot's stored digest in *path*, by ascending id."""
    connection = sqlite3.connect(path)
    try:
        rows = connection.execute("SELECT digest FROM snapshots ORDER BY id")
        return [digest for (digest,) in rows]
    finally:
        connection.close()


# ---------------------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------------------
class TestCliReplicate:
    def test_replicate_once(self, tmp_path, leader_served, capsys):
        from repro.cli import main

        engine, store, server, _ = leader_served
        replica_path = tmp_path / "replica.db"
        assert (
            main(["replicate", "--from", server.url, "--store", str(replica_path), "--once"])
            == 0
        )
        err = capsys.readouterr().err
        assert f"applied {len(engine.snapshots)} snapshots" in err
        with SnapshotStore(replica_path) as replica:
            assert len(replica) == len(store)
            assert replica.applied_generation() == store.generation()

    def test_replicate_unreachable_leader_fails(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            [
                "replicate",
                "--from",
                "http://127.0.0.1:9",
                "--store",
                str(tmp_path / "replica.db"),
                "--once",
            ]
        )
        assert rc == 1
        assert "leader unreachable" in capsys.readouterr().err

    @pytest.mark.parametrize("url", ["memory:", ":memory:"])
    def test_in_memory_replica_cannot_serve_a_fleet(self, url, leader_served, capsys):
        """Worker processes cannot open an in-process store: one error line,
        rc 1, before the first sync reaches the leader."""
        from repro.cli import main

        _, _, server, _ = leader_served
        argv = ["replicate", "--from", server.url, "--store", url]
        rc = main(argv + ["--serve", "--http-workers", "2", "--port", "0"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: --http-workers 2: worker processes need a file-backed store, not {url!r}"
        ]
        assert server.service.stats.requests == 0
