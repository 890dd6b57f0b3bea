"""Backend-conformance suite for the pluggable storage layer.

Every :class:`~repro.service.backends.base.SnapshotBackend` implementation
must honour the same contract -- the serving, publishing, and replication
stacks are written against it, not against SQLite.  The suite runs each
contract assertion against every backend (SQLite on a file and in
``:memory:``, each bare and tiered) and against the dict-based
:class:`~tests.store_oracle.ReferenceStore` the SQLite store is held to,
then pins the cross-backend guarantees the tiers and the replication layer
add on top:

* a ``memory:`` follower and a reference-store follower converge
  byte-identically on a SQLite leader;
* a tiered store serves windows beyond the retention cap byte-identically
  to what the hot store served before archival demoted them;
* archive segments are checksummed, verifiable, and compactable, and a
  second process's archive view picks up fresh demotions via refresh.
"""

from __future__ import annotations

import itertools
import json
import threading

import pytest

from repro.cli import main
from repro.service import (
    ClassificationServer,
    ClassificationService,
    FencedWriterError,
    ReplicaSyncer,
    SnapshotArchive,
    SnapshotStore,
    StoreError,
    TieredBackend,
    open_store,
    parse_store_url,
    snapshot_payload,
)
from repro.service.backends import archive as archive_module
from repro.service.backends.base import RecordFormatError
from repro.stream import MemorySource, StreamConfig, StreamEngine, WindowSpec
from tests.store_oracle import ReferenceStore
from tests.test_stream import observation


def build_snapshots(count=5, *, size=100):
    """Drain a small stream run and return its *count* window snapshots."""
    events = []
    for index in range(count):
        base = index * size + 5
        events.append(observation([10 + index, 20], [f"{10 + index}:1"], timestamp=base))
        events.append(observation([20], [], timestamp=base + 10))
    captured = []
    engine = StreamEngine(
        StreamConfig(window=WindowSpec(size=size)), on_window=captured.append
    )
    engine.run(MemorySource(events))
    assert len(captured) == count
    return captured


@pytest.fixture(
    params=["sqlite", "sqlite-memory", "tiered-sqlite", "tiered-sqlite-memory", "reference"]
)
def make_backend(request, tmp_path):
    """A factory of fresh backends of one flavour (closed by the caller).

    ``make.archives`` tells retention-sensitive assertions whether pruned
    snapshots stay queryable (tiered flavours) or are gone (plain ones).
    """
    counter = itertools.count()
    opened = []

    def make(retention=None):
        serial = next(counter)
        url = "memory:" if request.param.endswith("memory") else tmp_path / f"store{serial}.db"
        if request.param == "reference":
            backend = ReferenceStore(retention=retention)
        elif request.param.startswith("tiered"):
            backend = TieredBackend(
                open_store(url), tmp_path / f"archive{serial}", retention=retention
            )
        else:
            backend = open_store(url, retention=retention)
        opened.append(backend)
        return backend

    make.archives = request.param.startswith("tiered")
    yield make
    for backend in opened:
        try:
            backend.close()
        except Exception:
            pass


# ---------------------------------------------------------------------------------------
# The contract, backend by backend
# ---------------------------------------------------------------------------------------
class TestConformance:
    def test_empty_backend(self, make_backend):
        store = make_backend()
        assert len(store) == 0
        assert store.latest() is None
        assert store.generation() == 0
        assert store.pruned_through() == 0
        assert store.applied_generation() == 0
        assert store.latest_window_end() is None
        assert store.snapshots() == []
        assert store.as_latest(10) is None

    def test_url_scheme_parses(self, make_backend):
        store = make_backend()
        if isinstance(store, ReferenceStore):
            pytest.skip("the reference store has no URL a production store opens")
        hot_url = store.url.split("+", 1)[0]
        with open_store(hot_url) as reopened:
            assert isinstance(reopened, SnapshotStore)
            assert reopened.url == hot_url

    def test_round_trip_fidelity(self, make_backend):
        store = make_backend()
        snapshots = build_snapshots(3)
        ids = [store.append_snapshot(snapshot) for snapshot in snapshots]
        for snapshot, snapshot_id in zip(snapshots, ids):
            loaded = store.load_snapshot(snapshot_id)
            assert snapshot_payload(loaded) == snapshot_payload(snapshot)
            assert store.changes(snapshot_id) == snapshot.changed

    def test_leader_epoch_contract(self, make_backend):
        """Every backend persists the failover fence the same way: epoch 0
        at creation, monotonic bumps, stale-epoch appends fenced before any
        dedup can claim success, ``epoch=None`` opted out."""
        store = make_backend()
        assert store.leader_epoch() == 0
        assert store.stats()["leader_epoch"] == 0
        snapshots = build_snapshots(3)
        store.append_snapshot(snapshots[0])  # epoch=None: legacy writer
        store.append_snapshot(snapshots[1], epoch=0)
        assert store.bump_leader_epoch() == 1
        assert store.bump_leader_epoch() == 2
        assert store.leader_epoch() == 2
        generation = store.generation()
        with pytest.raises(FencedWriterError):
            store.append_snapshot(snapshots[2], epoch=1)
        # The fenced write landed nothing and moved nothing.
        assert len(store) == 2 and store.generation() == generation
        # Fencing outranks dedup: re-offering a held window is still fenced.
        with pytest.raises(FencedWriterError):
            store.append_snapshot(snapshots[0], if_absent=True, epoch=0)
        store.append_snapshot(snapshots[2], epoch=2)
        assert len(store) == 3
        assert store.stats()["leader_epoch"] == 2

    def test_generation_monotonic_across_writes(self, make_backend):
        store = make_backend()
        seen = [store.generation()]
        for snapshot in build_snapshots(4):
            store.append_snapshot(snapshot)
            seen.append(store.generation())
        assert seen == sorted(seen) and len(set(seen)) == len(seen)

    def test_append_if_absent_is_idempotent(self, make_backend):
        store = make_backend()
        first, second = build_snapshots(2)
        original = store.append_snapshot(first)
        generation = store.generation()
        assert store.append_snapshot(first, if_absent=True) == original
        assert store.generation() == generation  # dedup moves nothing
        assert len(store) == 1
        assert store.append_snapshot(second, if_absent=True) != original
        assert store.generation() > generation

    def test_pinned_snapshot_ids(self, make_backend):
        store = make_backend()
        first, second = build_snapshots(2)
        assert store.append_snapshot(first, snapshot_id=7) == 7
        # Re-pinning the same window on the same id is a no-op.
        assert store.append_snapshot(first, snapshot_id=7) == 7
        assert len(store) == 1
        # A different window on a taken id is replica divergence.
        with pytest.raises(StoreError):
            store.append_snapshot(second, snapshot_id=7)
        # Auto-assigned ids continue past the pin (never reused).
        assert store.append_snapshot(second) == 8

    def test_ids_never_reused_after_drop(self, make_backend):
        store = make_backend()
        first, second = build_snapshots(2)
        dropped_id = store.append_snapshot(first)
        generation = store.generation()
        assert store.drop_snapshot(dropped_id) is True
        assert store.generation() > generation  # a drop is a committed write
        assert store.drop_snapshot(dropped_id) is False
        assert store.append_snapshot(second) > dropped_id

    def test_retention_caps_and_raises_horizon(self, make_backend):
        store = make_backend(retention=2)
        snapshots = build_snapshots(5)
        ids = [store.append_snapshot(snapshot) for snapshot in snapshots]
        # The replication feed (and the hot tier) hold at most the cap.
        assert len(store.snapshots_since(0)) == 2
        assert store.pruned_through() > 0
        assert store.latest().snapshot_id == ids[-1]
        if make_backend.archives:
            # Tiered: nothing is lost; old windows fall through to cold.
            assert len(store) == 5
            for snapshot, snapshot_id in zip(snapshots, ids):
                assert snapshot_payload(store.load_snapshot(snapshot_id)) == (
                    snapshot_payload(snapshot)
                )
        else:
            assert len(store) == 2
            with pytest.raises(StoreError):
                store.load_snapshot(ids[0])

    def test_window_lookups(self, make_backend):
        store = make_backend()
        snapshots = build_snapshots(3)
        ids = [store.append_snapshot(snapshot) for snapshot in snapshots]
        target = snapshots[1]
        assert store.by_window_end(target.window_end).snapshot_id == ids[1]
        assert store.by_window_end(999_999) is None
        found = store.find_window("window", target.window_start, target.window_end)
        assert found.snapshot_id == ids[1]
        assert store.find_window("batch", target.window_start, target.window_end) is None
        assert store.latest_window_end() == snapshots[-1].window_end
        assert store.latest_window_end("batch") is None

    def test_as_history_newest_first(self, make_backend):
        store = make_backend()
        for snapshot in build_snapshots(4):
            store.append_snapshot(snapshot)
        history = store.as_history(20)
        assert len(history) == 4
        assert [entry.snapshot_id for entry in history] == sorted(
            (entry.snapshot_id for entry in history), reverse=True
        )
        assert store.as_history(20, limit=2) == history[:2]
        assert store.as_latest(20) == history[0]
        assert store.as_history(9999) == []

    def test_applied_generation_is_monotonic(self, make_backend):
        store = make_backend()
        store.set_applied_generation(5)
        store.set_applied_generation(3)  # never moves backwards
        assert store.applied_generation() == 5
        with pytest.raises(ValueError):
            store.set_applied_generation(-1)

    def test_stats_common_keys(self, make_backend):
        store = make_backend(retention=3)
        for snapshot in build_snapshots(2):
            store.append_snapshot(snapshot)
        stats = store.stats()
        for key in ("backend", "generation", "snapshots", "retention", "pruned_through"):
            assert key in stats
        assert stats["snapshots"] == 2
        assert stats["retention"] == 3

    def test_concurrent_reader_during_writer(self, make_backend):
        store = make_backend(retention=4)
        snapshots = build_snapshots(12)
        changed_by_window = {snapshot.window_end: snapshot.changed for snapshot in snapshots}
        assert all(changed_by_window.values())  # an empty change set could not tear
        errors = []
        done = threading.Event()

        def read_loop():
            while not done.is_set():
                try:
                    latest = store.latest()
                    if latest is not None:
                        changed = store.changes(latest.snapshot_id)
                        # Still retained after the read, so it was retained
                        # during it: the change set must be whole, not one a
                        # writer is still inserting.
                        if store.get(latest.snapshot_id) is not None:
                            assert changed == changed_by_window[latest.window_end]
                        store.load_snapshot(latest.snapshot_id)
                        store.as_history(20, limit=3)
                except StoreError:
                    pass  # pruned mid-read: allowed, never a torn snapshot
                except Exception as error:  # noqa: BLE001 - the assertion
                    errors.append(error)
                    return

        readers = [threading.Thread(target=read_loop) for _ in range(3)]
        for reader in readers:
            reader.start()
        try:
            for snapshot in snapshots:
                store.append_snapshot(snapshot)
        finally:
            done.set()
            for reader in readers:
                reader.join(timeout=10)
        assert errors == []
        assert store.latest().window_end == snapshots[-1].window_end


# ---------------------------------------------------------------------------------------
# open_store URL dispatch
# ---------------------------------------------------------------------------------------
class TestOpenStore:
    def test_plain_path_is_sqlite(self, tmp_path):
        with open_store(tmp_path / "plain.db") as store:
            assert isinstance(store, SnapshotStore)
            assert store.url == f"sqlite:{tmp_path / 'plain.db'}"

    def test_sqlite_scheme(self, tmp_path):
        with open_store(f"sqlite:{tmp_path / 'explicit.db'}") as store:
            assert isinstance(store, SnapshotStore)

    def test_memory_scheme(self):
        with open_store("memory:", retention=3) as store:
            assert isinstance(store, SnapshotStore)
            assert store.url == "sqlite::memory:"
            assert store.retention == 3
            assert store.stats()["backend"] == "sqlite"

    def test_legacy_memory_spelling_is_sqlite(self):
        with open_store(":memory:") as store:
            assert isinstance(store, SnapshotStore)

    def test_archive_dir_builds_tiered(self, tmp_path):
        with open_store(
            tmp_path / "hot.db", retention=2, archive_dir=tmp_path / "cold"
        ) as store:
            assert isinstance(store, TieredBackend)
            assert store.retention == 2
            assert store.hot.retention is None  # cap lives on the wrapper

    def test_bad_urls(self):
        with pytest.raises(ValueError):
            parse_store_url("sqlite:")
        with pytest.raises(ValueError):
            parse_store_url("memory:named")

    def test_tiered_rejects_capped_hot(self, tmp_path):
        with open_store(tmp_path / "capped.db", retention=1) as hot:
            with pytest.raises(ValueError):
                TieredBackend(hot, tmp_path / "cold")


# ---------------------------------------------------------------------------------------
# Replication across heterogeneous backends
# ---------------------------------------------------------------------------------------
class TestHeterogeneousReplication:
    @pytest.mark.parametrize(
        "make_follower",
        [ReferenceStore, lambda: open_store("memory:")],
        ids=["reference", "memory-url"],
    )
    def test_follower_converges_byte_identically_on_sqlite_leader(
        self, tmp_path, make_follower
    ):
        leader = SnapshotStore(tmp_path / "leader.db")
        snapshots = build_snapshots(4)
        for snapshot in snapshots:
            leader.append_snapshot(snapshot)
        follower = make_follower()
        with leader, follower, ClassificationServer(leader) as server:
            server.start()
            syncer = ReplicaSyncer(server.url, follower, page_size=2)
            report = syncer.sync_once()
            assert report.applied == 4 and report.caught_up
            leader_service = ClassificationService(leader)
            follower_service = ClassificationService(follower)
            targets = ["/v1/snapshot/latest", "/v1/diff", "/v1/as/20?history=10"]
            targets += [f"/v1/snapshot/{s.window_end}" for s in snapshots]
            for target in targets:
                assert leader_service.handle(target) == follower_service.handle(target)
            syncer.client.close()


# ---------------------------------------------------------------------------------------
# Tiered archive: beyond-retention serving and segment maintenance
# ---------------------------------------------------------------------------------------
class TestTieredArchive:
    def test_beyond_retention_reads_are_byte_identical(self, tmp_path):
        """The acceptance criterion: a window older than the cap serves the
        exact bytes the hot store served before archival demoted it."""
        snapshots = build_snapshots(6)
        with open_store(tmp_path / "reference.db") as reference, open_store(
            tmp_path / "hot.db", retention=2, archive_dir=tmp_path / "cold"
        ) as tiered:
            reference_service = ClassificationService(reference)
            tiered_service = ClassificationService(tiered)
            expected = {}
            for snapshot in snapshots:
                # Capture the reference body while every window is still hot.
                reference.append_snapshot(snapshot)
                target = f"/v1/snapshot/{snapshot.window_end}"
                expected[target] = reference_service.handle(target)
                tiered.append_snapshot(snapshot)
            assert len(tiered.hot) == 2 and len(tiered) == 6
            for target, body in expected.items():
                assert tiered_service.handle(target) == body
            # Cold per-AS history spans the full run, not just the hot cap.
            body = tiered_service.handle("/v1/as/20?history=10").body
            assert len(json.loads(body)["history"]) == 6

    def test_archive_survives_reopen_and_refresh(self, tmp_path):
        snapshots = build_snapshots(5)
        with open_store(
            tmp_path / "hot.db", retention=1, archive_dir=tmp_path / "cold"
        ) as producer:
            for snapshot in snapshots[:3]:
                producer.append_snapshot(snapshot)
            # A second process's view (a serving worker) opened mid-run ...
            with open_store(
                tmp_path / "hot.db", retention=1, archive_dir=tmp_path / "cold"
            ) as worker:
                assert len(worker) == 3
                # ... sees later demotions: the hot generation moves, so the
                # tiered view re-scans the archive tail.
                for snapshot in snapshots[3:]:
                    producer.append_snapshot(snapshot)
                assert len(worker) == 5
                for index, meta in enumerate(worker.snapshots()):
                    assert snapshot_payload(worker.load_snapshot(meta.snapshot_id)) == (
                        snapshot_payload(snapshots[index])
                    )

    @pytest.mark.parametrize("field", ["columns", "kind"])
    def test_archive_verify_detects_corruption(self, tmp_path, field):
        """One character flipped inside the record -- in the base64 column
        blob or in the metadata -- fails the checksum on every read."""
        with open_store(
            tmp_path / "hot.db", retention=1, archive_dir=tmp_path / "cold"
        ) as store:
            for snapshot in build_snapshots(3):
                store.append_snapshot(snapshot)
        archive = SnapshotArchive(tmp_path / "cold")
        assert archive.verify() == []
        segment = tmp_path / "cold" / archive.segments()[0]["segment"]
        raw = bytearray(segment.read_bytes())
        flip = raw.index(f'"{field}":"'.encode()) + len(field) + 8  # inside the value
        raw[flip] = ord("A") if raw[flip] != ord("A") else ord("B")
        segment.write_bytes(bytes(raw))
        corrupted = SnapshotArchive(tmp_path / "cold")
        (problem,) = corrupted.verify()
        assert "checksum mismatch" in problem
        first = corrupted.ids()[0]
        with pytest.raises(StoreError, match="checksum mismatch"):
            corrupted.load(first)
        with open_store(tmp_path / "hot.db", archive_dir=tmp_path / "cold") as tiered:
            with pytest.raises(StoreError, match="checksum mismatch"):
                tiered.load_snapshot(first)

    def test_segment_counts_follow_append_refresh_and_compact(self, tmp_path, monkeypatch):
        """Where an append goes is decided by a per-segment count, not a scan:
        it must agree with the lines on disk in the writer and in a second
        reader, across segment roll-overs and a compaction."""

        def assert_counts_match_lines(archive):
            segments = archive.segments()
            for segment in segments:
                lines = (archive.root / segment["segment"]).read_bytes().count(b"\n")
                assert segment["records"] == lines, segment
            assert sum(segment["records"] for segment in segments) == len(archive)

        monkeypatch.setattr(archive_module, "SEGMENT_RECORDS", 3)
        snapshots = build_snapshots(11)
        archive = SnapshotArchive(tmp_path / "cold")
        with open_store(tmp_path / "hot.db") as hot:
            tiered = TieredBackend(hot, archive, retention=1)
            for snapshot in snapshots[:3]:
                tiered.append_snapshot(snapshot)
            reader = SnapshotArchive(tmp_path / "cold")
            for snapshot in snapshots[3:9]:
                tiered.append_snapshot(snapshot)
            assert [segment["records"] for segment in archive.segments()] == [3, 3, 2]
            reader.refresh()
            for view in (archive, reader):
                assert_counts_match_lines(view)
            monkeypatch.setattr(archive_module, "SEGMENT_RECORDS", 5)
            archive.compact()
            assert [segment["records"] for segment in archive.segments()] == [5, 3]
            assert_counts_match_lines(archive)
            for snapshot in snapshots[9:]:
                tiered.append_snapshot(snapshot)
            assert [segment["records"] for segment in archive.segments()] == [5, 5]
            assert_counts_match_lines(archive)
            assert SnapshotArchive(tmp_path / "cold").segments() == archive.segments()

    def test_truncated_tail_is_tolerated_and_rearchived(self, tmp_path):
        with open_store(
            tmp_path / "hot.db", retention=1, archive_dir=tmp_path / "cold"
        ) as store:
            for snapshot in build_snapshots(3):
                store.append_snapshot(snapshot)
        archive = SnapshotArchive(tmp_path / "cold")
        complete = len(archive)
        segment = tmp_path / "cold" / archive.segments()[-1]["segment"]
        raw = segment.read_bytes()
        segment.write_bytes(raw[: len(raw) - 20])  # crash mid-append
        reopened = SnapshotArchive(tmp_path / "cold")
        assert len(reopened) == complete - 1
        assert reopened.verify() == []

    def test_compact_coalesces_segments(self, tmp_path):
        archive = SnapshotArchive(tmp_path / "cold")
        with open_store(tmp_path / "hot.db") as hot:
            tiered = TieredBackend(hot, archive, retention=1)
            for snapshot in build_snapshots(5):
                tiered.append_snapshot(snapshot)
            before_ids = archive.ids()
            archive.compact()
            assert archive.verify() == []
            assert archive.ids() == before_ids
            for snapshot_id in before_ids:
                archive.load(snapshot_id)

    def test_archive_cli(self, tmp_path, capsys):
        with open_store(
            tmp_path / "hot.db", retention=1, archive_dir=tmp_path / "cold"
        ) as store:
            for snapshot in build_snapshots(3):
                store.append_snapshot(snapshot)
        assert main(["archive", str(tmp_path / "cold"), "list"]) == 0
        assert "2 archived snapshots" in capsys.readouterr().out
        assert main(["archive", str(tmp_path / "cold"), "verify"]) == 0
        assert ": OK" in capsys.readouterr().out
        assert main(["archive", str(tmp_path / "cold"), "compact"]) == 0
        assert main(["archive", str(tmp_path / "missing"), "verify"]) == 1


#: A segment line verbatim as the archive wrote it before snapshot records
#: (format 2): the record nested the per-AS wire payload.
PAYLOAD_LINE = (
    '{"record":{"generation":1,"kind":"window","payload":{"algorithm":"column","ases":{"10":'
    '{"code":"tn","counters":{"cleaner":0,"forward":0,"silent":0,"tagger":1},"shares":'
    '{"cleaner":0.0,"forward":0.0,"silent":0.0,"tagger":1.0}},"20":{"code":"sn","counters":'
    '{"cleaner":0,"forward":0,"silent":1,"tagger":0},"shares":{"cleaner":0.0,"forward":0.0,'
    '"silent":1.0,"tagger":0.0}}},"changed":{"10":["nn","tn"],"20":["nn","sn"]},'
    '"events_total":2,"skipped_windows":0,"summary":{"ases_observed":2,"changed_ases":2,'
    '"cleaner":0,"events_total":2,"forward":0,"forwarding_none":2,"forwarding_undecided":0,'
    '"full_sc":0,"full_sf":0,"full_tc":0,"full_tf":0,"silent":1,"tagger":1,"tagging_none":0,'
    '"tagging_undecided":0,"unique_tuples":2,"window_end":100,"window_start":0},'
    '"unique_tuples":2,"window_end":100,"window_start":0},"snapshot_id":1,'
    '"thresholds":[0.99,0.99,0.99,0.99]},'
    '"sha256":"39c8217eed157eb16cc17950c1c0f7478abc998d21c4f4b9b29779e8ae98c88c"}\n'
)


class TestOlderArchiveFormat:
    """An archive line without ``"format": 2`` is refused, never read."""

    @pytest.fixture()
    def older(self, tmp_path):
        """A hot store plus an archive whose second line is in the older format."""
        with open_store(tmp_path / "hot.db", retention=1, archive_dir=tmp_path / "cold") as store:
            for snapshot in build_snapshots(2):
                store.append_snapshot(snapshot)
        (segment,) = (tmp_path / "cold").glob("segment-*.jsonl")
        offset = segment.stat().st_size
        with open(segment, "a") as handle:
            handle.write(PAYLOAD_LINE)
        where = f"archive line in {segment.name} at byte {offset}: snapshot record format None"
        return tmp_path, where

    def test_opening_the_archive_names_segment_offset_and_format(self, older):
        tmp_path, where = older
        with pytest.raises(RecordFormatError) as excinfo:
            SnapshotArchive(tmp_path / "cold")
        assert str(excinfo.value).startswith(where)
        assert isinstance(excinfo.value, StoreError)

    @pytest.mark.parametrize(
        "argv",
        [["archive", "{cold}", "list"], ["archive", "{cold}", "verify"],
         ["serve", "--store", "{hot}", "--archive-dir", "{cold}", "--port", "0"],
         ["serve", "--store", "{hot}", "--archive-dir", "{cold}", "--port", "0",
          "--http-workers", "2"]],
        ids=["archive-list", "archive-verify", "serve", "serve-fleet"],
    )
    def test_cli_prints_one_error_line(self, older, argv, capsys):
        tmp_path, where = older
        paths = {"cold": str(tmp_path / "cold"), "hot": str(tmp_path / "hot.db")}
        assert main([arg.format(**paths) for arg in argv]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {where}")
