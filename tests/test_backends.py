"""Conformance suite for the snapshot store.

The serving, publishing and replication stacks use one store,
:class:`~repro.service.backends.sqlite.SnapshotStore`.  The suite runs each
contract assertion against it (on a file and in ``:memory:``, each with and
without an archive) and against the dict-based
:class:`~tests.store_oracle.ReferenceStore` it is held to, then pins what
the cold tier and the replication layer add on top:

* a ``memory:`` follower and a reference-store follower converge
  byte-identically on a SQLite leader;
* an archived store serves windows beyond the retention cap byte-identically
  to what its hot file served before they were archived;
* the archive's digests catch a changed byte on every read and in
  ``repro archive verify``; a demotion cut short after the archive's commit
  is read once per snapshot and finished once; a second process's view sees
  fresh demotions; and a directory of the older segment archive is refused.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sqlite3
import threading
import zlib
from contextlib import closing

import pytest

from repro.cli import main
from repro.service import (
    ClassificationServer,
    ClassificationService,
    FencedWriterError,
    ReplicaSyncer,
    SnapshotStore,
    StoreError,
    open_store,
    parse_store_url,
    snapshot_payload,
)
from repro.service.backends import ARCHIVE_DB, open_archive
from repro.service.backends import base as base_module
from repro.service.backends import sqlite as sqlite_module
from repro.service.backends.base import snapshot_record
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
    snapshots stay queryable (archived flavours) or are gone (plain ones).
    """
    counter = itertools.count()
    opened = []

    def make(retention=None):
        serial = next(counter)
        url = "memory:" if request.param.endswith("memory") else tmp_path / f"store{serial}.db"
        if request.param == "reference":
            backend = ReferenceStore(retention=retention)
        elif request.param.startswith("tiered"):
            backend = open_store(
                url, retention=retention, archive_dir=tmp_path / f"archive{serial}"
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
            # Archived: nothing is lost; old windows fall through to cold.
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

    def test_archive_dir_opens_the_cold_tier(self, tmp_path):
        with open_store(
            tmp_path / "hot.db", retention=2, archive_dir=tmp_path / "cold"
        ) as store:
            assert isinstance(store, SnapshotStore)
            assert store.retention == 2
            assert (tmp_path / "cold" / ARCHIVE_DB).exists()
            stats = store.stats()
            # The cap archives: the hot file reports no cap of its own.
            assert (stats["backend"], stats["retention"]) == ("tiered", 2)
            assert stats["hot"]["retention"] is None

    def test_bad_urls(self):
        with pytest.raises(ValueError):
            parse_store_url("sqlite:")
        with pytest.raises(ValueError):
            parse_store_url("memory:named")


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
# Tiered archive: beyond-retention serving, the cold store's digests, demotion
# ---------------------------------------------------------------------------------------
class BlobSpy:
    """Stands in for ``zlib`` in the store modules and records every blob
    they decompress (column decodes and the distinct-AS scan alike)."""

    compress = staticmethod(zlib.compress)

    def __init__(self, monkeypatch):
        self.blobs = []
        for module in (base_module, sqlite_module):
            monkeypatch.setattr(module, "zlib", self)

    def decompress(self, blob, *args):
        self.blobs.append(bytes(blob))
        return zlib.decompress(blob, *args)

    def decompressobj(self):
        spy, inner = self, zlib.decompressobj()

        class Recording:
            def decompress(self, blob, *args):
                spy.blobs.append(bytes(blob))
                return inner.decompress(blob, *args)

        return Recording()


def archived_ids(archive_dir):
    """The snapshot ids the archive under *archive_dir* holds."""
    with open_archive(archive_dir) as archive:
        return [meta.snapshot_id for meta in archive.snapshots()]


def hot_ids(path):
    """The snapshot ids the store file at *path* holds itself."""
    with open_store(path) as hot:
        return [meta.snapshot_id for meta in hot.snapshots()]


def cold_blobs(archive_dir):
    """Every column blob in the cold store under *archive_dir*."""
    with closing(sqlite3.connect(archive_dir / ARCHIVE_DB)) as connection:
        return {blob for (blob,) in connection.execute("SELECT columns FROM snapshot_columns")}


def flip_one_byte(value):
    """*value* (text or blob) with the low bit of its middle byte flipped."""
    raw = bytearray(value.encode() if isinstance(value, str) else value)
    raw[len(raw) // 2] ^= 1
    return raw.decode() if isinstance(value, str) else bytes(raw)


#: Per corrupted field: read one cold snapshot's value (plus the rest of its
#: row key), then write it back with one byte flipped.
FLIPS = {
    "columns": (
        "SELECT columns FROM snapshot_columns WHERE snapshot_id = ?",
        "UPDATE snapshot_columns SET columns = ? WHERE snapshot_id = ?",
    ),
    "kind": (
        "SELECT kind FROM snapshots WHERE id = ?",
        "UPDATE snapshots SET kind = ? WHERE id = ?",
    ),
    "new_code": (
        "SELECT new_code, asn FROM changes WHERE snapshot_id = ? ORDER BY asn LIMIT 1",
        "UPDATE changes SET new_code = ? WHERE snapshot_id = ? AND asn = ?",
    ),
}


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
            assert len(hot_ids(tmp_path / "hot.db")) == 2 and len(tiered) == 6
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
                # ... sees later demotions: each read is a fresh WAL read
                # of both stores.
                for snapshot in snapshots[3:]:
                    producer.append_snapshot(snapshot)
                assert len(worker) == 5
                for index, meta in enumerate(worker.snapshots()):
                    assert snapshot_payload(worker.load_snapshot(meta.snapshot_id)) == (
                        snapshot_payload(snapshots[index])
                    )

    @pytest.mark.parametrize("field", sorted(FLIPS))
    def test_archive_verify_detects_corruption(self, tmp_path, field, capsys):
        """One byte flipped in the cold copy of a snapshot -- in its column
        blob, its metadata or its change set -- fails that snapshot's digest:
        ``verify()`` and ``repro archive verify`` report it, and every cold
        read of it raises."""
        with open_store(
            tmp_path / "hot.db", retention=1, archive_dir=tmp_path / "cold"
        ) as store:
            for snapshot in build_snapshots(3):
                store.append_snapshot(snapshot)
        with open_archive(tmp_path / "cold") as archive:
            first = archive.snapshots()[0].snapshot_id
            assert archive.verify() == []
        select, update = FLIPS[field]
        with closing(sqlite3.connect(tmp_path / "cold" / ARCHIVE_DB)) as connection:
            with connection:
                value, *key = connection.execute(select, (first,)).fetchone()
                connection.execute(update, (flip_one_byte(value), first, *key))
        with open_archive(tmp_path / "cold") as archive:
            (problem,) = archive.verify()
            assert f"snapshot {first} does not match its digest" in problem
        with open_store(tmp_path / "hot.db", archive_dir=tmp_path / "cold") as tiered:
            for read in (tiered.load_snapshot, tiered.changes):
                with pytest.raises(StoreError, match="does not match its digest"):
                    read(first)
            with pytest.raises(StoreError, match="does not match its digest"):
                tiered.as_history(20)
        assert main(["archive", str(tmp_path / "cold"), "verify"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"error: snapshot {first} does not match its digest")
        assert len(err) == 2

    def test_crash_between_archive_and_delete_redemotes_once(self, tmp_path, monkeypatch):
        """A demotion that committed a snapshot's archive copy but died before
        its hot rows were deleted takes the append with it (one transaction)
        and is finished by the next removal: the re-append under the pinned
        id writes nothing, and every snapshot ends up once, in one tier,
        with its bytes."""
        snapshots = build_snapshots(4)
        with open_store(
            tmp_path / "hot.db", retention=1, archive_dir=tmp_path / "cold"
        ) as tiered:
            for snapshot in snapshots[:2]:
                tiered.append_snapshot(snapshot)

            def crash(connection, snapshot_ids):
                raise RuntimeError(f"killed before deleting hot snapshots {snapshot_ids}")

            monkeypatch.setattr(tiered, "_delete_snapshot_rows", crash)
            with pytest.raises(RuntimeError, match="killed"):
                tiered.append_snapshot(snapshots[2])
        assert archived_ids(tmp_path / "cold") == [1, 2]
        assert hot_ids(tmp_path / "hot.db") == [2]
        with open_archive(tmp_path / "cold") as archive:
            cold_generation = archive.generation()
        with open_store(
            tmp_path / "hot.db", retention=1, archive_dir=tmp_path / "cold"
        ) as reopened:
            assert [meta.snapshot_id for meta in reopened.snapshots()] == [1, 2]
            for snapshot in snapshots[2:]:  # the producer re-emits the failed window
                reopened.append_snapshot(snapshot, if_absent=True)
            assert len(reopened) == 4
            for meta, snapshot in zip(reopened.snapshots(), snapshots):
                assert snapshot_payload(reopened.load_snapshot(meta.snapshot_id)) == (
                    snapshot_payload(snapshot)
                )
        assert archived_ids(tmp_path / "cold") == [1, 2, 3]
        assert hot_ids(tmp_path / "hot.db") == [4]
        with open_archive(tmp_path / "cold") as archive:
            # Snapshot 2's second append wrote nothing; snapshot 3's did.
            assert archive.generation() == cold_generation + 1
            assert archive.verify() == []

    def test_a_cut_short_demotion_is_read_once(self, tmp_path):
        """Snapshot 2 committed to the archive while its hot copy stayed (the
        state a demotion cut short between the two leaves behind).  A store
        opened on it and never appended to -- a serving process -- counts
        every snapshot once on every read; the next append leaves each id
        in one tier."""
        snapshots = build_snapshots(4)
        with open_store(tmp_path / "hot.db") as hot:
            for snapshot in snapshots[:3]:
                hot.append_snapshot(snapshot)
            assert hot.drop_snapshot(1)
        with open_archive(tmp_path / "cold") as archive:
            for snapshot_id, snapshot in enumerate(snapshots[:2], start=1):
                archive.append_snapshot(snapshot, snapshot_id=snapshot_id)
        with open_store(
            tmp_path / "hot.db", retention=1, archive_dir=tmp_path / "cold"
        ) as store:
            assert len(store) == 3
            assert [meta.snapshot_id for meta in store.snapshots()] == [1, 2, 3]
            assert [entry.snapshot_id for entry in store.as_history(20)] == [3, 2, 1]
            assert [entry.snapshot_id for entry in store.as_history(20, limit=10)] == [3, 2, 1]
            assert [entry.snapshot_id for entry in store.as_history(20, limit=2)] == [3, 2]
            assert store.stats()["snapshots"] == 3
            service = ClassificationService(store)
            history = json.loads(service.handle("/v1/as/20?history=10").body)["history"]
            assert [entry["snapshot_id"] for entry in history] == [3, 2, 1]
            assert json.loads(service.handle("/v1/stats").body)["store"]["snapshots"] == 3
            store.append_snapshot(snapshots[3])
            assert [meta.snapshot_id for meta in store.snapshots()] == [1, 2, 3, 4]
        assert archived_ids(tmp_path / "cold") == [1, 2, 3]
        assert hot_ids(tmp_path / "hot.db") == [4]

    def test_cold_history_of_an_absent_as_decodes_no_blob(self, tmp_path, monkeypatch):
        """An AS the archive never held costs the cold store's index probe,
        not a decode of every archived snapshot."""
        with open_store(
            tmp_path / "hot.db", retention=1, archive_dir=tmp_path / "cold"
        ) as store:
            for snapshot in build_snapshots(6):
                store.append_snapshot(snapshot)
        with open_store(tmp_path / "hot.db", archive_dir=tmp_path / "cold") as tiered:
            spy = BlobSpy(monkeypatch)
            assert tiered.as_history(9999, limit=10) == []
            assert spy.blobs == []
            assert len(tiered.as_history(20, limit=10)) == 6  # present: the 5 cold decode
            assert len(set(spy.blobs) & cold_blobs(tmp_path / "cold")) == 5

    def test_stats_after_a_demotion_decodes_no_cold_blob(self, tmp_path, monkeypatch):
        with open_store(
            tmp_path / "hot.db", retention=1, archive_dir=tmp_path / "cold"
        ) as tiered:
            for snapshot in build_snapshots(4):
                tiered.append_snapshot(snapshot)
            spy = BlobSpy(monkeypatch)
            stats = tiered.stats()
            assert spy.blobs  # the hot tier's distinct-AS count did run
            assert not set(spy.blobs) & cold_blobs(tmp_path / "cold")
        assert stats["snapshots"] == 4 and stats["hot"]["snapshots"] == 1
        assert set(stats["archive"]) == {"path", "snapshots", "size_bytes"}
        assert stats["archive"]["snapshots"] == 3
        assert stats["archive"]["path"] == str(tmp_path / "cold" / ARCHIVE_DB)
        assert stats["archive"]["size_bytes"] > 0

    def test_archive_cli(self, tmp_path, capsys):
        with open_store(
            tmp_path / "hot.db", retention=1, archive_dir=tmp_path / "cold"
        ) as store:
            for snapshot in build_snapshots(3):
                store.append_snapshot(snapshot)
        assert main(["archive", str(tmp_path / "cold"), "list"]) == 0
        out = capsys.readouterr().out
        assert "2 archived snapshots" in out and "ids 1..2" in out
        assert main(["archive", str(tmp_path / "cold"), "verify"]) == 0
        assert ": OK" in capsys.readouterr().out
        assert main(["archive", str(tmp_path / "cold"), "compact"]) == 0
        assert main(["archive", str(tmp_path / "cold"), "verify"]) == 0
        assert main(["archive", str(tmp_path / "missing"), "verify"]) == 1


class TestSegmentDirectoryRefused:
    """A directory of the older JSON-lines segment archive is refused, never read."""

    @pytest.fixture()
    def older(self, tmp_path):
        """A hot store plus an archive directory holding one segment file, a
        line of the last segment format (a format-2 record and its sha256)."""
        with SnapshotStore(tmp_path / "hot.db") as store:
            for snapshot in build_snapshots(2):
                store.append_snapshot(snapshot)
            record = snapshot_record(store.get(1), store.load_snapshot(1))
        canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
        line = {"record": record, "sha256": hashlib.sha256(canonical.encode()).hexdigest()}
        (tmp_path / "cold").mkdir()
        segment = tmp_path / "cold" / "segment-000001.jsonl"
        segment.write_text(json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n")
        return tmp_path, f"archive directory {tmp_path / 'cold'} holds {segment.name}"

    def test_opening_the_archive_names_the_segment_file(self, older):
        tmp_path, where = older
        for opening in (
            lambda: open_archive(tmp_path / "cold"),
            lambda: open_store(tmp_path / "hot.db", archive_dir=tmp_path / "cold"),
        ):
            with pytest.raises(StoreError) as excinfo:
                opening()
            assert str(excinfo.value).startswith(where)
        assert not (tmp_path / "cold" / ARCHIVE_DB).exists()

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


class TestUnreadableStoreFile:
    """A store or archive file that is not a SQLite database is one
    ``error:`` line, also when workers would open it."""

    @pytest.mark.parametrize(
        "argv",
        [["archive", "{cold}", "verify"],
         ["serve", "--store", "{garbage}", "--port", "0"],
         ["serve", "--store", "{garbage}", "--port", "0", "--http-workers", "2"],
         ["serve", "--store", "{hot}", "--archive-dir", "{cold}", "--port", "0",
          "--http-workers", "2"]],
        ids=["archive-verify", "serve", "serve-fleet", "serve-fleet-archive"],
    )
    def test_cli_prints_one_error_line(self, tmp_path, argv, capsys):
        with SnapshotStore(tmp_path / "hot.db") as store:
            store.append_snapshot(build_snapshots(1)[0])
        (tmp_path / "cold").mkdir()
        for garbage in (tmp_path / "garbage.db", tmp_path / "cold" / ARCHIVE_DB):
            garbage.write_bytes(b"not a database " * 400)
        paths = {
            name: str(path)
            for name, path in (("cold", tmp_path / "cold"), ("hot", tmp_path / "hot.db"),
                               ("garbage", tmp_path / "garbage.db"))
        }
        assert main([arg.format(**paths) for arg in argv]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: store '") and "is unreadable" in line
