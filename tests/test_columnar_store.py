"""The SQLite store's column layout (schema v3) against the reference backend.

A snapshot is one compressed column blob; per-AS reads probe the
``as_buckets`` index and go through a per-store cache of decoded columns keyed
on ``(snapshot_id, generation)``.
These tests drive :class:`SnapshotStore` -- on a file and in ``:memory:``,
where one shared connection serves every read under the write lock -- and
the dict-based :class:`~tests.store_oracle.ReferenceStore` through the same
seeded sequences of appends (auto and pinned ids, an id re-used after its
drop), retention prunes and drops, and require every read to agree after
every step: per-AS history at every limit, the wire payload of every loaded
snapshot, change sets and the ``stats()`` counts.
"""

from __future__ import annotations

import random
import sqlite3
import sys
import threading

import pytest
from column_oracle import CounterStore, result_from_store

from repro.core.classes import CLASS_CODES
from repro.core.thresholds import Thresholds
from repro.service import SnapshotStore, snapshot_payload
from repro.service.backends import sqlite as sqlite_backend
from repro.stream.engine import WindowSnapshot
from tests.store_oracle import ReferenceStore

#: The ASN edges a column must carry: 0, the 16/32-bit boundaries, the top.
EDGE_ASNS = (0, 1, 65535, 65536, 2**31, 4294967295)

#: Looked up after every step; the last three are never stored.
QUERIED_ASNS = EDGE_ASNS + (10, 20, 30, 777, -1, 2**64)

STAT_KEYS = ("snapshots", "as_records", "distinct_ases", "generation", "pruned_through")


def random_snapshot(rng: random.Random, window: int, *, empty: bool = False) -> WindowSnapshot:
    """One snapshot over a random subset of the ASN pool.

    Counters reach past 2**31 (and to 2**40); some observed ASes are never
    counted (all-zero rows); thresholds vary per snapshot so codes must be
    recomputed from the stored ones.
    """
    pool = list(EDGE_ASNS) + [10, 20, 30] + [rng.randrange(1, 2**32) for _ in range(4)]
    observed = set() if empty else set(rng.sample(pool, rng.randint(1, len(pool))))
    state = {}
    for asn in observed:
        if rng.random() < 0.8:
            scale = rng.choice((3, 1000, 2**31 + 5, 2**40))
            state[asn] = tuple(rng.randrange(0, scale) for _ in range(4))
    thresholds = Thresholds(*(rng.choice((0.99, 0.75, 0.6)) for _ in range(4)))
    result = result_from_store(
        CounterStore.from_state(state, thresholds),
        observed,
        algorithm=rng.choice(("column", "row")),
    )
    changed = {
        asn: (rng.choice(CLASS_CODES), rng.choice(CLASS_CODES))
        for asn in rng.sample(pool, rng.randint(0, 3))
    }
    return WindowSnapshot(
        window_start=window * 100,
        window_end=(window + 1) * 100,
        skipped_windows=rng.randint(0, 2),
        events_total=rng.randint(0, 10**6),
        unique_tuples=rng.randint(0, 10**4),
        result=result,
        changed=changed,
    )


@pytest.fixture(params=["file", "memory"])
def location(request, tmp_path):
    """Where the store held to the reference lives: a WAL file or ``:memory:``."""
    return tmp_path / "store.db" if request.param == "file" else ":memory:"


def assert_same_reads(store, reference) -> None:
    """Every read of *store* equals the reference backend's."""
    assert store.snapshots() == reference.snapshots()
    for meta in reference.snapshots():
        ident = meta.snapshot_id
        assert snapshot_payload(store.load_snapshot(ident)) == snapshot_payload(
            reference.load_snapshot(ident)
        )
        assert store.changes(ident) == reference.changes(ident)
    for asn in QUERIED_ASNS:
        full = reference.as_history(asn)
        assert store.as_history(asn) == full
        for limit in range(1, len(full) + 2):
            assert store.as_history(asn, limit=limit) == full[:limit]
        assert store.as_latest(asn) == reference.as_latest(asn)
    ours, theirs = store.stats(), reference.stats()
    assert {key: ours[key] for key in STAT_KEYS} == {key: theirs[key] for key in STAT_KEYS}


@pytest.mark.parametrize("bucket_bits", [6, 1])
@pytest.mark.parametrize("retention", [None, 3])
@pytest.mark.parametrize("seed", range(4))
def test_random_sequences_match_the_reference(location, monkeypatch, seed, retention, bucket_bits):
    """Width 1 puts two ids in a bucket: reads walk many buckets, and drops
    and prunes empty buckets or leave stale ASNs in live ones."""
    monkeypatch.setattr(sqlite_backend, "_BUCKET_BITS", bucket_bits)
    rng = random.Random(seed)
    store = SnapshotStore(location, retention=retention)
    reference = ReferenceStore(retention=retention)
    dropped = []
    try:
        for window in range(30):
            action = rng.random()
            held = [meta.snapshot_id for meta in reference.snapshots()]
            if action < 0.2 and held:
                victim = rng.choice(held)
                assert store.drop_snapshot(victim) and reference.drop_snapshot(victim)
                dropped.append(victim)
            else:
                snapshot = random_snapshot(rng, window, empty=action > 0.92)
                pinned = None
                if dropped and action < 0.45:
                    pinned = dropped.pop()  # an id re-used after its drop
                elif action < 0.3:
                    pinned = max(held, default=0) + rng.randint(1, 3)
                ids = {
                    backend.append_snapshot(snapshot, snapshot_id=pinned)
                    for backend in (store, reference)
                }
                assert len(ids) == 1
            assert_same_reads(store, reference)
    finally:
        store.close()
        reference.close()


def test_reused_pinned_id_is_never_served_from_a_stale_cache(tmp_path):
    """An id dropped and pinned again holds a new result: the cache entry of
    the old one (same id, older generation) must not answer for it."""
    rng = random.Random(7)
    first, second = random_snapshot(rng, 0), random_snapshot(rng, 1)
    with SnapshotStore(tmp_path / "reuse.db") as store:
        store.append_snapshot(first, snapshot_id=5)
        before = {asn: store.as_history(asn) for asn in QUERIED_ASNS}
        store.drop_snapshot(5)
        store.append_snapshot(second, snapshot_id=5)
        assert snapshot_payload(store.load_snapshot(5)) == snapshot_payload(second)
        records = {row[0]: row for row in second.result.records()}
        for asn in QUERIED_ASNS:
            history = store.as_history(asn)
            if asn in records:
                assert [entry.code for entry in history] == [records[asn][1]]
            else:
                assert history == []
        assert before != {asn: store.as_history(asn) for asn in QUERIED_ASNS}


def test_cache_stays_within_its_row_bound(location, monkeypatch):
    monkeypatch.setattr(sqlite_backend, "_CACHE_ROWS", 12)
    rng = random.Random(3)
    store = SnapshotStore(location)
    reference = ReferenceStore()
    try:
        for window in range(8):
            snapshot = random_snapshot(rng, window)
            store.append_snapshot(snapshot)
            reference.append_snapshot(snapshot)
            assert_same_reads(store, reference)
            cached = store._column_cache.values()
            assert store._cached_rows == sum(len(columns[0]) for columns, _ in cached)
            assert store._cached_rows <= 12 or len(store._column_cache) == 1
    finally:
        store.close()
        reference.close()


class CountingDecoder:
    """Stands in for ``_decode_columns`` and counts the blobs it decodes."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.decode = sqlite_backend._decode_columns
        monkeypatch.setattr(sqlite_backend, "_decode_columns", self)

    def __call__(self, rows, blob):
        self.calls += 1
        return self.decode(rows, blob)

    def during(self, read) -> int:
        before = self.calls
        read()
        return self.calls - before


def uniform_snapshot(window: int, asns) -> WindowSnapshot:
    state = {asn: (window + 1, 1, 2, 3) for asn in asns}
    result = result_from_store(CounterStore.from_state(state, Thresholds()), asns)
    return WindowSnapshot(window * 100, (window + 1) * 100, 0, 1, 1, result, {})


def test_reads_follow_the_ases_own_history_on_a_store_beyond_the_cache(tmp_path, monkeypatch):
    """Twenty snapshots of four rows against a cache of three snapshots: an
    AS the store never saw decodes nothing, an AS seen in one early snapshot
    decodes its bucket only, and full history walks never flush the newest
    snapshot that ``as_latest`` keeps hitting."""
    monkeypatch.setattr(sqlite_backend, "_CACHE_ROWS", 12)
    monkeypatch.setattr(sqlite_backend, "_BUCKET_BITS", 2)
    decoder = CountingDecoder(monkeypatch)
    with SnapshotStore(tmp_path / "large.db") as store:
        for window in range(20):
            store.append_snapshot(uniform_snapshot(window, [1, 2, 3, 100 + (window == 5)]))
        assert decoder.during(lambda: store.as_history(4242)) == 0
        assert decoder.during(lambda: store.as_latest(4294967295)) == 0
        rare = store.as_history(101)
        assert [entry.snapshot_id for entry in rare] == [6]
        assert decoder.during(lambda: store.as_history(101)) <= 4  # ids 4-7
        assert decoder.during(lambda: store.as_latest(1)) <= 1
        assert decoder.during(lambda: store.as_latest(1)) == 0
        walks = [decoder.during(lambda: store.as_history(2)) for _ in range(3)]
        assert walks[-1] < 20  # a repeated walk hits the entries it kept
        assert decoder.during(lambda: store.as_latest(3)) == 0
        assert [entry.counters.tagger for entry in store.as_history(2)] == list(range(20, 0, -1))
        assert store._cached_rows <= 12


def test_stats_scan_bypasses_the_cache_and_recounts_per_generation(tmp_path, monkeypatch):
    decoder = CountingDecoder(monkeypatch)
    with SnapshotStore(tmp_path / "stats.db") as store:
        for window in range(3):
            store.append_snapshot(uniform_snapshot(window, [1, 2, 3 + window]))
        store.as_latest(1)
        cached = dict(store._column_cache)
        stats = store.stats()
        assert (stats["as_records"], stats["distinct_ases"]) == (9, 5)
        assert decoder.during(store.stats) == 0 and store._column_cache == cached
        store.drop_snapshot(3)
        assert (store.stats()["as_records"], store.stats()["distinct_ases"]) == (6, 4)


def test_columns_are_only_served_for_the_generation_asked_for(tmp_path):
    """Outside a transaction the walk and the column read are two
    statements; a snapshot dropped (or its id re-pinned) in between must
    read as gone, never as another commit's columns."""
    with SnapshotStore(tmp_path / "gone.db") as store:
        store.append_snapshot(uniform_snapshot(0, [1, 2]), snapshot_id=4)
        generation = store.get(4).generation
        connection = store._conn()
        assert store._decoded(connection, 4, generation + 1) is None
        store.drop_snapshot(4)
        store.append_snapshot(uniform_snapshot(1, [1, 2]), snapshot_id=4)
        assert store._decoded(connection, 4, generation) is None
        assert store._decoded(connection, 4, store.get(4).generation) is not None


def test_a_walk_that_lost_a_snapshot_reads_again_in_a_transaction(tmp_path, monkeypatch):
    with SnapshotStore(tmp_path / "again.db") as store:
        for window in range(3):
            store.append_snapshot(uniform_snapshot(window, [1, 2]))
        walk = store._history
        calls = []

        def lose_the_first(connection, key, limit):
            calls.append(connection.in_transaction)
            return None if len(calls) == 1 else walk(connection, key, limit)

        monkeypatch.setattr(store, "_history", lose_the_first)
        history = store.as_history(1, limit=2)
    assert calls == [False, True]
    assert [entry.snapshot_id for entry in history] == [3, 2]


def test_emptied_buckets_leave_the_index(tmp_path, monkeypatch):
    monkeypatch.setattr(sqlite_backend, "_BUCKET_BITS", 1)
    with SnapshotStore(tmp_path / "prune.db", retention=2) as store:
        for window in range(6):
            store.append_snapshot(uniform_snapshot(window, [window]))
        buckets = store._conn().execute(
            "SELECT bucket, asn FROM as_buckets ORDER BY bucket, asn"
        ).fetchall()
    # Ids 5 and 6 are retained.  Buckets 0 (id 1) and 1 (ids 2, 3) went with
    # their last snapshot; bucket 2 still indexes pruned id 4's AS 3.
    assert buckets == [(2, 3), (2, 4), (3, 5)]


def test_concurrent_readers_keep_the_cache_consistent(location, monkeypatch):
    """Eight reader threads churn a cache that holds two snapshots at most,
    with a short switch interval: every read stays right and the row count
    matches the cached entries (a lost update would break it)."""
    monkeypatch.setattr(sqlite_backend, "_CACHE_ROWS", 24)
    rng = random.Random(13)
    store = SnapshotStore(location)
    reference = ReferenceStore()
    for window in range(6):
        snapshot = random_snapshot(rng, window)
        store.append_snapshot(snapshot)
        reference.append_snapshot(snapshot)
    expected = {asn: reference.as_history(asn) for asn in QUERIED_ASNS}
    failures = []

    def read_loop():
        try:
            for _ in range(40):
                for asn in QUERIED_ASNS:
                    assert store.as_history(asn) == expected[asn]
        except Exception as error:  # noqa: BLE001 - reported to the main thread
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read_loop) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        store.close()
        reference.close()
    assert failures == []
    cached = store._column_cache.values()
    assert store._cached_rows == sum(len(columns[0]) for columns, _ in cached)


def test_one_blob_per_snapshot_and_no_per_as_rows(tmp_path):
    rng = random.Random(11)
    snapshots = [random_snapshot(rng, window) for window in range(3)]
    with SnapshotStore(tmp_path / "layout.db") as store:
        for snapshot in snapshots:
            store.append_snapshot(snapshot)
        assert store.stats()["schema_version"] == 4
    connection = sqlite3.connect(tmp_path / "layout.db")
    try:
        tables = {name for (name,) in connection.execute("SELECT name FROM sqlite_master")}
        rows = connection.execute(
            "SELECT rows FROM snapshot_columns ORDER BY snapshot_id"
        ).fetchall()
    finally:
        connection.close()
    assert "as_records" not in tables and "idx_as_records_asn" not in tables
    assert [count for (count,) in rows] == [len(s.result.observed_ases) for s in snapshots]
