"""Tests for the streaming classification engine (repro.stream).

Covers the window clock, event sources, sharding determinism, the incremental
classifier (delta-vs-recount behaviour, eviction), checkpoint/restore
round-trips, and the engine-level invariants that back the live deployment
story: batch equivalence and checkpoint transparency.
"""

import copy
import os
import pickle
import random
import stat
from collections import Counter
from dataclasses import dataclass, fields, replace

import pytest
from column_oracle import CounterStore, ListingInference, counter_state, decision_view
from sanitize_oracle import ObservationSanitizer
from stream_oracle import engine_windows

from repro.bgp.announcement import PathCommTuple, RouteBlock, RouteObservation
from repro.bgp.asn import ASNRegistry
from repro.bgp.community import CommunitySet
from repro.bgp.path import ASPath
from repro.bgp.prefix import parse_prefix
from repro.core.thresholds import Thresholds
from repro.core.tuples import TupleTable
from repro.sanitize import filters
from repro.stream import (
    CheckpointError,
    CheckpointManager,
    ColumnarColumnClassifier,
    MemorySource,
    MRTReplaySource,
    ScenarioSource,
    ShardRouter,
    StreamConfig,
    StreamEngine,
    WindowClock,
    WindowPolicy,
    WindowSpec,
    shard_of,
)
from repro.stream import engine as engine_module


lowered = RouteBlock.from_observations  # what ``ingest_block`` does to a list


def observation(asns, comms=(), timestamp=0, collector="rrc00"):
    """One crafted update announcement."""
    return RouteObservation(
        collector=collector,
        peer_asn=asns[0],
        prefix=parse_prefix("8.8.8.0/24"),
        path=ASPath(asns),
        communities=CommunitySet.from_strings(comms),
        timestamp=timestamp,
    )


def tuples_from(*items):
    return [
        PathCommTuple(ASPath(asns), CommunitySet.from_strings(comms)) for asns, comms in items
    ]


def add_all(classifier, items):
    for item in items:
        classifier.add_tuple(item)


def evict(classifier, evicted):
    """Evict object tuples through the classifier's interned entry point."""
    classifier.evict_refs([classifier.table.intern_tuple(item) for item in evicted])


def fingerprint(result):
    return (result.as_code_map(), counter_state(result), set(result.observed_ases))


# ---------------------------------------------------------------------------------------
# Window clock
# ---------------------------------------------------------------------------------------
class TestWindowClock:
    def test_no_close_before_boundary(self):
        clock = WindowClock(WindowSpec(size=100))
        assert clock.advance(10) is None
        assert clock.advance(99) is None

    def test_close_on_boundary_crossing(self):
        clock = WindowClock(WindowSpec(size=100))
        clock.advance(10)
        closed = clock.advance(105)
        assert closed is not None
        assert (closed.start, closed.end) == (0, 100)
        assert closed.skipped == 0

    def test_empty_windows_are_collapsed(self):
        clock = WindowClock(WindowSpec(size=100))
        clock.advance(10)
        closed = clock.advance(950)
        assert (closed.start, closed.end) == (800, 900)
        assert closed.skipped == 8

    def test_allowed_lateness_delays_closing(self):
        clock = WindowClock(WindowSpec(size=100, allowed_lateness=50))
        clock.advance(10)
        assert clock.advance(120) is None  # watermark only at 70
        closed = clock.advance(160)  # watermark 110 -> closes [0, 100)
        assert (closed.start, closed.end) == (0, 100)

    def test_late_events_are_counted(self):
        clock = WindowClock(WindowSpec(size=100))
        clock.advance(500)
        clock.advance(100)
        assert clock.late_events == 1

    def test_close_current_finishes_open_window(self):
        clock = WindowClock(WindowSpec(size=100))
        clock.advance(250)
        closed = clock.close_current()
        assert (closed.start, closed.end) == (200, 300)

    def test_close_current_is_idempotent(self):
        """A fully drained clock must not emit spurious empty windows."""
        clock = WindowClock(WindowSpec(size=100))
        clock.advance(250)
        assert clock.close_current() is not None
        assert clock.close_current() is None
        assert clock.close_current() is None
        # New events re-open windows and draining works again.
        assert clock.advance(310) is None  # window [300, 400) is now in progress
        closed = clock.close_current()
        assert (closed.start, closed.end) == (300, 400)
        assert clock.close_current() is None

    def test_state_roundtrip(self):
        clock = WindowClock(WindowSpec(size=100, allowed_lateness=10))
        clock.advance(50)
        clock.advance(500)
        restored = WindowClock.from_state(clock.state_dict())
        assert restored.max_timestamp == clock.max_timestamp
        assert restored.advance(990).start == clock.advance(990).start

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            WindowSpec(size=0)
        with pytest.raises(ValueError):
            WindowSpec(size=100, horizon=50)
        with pytest.raises(ValueError):
            WindowSpec(size=100, allowed_lateness=-1)


# ---------------------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------------------
class TestSources:
    def test_memory_source_push_and_drain(self):
        source = MemorySource()
        source.push(observation([10], ["10:1"], timestamp=1))
        source.extend([observation([20], timestamp=2)])
        assert len(source) == 2
        assert [o.timestamp for o in source] == [1, 2]

    def test_scenario_source_spreads_timestamps(self):
        items = tuples_from(([10], ["10:1"]), ([20, 30], []))
        source = ScenarioSource(items, start=0, duration=100, repeat=2)
        events = list(source)
        assert len(events) == len(source) == 4
        timestamps = [event.timestamp for event in events]
        assert timestamps == sorted(timestamps)
        assert timestamps[0] == 0
        assert all(ts < 100 for ts in timestamps)

    def test_scenario_source_preserves_tuples(self):
        items = tuples_from(([10, 30], ["30:1"]))
        event = next(iter(ScenarioSource(items)))
        assert event.path is items[0].path
        assert event.communities is items[0].communities
        assert event.peer_asn == 10

    def test_mrt_replay_source_orders(self, tmp_path):
        from repro.bgp.messages import BGPUpdate, PathAttributes
        from repro.mrt.encoder import MRTEncoder

        encoder = MRTEncoder()
        for timestamp in (300, 100, 200):
            encoder.write_update(
                BGPUpdate(
                    peer_asn=10,
                    timestamp=timestamp,
                    announced=(parse_prefix("8.8.8.0/24"),),
                    attributes=PathAttributes(
                        as_path=ASPath([10]), communities=CommunitySet.empty()
                    ),
                )
            )
        blob = encoder.getvalue()
        archive_order = [o.timestamp for o in MRTReplaySource({"rrc00": blob})]
        time_order = [o.timestamp for o in MRTReplaySource({"rrc00": blob}, order="time")]
        assert archive_order == [300, 100, 200]
        assert time_order == [100, 200, 300]

        path = tmp_path / "rrc00.mrt"
        path.write_bytes(blob)
        from_files = MRTReplaySource.from_files([path])
        assert [o.timestamp for o in from_files] == archive_order

    def test_mrt_replay_rejects_unknown_order(self):
        with pytest.raises(ValueError):
            MRTReplaySource({}, order="random")


# ---------------------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------------------
class TestSharding:
    def test_shard_of_is_deterministic_and_in_range(self):
        for asn in (1, 10, 65000, 4_000_000_000):
            first = shard_of(asn, 8)
            assert 0 <= first < 8
            assert shard_of(asn, 8) == first

    def test_same_peer_lands_on_same_shard(self):
        router = ShardRouter(4)
        news = router.process_block(
            lowered(
                [
                    observation([10, 30], ["30:1"], timestamp=1),
                    observation([10, 40], [], timestamp=2),
                ]
            )
        )
        assert [index for index, _ in news] == [0, 1]
        worker = router.workers[shard_of(10, 4)]
        assert worker.unique_tuples == 2

    def test_duplicate_detection_across_events(self):
        router = ShardRouter(4)
        first, second = [], []
        news1 = router.process_block(lowered([observation([10, 30], ["30:1"], timestamp=1)]), first)
        news2 = router.process_block(lowered([observation([10, 30], ["30:1"], timestamp=2)]), second)
        ((_, key1),) = news1
        assert news2 == []  # duplicate: nothing new ...
        assert first == second == [(0, shard_of(10, 4), key1)]  # ... but kept both times
        assert router.unique_tuples == 1

    def test_sanitation_stats_merge_across_shards(self):
        router = ShardRouter(4)
        router.process_block(lowered([observation([10], [], timestamp=1)]))
        kept = []
        # private ASN: dropped, so neither new nor kept
        assert router.process_block(lowered([observation([64512], [], timestamp=2)]), kept) == []
        assert kept == []
        stats = router.sanitation_stats()
        assert stats.observations_in == 2
        assert stats.observations_out == 1
        assert stats.dropped_unallocated_asn == 1


def contract_feed(count=600, seed=29):
    """Seeded events with drops, duplicates, prepending and foreign peers."""
    rng = random.Random(seed)
    peers = [10, 11, 12, 13, 20, 21, 31]  # all four shards of a 4-way split
    events = []
    for index in range(count):
        peer = rng.choice(peers)
        tail = rng.sample([100, 200, 300, 400, 64512], rng.randint(0, 3))  # 64512: private
        asns = [peer, *tail]
        if rng.random() < 0.2:
            asns.insert(1, peer)  # prepending, collapsed by sanitation
        if rng.random() < 0.1 and len(asns) > 1:
            asns.append(asns[0])  # loop, dropped
        event = observation(asns, rng.choice([(), ("100:1",), ("200:7", "100:1")]), index)
        if rng.random() < 0.1:
            event = replace(event, peer_asn=rng.choice(peers))  # route server: peer prepended
        events.append(event)
    return events + events[: count // 2]  # guaranteed duplicates


def reference_route(events, shards, registry):
    """Per-event sanitation into one set: what any block split must equal."""
    sanitizers = [ObservationSanitizer(asn_registry=registry) for _ in range(shards)]
    loads = [0] * shards
    seen, news, kept = set(), [], []
    for index, event in enumerate(events):
        shard = shard_of(event.peer_asn, shards)
        loads[shard] += 1
        sanitized = sanitizers[shard].sanitize_observation(event)
        if sanitized is None:
            continue
        pair = (sanitized.path, sanitized.communities)
        kept.append((index, shard, pair))
        if pair not in seen:
            seen.add(pair)
            news.append((index, pair))
    stats = Counter()
    for sanitizer in sanitizers:
        stats.update(sanitizer.stats.as_dict())
    return news, kept, dict(stats), loads


class TestShardBlockContract:
    """The one shard loop against a per-event reference, for every split."""

    @pytest.mark.parametrize("block_size", [1, 7, 4096])
    @pytest.mark.parametrize("with_registry", [False, True], ids=["memoised", "registry"])
    @pytest.mark.parametrize("shards", [1, 4])
    def test_router_matches_per_event_reference(self, shards, with_registry, block_size):
        events = contract_feed()
        registry = (
            ASNRegistry.from_asns([10, 11, 12, 13, 20, 21, 100, 200, 300])  # 31, 400 not
            if with_registry
            else None
        )
        table = TupleTable()
        router = ShardRouter(shards, asn_registry=registry, table=table)

        def pair(ref):
            return (table.path_of(ref[0]), table.comm_of(ref[1]))

        news, kept = [], []
        for start in range(0, len(events), block_size):
            block_kept = []
            block_news = router.process_block(lowered(events[start : start + block_size]), block_kept)
            news.extend((start + index, pair(key)) for index, key in block_news)
            kept.extend((start + index, shard, pair(key)) for index, shard, key in block_kept)

        want_news, want_kept, want_stats, want_loads = reference_route(events, shards, registry)
        assert news == want_news
        assert kept == want_kept
        assert router.sanitation_stats().as_dict() == want_stats
        assert router.load_distribution() == want_loads
        assert router.unique_tuples == len(want_news)
        assert want_stats["observations_in"] > want_stats["observations_out"] > len(want_news)
        assert all(want_loads)
        assert any(worker.sanitizer._memo for worker in router.workers) != with_registry

    def test_kept_is_only_filled_on_request(self):
        events = contract_feed(50)
        asked, unasked = ShardRouter(4, table=TupleTable()), ShardRouter(4, table=TupleTable())
        assert asked.process_block(lowered(events), []) == unasked.process_block(lowered(events))
        assert asked.state_dict() == unasked.state_dict()


# ---------------------------------------------------------------------------------------
# Incremental classifiers
# ---------------------------------------------------------------------------------------
class TestIncrementalColumn:
    ITEMS = [
        ([30], ["30:1"]),
        ([10, 30], ["30:1"]),
        ([20, 30], []),
        ([20, 40], []),
    ]

    def test_matches_batch_when_fed_incrementally(self):
        batch = ListingInference().run(tuples_from(*self.ITEMS))
        classifier = ColumnarColumnClassifier()
        for item in tuples_from(*self.ITEMS):
            classifier.add_tuple(item)
            classifier.update()  # update after every single tuple
        assert fingerprint(classifier.result()) == fingerprint(batch)

    def test_unchanged_knowledge_takes_delta_path(self):
        classifier = ColumnarColumnClassifier()
        add_all(classifier, tuples_from(*self.ITEMS))
        classifier.update()
        recounts_before = classifier.stats.recount_phases
        # A tuple that reinforces existing knowledge must not recount.
        add_all(classifier, tuples_from(([10, 30], ["30:1"])))
        classifier.update()
        assert classifier.stats.recount_phases == recounts_before
        assert classifier.stats.delta_phases > 0

    def test_changed_knowledge_triggers_recount(self):
        classifier = ColumnarColumnClassifier()
        add_all(classifier, tuples_from(*self.ITEMS))
        classifier.update()
        recounts_before = classifier.stats.recount_phases
        # Flip AS 50 into existence as a tagger: new knowledge, recounts.
        add_all(classifier, tuples_from(([50], ["50:1"]), ([10, 50], ["50:1"])))
        classifier.update()
        assert classifier.stats.recount_phases > recounts_before
        batch = ListingInference().run(
            tuples_from(*self.ITEMS, ([50], ["50:1"]), ([10, 50], ["50:1"]))
        )
        assert fingerprint(classifier.result()) == fingerprint(batch)

    def test_eviction_under_unchanged_views_recounts_nothing(self):
        classifier = ColumnarColumnClassifier()
        all_items = tuples_from(*self.ITEMS)
        add_all(classifier, all_items)
        classifier.update()
        recounts_before = classifier.stats.recount_phases
        deltas_before = classifier.stats.delta_phases
        # AS 20 was neither a tagger nor a forwarder: retracting its tuples
        # leaves every phase's decision view as it was.
        evict(classifier, all_items[2:])
        classifier.update()
        assert classifier.stats.recount_phases == recounts_before
        assert classifier.stats.delta_phases > deltas_before
        assert classifier.tuple_count == 2
        assert fingerprint(classifier.result()) == fingerprint(
            ListingInference().run(all_items[:2])
        )

    def test_eviction_that_changes_a_view_recounts_from_that_phase(self):
        classifier = ColumnarColumnClassifier()
        all_items = tuples_from(*self.ITEMS)
        add_all(classifier, all_items)
        classifier.update()
        recounts_before = classifier.stats.recount_phases
        deltas_before = classifier.stats.delta_phases
        # All of AS 30's tagger evidence goes: the view after column 1's
        # tagging phase changes, the (empty) view before it cannot.
        evict(classifier, all_items[:2])
        classifier.update()
        assert classifier.stats.recount_phases > recounts_before
        assert classifier.stats.delta_phases == deltas_before + 1
        assert fingerprint(classifier.result()) == fingerprint(
            ListingInference().run(all_items[2:])
        )

    def test_state_roundtrip_mid_update(self):
        classifier = ColumnarColumnClassifier()
        add_all(classifier, tuples_from(*self.ITEMS[:2]))
        classifier.update()
        add_all(classifier, tuples_from(*self.ITEMS[2:]))  # pending, not updated
        state = pickle.loads(pickle.dumps(classifier.state_dict()))
        table = TupleTable.from_state(pickle.loads(pickle.dumps(classifier.table.state_dict())))
        restored = ColumnarColumnClassifier.from_state(state, table)
        assert fingerprint(restored.update()) == fingerprint(classifier.update())


# ---------------------------------------------------------------------------------------
# Checkpoint manager
# ---------------------------------------------------------------------------------------
class TestCheckpointManager:
    def test_save_load_roundtrip(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        path = manager.save({"value": 42})
        assert path.exists()
        assert manager.load() == {"value": 42}

    def test_rotation_keeps_newest(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        for value in range(5):
            manager.save({"value": value})
        assert len(manager.checkpoints()) == 2
        assert manager.load() == {"value": 4}

    def test_load_without_checkpoints_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointManager(tmp_path).load()

    def test_corrupt_checkpoint_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        target = manager.save({"value": 1})
        target.write_bytes(b"not a pickle")
        with pytest.raises(CheckpointError):
            manager.load()

    def test_version_mismatch_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        target = manager.save({"value": 1})
        payload = {"version": 999, "state": {}}
        target.write_bytes(pickle.dumps(payload))
        with pytest.raises(CheckpointError):
            manager.load()

    def test_save_is_durable(self, tmp_path, monkeypatch):
        """The temp file is fsynced before the rename and the directory
        after it, so a power loss cannot leave a truncated newest file."""
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            kind = "directory" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            calls.append(("fsync", kind))
            real_fsync(fd)

        def replace(source, target):
            calls.append(("replace", os.path.getsize(source)))
            real_replace(source, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        target = CheckpointManager(tmp_path).save({"value": 42})
        assert calls == [
            ("fsync", "file"),
            ("replace", target.stat().st_size),
            ("fsync", "directory"),
        ]

    def test_previous_format_version_is_refused(self, tmp_path):
        """A v2 classifier state has no live reference counts (and a
        ``resets`` stat): it must be refused here, not fail in ``from_state``."""
        manager = CheckpointManager(tmp_path)
        engine = StreamEngine(StreamConfig(window=WindowSpec(size=100)), checkpoints=manager)
        engine.ingest(observation([10, 30], ["30:1"], timestamp=1))
        target = engine.checkpoint()
        payload = pickle.loads(target.read_bytes())
        assert payload["version"] == 3
        target.write_bytes(pickle.dumps({**payload, "version": 2}))
        with pytest.raises(CheckpointError, match="version 2, expected 3"):
            StreamEngine.restore(manager)


# ---------------------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------------------
def steady_feed():
    """A feed with observable structure and several window boundaries."""
    items = [
        ([30], ["30:1"]),
        ([10, 30], ["10:1", "30:1"]),
        ([20, 30], ["30:1"]),
        ([40, 30], []),
        ([10, 50], []),
    ]
    events = []
    for round_index in range(6):
        for item_index, (asns, comms) in enumerate(items):
            events.append(
                observation(
                    asns, comms, timestamp=round_index * 100 + item_index * 10
                )
            )
    return events


class TestStreamEngine:
    def test_emits_window_snapshots_with_changes(self):
        engine = StreamEngine(StreamConfig(window=WindowSpec(size=100)))
        engine.run(MemorySource(steady_feed()))
        assert engine.stats.windows_closed >= 5
        first = engine.snapshots[0]
        assert first.changed  # the first window discovers new classifications
        assert first.result.classification_of(30).tagging.code == "t"
        later = engine.snapshots[-1]
        assert later.changed == {}  # steady state: nothing changes any more
        assert later.events_total == len(steady_feed())

    def test_on_window_callback_fires(self):
        seen = []
        engine = StreamEngine(
            StreamConfig(window=WindowSpec(size=100)), on_window=seen.append
        )
        engine.run(MemorySource(steady_feed()))
        assert len(seen) == engine.stats.windows_closed

    def test_snapshot_retention_is_bounded(self, monkeypatch):
        monkeypatch.setattr(engine_module, "MAX_SNAPSHOTS", 2)
        seen = []
        engine = StreamEngine(StreamConfig(window=WindowSpec(size=100)), on_window=seen.append)
        engine.run(MemorySource(steady_feed()))
        assert len(seen) > 2
        assert engine.snapshots == seen[-2:]  # the newest two

    def test_checkpoint_restore_mid_stream_is_transparent(self, tmp_path):
        events = steady_feed()
        half = len(events) // 2
        manager = CheckpointManager(tmp_path)
        config = StreamConfig(window=WindowSpec(size=100), shards=2)

        first = StreamEngine(config, checkpoints=manager)
        for event in events[:half]:
            first.ingest(event)
        first.checkpoint()

        resumed = StreamEngine.restore(manager)
        for event in events[half:]:
            resumed.ingest(event)

        uninterrupted = StreamEngine(StreamConfig(window=WindowSpec(size=100), shards=2))
        assert fingerprint(
            StreamEngine.run(uninterrupted, MemorySource(events))
        ) == fingerprint(resumed.finish())
        assert resumed.stats.events_in == len(events)

    def test_auto_checkpoint_by_event_count(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=10)
        engine = StreamEngine(
            StreamConfig(window=WindowSpec(size=100), checkpoint_every=10),
            checkpoints=manager,
        )
        engine.run(MemorySource(steady_feed()))
        assert engine.stats.checkpoints_written == len(steady_feed()) // 10

    def test_sliding_policy_evicts_stale_tuples(self):
        events = steady_feed()
        # One tuple only ever announced at the very beginning.
        events.insert(0, observation([60, 30], ["30:1"], timestamp=0))
        spec = WindowSpec(size=100, policy=WindowPolicy.SLIDING, horizon=200)
        engine = StreamEngine(StreamConfig(window=spec))
        result = engine.run(MemorySource(events))
        assert engine.stats.tuples_evicted > 0
        assert 60 not in result.observed_ases  # aged out of the horizon
        assert 30 in result.observed_ases  # continuously re-announced

    def test_sliding_matches_batch_over_retained_tuples(self):
        events = steady_feed()
        events.insert(0, observation([60, 30], ["30:1"], timestamp=0))
        spec = WindowSpec(size=100, policy=WindowPolicy.SLIDING, horizon=200)
        engine = StreamEngine(StreamConfig(window=spec))
        streamed = engine.run(MemorySource(events))
        retained = [engine._table.tuple_of(ref) for ref in engine._last_seen]
        assert fingerprint(streamed) == fingerprint(ListingInference().run(retained))

    def test_invalid_config_rejected(self):
        with pytest.raises(TypeError):
            StreamConfig(algorithm="row")  # the engine runs the column algorithm only
        with pytest.raises(ValueError):
            StreamConfig(shards=0)
        with pytest.raises(ValueError):
            StreamConfig(checkpoint_every=0)

    def test_finish_without_events(self):
        engine = StreamEngine(StreamConfig(window=WindowSpec(size=100)))
        result = engine.finish()
        assert len(result.observed_ases) == 0

    def test_restore_preserves_sanitation_context(self, tmp_path):
        from repro.bgp.asn import ASNRegistry

        registry = ASNRegistry.from_asns([10, 20, 30, 40, 50])  # 60 unallocated
        manager = CheckpointManager(tmp_path)
        engine = StreamEngine(
            StreamConfig(window=WindowSpec(size=100)),
            asn_registry=registry,
            checkpoints=manager,
        )
        engine.ingest(observation([10, 30], ["30:1"], timestamp=1))
        engine.ingest(observation([60], [], timestamp=2))
        assert engine.sanitation_stats().dropped_unallocated_asn == 1
        engine.checkpoint()

        resumed = StreamEngine.restore(manager)
        resumed.ingest(observation([60], [], timestamp=3))
        result = resumed.finish()
        # The unallocated AS must still be filtered after the restore.
        assert resumed.sanitation_stats().dropped_unallocated_asn == 2
        assert 60 not in result.observed_ases

    def test_sliding_change_feed_reports_evicted_ases(self):
        events = [observation([60], ["60:1"], timestamp=0)]  # tagger, then silence
        events += steady_feed()
        spec = WindowSpec(size=100, policy=WindowPolicy.SLIDING, horizon=200)
        engine = StreamEngine(StreamConfig(window=spec))
        engine.run(MemorySource(events))
        disappearances = {
            asn: change
            for snapshot in engine.snapshots
            for asn, change in snapshot.changed.items()
            if change[1] == "nn"
        }
        assert disappearances.get(60) == ("tn", "nn")

    def test_late_duplicate_does_not_rewind_retention(self):
        spec = WindowSpec(size=100, policy=WindowPolicy.SLIDING, horizon=200)
        engine = StreamEngine(StreamConfig(window=spec))
        engine.ingest(observation([60], ["60:1"], timestamp=450))
        engine.ingest(observation([60], ["60:1"], timestamp=0))  # late duplicate
        engine.ingest(observation([10], [], timestamp=500))  # closes [300, 400)
        result = engine.finish()
        # Last seen at 450 is inside every horizon cut; the stale timestamp
        # of the late duplicate must not have evicted the tuple.
        assert engine.stats.tuples_evicted == 0
        assert 60 in result.observed_ases


class TestCheckpointsOfThePreviousLayout:
    """Format-3 checkpoints written while sanitation and the column loop
    still had switches: at their defaults they restore and continue as if
    never interrupted; any other value is refused."""

    @staticmethod
    def checkpoint_half(tmp_path, spec, **switches):
        """Ingest half the steady feed, then save its state as the previous
        layout wrote it (*switches* override that layout's defaults)."""
        events = steady_feed()
        first = StreamEngine(StreamConfig(window=spec, shards=2))
        for event in events[: len(events) // 2]:
            first.ingest(event)
        state = first.state_dict()
        config = copy.copy(state["config"])
        config.__dict__.update(sanitation=None, max_columns=None, max_snapshots=64)
        classifier = {**state["classifier"], "max_columns": None, "stop_when_stalled": True}
        for name, value in switches.items():
            if name != "stop_when_stalled":  # never a StreamConfig field
                config.__dict__[name] = value
            if name != "sanitation":  # never classifier state
                classifier[name] = value
        workers = []
        for worker in state["router"]["workers"]:
            stats = replace(worker["sanitation_stats"])
            stats.__dict__["dropped_too_long"] = 0
            workers.append({**worker, "sanitation_stats": stats})
        legacy = {
            **state,
            "config": config,
            "classifier": classifier,
            "router": {"workers": workers},
        }
        manager = CheckpointManager(tmp_path)
        manager.save(legacy)
        return first, manager, events

    @pytest.mark.parametrize("policy", ["cumulative", "sliding"])
    def test_restores_and_continues_like_an_uninterrupted_run(self, tmp_path, policy):
        spec = WindowSpec(size=100, policy=WindowPolicy(policy), horizon=200)
        first, manager, events = self.checkpoint_half(tmp_path, spec)
        resumed = StreamEngine.restore(manager)
        assert [spec.name for spec in fields(resumed.config)] == [
            "window", "shards", "thresholds", "checkpoint_every", "ingest_block_size"
        ]
        assert vars(resumed.config) == vars(first.config)
        for event in events[len(events) // 2 :]:
            resumed.ingest(event)
        resumed.finish()
        uninterrupted = StreamEngine(StreamConfig(window=spec, shards=2))
        uninterrupted.run(MemorySource(events))
        assert engine_windows(first) + engine_windows(resumed) == engine_windows(uninterrupted)
        assert resumed.sanitation_stats() == uninterrupted.sanitation_stats()
        assert "too_long" not in resumed.ingest_stats()["dropped"]

    @pytest.mark.parametrize(
        "switch", [("max_columns", 2), ("stop_when_stalled", False)], ids=lambda s: s[0]
    )
    def test_a_set_column_switch_is_refused(self, tmp_path, switch):
        name, value = switch
        _, manager, _ = self.checkpoint_half(tmp_path, WindowSpec(size=100), **{name: value})
        with pytest.raises(CheckpointError, match=f"{name}={value!r}"):
            StreamEngine.restore(manager)

    def test_a_sanitation_config_is_refused(self, tmp_path, monkeypatch):
        """The switches' holder class is gone: its checkpoint cannot load."""

        @dataclass
        class Switches:
            prepend_peer_asn: bool = False

        Switches.__module__, Switches.__qualname__ = filters.__name__, "SanitationConfig"
        with monkeypatch.context() as patch:
            patch.setattr(filters, "SanitationConfig", Switches, raising=False)
            _, manager, _ = self.checkpoint_half(
                tmp_path, WindowSpec(size=100), sanitation=Switches()
            )
        with pytest.raises(CheckpointError, match="SanitationConfig"):
            StreamEngine.restore(manager)
        assert manager.latest() is not None  # refused, not deleted


# ---------------------------------------------------------------------------------------
# Counter-level streaming APIs
# ---------------------------------------------------------------------------------------
class TestCounterStreamingAPIs:
    def test_apply_delta_supports_retraction(self):
        store = CounterStore()
        store.apply_delta({10: (5, 1, 2, 0)})
        store.apply_delta({10: (-2, 0, -1, 0)})
        assert store.get(10).as_tuple() == (3, 1, 1, 0)

    def test_decision_view_matches_predicates(self):
        store = CounterStore(Thresholds.uniform(0.9))
        store.apply_delta({10: (10, 0, 0, 0), 20: (1, 9, 10, 0), 30: (0, 0, 5, 5)})
        view = decision_view(store)
        for asn in (10, 20, 30):
            assert view.is_tagger(asn) == store.is_tagger(asn)
            assert view.is_forward(asn) == store.is_forward(asn)

    def test_state_roundtrip(self):
        store = CounterStore(Thresholds.uniform(0.8))
        store.apply_delta({10: (1, 2, 3, 4)})
        restored = CounterStore.from_state(store.state_dict(), store.thresholds)
        assert restored.get(10).as_tuple() == (1, 2, 3, 4)
        assert restored.state_dict() == store.state_dict()
