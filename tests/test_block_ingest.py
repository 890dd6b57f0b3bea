"""Block-ingest conformance: batched blocks must be invisible in the results.

The engine's block path (``ingest_block`` / ``run`` over block-yielding
sources) is a pure throughput optimisation; this suite pins the contract
that makes it safe to ship:

* per-event ``ingest()`` and block ingest of any size produce *identical*
  window snapshots, final classifications, sanitation statistics, and
  retention state — and both equal the batch oracle in
  :mod:`stream_oracle` window by window — for both window policies,
  1 and 3 shards, blocks of observation objects and column-only blocks as
  the MRT decoder hands them over, and blocks that straddle window cuts
  (including late events inside a block);
* auto-checkpoints fire at the same event positions with the same captured
  state, even when the boundary lands mid-block, and a restore from a
  mid-block checkpoint is transparent;
* ``WindowClock.advance_block`` is observationally equal to per-event
  ``advance``;
* every shipped source yields blocks that concatenate to exactly its event
  iterator, and ``MRTReplaySource`` ordering is a function of blob
  *contents* only (never mapping insertion order);
* ingest telemetry flows through the publisher into the snapshot store and
  onto ``/metrics``.
"""

from __future__ import annotations

import pytest
from column_oracle import counter_state
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from stream_oracle import engine_windows, reference_windows

from repro.bgp.announcement import RouteBlock, RouteObservation
from repro.bgp.asn import ASNRegistry
from repro.bgp.community import CommunitySet
from repro.bgp.messages import BGPUpdate, PathAttributes
from repro.bgp.path import ASPath
from repro.bgp.prefix import parse_prefix
from repro.mrt.encoder import MRTEncoder
from repro.service import SnapshotStore, attach_store, render_metrics
from repro.stream import (
    BlockSource,
    CheckpointManager,
    MemorySource,
    MRTReplaySource,
    ScenarioSource,
    StreamConfig,
    StreamEngine,
    WindowClock,
    WindowPolicy,
    WindowSpec,
    iter_event_blocks,
)

BLOCK_SIZES = (1, 7, 64, 4096)
WINDOW_SPECS = {
    "cumulative": WindowSpec(size=100),
    "sliding": WindowSpec(size=100, policy=WindowPolicy.SLIDING, horizon=200),
}


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


def varied_feed():
    """A feed exercising every code path the block refactor touched.

    Multiple peers (so multi-shard partitioning matters), repeated tuples
    (dedup hits), community taggers, an unallocated AS (sanitation drop when
    a registry is armed), out-of-order timestamps (late events), and enough
    time span to close several windows.
    """
    events = []
    for round_index in range(6):
        base = round_index * 100
        events.append(observation([10, 30], ["30:1"], timestamp=base))
        events.append(observation([20, 30], ["30:1"], timestamp=base + 10))
        events.append(observation([10, 40, 50], [], timestamp=base + 20))
        events.append(observation([20, 40, 50], ["40:7"], timestamp=base + 30))
        events.append(observation([60], ["60:1"], timestamp=base + 40))
        # A straggler behind the watermark: late, must only bump counters.
        if round_index >= 2:
            events.append(observation([10, 30], ["30:1"], timestamp=base - 150))
    return events


def wire_block(events):
    """*events* as the MRT decoder hands them over: one column-only block.

    No observation objects stay behind it, so slicing, sanitizing and
    deduplicating run straight off the columns and the prefix off its wire
    NLRI (family, bit length, network bytes).
    """
    block = RouteBlock(events[0].collector)
    for event in events:
        prefix = event.prefix
        size = (prefix.length + 7) // 8
        width = 32 if prefix.is_ipv4 else 128
        block.timestamps.append(event.timestamp)
        block.peer_asns.append(event.peer_asn)
        block.paths.append(event.path)
        block.communities.append(event.communities)
        block.from_rib.append(event.from_rib)
        block.afis.append(prefix.afi)
        block.prefix_lengths.append(prefix.length)
        block.networks.append((prefix.network >> (width - 8 * size)).to_bytes(size, "big"))
    return block


#: How a test hands its feed to ``ingest_block``.
FEEDS = {"objects": list, "wire": wire_block}


def engine_fingerprint(engine, result):
    """Everything block size must not change, in comparable plain data."""
    return {
        "result": (
            result.as_code_map(),
            counter_state(result),
            set(result.observed_ases),
        ),
        "snapshots": [
            (
                snapshot.window_start,
                snapshot.window_end,
                snapshot.skipped_windows,
                snapshot.events_total,
                snapshot.unique_tuples,
                snapshot.changed,
                snapshot.result.as_code_map(),
            )
            for snapshot in engine.snapshots
        ],
        "events_in": engine.stats.events_in,
        "windows_closed": engine.stats.windows_closed,
        "tuples_evicted": engine.stats.tuples_evicted,
        "late_events": engine.late_events,
        "unique_tuples": engine.unique_tuples,
        "sanitation": engine.sanitation_stats().as_dict(),
    }


def run_per_event(config, events, **kwargs):
    engine = StreamEngine(config, **kwargs)
    for event in events:
        engine.ingest(event)
    return engine, engine.finish()


def run_blocked(config, events, block_size, **kwargs):
    engine = StreamEngine(config, **kwargs)
    for start in range(0, len(events), block_size):
        engine.ingest_block(events[start : start + block_size])
    return engine, engine.finish()


def assert_matches_oracle(engine, events, **oracle_kwargs):
    """Every window the engine published equals the batch oracle's."""
    config = engine.config
    windows, sanitation = reference_windows(events, config.window, **oracle_kwargs)
    assert engine_windows(engine) == windows
    assert engine.sanitation_stats().as_dict() == sanitation


# ---------------------------------------------------------------------------------------
# Per-event == block == oracle, across sizes, policies, feeds and shard counts
# ---------------------------------------------------------------------------------------
class TestBlockEquivalence:
    @pytest.mark.parametrize("policy", sorted(WINDOW_SPECS))
    @pytest.mark.parametrize("feed", sorted(FEEDS))
    @pytest.mark.parametrize("shards", (1, 3))
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_blocks_equal_per_event_and_oracle(self, policy, feed, shards, block_size):
        events = varied_feed()
        # One tuple only announced once at the start: must age out identically.
        events.insert(0, observation([70, 30], ["30:1"], timestamp=0))

        def config():
            return StreamConfig(window=WINDOW_SPECS[policy], shards=shards)

        baseline, base_result = run_per_event(config(), events)
        blocked, block_result = run_blocked(config(), FEEDS[feed](events), block_size)
        assert engine_fingerprint(blocked, block_result) == engine_fingerprint(
            baseline, base_result
        )
        assert_matches_oracle(blocked, events)
        assert blocked.late_events > 0
        assert (blocked.stats.tuples_evicted > 0) == (policy == "sliding")

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_sanitation_drops_match(self, block_size):
        registry = ASNRegistry.from_asns([10, 20, 30, 40, 50])  # 60 unallocated
        events = varied_feed()

        def config():
            return StreamConfig(window=WindowSpec(size=100), shards=2)

        baseline, base_result = run_per_event(config(), events, asn_registry=registry)
        blocked, block_result = run_blocked(
            config(), events, block_size, asn_registry=registry
        )
        assert engine_fingerprint(blocked, block_result) == engine_fingerprint(
            baseline, base_result
        )
        assert_matches_oracle(blocked, events, asn_registry=registry)
        assert blocked.sanitation_stats().dropped_unallocated_asn > 0
        assert 60 not in block_result.observed_ases

    def test_run_respects_configured_block_size(self):
        events = varied_feed()
        engine = StreamEngine(
            StreamConfig(window=WindowSpec(size=100), ingest_block_size=7)
        )
        result = engine.run(MemorySource(events))
        baseline, base_result = run_per_event(
            StreamConfig(window=WindowSpec(size=100)), events
        )
        assert engine_fingerprint(engine, result) == engine_fingerprint(
            baseline, base_result
        )
        # 33 events in blocks of 7 -> 5 blocks, not 33.
        assert engine.stats.blocks_in == -(-len(events) // 7)

    def test_one_event_ingest_is_a_one_block(self):
        engine = StreamEngine(StreamConfig(window=WindowSpec(size=100)))
        engine.ingest(observation([10], timestamp=1))
        assert engine.stats.blocks_in == 1
        assert engine.stats.block_size_buckets[0] == 1

    def test_empty_block_is_a_no_op(self):
        engine = StreamEngine(StreamConfig(window=WindowSpec(size=100)))
        engine.ingest_block([])
        assert engine.stats.blocks_in == 0
        assert engine.stats.events_in == 0


# ---------------------------------------------------------------------------------------
# Window-cut straddling
# ---------------------------------------------------------------------------------------
class TestWindowCutStraddle:
    def test_block_straddling_cut_splits_at_the_cut(self):
        """Regression: one block spanning a boundary must flush mid-block.

        Events 0..3 live in [0, 100); event at t=150 crosses into [100, 200)
        and must see the first window already flushed — exactly as per-event
        ingest would do — even though all five arrive in one block.
        """
        events = [
            observation([10, 30], ["30:1"], timestamp=0),
            observation([20, 30], ["30:1"], timestamp=40),
            observation([10, 40], [], timestamp=80),
            observation([20, 40], [], timestamp=99),
            observation([10, 30], ["30:1"], timestamp=150),
        ]
        engine = StreamEngine(StreamConfig(window=WindowSpec(size=100)))
        engine.ingest_block(events)
        assert engine.stats.windows_closed == 1
        snapshot = engine.snapshots[0]
        assert (snapshot.window_start, snapshot.window_end) == (0, 100)
        # The snapshot counts only the pre-cut events.
        assert snapshot.events_total == 4

    def test_straddle_with_late_events_matches_per_event(self):
        """A block holding a cut *and* late stragglers behind the watermark."""
        events = [
            observation([10, 30], ["30:1"], timestamp=10),
            observation([20, 40], [], timestamp=120),  # closes [0, 100)
            observation([10, 30], ["30:1"], timestamp=5),  # late, behind watermark
            observation([20, 50], ["50:2"], timestamp=250),  # closes [100, 200)
            observation([10, 40], [], timestamp=90),  # late again
        ]

        def config():
            return StreamConfig(window=WindowSpec(size=100), shards=2)

        baseline, base_result = run_per_event(config(), events)
        blocked, block_result = run_blocked(config(), events, len(events))
        assert engine_fingerprint(blocked, block_result) == engine_fingerprint(
            baseline, base_result
        )
        assert_matches_oracle(blocked, events)
        assert blocked.late_events == 2

    def test_block_spanning_many_windows(self):
        """One block can close several windows; each gets its own snapshot."""
        events = [observation([10, 30], ["30:1"], timestamp=ts) for ts in range(0, 1000, 50)]
        baseline, base_result = run_per_event(
            StreamConfig(window=WindowSpec(size=100)), events
        )
        blocked, block_result = run_blocked(
            StreamConfig(window=WindowSpec(size=100)), events, len(events)
        )
        assert engine_fingerprint(blocked, block_result) == engine_fingerprint(
            baseline, base_result
        )
        # [0,100) .. [800,900) close on watermark moves; finish() closes the
        # in-progress [900, 1000) for a tenth.
        assert blocked.stats.windows_closed == 10


# ---------------------------------------------------------------------------------------
# Checkpoints at and across block boundaries
# ---------------------------------------------------------------------------------------
class TestBlockCheckpoints:
    def test_auto_checkpoints_fire_at_identical_positions(self, tmp_path):
        """checkpoint_every=13 never divides block size 64: every auto
        checkpoint lands mid-block, and each must capture the same state the
        per-event engine captures after the same event count."""
        events = varied_feed()

        def build(subdir):
            manager = CheckpointManager(tmp_path / subdir, keep=50)
            engine = StreamEngine(
                StreamConfig(
                    window=WindowSpec(size=100),
                    shards=2,
                    checkpoint_every=13,
                ),
                checkpoints=manager,
            )
            return manager, engine

        manager_a, baseline = build("per_event")
        for event in events:
            baseline.ingest(event)

        manager_b, blocked = build("blocked")
        for start in range(0, len(events), 64):
            blocked.ingest_block(events[start : start + 64])

        assert blocked.stats.checkpoints_written == baseline.stats.checkpoints_written
        assert blocked.stats.checkpoints_written == len(events) // 13

        restored_a = StreamEngine.restore(manager_a)
        restored_b = StreamEngine.restore(manager_b)
        assert restored_a.stats.events_in == restored_b.stats.events_in
        assert engine_fingerprint(restored_b, restored_b.finish()) == engine_fingerprint(
            restored_a, restored_a.finish()
        )

    @pytest.mark.parametrize("policy", sorted(WINDOW_SPECS))
    @pytest.mark.parametrize("feed", sorted(FEEDS))
    def test_restore_from_mid_block_checkpoint_is_transparent(self, tmp_path, feed, policy):
        """Crash after a mid-block auto checkpoint, resume, finish per-event:
        the result must equal an uninterrupted run over the whole feed."""
        events = varied_feed()

        def config():
            return StreamConfig(
                window=WINDOW_SPECS[policy],
                shards=3,
                checkpoint_every=13,
            )

        manager = CheckpointManager(tmp_path, keep=1)
        first = StreamEngine(config(), checkpoints=manager)
        first.ingest_block(FEEDS[feed](events)[:20])  # auto checkpoint fires at event 13


        resumed = StreamEngine.restore(manager)
        assert resumed.stats.events_in == 13
        for event in events[13:]:
            resumed.ingest(event)

        uninterrupted, base_result = run_per_event(config(), events)
        resumed_print = engine_fingerprint(resumed, resumed.finish())
        base_print = engine_fingerprint(uninterrupted, base_result)
        # Snapshot retention is in-memory state, not checkpointed: the
        # resumed engine only holds windows closed after the restore — but
        # those must be exactly the tail of the uninterrupted run's.
        resumed_snapshots = resumed_print.pop("snapshots")
        base_snapshots = base_print.pop("snapshots")
        assert resumed_snapshots == base_snapshots[-len(resumed_snapshots) :]
        assert resumed_print == base_print
        windows, _ = reference_windows(events, WINDOW_SPECS[policy])
        assert engine_windows(resumed) == windows[-len(resumed_snapshots) :]


# ---------------------------------------------------------------------------------------
# WindowClock.advance_block == advance per event
# ---------------------------------------------------------------------------------------
class TestAdvanceBlock:
    @given(
        timestamps=st.lists(st.integers(min_value=0, max_value=2000), max_size=40),
        lateness=st.sampled_from([0, 25, 150]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_per_event_advance(self, timestamps, lateness):
        spec = WindowSpec(size=100, allowed_lateness=lateness)
        per_event = WindowClock(spec)
        closes_a = []
        for position, timestamp in enumerate(timestamps):
            closed = per_event.advance(timestamp)
            if closed is not None:
                closes_a.append((position, closed))

        blocked = WindowClock(spec)
        closes_b = blocked.advance_block(timestamps)

        assert closes_b == closes_a
        assert blocked.max_timestamp == per_event.max_timestamp
        assert blocked.late_events == per_event.late_events
        assert blocked.state_dict() == per_event.state_dict()

    @given(
        timestamps=st.lists(st.integers(min_value=0, max_value=2000), max_size=40),
        split=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_splitting_a_block_changes_nothing(self, timestamps, split):
        split = min(split, len(timestamps))
        whole = WindowClock(WindowSpec(size=100))
        closes_whole = whole.advance_block(timestamps)

        halves = WindowClock(WindowSpec(size=100))
        closes_halves = halves.advance_block(timestamps[:split])
        closes_halves += [
            (position + split, closed)
            for position, closed in halves.advance_block(timestamps[split:])
        ]
        assert closes_halves == closes_whole
        assert halves.state_dict() == whole.state_dict()


# ---------------------------------------------------------------------------------------
# Property: random feeds, random block sizes
# ---------------------------------------------------------------------------------------
def _observations():
    return st.lists(
        st.builds(
            observation,
            asns=st.lists(
                st.sampled_from([10, 20, 30, 40, 50]), min_size=1, max_size=4
            ),
            comms=st.sampled_from([(), ("30:1",), ("40:7", "30:1")]),
            timestamp=st.integers(min_value=0, max_value=1500),
        ),
        max_size=30,
    )


class TestBlockIngestProperty:
    @given(events=_observations(), block_size=st.integers(min_value=1, max_value=31))
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_per_event_equals_blocked(self, events, block_size):
        def config():
            return StreamConfig(window=WindowSpec(size=100), shards=2)

        baseline, base_result = run_per_event(config(), events)
        blocked, block_result = run_blocked(config(), events, block_size)
        assert engine_fingerprint(blocked, block_result) == engine_fingerprint(
            baseline, base_result
        )
        assert_matches_oracle(blocked, events)

    @given(events=_observations(), block_size=st.integers(min_value=1, max_value=31))
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_sliding_per_event_equals_blocked(self, events, block_size):
        def config():
            return StreamConfig(
                window=WindowSpec(size=100, policy=WindowPolicy.SLIDING, horizon=300),
                shards=2,
            )

        baseline, base_result = run_per_event(config(), events)
        blocked, block_result = run_blocked(config(), events, block_size)
        assert engine_fingerprint(blocked, block_result) == engine_fingerprint(
            baseline, base_result
        )
        assert_matches_oracle(blocked, events)


# ---------------------------------------------------------------------------------------
# Sources: blocks concatenate to the event iterator
# ---------------------------------------------------------------------------------------
def _mrt_blob(timestamps, peer=10):
    encoder = MRTEncoder()
    for timestamp in timestamps:
        encoder.write_update(
            BGPUpdate(
                peer_asn=peer,
                timestamp=timestamp,
                announced=(parse_prefix("8.8.8.0/24"),),
                attributes=PathAttributes(
                    as_path=ASPath([peer]), communities=CommunitySet.empty()
                ),
            )
        )
    return encoder.getvalue()


class TestSourceBlocks:
    @pytest.mark.parametrize("size", (1, 2, 5, 100))
    def test_memory_source(self, size):
        source = MemorySource(varied_feed())
        assert isinstance(source, BlockSource)
        blocks = list(source.iter_blocks(size))
        assert [event for block in blocks for event in block] == list(source)
        assert all(len(block) <= size for block in blocks)

    @pytest.mark.parametrize("size", (1, 3, 7))
    def test_scenario_source(self, size):
        from repro.bgp.announcement import PathCommTuple

        items = [
            PathCommTuple(ASPath([10, 30]), CommunitySet.from_strings(["30:1"])),
            PathCommTuple(ASPath([20, 40]), CommunitySet.empty()),
        ]
        source = ScenarioSource(items, start=0, duration=100, repeat=3)
        assert isinstance(source, BlockSource)
        blocks = list(source.iter_blocks(size))
        assert [event for block in blocks for event in block] == list(source)

    @pytest.mark.parametrize("order", ("archive", "time"))
    @pytest.mark.parametrize("size", (1, 2, 4, 100))
    def test_mrt_replay_source(self, order, size):
        blobs = {
            "rrc00": _mrt_blob([300, 100, 200], peer=10),
            "rrc01": _mrt_blob([150, 100], peer=20),
        }
        source = MRTReplaySource(blobs, order=order)
        assert isinstance(source, BlockSource)
        blocks = list(source.iter_blocks(size))
        flattened = [
            (event.collector, event.timestamp) for block in blocks for event in block
        ]
        assert flattened == [(event.collector, event.timestamp) for event in source]

    def test_mrt_archive_blocks_never_span_collectors(self):
        blobs = {
            "rrc00": _mrt_blob([1, 2, 3], peer=10),
            "rrc01": _mrt_blob([4, 5], peer=20),
        }
        blocks = list(MRTReplaySource(blobs).iter_blocks(2))
        for block in blocks:
            assert len({event.collector for event in block}) == 1

    def test_iter_event_blocks_chunks_plain_iterables(self):
        events = varied_feed()
        blocks = list(iter_event_blocks(iter(events), 5))
        assert [event for block in blocks for event in block] == events
        assert all(len(block) <= 5 for block in blocks[:-1])

    def test_iter_event_blocks_prefers_source_blocks(self):
        class Probe(MemorySource):
            def __init__(self, events):
                super().__init__(events)
                self.asked = None

            def iter_blocks(self, size):
                self.asked = size
                return super().iter_blocks(size)

        probe = Probe(varied_feed())
        list(iter_event_blocks(probe, 9))
        assert probe.asked == 9

    @pytest.mark.parametrize("size", (0, -1))
    def test_invalid_block_sizes_rejected(self, size):
        with pytest.raises(ValueError):
            iter_event_blocks(varied_feed(), size)
        with pytest.raises(ValueError):
            list(MemorySource(varied_feed()).iter_blocks(size))


# ---------------------------------------------------------------------------------------
# MRT replay determinism
# ---------------------------------------------------------------------------------------
class TestMRTReplayDeterminism:
    def test_order_independent_of_mapping_insertion(self):
        """Replay order is a function of blob contents, not dict ordering."""
        blob_a = _mrt_blob([300, 100], peer=10)
        blob_b = _mrt_blob([200, 100], peer=20)
        for order in ("archive", "time"):
            forward = MRTReplaySource({"rrc00": blob_a, "rrc01": blob_b}, order=order)
            reverse = MRTReplaySource({"rrc01": blob_b, "rrc00": blob_a}, order=order)
            key = lambda event: (event.collector, event.timestamp, event.peer_asn)
            assert [key(e) for e in forward] == [key(e) for e in reverse]
            assert [
                [key(e) for e in block] for block in forward.iter_blocks(2)
            ] == [[key(e) for e in block] for block in reverse.iter_blocks(2)]

    def test_time_order_breaks_ties_on_collector_name(self):
        blobs = {
            "rrc01": _mrt_blob([100, 50], peer=20),
            "rrc00": _mrt_blob([100], peer=10),
        }
        merged = [
            (event.timestamp, event.collector)
            for event in MRTReplaySource(blobs, order="time")
        ]
        assert merged == [(50, "rrc01"), (100, "rrc00"), (100, "rrc01")]


# ---------------------------------------------------------------------------------------
# Telemetry: engine -> publisher -> store -> /metrics
# ---------------------------------------------------------------------------------------
class TestIngestTelemetry:
    def test_ingest_stats_shape(self):
        registry = ASNRegistry.from_asns([10, 20, 30, 40, 50])
        engine = StreamEngine(
            StreamConfig(window=WindowSpec(size=100), ingest_block_size=7),
            asn_registry=registry,
        )
        engine.run(MemorySource(varied_feed()))
        stats = engine.ingest_stats()
        assert stats["blocks_total"] == engine.stats.blocks_in > 0
        assert stats["events_total"] == len(varied_feed())
        assert sum(stats["events_per_block_buckets"]) == stats["blocks_total"]
        assert stats["dropped"]["unallocated_asn"] > 0

    def test_publisher_bridges_stats_into_store(self):
        store = SnapshotStore(":memory:")
        engine = StreamEngine(StreamConfig(window=WindowSpec(size=100)))
        attach_store(engine, store)
        engine.run(MemorySource(varied_feed()))
        persisted = store.ingest_stats()
        assert persisted is not None
        assert persisted["blocks_total"] == engine.stats.blocks_in
        assert persisted["events_total"] == engine.stats.events_in

    def test_render_metrics_exposes_ingest_series(self):
        registry = ASNRegistry.from_asns([10, 20, 30, 40, 50])
        engine = StreamEngine(
            StreamConfig(window=WindowSpec(size=100)), asn_registry=registry
        )
        engine.run(MemorySource(varied_feed()))
        text = render_metrics(
            endpoints={},
            store_stats={"generation": 1},
            followers={},
            churn_total=0,
            churn_top=[],
            workers=1,
            ingest=engine.ingest_stats(),
        )
        assert "repro_ingest_blocks_total" in text
        assert "repro_ingest_events_total" in text
        assert 'repro_ingest_events_per_block_bucket{le="+Inf"}' in text
        assert 'repro_ingest_sanitation_dropped_total{reason="unallocated_asn"}' in text
        # Histogram sum == total events: each block contributes its size once.
        count_line = next(
            line
            for line in text.splitlines()
            if line.startswith("repro_ingest_events_per_block_count")
        )
        assert float(count_line.split()[-1]) == float(engine.stats.blocks_in)

    def test_render_metrics_without_ingest_stays_silent(self):
        text = render_metrics(
            endpoints={},
            store_stats={"generation": 1},
            followers={},
            churn_total=0,
            churn_top=[],
            workers=1,
        )
        assert "repro_ingest" not in text
