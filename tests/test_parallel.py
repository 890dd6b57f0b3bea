"""Tests for the multi-process execution layer (repro.parallel).

The load-bearing property is *byte identity*: for any worker count, any
and any shard count, the parallel stream engine must produce
exactly what the serial engine produces — same counters, same codes, same
observed ASes, same window snapshots, same checkpoints.
"""

from dataclasses import replace

import pytest
from column_oracle import counter_state
from sanitize_oracle import ObservationSanitizer

from repro.bgp.announcement import PathCommTuple
from repro.parallel import ParallelStreamEngine, ShardProcessPool
from repro.stream import (
    MemorySource,
    ScenarioSource,
    StreamConfig,
    StreamEngine,
    WindowSpec,
    shard_of,
)


def result_fingerprint(result):
    """Everything that defines a classification outcome."""
    return (
        result.as_code_map(),
        counter_state(result),
        set(result.observed_ases),
    )


@pytest.fixture(scope="module")
def feed(scenario_builder):
    from repro.usage.scenarios import ScenarioName

    dataset = scenario_builder.build(ScenarioName.RANDOM)
    return list(ScenarioSource(dataset.tuples, duration=86400, repeat=2))


# ---------------------------------------------------------------------------------------
class TestShardProcessPool:
    def test_process_batch_matches_serial_sanitizer(self, feed):
        sample = feed[:500]
        serial = ObservationSanitizer()
        expected = serial.to_unique_tuples(sample)
        with ShardProcessPool(shards=4, workers=2) as pool:
            kept = []
            news = pool.process_batch(list(enumerate(sample)), kept)
            stats = pool.sanitation_stats()
        assert [PathCommTuple(*pair) for _, _, pair in news] == expected
        assert stats.as_dict() == serial.stats.as_dict()
        # Every surviving item is reported as kept, in sequence order, by the
        # shard that owns it; the new ones are a subsequence of those.
        assert len(kept) == serial.stats.observations_out
        assert [seq for seq, _, _ in kept] == sorted(seq for seq, _, _ in kept)
        assert all(shard == shard_of(sample[seq].peer_asn, 4) for seq, shard, _ in kept)
        assert set(news) <= set(kept)

    def test_state_round_trip(self, feed):
        with ShardProcessPool(shards=3, workers=2) as pool:
            pool.process_batch(list(enumerate(feed[:200])))
            states = pool.state_dicts()
            unique_before = pool.unique_tuples
        with ShardProcessPool(shards=3, workers=3) as pool:
            pool.load_state_dicts(states)
            assert pool.unique_tuples == unique_before
            # Known tuples stay deduplicated after the hand-off.
            kept = []
            assert pool.process_batch(list(enumerate(feed[:200])), kept) == []
            assert kept  # still sanitized and reported, just not new

    def test_workers_clamped_to_shards(self):
        with ShardProcessPool(shards=2, workers=8) as pool:
            assert pool.workers == 2


# ---------------------------------------------------------------------------------------
class TestParallelStreamEngine:
    def snapshot_fingerprints(self, engine):
        return [
            (s.window_start, s.window_end, s.skipped_windows, s.events_total,
             s.unique_tuples, s.changed, result_fingerprint(s.result))
            for s in engine.snapshots
        ]

    @pytest.mark.parametrize("shards,workers", [(1, 1), (4, 2), (5, 3)])
    def test_identical_to_serial_engine(self, feed, shards, workers):
        config = StreamConfig(window=WindowSpec(size=3600), shards=shards)
        serial = StreamEngine(config)
        serial_result = serial.run(MemorySource(feed))
        # The block size reaches the fleet through the config, like the serial
        # engine's; a different size on each side must not show in any window.
        parallel = ParallelStreamEngine(replace(config, ingest_block_size=128), workers=workers)
        parallel_result = parallel.run(MemorySource(feed))
        assert result_fingerprint(parallel_result) == result_fingerprint(serial_result)
        assert parallel.stats.events_in == serial.stats.events_in
        assert parallel.stats.windows_closed == serial.stats.windows_closed
        assert self.snapshot_fingerprints(parallel) == self.snapshot_fingerprints(serial)

    @staticmethod
    def sliding_config(shards=3, ingest_block_size=4096):
        return StreamConfig(
            window=WindowSpec(size=3600, policy="sliding", horizon=7200),
            shards=shards,
            ingest_block_size=ingest_block_size,
        )

    @staticmethod
    def seen_pairs(engine):
        """Each shard's dedup set, resolved through the engine's own table."""
        return [
            {(engine._table.path_of(path_id), engine._table.comm_of(comm_id))
             for path_id, comm_id in worker["seen"]}
            for worker in engine.state_dict()["router"]["workers"]
        ]

    @pytest.mark.parametrize("shards,workers", [(3, 2), (5, 3)])
    def test_sliding_policy_identical(self, feed, shards, workers):
        config = self.sliding_config(shards=shards)
        serial = StreamEngine(config)
        serial_result = serial.run(MemorySource(feed))
        parallel = ParallelStreamEngine(replace(config, ingest_block_size=64), workers=workers)
        parallel_result = parallel.run(MemorySource(feed))
        assert result_fingerprint(parallel_result) == result_fingerprint(serial_result)
        assert parallel.stats.tuples_evicted == serial.stats.tuples_evicted > 0
        assert self.snapshot_fingerprints(parallel) == self.snapshot_fingerprints(serial)

    def test_final_flush_eviction_reaches_the_router_mirror(self, feed):
        """Regression: run() synced the mirror *before* finish(), so the last
        window's evicted keys stayed in the mirrored dedup sets."""
        config = self.sliding_config(shards=2, ingest_block_size=64)
        serial = StreamEngine(config)
        serial.run(MemorySource(feed))
        parallel = ParallelStreamEngine(config, workers=2)
        parallel.run(MemorySource(feed))
        assert parallel.unique_tuples == serial.unique_tuples == len(serial._last_seen)
        assert self.seen_pairs(parallel) == self.seen_pairs(serial)

    def test_failed_run_leaves_the_router_mirror_current(self, feed, tmp_path):
        """Regression: run() synced the mirror on the success path only.  After
        a source failure a checkpoint paired the advanced classifier with the
        pre-run dedup sets, and a resume counted every absorbed tuple twice."""
        from repro.stream import CheckpointManager

        tuples = [event.to_tuple() for event in feed[: len(feed) // 2 : 10]]
        events = list(ScenarioSource(tuples, duration=86400, repeat=2))
        cut = len(events) // 3

        def dropped_feed():
            yield from events[:cut]
            raise ConnectionError("feed dropped")

        def resumed_after_failure(engine, manager):
            with pytest.raises(ConnectionError):
                engine.run(dropped_feed())
            engine.checkpoint()
            resumed = StreamEngine.restore(manager)
            # The chunker loses the block the failure interrupted, on both engines.
            result = resumed.run(MemorySource(events[cut - cut % 64 :]))
            return resumed, result

        config = StreamConfig(window=WindowSpec(size=3600), shards=2, ingest_block_size=64)
        manager = CheckpointManager(tmp_path / "serial")
        serial, serial_result = resumed_after_failure(
            StreamEngine(config, checkpoints=manager), manager
        )
        manager = CheckpointManager(tmp_path / "parallel")
        parallel, parallel_result = resumed_after_failure(
            ParallelStreamEngine(config, workers=2, checkpoints=manager), manager
        )
        assert serial.classifier.tuple_count == len(tuples)
        assert parallel.classifier.tuple_count == serial.classifier.tuple_count
        assert parallel.classifier.stats.tuples_added == serial.classifier.stats.tuples_added
        assert counter_state(parallel_result) == counter_state(serial_result)
        assert self.seen_pairs(parallel) == self.seen_pairs(serial)

    @pytest.mark.parametrize("resume_parallel", [False, True])
    def test_resume_from_post_run_checkpoint(self, feed, tmp_path, resume_parallel):
        """A checkpoint taken after run() (what ``stream --checkpoint-dir``
        writes) resumes to the uninterrupted result: evicted tuples re-enter."""
        from repro.stream import CheckpointManager

        split = len(feed) // 2
        config = self.sliding_config(shards=2, ingest_block_size=64)
        manager = CheckpointManager(tmp_path / "ckpt")
        first = ParallelStreamEngine(config, workers=2, checkpoints=manager)
        first.run(MemorySource(feed[:split]))
        first.checkpoint()

        if resume_parallel:
            resumed = ParallelStreamEngine.restore(manager)
            resumed.workers = 2
        else:
            resumed = StreamEngine.restore(manager)
        resumed_result = resumed.run(MemorySource(feed[split:]))

        # finish() closed the in-progress window early, so the reference
        # makes the same cut: one engine, two run() calls.
        reference = StreamEngine(config)
        reference.run(MemorySource(feed[:split]))
        reference_result = reference.run(MemorySource(feed[split:]))
        assert result_fingerprint(resumed_result) == result_fingerprint(reference_result)
        assert resumed.unique_tuples == reference.unique_tuples

    def test_checkpoint_and_resume(self, feed, tmp_path):
        from repro.stream import CheckpointManager

        split = len(feed) // 2
        config = StreamConfig(window=WindowSpec(size=3600), shards=2, ingest_block_size=128)

        manager = CheckpointManager(tmp_path / "ckpt")
        first = ParallelStreamEngine(config, workers=2, checkpoints=manager)
        first.run(MemorySource(feed[:split]), finish=False)
        first.checkpoint()

        resumed = ParallelStreamEngine.restore(manager)
        resumed.workers = 2
        resumed_result = resumed.run(MemorySource(feed[split:]))

        uninterrupted = StreamEngine(config).run(MemorySource(feed))
        assert result_fingerprint(resumed_result) == result_fingerprint(uninterrupted)

    @pytest.mark.parametrize("block_size", [7, 4096])
    def test_block_size_comes_from_the_config(self, feed, block_size):
        """Regression: the fleet shipped its own 1024-event batches and
        ignored ``ingest_block_size`` (``stream --workers N --ingest-block-size``)."""
        events = feed[:3000]
        config = StreamConfig(
            window=WindowSpec(size=3600), shards=2, ingest_block_size=block_size
        )
        serial = StreamEngine(config)
        serial_result = serial.run(MemorySource(events))
        parallel = ParallelStreamEngine(config, workers=2)
        parallel_result = parallel.run(MemorySource(events))
        assert parallel.stats.blocks_in == serial.stats.blocks_in == -(-len(events) // block_size)
        assert result_fingerprint(parallel_result) == result_fingerprint(serial_result)
        assert self.snapshot_fingerprints(parallel) == self.snapshot_fingerprints(serial)

    def test_ingest_outside_run_is_counted_and_reaches_the_fleet(self, feed):
        """``ingest()`` is the inherited one-event block.  With no pool open it
        lands on the in-process router, and ``run()`` hands that state to the
        fleet, so early events are neither lost nor sanitized twice."""
        config = StreamConfig(window=WindowSpec(size=3600), shards=2, ingest_block_size=64)
        serial = StreamEngine(config)
        serial_result = serial.run(MemorySource(feed))
        parallel = ParallelStreamEngine(config, workers=2)
        for event in feed[:10]:
            parallel.ingest(event)
        assert parallel.stats.events_in == 10
        parallel_result = parallel.run(MemorySource(feed[10:]))
        assert parallel.stats.events_in == serial.stats.events_in
        assert parallel.unique_tuples == serial.unique_tuples
        assert parallel.router.load_distribution() == serial.router.load_distribution()
        assert parallel.sanitation_stats().as_dict() == serial.sanitation_stats().as_dict()
        assert result_fingerprint(parallel_result) == result_fingerprint(serial_result)
        assert self.snapshot_fingerprints(parallel) == self.snapshot_fingerprints(serial)

    @pytest.mark.parametrize("policy", ["cumulative", "sliding"])
    def test_checkpoints_land_on_the_serial_events(self, feed, tmp_path, policy):
        """The fleet inherits ``ingest_block``: blocks are cut at
        ``checkpoint_every`` before any shard sees them, so auto-checkpoints
        fire at the serial engine's events with the serial engine's state."""
        from repro.stream import CheckpointManager

        class Recording(CheckpointManager):
            def __init__(self, directory):
                super().__init__(directory)
                self.saved_at = []

            def save(self, state):
                self.saved_at.append(state["stats"].events_in)
                return super().save(state)

        # A tenth of the tuples, still announced twice over the whole day:
        # every checkpoint pickles the full state, so keep the state small.
        tuples = [event.to_tuple() for event in feed[: len(feed) // 2 : 10]]
        events = list(ScenarioSource(tuples, duration=86400, repeat=2))
        config = replace(
            self.sliding_config(shards=2, ingest_block_size=64)
            if policy == "sliding"
            else StreamConfig(window=WindowSpec(size=3600), shards=2, ingest_block_size=64),
            checkpoint_every=137,
        )
        serial_saves = Recording(tmp_path / "serial")
        serial = StreamEngine(config, checkpoints=serial_saves)
        serial_result = serial.run(MemorySource(events))
        parallel_saves = Recording(tmp_path / "parallel")
        parallel = ParallelStreamEngine(config, workers=2, checkpoints=parallel_saves)
        parallel.run(MemorySource(events))
        assert parallel_saves.saved_at == serial_saves.saved_at
        assert serial_saves.saved_at == list(range(137, len(events) + 1, 137))

        # The two engines mint table ids in different orders, so states are
        # compared as (path, comm) pairs, never as refs.
        from_parallel = StreamEngine.restore(parallel_saves)
        from_serial = StreamEngine.restore(serial_saves)
        assert self.seen_pairs(from_parallel) == self.seen_pairs(from_serial)
        assert (
            from_parallel.sanitation_stats().as_dict()
            == from_serial.sanitation_stats().as_dict()
        )
        assert from_parallel.router.load_distribution() == from_serial.router.load_distribution()
        resumed_result = from_parallel.run(MemorySource(events[parallel_saves.saved_at[-1] :]))
        assert result_fingerprint(resumed_result) == result_fingerprint(serial_result)
        assert from_parallel.unique_tuples == serial.unique_tuples
        assert from_parallel.stats.tuples_evicted == serial.stats.tuples_evicted
        assert (serial.stats.tuples_evicted > 0) == (policy == "sliding")

