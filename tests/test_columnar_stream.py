"""Streaming conformance: engine vs oracle, memoised sanitation, dedup state.

Everything the engine makes observable — window snapshots, sanitation
statistics, final classification — must equal the event-at-a-time batch
oracle in :mod:`stream_oracle`; plus the checkpoint/restore and worker-memo
machinery of the interned path.
"""

from __future__ import annotations

import pickle
import random

import pytest
from column_oracle import counter_state
from stream_oracle import engine_windows, reference_windows

from repro.bgp.announcement import PathCommTuple, RouteBlock, RouteObservation
from repro.bgp.community import Community, CommunitySet
from repro.bgp.path import ASPath
from repro.bgp.prefix import Prefix, PrefixAllocation
from repro.core.export import ClassificationDatabase
from repro.core.tuples import TupleTable
from repro.parallel import ParallelStreamEngine
from repro.stream.checkpoint import CheckpointError, CheckpointManager
from repro.stream.engine import StreamConfig, StreamEngine
from repro.stream.sharding import ShardWorker
from repro.stream.sources import ScenarioSource
from repro.stream.window import WindowPolicy, WindowSpec


def _random_tuples(rng: random.Random, count: int) -> list:
    tuples = []
    for _ in range(count):
        asns = tuple(rng.randint(100, 130) for _ in range(rng.randint(1, 6)))
        comms = [
            Community(rng.choice(list(asns) + [999]), rng.randint(0, 50))
            for _ in range(rng.randint(0, 4))
        ]
        tuples.append(PathCommTuple(ASPath(asns), CommunitySet(comms)))
    return tuples


class TestEngineConformance:
    @pytest.mark.parametrize("policy", [WindowPolicy.CUMULATIVE, WindowPolicy.SLIDING])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_engine_equals_oracle(self, shards, policy):
        rng = random.Random(11)
        source = list(
            ScenarioSource(_random_tuples(rng, 30), duration=3600, repeat=3)
        )
        spec = WindowSpec(
            size=300,
            policy=policy,
            horizon=600 if policy is WindowPolicy.SLIDING else None,
        )
        windows, sanitation = reference_windows(source, spec)
        engine = StreamEngine(StreamConfig(window=spec, shards=shards))
        final = engine.run(iter(source))
        assert engine_windows(engine) == windows
        assert engine.sanitation_stats().as_dict() == sanitation
        assert engine.unique_tuples == windows[-1][3]
        assert counter_state(final) == windows[-1][5]

    def test_checkpoint_restore_mid_stream(self, tmp_path):
        rng = random.Random(12)
        source = list(
            ScenarioSource(_random_tuples(rng, 25), duration=3600, repeat=3)
        )
        spec = WindowSpec(size=300, policy=WindowPolicy.SLIDING, horizon=600)
        config = StreamConfig(window=spec, shards=2)

        uninterrupted = StreamEngine(config)
        expected = uninterrupted.run(iter(source))

        manager = CheckpointManager(tmp_path)
        engine = StreamEngine(config, checkpoints=manager)
        cut = len(source) // 2
        for observation in source[:cut]:
            engine.ingest(observation)
        engine.checkpoint()
        restored = StreamEngine.restore(manager)
        for observation in source[cut:]:
            restored.ingest(observation)
        final = restored.finish()
        assert counter_state(final) == counter_state(expected)
        assert final.observed_ases == expected.observed_ases

    def test_version_1_checkpoint_is_rejected(self, tmp_path):
        """Pre-change files (object-keyed dedup sets, a ``representation``
        config field) must fail typed, not with an AttributeError mid-restore."""
        manager = CheckpointManager(tmp_path)
        path = manager.save(StreamEngine(StreamConfig()).state_dict())
        payload = pickle.loads(path.read_bytes())
        payload["version"] = 1
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(CheckpointError, match="version 1"):
            StreamEngine.restore(manager)

    def test_checkpoint_naming_a_deleted_class_is_rejected(self, tmp_path, monkeypatch):
        """A real version-1 file pickles ``PhaseRecord`` instances, so it fails
        to unpickle before its version can even be read."""
        import repro.stream.incremental as incremental

        class PhaseRecord:
            pass

        PhaseRecord.__module__ = incremental.__name__
        PhaseRecord.__qualname__ = "PhaseRecord"
        manager = CheckpointManager(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(incremental, "PhaseRecord", PhaseRecord, raising=False)
            manager.save({"tagging_records": [PhaseRecord()]})
        with pytest.raises(CheckpointError, match="PhaseRecord"):
            manager.load()


class TestOneStreamingAlgorithm:
    """The engine streams the column algorithm only; the row baseline is batch."""

    SPEC = WindowSpec(size=300, policy=WindowPolicy.SLIDING, horizon=600)

    def feed(self):
        rng = random.Random(14)
        return list(ScenarioSource(_random_tuples(rng, 25), duration=3600, repeat=3))

    def checkpoint(self, tmp_path, events, edit):
        """A checkpoint after *events*, its state passed through *edit*."""
        manager = CheckpointManager(tmp_path)
        engine = StreamEngine(StreamConfig(window=self.SPEC, shards=2), checkpoints=manager)
        engine.ingest_block(events)
        path = engine.checkpoint()
        payload = pickle.loads(path.read_bytes())
        edit(payload["state"])
        path.write_bytes(pickle.dumps(payload))
        return manager

    @pytest.mark.parametrize("engine_cls", [StreamEngine, ParallelStreamEngine])
    def test_a_row_state_is_refused(self, tmp_path, engine_cls):
        def to_row(state):
            # A streaming row run's config carried the algorithm, too.
            vars(state["config"])["algorithm"] = "row"
            state["classifier"]["algorithm"] = "row"

        manager = self.checkpoint(tmp_path, self.feed()[:40], to_row)
        with pytest.raises(CheckpointError, match="repro classify --algorithm row"):
            engine_cls.restore(manager)

    def test_a_column_checkpoint_from_before_continues_unchanged(self, tmp_path):
        """Checkpoints written while ``StreamConfig`` had an ``algorithm``
        field pickle it in the config's ``__dict__`` (format 3 either way):
        they restore and continue to the bytes of an uninterrupted run."""
        events = self.feed()
        cut = len(events) // 2
        uninterrupted = StreamEngine(StreamConfig(window=self.SPEC, shards=2))
        expected = uninterrupted.run(iter(events))

        manager = self.checkpoint(
            tmp_path, events[:cut], lambda state: vars(state["config"]).update(algorithm="column")
        )
        restored = StreamEngine.restore(manager)
        assert restored.stats.events_in == cut
        final = restored.run(iter(events[cut:]))
        assert ClassificationDatabase.from_result(final).dumps() == (
            ClassificationDatabase.from_result(expected).dumps()
        )
        tail = engine_windows(restored)
        assert tail and tail == engine_windows(uninterrupted)[-len(tail) :]


lowered = RouteBlock.from_observations  # what ``ingest_block`` does to a list


def _observation(item: PathCommTuple, timestamp: int) -> RouteObservation:
    return RouteObservation(
        collector="test",
        peer_asn=item.peer,
        prefix=Prefix.ipv4((20 << 24) | ((item.origin % 65536) << 8), 24),
        path=item.path,
        communities=item.communities,
        timestamp=timestamp,
    )


class TestShardWorkerMemo:
    def test_memo_replays_stats_event_for_event(self):
        rng = random.Random(13)
        tuples = _random_tuples(rng, 20)
        observations = [
            _observation(item, 100 + index)
            for index, item in enumerate(tuples * 3)  # 2/3 duplicates: memo hits
        ]
        plain = ShardWorker(0)  # the process pool's table-less form
        columnar = ShardWorker(0, table=TupleTable())
        for observation in observations:
            plain.process_block(lowered([observation]))
            columnar.process_block(lowered([observation]))
        assert columnar.sanitizer.stats.as_dict() == plain.sanitizer.stats.as_dict()
        assert columnar.events_processed == plain.events_processed
        assert columnar.unique_tuples == plain.unique_tuples

    def test_memo_disabled_with_mutable_allocation_context(self):
        allocation = PrefixAllocation.default_internet()
        worker = ShardWorker(0, table=TupleTable(), prefix_allocation=allocation)
        item = PathCommTuple(ASPath((101, 102)), CommunitySet())
        worker.process_block(lowered([_observation(item, 1)]))
        worker.process_block(lowered([_observation(item, 2)]))
        assert not worker.sanitizer._memo  # lookups stay live against the registry
        assert worker.sanitizer.stats.observations_in == 2

    def test_memo_cleared_on_state_restore(self):
        worker = ShardWorker(0, table=TupleTable())
        item = PathCommTuple(ASPath((101, 102)), CommunitySet())
        worker.process_block(lowered([_observation(item, 1)]))
        assert worker.sanitizer._memo
        worker.load_state_dict(worker.state_dict())
        assert not worker.sanitizer._memo


class TestStateSnapshotsAreFrozen:
    """``state_dict()`` output must not move with the live object, and
    ``load_state_dict()`` must not adopt what the caller still holds."""

    def test_shard_snapshot_does_not_grow_with_the_live_set(self):
        """Regression: the seen-set was once handed out live, so tuples
        added after a checkpoint leaked into the written snapshot."""
        worker = ShardWorker(0, table=TupleTable())
        first = PathCommTuple(ASPath((1, 2)), CommunitySet())
        second = PathCommTuple(ASPath((3, 4)), CommunitySet())
        worker.process_block(lowered([_observation(first, 1)]))
        snapshot = worker.state_dict()
        worker.process_block(lowered([_observation(second, 2)]))
        assert len(snapshot["seen"]) == 1  # must not grow with the live set
        assert snapshot["sanitation_stats"].observations_in == 1
        assert worker.unique_tuples == 2
        restored = ShardWorker(0, table=worker.table)
        restored.load_state_dict(snapshot)
        snapshot["seen"].clear()  # ... and a restore does not adopt the caller's set
        assert restored.unique_tuples == 1
        assert restored.evict(worker.state_dict()["seen"]) == 1

    @staticmethod
    def _events(count=20):
        """Distinct clean tuples: every event is kept and new."""
        return [
            _observation(PathCommTuple(ASPath((100 + i, 200 + i)), CommunitySet()), 100 + i)
            for i in range(count)
        ]

    @pytest.mark.parametrize("shards", [1, 3])
    def test_engine_snapshot_stays_at_its_event(self, shards):
        """Regression: a state dict taken at 5 events read ``events_in == 20``
        after 15 more were ingested (the live counter objects were shared)."""
        events = self._events()
        engine = StreamEngine(StreamConfig(shards=shards))
        engine.ingest_block(events[:5])
        snapshot = engine.state_dict()
        engine.ingest_block(events[5:])
        assert engine.stats.events_in == 20
        assert snapshot["stats"].events_in == 5
        assert sum(snapshot["stats"].block_size_buckets) == 1
        workers = snapshot["router"]["workers"]
        assert len(workers) == shards
        assert sum(shard["sanitation_stats"].observations_in for shard in workers) == 5
        assert snapshot["classifier"]["stats"].tuples_added == 5

    @pytest.mark.parametrize("shards", [1, 3])
    def test_engines_restored_from_one_state_are_independent(self, shards):
        """Regression: two engines restored from one in-memory state dict
        shared one ``StreamStats`` / ``SanitationStats`` with each other and
        with the engine the state came from."""
        events = self._events()
        source = StreamEngine(StreamConfig(shards=shards))
        source.ingest_block(events[:5])
        state = source.state_dict()
        twins = [StreamEngine(state["config"]) for _ in range(2)]
        for twin in twins:
            twin.load_state_dict(state)
        twins[0].ingest_block(events[5:])
        for untouched in (twins[1], source):
            assert untouched.stats.events_in == 5
            assert untouched.stats.blocks_in == 1
            assert untouched.sanitation_stats().observations_in == 5
            assert untouched.classifier.stats.tuples_added == 5
        assert twins[0].stats.events_in == 20
        assert twins[0].sanitation_stats().observations_in == 20
        assert twins[0].classifier.stats.tuples_added == 20
