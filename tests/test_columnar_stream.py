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
from stream_oracle import engine_windows, reference_windows

from repro.bgp.announcement import PathCommTuple, RouteObservation
from repro.bgp.community import Community, CommunitySet
from repro.bgp.path import ASPath
from repro.bgp.prefix import Prefix, PrefixAllocation
from repro.core.tuples import TupleTable
from repro.sanitize.filters import TupleDeduper
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
    @pytest.mark.parametrize("algorithm", ["column", "row"])
    def test_engine_equals_oracle(self, policy, algorithm):
        rng = random.Random(11)
        source = list(
            ScenarioSource(_random_tuples(rng, 30), duration=3600, repeat=3)
        )
        spec = WindowSpec(
            size=300,
            policy=policy,
            horizon=600 if policy is WindowPolicy.SLIDING else None,
        )
        windows, sanitation = reference_windows(source, spec, algorithm)
        engine = StreamEngine(StreamConfig(window=spec, shards=3, algorithm=algorithm))
        final = engine.run(iter(source))
        assert engine_windows(engine) == windows
        assert engine.sanitation_stats().as_dict() == sanitation
        assert engine.unique_tuples == windows[-1][3]
        assert final.store.state_dict() == windows[-1][5]

    def test_checkpoint_restore_mid_stream(self, tmp_path):
        rng = random.Random(12)
        source = list(
            ScenarioSource(_random_tuples(rng, 25), duration=3600, repeat=3)
        )
        spec = WindowSpec(size=300, policy=WindowPolicy.SLIDING, horizon=600)
        config = StreamConfig(window=spec, shards=2, algorithm="column")

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
        assert final.store.state_dict() == expected.store.state_dict()
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
            plain.process_block([observation])
            columnar.process_block([observation])
        assert columnar.sanitizer.stats.as_dict() == plain.sanitizer.stats.as_dict()
        assert columnar.events_processed == plain.events_processed
        assert columnar.unique_tuples == plain.unique_tuples

    def test_memo_disabled_with_mutable_allocation_context(self):
        allocation = PrefixAllocation.default_internet()
        worker = ShardWorker(0, table=TupleTable(), prefix_allocation=allocation)
        item = PathCommTuple(ASPath((101, 102)), CommunitySet())
        worker.process_block([_observation(item, 1)])
        worker.process_block([_observation(item, 2)])
        assert not worker._memo  # lookups stay live against the registry
        assert worker.sanitizer.stats.observations_in == 2

    def test_memo_cleared_on_state_restore(self):
        worker = ShardWorker(0, table=TupleTable())
        item = PathCommTuple(ASPath((101, 102)), CommunitySet())
        worker.process_block([_observation(item, 1)])
        assert worker._memo
        worker.load_state_dict(worker.state_dict())
        assert not worker._memo


class TestTupleDeduperSnapshots:
    def test_snapshot_stays_frozen_after_further_adds(self):
        """Regression: state_dict() once returned the live seen-set, so
        tuples added after a checkpoint leaked into the written snapshot."""
        deduper = TupleDeduper()
        first = PathCommTuple(ASPath((1, 2)), CommunitySet())
        second = PathCommTuple(ASPath((3, 4)), CommunitySet())
        deduper.add(_observation(first, 1))
        snapshot = deduper.state_dict()
        assert len(snapshot) == 1
        deduper.add(_observation(second, 2))
        assert len(snapshot) == 1  # must not grow with the live deduper
        assert len(deduper) == 2

    def test_from_state_does_not_adopt_callers_set(self):
        seen = {(ASPath((1, 2)), CommunitySet())}
        deduper = TupleDeduper.from_state(seen)
        seen.clear()
        assert len(deduper) == 1

    def test_discard_forgets_arbitrary_keys(self):
        deduper = TupleDeduper(seen={(0, 0)})
        assert (0, 0) in deduper
        assert deduper.discard([(0, 0), (1, 1)]) == 1
        assert (0, 0) not in deduper and len(deduper) == 0
