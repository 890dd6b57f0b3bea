"""The route-block path from MRT bytes to dedup, against the slow references.

``tests/test_mrt_oracle.py`` pins what a decoded :class:`RouteBlock` holds;
this suite pins what the engine does with one:

* a hostile day replayed as route blocks publishes, window by window, what
  :mod:`stream_oracle` publishes over the observation view of the same bytes
  -- for block sizes that cut windows and checkpoints mid-block, one shard
  or eight, cumulative or sliding windows, interrupted and resumed or not;
* the one sanitize -> dedup loop (``Sanitizer.dedup_block``) moves every
  sanitation counter exactly as the per-observation reference in
  :mod:`sanitize_oracle` does, on mutated input, with and without the memo,
  and ``in - out`` is the sum of the drop reasons;
* batch ``classify`` (``InferencePipeline``), which runs the same loop,
  yields the reference's unique tuples in the same order and all of its
  counters, from observations and from MRT bytes;
* the memo is capped and the cap is unobservable.
"""

from __future__ import annotations

import random

import pytest
from column_oracle import counter_state
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from sanitize_oracle import ObservationSanitizer
from stream_oracle import engine_windows, reference_windows

from repro.bgp.announcement import RouteBlock, RouteObservation
from repro.bgp.asn import ASNRegistry, is_public_asn
from repro.bgp.community import CommunitySet
from repro.bgp.messages import BGPUpdate, PathAttributes
from repro.bgp.path import ASPath, PathSegment, SegmentType
from repro.bgp.prefix import PrefixAllocation, parse_prefix
from repro.collectors.archive import observations_from_mrt
from repro.core import pipeline
from repro.core.pipeline import InferencePipeline
from repro.core.tuples import TupleTable
from repro.mrt import MRTDecoder, MRTEncoder
from repro.sanitize import filters
from repro.sanitize.filters import Sanitizer
from repro.stream import (
    CheckpointManager,
    MRTReplaySource,
    StreamConfig,
    StreamEngine,
    WindowPolicy,
    WindowSpec,
)
from repro.stream.sharding import ShardWorker

PREFIXES = tuple(
    parse_prefix(text)
    for text in ("8.8.8.0/24", "9.9.0.0/16", "10.1.0.0/16", "2001:db8::/32", "2a00:1450::/29", "0.0.0.0/0")
)
#: Covers 8.8.8.0/24, 9.9.0.0/16 and 2a00:1450::/29; 10/8 is special-use,
#: 2001:db8::/32 and the default route are in no block.
ALLOCATION = PrefixAllocation()
ALLOCATION.register_many([parse_prefix("8.0.0.0/7"), parse_prefix("2a00::/12")])

PEERS = (3356, 1299, 200000, 64512)  # the last one is private
_PATHS = [
    ASPath([3356, 1299, 2914]),
    ASPath([3356, 1299, 2914, 2914, 2914]),  # prepending
    ASPath([1299, 2914, 174, 2914]),  # a loop
    ASPath([1299, 64512, 2914]),  # a private ASN
    ASPath([1299, 23456, 2914]),  # AS_TRANS, reserved
    ASPath([200000, 3356, 174, 6939, 2914, 3320]),  # long
    ASPath([174, 2914]),  # no collector peer in front (route server)
    ASPath.from_segments(
        [PathSegment(SegmentType.AS_SEQUENCE, (3356, 174)), PathSegment(SegmentType.AS_SET, (2914, 3320))]
    ),
    # Equal ASNs to the first path, but with an AS_SET: ``==`` cannot tell them apart.
    ASPath.from_segments(
        [PathSegment(SegmentType.AS_SEQUENCE, (3356, 1299, 2914)), PathSegment(SegmentType.AS_SET, (7,))]
    ),
    ASPath.from_segments([PathSegment(SegmentType.AS_SEQUENCE, ())]),  # empty
    ASPath.from_segments(
        [PathSegment(SegmentType.AS_CONFED_SEQUENCE, (64600,)), PathSegment(SegmentType.AS_SEQUENCE, (1299, 2914))]
    ),
]
#: Every public ASN of the day but 174, which four of the paths carry.
REGISTRY = ASNRegistry.from_asns(
    asn for asn in {*PEERS, *(asn for path in _PATHS for asn in path.asns)} - {174} if is_public_asn(asn)
)
_COMMUNITIES = [
    CommunitySet.empty(),
    CommunitySet.from_strings(["3356:100", "1299:20000"]),
    CommunitySet.from_strings(["2914:420", "200000:5:6"]),
]


def hostile_day(seed: int = 7, events: int = 260, span: int = 1000):
    """A time-ordered feed of everything sanitation defends against, as
    ``(timestamp, peer_asn, prefix, path, communities, from_rib)`` rows."""
    rng = random.Random(seed)
    rows = []
    for index in range(events):
        path = rng.choice(_PATHS)
        peer = path[0] if len(path) and path[0] in PEERS and rng.random() < 0.7 else rng.choice(PEERS)
        rows.append(
            (
                1000 + (index * span) // events + rng.choice((0, 0, 0, -40)),  # some stragglers
                peer,
                rng.choice(PREFIXES),
                path,
                rng.choice(_COMMUNITIES),
                rng.random() < 0.3,
            )
        )
    return rows


def to_mrt(rows) -> bytes:
    """Rows as MRT bytes: RIB entries, and UPDATEs announcing up to three
    prefixes (same family) when consecutive rows agree on everything else."""
    encoder = MRTEncoder()
    encoder.write_peer_index_table(list(PEERS), timestamp=1)
    pending = []

    def flush():
        if pending:
            timestamp, peer, _prefix, path, communities, _rib = pending[0]
            encoder.write_update(
                BGPUpdate(
                    peer_asn=peer,
                    timestamp=timestamp,
                    announced=tuple(row[2] for row in pending),
                    attributes=PathAttributes(as_path=path, communities=communities),
                )
            )
            pending.clear()

    for sequence, row in enumerate(rows):
        timestamp, peer, prefix, path, communities, from_rib = row
        if from_rib:
            flush()
            attributes = PathAttributes(as_path=path, communities=communities)
            encoder.write_rib_entry(prefix, [(peer, timestamp, attributes)], sequence=sequence, timestamp=timestamp)
            continue
        if pending and (
            len(pending) == 3
            or (pending[0][0], pending[0][1], pending[0][3], pending[0][4]) != (timestamp, peer, path, communities)
            or pending[0][2].afi != prefix.afi
        ):
            flush()
        pending.append(row)
    flush()
    return encoder.getvalue()


@pytest.fixture(scope="module")
def day():
    """``(MRT blob, its observation view)`` of the hostile day."""
    blob = to_mrt(hostile_day())
    observations = observations_from_mrt(blob, "rrc00")
    assert len(observations) == 260
    assert any(item.path.has_as_set for item in observations)
    assert any(len(item.path) == 0 for item in observations)
    return blob, observations


SPECS = {
    "cumulative": WindowSpec(size=100),
    "sliding": WindowSpec(size=100, policy=WindowPolicy.SLIDING, horizon=250),
}


def fingerprint(engine, result):
    return (
        engine_windows(engine),
        result.as_code_map(),
        counter_state(result),
        engine.stats.events_in,
        engine.unique_tuples,
        engine.late_events,
        engine.sanitation_stats().as_dict(),
    )


class TestRouteBlockFeed:
    @pytest.mark.parametrize("policy", sorted(SPECS))
    @pytest.mark.parametrize("shards", (1, 8))
    @pytest.mark.parametrize("block_size", (1, 7, 4096))
    def test_windows_equal_the_oracle(self, day, policy, shards, block_size):
        blob, observations = day
        config = StreamConfig(window=SPECS[policy], shards=shards, ingest_block_size=block_size)
        engine = StreamEngine(config)
        blocks = []
        source = MRTReplaySource({"rrc00": blob})
        for block in source.iter_blocks(block_size):
            assert isinstance(block, RouteBlock)
            blocks.append(len(block))
            engine.ingest_block(block)
        result = engine.finish()
        windows, sanitation = reference_windows(observations, SPECS[policy])
        assert len(windows) >= 9  # 4096-blocks are cut mid-block, over and over
        assert engine_windows(engine) == windows
        assert engine.sanitation_stats().as_dict() == sanitation
        assert sanitation["observations_in"] - sanitation["observations_out"] > 50
        assert engine.stats.blocks_in == len(blocks)
        # The same feed through ``run``, and as an observation list: one loop.
        again = StreamEngine(config)
        assert fingerprint(again, again.run(source)) == fingerprint(engine, result)
        lowered = StreamEngine(config)
        lowered.ingest_block(observations)
        assert fingerprint(lowered, lowered.finish())[:3] == fingerprint(engine, result)[:3]

    @pytest.mark.parametrize("policy", sorted(SPECS))
    def test_checkpoint_every_splits_blocks_where_per_event_ingest_would(self, day, tmp_path, policy):
        blob, observations = day
        windows, _ = reference_windows(observations, SPECS[policy])

        def run(directory, feed):
            config = StreamConfig(window=SPECS[policy], shards=2, checkpoint_every=37)
            engine = StreamEngine(config, checkpoints=CheckpointManager(directory, keep=100))
            feed(engine)
            return engine, engine.finish()

        def blocks(engine):
            for block in MRTReplaySource({"rrc00": blob}).iter_blocks(64):
                engine.ingest_block(block)

        def per_event(engine):
            for observation in observations:
                engine.ingest(observation)

        blocked, blocked_result = run(tmp_path / "blocks", blocks)
        single, single_result = run(tmp_path / "events", per_event)
        assert engine_windows(blocked) == windows
        assert fingerprint(blocked, blocked_result) == fingerprint(single, single_result)
        assert blocked.stats.checkpoints_written == single.stats.checkpoints_written == 260 // 37
        # Every checkpoint captured the same clock, dedup sets and counters.
        for ours, theirs in zip(blocked.checkpoints.checkpoints(), single.checkpoints.checkpoints()):
            ours, theirs = blocked.checkpoints.load(ours), single.checkpoints.load(theirs)
            assert ours["clock"] == theirs["clock"]
            assert ours["router"] == theirs["router"]
            assert ours["stats"].events_in == theirs["stats"].events_in
            assert ours["last_seen"] == theirs["last_seen"]

    @pytest.mark.parametrize("policy", sorted(SPECS))
    def test_checkpoint_and_resume_mid_file(self, day, tmp_path, policy):
        blob, observations = day
        config = StreamConfig(window=SPECS[policy], shards=3, ingest_block_size=50)
        uninterrupted = StreamEngine(config)
        expected = fingerprint(uninterrupted, uninterrupted.run(MRTReplaySource({"rrc00": blob})))

        manager = CheckpointManager(tmp_path)
        engine = StreamEngine(config, checkpoints=manager)
        decoder = MRTDecoder(blob)
        blocks = decoder.blocks("rrc00", 50)
        for _ in range(2):
            engine.ingest_block(next(blocks))
        engine.ingest_block(next(blocks)[:23])  # ... and stop inside a block
        engine.checkpoint()
        del engine

        resumed = StreamEngine.restore(manager)
        rest = list(MRTDecoder(blob).blocks("rrc00", 50))
        resumed.ingest_block(rest[2][23:])
        for block in rest[3:]:
            resumed.ingest_block(block)
        # Snapshots are not checkpointed: the resumed engine holds the windows
        # it closed itself, which are the uninterrupted run's last ones.
        windows, *rest = fingerprint(resumed, resumed.finish())
        assert 0 < len(windows) < len(expected[0]) and windows == expected[0][-len(windows) :]
        assert tuple(rest) == expected[1:]

    def test_a_drained_stream_equals_the_batch_pipeline(self, day):
        blob, observations = day
        batch = InferencePipeline().run_from_mrt({"rrc00": blob})
        assert batch.result.as_code_map() == InferencePipeline().run_from_observations(observations).result.as_code_map()
        engine = StreamEngine(StreamConfig(window=WindowSpec(size=86400), shards=4))
        final = engine.run(MRTReplaySource({"rrc00": blob}))
        assert final.as_code_map() == batch.result.as_code_map()
        assert counter_state(final) == counter_state(batch.result)
        assert engine.sanitation_stats().as_dict() == batch.sanitation.as_dict()
        assert engine.unique_tuples == batch.unique_tuples


# -- sanitation counters ------------------------------------------------------------------
_DROP_REASONS = (
    "dropped_unallocated_prefix",
    "dropped_unallocated_asn",
    "dropped_as_set",
    "dropped_loop",
    "dropped_empty_path",
)


def per_observation(observations, **sanitizer_options):
    """``(stats, unique sanitized pairs in first-appearance order)``, the slow way."""
    sanitizer = ObservationSanitizer(**sanitizer_options)
    pairs = [(item.path, item.communities) for item in sanitizer.to_unique_tuples(observations)]
    return sanitizer.stats.as_dict(), pairs


def block_loop(blocks, *, table, **sanitizer_options):
    """The same two through :meth:`ShardWorker.process_block`, block after block."""
    worker = ShardWorker(0, table=TupleTable() if table else None, **sanitizer_options)
    pairs = []
    for block in blocks:
        kept = []
        news = worker.process_block(RouteBlock.from_observations(block), kept)
        assert [index for index, _ in kept] == sorted(index for index, _ in kept)
        assert set(news) <= set(kept)
        for _index, key in news:
            pairs.append(
                (worker.table.path_of(key[0]), worker.table.comm_of(key[1])) if table else key
            )
    return worker.sanitizer.stats.as_dict(), pairs


rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 50),
        st.sampled_from(PEERS),
        st.sampled_from(PREFIXES),
        st.sampled_from(_PATHS),
        st.sampled_from(_COMMUNITIES),
        st.booleans(),
    ),
    min_size=1,
    max_size=40,
)


class TestSanitationCounters:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=rows_strategy, allocated=st.booleans(), table=st.booleans(),
           size=st.sampled_from([1, 3, 4096]))
    def test_block_loop_counts_event_for_event(self, rows, allocated, table, size):
        blob = to_mrt(rows)
        observations = observations_from_mrt(blob, "rrc00")
        options = {"prefix_allocation": ALLOCATION if allocated else None}
        expected_stats, expected_pairs = per_observation(observations, **options)
        assert expected_stats["observations_in"] - expected_stats["observations_out"] == sum(
            expected_stats[reason] for reason in _DROP_REASONS
        )
        # Decoder-filled columns (``prefix(i)`` materialised from the raw NLRI
        # whenever the allocation is attached) and lowered observation lists.
        decoded = list(MRTDecoder(blob).blocks("rrc00", size))
        lowered = [observations[start : start + size] for start in range(0, len(observations), size)]
        for blocks in (decoded, lowered):
            stats, pairs = block_loop(blocks, table=table, **options)
            assert stats == expected_stats
            assert [(path.asns, comm) for path, comm in pairs] == [
                (path.asns, comm) for path, comm in expected_pairs
            ]
        assert Sanitizer(**options).sanitize_block(observations) == [
            ObservationSanitizer(**options).sanitize_observation(item) for item in observations
        ]

    def test_the_day_drops_for_every_reason(self, day):
        _blob, observations = day
        stats, _ = per_observation(observations, prefix_allocation=ALLOCATION)
        assert all(stats[reason] > 0 for reason in _DROP_REASONS)
        assert stats["peer_prepended"] > 0 and stats["prepending_collapsed"] > 0

    @pytest.mark.parametrize("block_size", (7, 4096))
    @pytest.mark.parametrize("attached", ("nothing", "registry", "allocation", "both"))
    def test_batch_equals_the_oracle(self, day, monkeypatch, attached, block_size):
        """``run_from_observations`` and ``run_from_mrt``: the reference's
        unique tuples in order, and all nine counters."""
        blob, observations = day
        options = {
            "asn_registry": REGISTRY if attached in ("registry", "both") else None,
            "prefix_allocation": ALLOCATION if attached in ("allocation", "both") else None,
        }
        reference = ObservationSanitizer(**options)
        expected = [(item.path.asns, item.communities) for item in reference.to_unique_tuples(observations)]
        monkeypatch.setattr(pipeline, "SANITIZE_BLOCK_SIZE", block_size)
        batch = InferencePipeline(**options)
        for outcome in (batch.run_from_observations(iter(observations)), batch.run_from_mrt({"rrc00": blob})):
            assert [(item.path.asns, item.communities) for item in outcome.tuples] == expected
            assert outcome.sanitation.as_dict() == reference.stats.as_dict()
            assert outcome.observations_in == len(observations)
        assert expected and reference.stats.dropped_total > 0
        if options["asn_registry"] is not None:
            unregistered = ObservationSanitizer(prefix_allocation=options["prefix_allocation"])
            unregistered.to_unique_tuples(observations)
            assert reference.stats.dropped_unallocated_asn > unregistered.stats.dropped_unallocated_asn

    def test_a_memo_hit_still_asks_the_allocation(self):
        """Inside one block the same ``(path, comm, peer)`` arrives with an
        allocated prefix, then with an unallocated one: the second is
        dropped although its outcome is memoised."""
        path, communities = ASPath([3356, 1299, 2914]), _COMMUNITIES[1]
        rows = [(1000 + index, 3356, prefix, path, communities, False) for index, prefix in enumerate(PREFIXES[:3])]
        observations = [
            RouteObservation("rrc00", peer, prefix, path, communities, timestamp)
            for timestamp, peer, prefix, path, communities, _rib in rows
        ]
        assert [ALLOCATION.is_allocated(item.prefix) for item in observations] == [True, True, False]
        batch = InferencePipeline(prefix_allocation=ALLOCATION)
        for outcome in (batch.run_from_observations(observations), batch.run_from_mrt({"rrc00": to_mrt(rows)})):
            assert outcome.sanitation.dropped_unallocated_prefix == 1
            assert outcome.sanitation.observations_out == 2
        engine = StreamEngine(StreamConfig(window=WindowSpec(size=86400)), prefix_allocation=ALLOCATION)
        engine.ingest_block(observations)
        assert engine.sanitation_stats().dropped_unallocated_prefix == 1
        assert engine.sanitation_stats().observations_out == 2

    def test_an_allocation_attached_mid_stream_is_consulted_at_once(self, day):
        """Entries memoised while nothing was attached must not answer for
        prefixes the allocation, once attached, would drop."""
        blob, observations = day
        worker = ShardWorker(0, table=TupleTable())
        (block,) = MRTDecoder(blob).blocks("rrc00", 4096)
        worker.process_block(block)
        assert worker.sanitizer.stats.dropped_unallocated_prefix == 0
        worker.sanitizer.prefix_allocation = ALLOCATION
        before = worker.sanitizer.stats.observations_out
        worker.process_block(block)
        reference = ObservationSanitizer(prefix_allocation=ALLOCATION)
        kept = [reference.sanitize_observation(item) for item in observations]
        assert worker.sanitizer.stats.dropped_unallocated_prefix == reference.stats.dropped_unallocated_prefix > 0
        assert worker.sanitizer.stats.observations_out - before == sum(item is not None for item in kept)

    def test_sliding_retention_reads_timestamps_from_the_column(self, day):
        blob, observations = day
        engine = StreamEngine(StreamConfig(window=SPECS["sliding"]))
        (block,) = MRTDecoder(blob).blocks("rrc00", 4096)
        engine.ingest_block(block)
        newest = {}
        reference = ObservationSanitizer()
        for item in observations:
            kept = reference.sanitize_observation(item)
            if kept is not None:
                key = (kept.path.asns, kept.communities)
                newest[key] = max(newest.get(key, item.timestamp), item.timestamp)
        table = engine._table
        live = {
            (table.path_of(ref[0]).asns, table.comm_of(ref[1])): seen
            for ref, (seen, _shard) in engine._last_seen.items()
        }
        cutoff = engine.snapshots[-1].window_end - SPECS["sliding"].effective_horizon
        assert live == {key: seen for key, seen in newest.items() if seen >= cutoff}


# -- the shard memo's cap -----------------------------------------------------------------
class TestShardMemoCap:
    @staticmethod
    def storm(count):
        """*count* distinct inputs, a third of them dropped, each seen twice
        in its own block and once more much later."""
        observations = []
        for index in range(count):
            asns = [3356, 100000 + index, 64512 if index % 3 == 0 else 2914]
            observations.append(
                RouteObservation("rrc00", 3356, PREFIXES[0], ASPath(asns), _COMMUNITIES[index % 3], index)
            )
        return observations

    def run(self, observations, table):
        worker = ShardWorker(0, table=TupleTable() if table else None)
        outputs = []
        largest = 0
        for start in range(0, len(observations), 16):
            block = observations[start : start + 16]
            for feed in (block, block, observations[: start + 16 : 5]):
                kept = []
                outputs.append((worker.process_block(RouteBlock.from_observations(feed), kept), kept))
                largest = max(largest, len(worker.sanitizer._memo))
        return outputs, worker.sanitizer.stats.as_dict(), worker.unique_tuples, largest

    @pytest.mark.parametrize("table", (True, False))
    def test_the_cap_bounds_the_memo_and_nothing_else(self, monkeypatch, table):
        observations = self.storm(200)
        uncapped = self.run(observations, table)
        assert uncapped[3] == 200 and uncapped[1]["dropped_unallocated_asn"] > 0
        monkeypatch.setattr(filters, "SHARD_MEMO_CAP", 24)
        capped = self.run(observations, table)
        assert capped[3] <= 24
        assert capped[:3] == uncapped[:3]

    def test_the_default_cap_is_the_decoders(self):
        from repro.mrt.decoder import ATTRIBUTE_MEMO_CAP

        assert filters.SHARD_MEMO_CAP == ATTRIBUTE_MEMO_CAP == 65536
