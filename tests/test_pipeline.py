"""Tests for the end-to-end inference pipeline (repro.core.pipeline).

Covers the three entry points, lazy-iterable ingestion, algorithm selection,
and the streaming equivalence property: a fully drained stream engine must
produce a classification identical to the batch pipeline over the same data.
"""

import pytest
from column_oracle import counter_state

from repro.bgp.announcement import PathCommTuple, RouteObservation
from repro.bgp.community import CommunitySet
from repro.bgp.messages import BGPUpdate, PathAttributes
from repro.bgp.path import ASPath
from repro.bgp.prefix import parse_prefix
from repro.core.pipeline import InferencePipeline
from repro.mrt.encoder import MRTEncoder
from repro.sanitize.filters import SanitationStats
from repro.stream import (
    DEFAULT_INGEST_BLOCK_SIZE,
    MemorySource,
    ScenarioSource,
    StreamConfig,
    StreamEngine,
    WindowSpec,
)

#: (path, communities) inputs with a clear tagger/forwarder structure.
SCENARIO = [
    ([10], ["10:1"]),
    ([20], []),
    ([30], ["30:1"]),
    ([10, 30], ["10:1", "30:1"]),
    ([20, 30], ["30:1"]),
    ([20, 30], ["30:1"]),  # duplicate announcement
]


def make_observations(items=SCENARIO):
    """Observations as a route collector would record them."""
    return [
        RouteObservation(
            collector="rrc00",
            peer_asn=asns[0],
            prefix=parse_prefix("8.8.8.0/24"),
            path=ASPath(asns),
            communities=CommunitySet.from_strings(comms),
            timestamp=1000 + index,
        )
        for index, (asns, comms) in enumerate(items)
    ]


def result_fingerprint(result):
    """Everything that defines a classification outcome."""
    return (
        result.as_code_map(),
        counter_state(result),
        set(result.observed_ases),
    )


class TestRunFromObservations:
    def test_classifies_and_deduplicates(self):
        outcome = InferencePipeline().run_from_observations(make_observations())
        assert outcome.observations_in == len(SCENARIO)
        assert outcome.unique_tuples == len(SCENARIO) - 1  # one duplicate
        assert outcome.result.classification_of(10).tagging.code == "t"
        assert outcome.result.classification_of(20).tagging.code == "s"

    def test_accepts_lazy_iterables(self):
        eager = InferencePipeline().run_from_observations(make_observations())
        lazy = InferencePipeline().run_from_observations(
            observation for observation in make_observations()
        )
        assert lazy.observations_in == eager.observations_in == len(SCENARIO)
        assert result_fingerprint(lazy.result) == result_fingerprint(eager.result)
        assert lazy.sanitation.as_dict() == eager.sanitation.as_dict()

    def test_sanitation_stats_are_reported(self):
        # A private ASN on the path must be dropped and accounted for.
        items = SCENARIO + [([10, 64512], [])]
        outcome = InferencePipeline().run_from_observations(make_observations(items))
        assert outcome.sanitation.dropped_unallocated_asn == 1
        assert outcome.observations_in == len(items)


class TestRunFromTuples:
    def test_classifies_pre_sanitized_tuples(self):
        tuples = [
            PathCommTuple(ASPath(asns), CommunitySet.from_strings(comms))
            for asns, comms in SCENARIO
        ]
        outcome = InferencePipeline().run_from_tuples(tuples)
        assert outcome.unique_tuples == len(tuples)
        assert outcome.result.classification_of(30).tagging.code == "t"

    def test_zero_sanitation_is_reported_honestly(self):
        """Pre-sanitized tuples must not masquerade as raw observations."""
        tuples = [
            PathCommTuple(ASPath(asns), CommunitySet.from_strings(comms))
            for asns, comms in SCENARIO
        ]
        outcome = InferencePipeline().run_from_tuples(tuples)
        assert outcome.sanitized is False
        assert outcome.observations_in == 0
        assert outcome.sanitation.as_dict() == SanitationStats().as_dict()
        assert "observations_in" not in outcome.summary()
        assert outcome.summary()["unique_tuples"] == len(tuples)
        # The observation path still reports the raw count.
        sanitized = InferencePipeline().run_from_observations(make_observations())
        assert sanitized.sanitized is True
        assert sanitized.summary()["observations_in"] == len(SCENARIO)

    def test_accepts_generators(self):
        tuples = [
            PathCommTuple(ASPath(asns), CommunitySet.from_strings(comms))
            for asns, comms in SCENARIO
        ]
        outcome = InferencePipeline().run_from_tuples(iter(tuples))
        assert outcome.unique_tuples == len(tuples)


class TestRunFromMrt:
    @pytest.fixture()
    def blobs(self):
        encoder = MRTEncoder()
        for observation in make_observations():
            encoder.write_update(
                BGPUpdate(
                    peer_asn=observation.peer_asn,
                    timestamp=observation.timestamp,
                    announced=(observation.prefix,),
                    attributes=PathAttributes(
                        as_path=observation.path, communities=observation.communities
                    ),
                )
            )
        return {"rrc00": encoder.getvalue()}

    def test_matches_run_from_observations(self, blobs):
        from_mrt = InferencePipeline().run_from_mrt(blobs)
        from_observations = InferencePipeline().run_from_observations(make_observations())
        assert from_mrt.observations_in == from_observations.observations_in
        assert result_fingerprint(from_mrt.result) == result_fingerprint(
            from_observations.result
        )


class TestAlgorithmSelection:
    def test_row_algorithm_is_selectable(self):
        outcome = InferencePipeline(algorithm="row").run_from_observations(
            make_observations()
        )
        assert outcome.result.algorithm == "row"

    def test_unknown_algorithm_is_rejected(self):
        with pytest.raises(ValueError):
            InferencePipeline(algorithm="diagonal")

    def test_algorithms_may_disagree_but_both_classify(self):
        column = InferencePipeline(algorithm="column").run_from_observations(
            make_observations()
        )
        row = InferencePipeline(algorithm="row").run_from_observations(make_observations())
        assert column.result.algorithm == "column"
        assert len(column.result) == len(row.result)


class TestStreamingEquivalence:
    """Batch result == fully-drained stream result (the tentpole property)."""

    @pytest.fixture(scope="class")
    def feed(self, scenario_builder):
        from repro.usage.scenarios import ScenarioName

        dataset = scenario_builder.build(ScenarioName.RANDOM)
        return list(ScenarioSource(dataset.tuples, duration=86400, repeat=2))

    @pytest.mark.parametrize("block_size", [64, DEFAULT_INGEST_BLOCK_SIZE])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_stream_drain_equals_batch(self, feed, shards, block_size):
        batch = InferencePipeline().run_from_observations(feed)
        engine = StreamEngine(
            StreamConfig(
                window=WindowSpec(size=3600), shards=shards, ingest_block_size=block_size
            )
        )
        streamed = engine.run(MemorySource(feed))
        assert engine.stats.windows_closed > 1
        assert engine.unique_tuples == batch.unique_tuples
        assert result_fingerprint(streamed) == result_fingerprint(batch.result)

    def test_stream_equivalence_out_of_order(self, feed):
        """Event order must not matter for the cumulative policy."""
        shuffled = list(reversed(feed))
        batch = InferencePipeline().run_from_observations(feed)
        engine = StreamEngine(StreamConfig(window=WindowSpec(size=3600)))
        streamed = engine.run(MemorySource(shuffled))
        assert result_fingerprint(streamed) == result_fingerprint(batch.result)
