"""Tests for classification results, attribution, and the end-to-end pipeline."""

import pytest

from repro.bgp.announcement import PathCommTuple, RouteObservation
from repro.bgp.asn import ASNRegistry
from repro.bgp.community import CommunitySet
from repro.bgp.path import ASPath
from repro.bgp.prefix import PrefixAllocation, parse_prefix
from repro.core.attribution import CommunityAttribution
from repro.core.classes import ForwardingClass, TaggingClass
from repro.core.column import ColumnInference
from repro.core.pipeline import InferencePipeline


def tuples_from(*items):
    return [
        PathCommTuple(ASPath(asns), CommunitySet.from_strings(comms)) for asns, comms in items
    ]


@pytest.fixture()
def simple_result():
    return ColumnInference().run(
        tuples_from(
            ([10], ["10:1"]),
            ([20], []),
            ([30], ["30:1"]),
            ([10, 30], ["10:5", "30:1"]),
            ([20, 30], ["30:1"]),
        )
    )


class TestClassificationResult:
    def test_summary_counts_are_consistent(self, simple_result):
        summary = simple_result.summary()
        assert summary["ases_observed"] == 3  # ASes 10, 20, 30
        tagging_total = (
            summary["tagger"] + summary["silent"] + summary["tagging_undecided"] + summary["tagging_none"]
        )
        assert tagging_total == summary["ases_observed"]

    def test_unobserved_as_is_nn(self, simple_result):
        assert simple_result.classification_of(999).code == "nn"
        assert simple_result[999].is_empty

    def test_fully_classified(self, simple_result):
        fully = simple_result.fully_classified_ases()
        for classification in fully.values():
            assert classification.is_full

    def test_ases_with_class_queries(self, simple_result):
        taggers = simple_result.ases_with_tagging(TaggingClass.TAGGER)
        assert 10 in taggers
        assert simple_result.ases_with_forwarding(ForwardingClass.FORWARD)

    def test_code_counter_matches_observed(self, simple_result):
        counter = simple_result.code_counter()
        assert sum(counter.values()) == len(simple_result)

    def test_counters_accessible(self, simple_result):
        assert simple_result.counters_of(10).tagger >= 1
        assert simple_result.counters_of(999).as_tuple() == (0, 0, 0, 0)


class TestCommunityAttribution:
    def test_attributes_values_to_visible_taggers(self):
        items = tuples_from(
            ([10], ["10:1", "10:2"]),
            ([20, 10], ["10:1"]),
        )
        result = ColumnInference().run(items)
        attribution = CommunityAttribution(result).ingest(items)
        values = attribution.communities_of(10)
        assert {str(c) for c in values} == {"10:1", "10:2"}
        assert attribution.distinct_values(10) == 2
        assert 10 in attribution.attributed_ases()

    def test_non_taggers_get_nothing(self):
        items = tuples_from(([10], []), ([20], ["10:1"]))
        result = ColumnInference().run(items)
        attribution = CommunityAttribution(result).ingest(items)
        # 10 is classified silent (it never tags at its own session).
        assert attribution.communities_of(10) == {}

    def test_blocked_by_non_forward_upstream(self):
        items = tuples_from(
            ([30], ["30:1"]),
            ([20, 30], []),           # 20 becomes a cleaner
            ([20, 30], ["30:9"]),     # inconsistent single tag through a cleaner
        )
        result = ColumnInference().run(items)
        attribution = CommunityAttribution(result).ingest(items)
        attributed = attribution.communities_of(30)
        # Only the directly observed peer tag is attributed, not the one seen
        # through the (inferred) cleaner.
        assert {str(c) for c in attributed} == {"30:1"}

    def test_top_values_ordering(self):
        items = tuples_from(
            ([10], ["10:1"]),
            ([10], ["10:1"]),
            ([10], ["10:1", "10:2"]),
        )
        result = ColumnInference().run(items)
        attribution = CommunityAttribution(result).ingest(items)
        top = attribution.top_values(10, count=1)
        assert str(top[0]) == "10:1"


class TestInferencePipeline:
    def _observations(self):
        registryable = [10, 20, 30]
        observations = [
            RouteObservation(
                collector="c0",
                peer_asn=30,
                prefix=parse_prefix("8.4.4.0/24"),
                path=ASPath([30]),
                communities=CommunitySet.from_strings(["30:1"]),
            ),
            RouteObservation(
                collector="c0",
                peer_asn=10,
                prefix=parse_prefix("8.8.8.0/24"),
                path=ASPath([10, 10, 30]),
                communities=CommunitySet.from_strings(["30:1", "10:2"]),
            ),
            RouteObservation(
                collector="c0",
                peer_asn=20,
                prefix=parse_prefix("8.8.4.0/24"),
                path=ASPath([20, 30]),
                communities=CommunitySet.from_strings(["30:1"]),
            ),
            # Duplicate of the first (after prepending collapse) -> deduplicated.
            RouteObservation(
                collector="c1",
                peer_asn=10,
                prefix=parse_prefix("8.8.8.0/24"),
                path=ASPath([10, 30]),
                communities=CommunitySet.from_strings(["30:1", "10:2"]),
            ),
            # Unallocated prefix -> dropped.
            RouteObservation(
                collector="c1",
                peer_asn=10,
                prefix=parse_prefix("10.1.0.0/16"),
                path=ASPath([10, 30]),
                communities=CommunitySet.empty(),
            ),
        ]
        return registryable, observations

    def test_end_to_end_from_observations(self):
        asns, observations = self._observations()
        pipeline = InferencePipeline(
            asn_registry=ASNRegistry.from_asns(asns),
            prefix_allocation=PrefixAllocation.default_internet(),
        )
        outcome = pipeline.run_from_observations(observations)
        assert outcome.observations_in == 5
        assert outcome.sanitation.dropped_unallocated_prefix == 1
        assert outcome.unique_tuples == 3
        assert outcome.result.classification_of(10).tagging is TaggingClass.TAGGER
        assert outcome.result.classification_of(30).tagging is TaggingClass.TAGGER
        assert "unique_tuples" in outcome.summary()

    def test_run_from_tuples_skips_sanitation(self):
        pipeline = InferencePipeline()
        outcome = pipeline.run_from_tuples(tuples_from(([10], ["10:1"])))
        assert outcome.unique_tuples == 1
        assert outcome.result.classification_of(10).tagging is TaggingClass.TAGGER

    def test_row_algorithm_selectable(self):
        pipeline = InferencePipeline(algorithm="row")
        outcome = pipeline.run_from_tuples(tuples_from(([10, 20], ["20:1"])))
        assert outcome.result.algorithm == "row"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            InferencePipeline(algorithm="magic")

