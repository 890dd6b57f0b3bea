"""Unit tests for the sanitation pipeline (repro.sanitize.filters)."""

import pytest

from repro.bgp.announcement import RouteObservation
from repro.bgp.asn import ASNRegistry
from repro.bgp.community import CommunitySet
from repro.bgp.path import ASPath
from repro.bgp.prefix import PrefixAllocation, parse_prefix
from repro.core.pipeline import InferencePipeline
from repro.sanitize.filters import Sanitizer


def make_observation(path, peer=None, prefix="8.8.8.0/24", comms=()):
    path = ASPath(path) if not isinstance(path, ASPath) else path
    return RouteObservation(
        collector="rrc00",
        peer_asn=peer if peer is not None else path.peer,
        prefix=parse_prefix(prefix),
        path=path,
        communities=CommunitySet.from_strings(comms),
    )


@pytest.fixture()
def registry():
    return ASNRegistry.from_asns([10, 20, 30, 40, 200000])


@pytest.fixture()
def sanitizer(registry):
    return Sanitizer(asn_registry=registry, prefix_allocation=PrefixAllocation.default_internet())


class TestPathSanitation:
    def test_clean_path_passes_unchanged(self, sanitizer):
        path = ASPath([10, 20, 30])
        assert sanitizer.sanitize_path(path, 10) is path

    def test_as_set_dropped(self, sanitizer):
        path = ASPath.from_string("10 20 {30,40}")
        assert sanitizer.sanitize_path(path, 10) is None
        assert sanitizer.stats.dropped_as_set == 1

    def test_prepending_collapsed(self, sanitizer):
        result = sanitizer.sanitize_path(ASPath([10, 20, 20, 30]), 10)
        assert result.asns == (10, 20, 30)
        assert sanitizer.stats.prepending_collapsed == 1

    def test_peer_prepended_for_route_servers(self, sanitizer):
        # The MRT peer AS (an IXP route server scenario) differs from A_1.
        result = sanitizer.sanitize_path(ASPath([20, 30]), peer_asn=10)
        assert result.asns == (10, 20, 30)
        assert sanitizer.stats.peer_prepended == 1

    def test_loop_dropped(self, sanitizer):
        assert sanitizer.sanitize_path(ASPath([10, 20, 10]), 10) is None
        assert sanitizer.stats.dropped_loop == 1

    def test_unallocated_asn_dropped(self, sanitizer):
        assert sanitizer.sanitize_path(ASPath([10, 99]), 10) is None
        assert sanitizer.stats.dropped_unallocated_asn == 1

    def test_private_asn_dropped_even_without_registry(self):
        sanitizer = Sanitizer()
        assert sanitizer.sanitize_path(ASPath([10, 64512]), 10) is None


class TestObservationSanitation:
    """The block loop's per-observation outcomes, through the mask-aligned
    :meth:`Sanitizer.sanitize_block` view and the batch pipeline."""

    def test_unallocated_prefix_dropped(self, sanitizer):
        observation = make_observation([10, 20], prefix="10.1.2.0/24")
        assert sanitizer.sanitize_block([observation]) == [None]
        assert sanitizer.stats.dropped_unallocated_prefix == 1

    def test_clean_observation_returned_as_is(self, sanitizer):
        observation = make_observation([10, 20])
        (result,) = sanitizer.sanitize_block([observation])
        assert result is observation

    def test_rewritten_observation_keeps_metadata(self, sanitizer):
        observation = make_observation([10, 10, 20], comms=["10:1"])
        (result,) = sanitizer.sanitize_block([observation])
        assert result.path.asns == (10, 20)
        assert result.collector == observation.collector
        assert result.communities == observation.communities

    def test_stats_track_in_and_out(self, sanitizer):
        observations = [
            make_observation([10, 20]),
            make_observation([10, 99]),
            make_observation([10, 20, 30]),
        ]
        clean = [item for item in sanitizer.sanitize_block(observations) if item is not None]
        assert len(clean) == 2
        assert sanitizer.stats.observations_in == 3
        assert sanitizer.stats.observations_out == 2
        assert sanitizer.stats.dropped_total == 1

    def test_the_pipeline_deduplicates(self, registry):
        observations = [make_observation([10, 20]), make_observation([10, 20])]
        pipeline = InferencePipeline(
            asn_registry=registry, prefix_allocation=PrefixAllocation.default_internet()
        )
        outcome = pipeline.run_from_observations(observations)
        assert len(outcome.tuples) == 1
        assert outcome.sanitation.observations_out == 2

    def test_stats_as_dict_keys(self, sanitizer):
        data = sanitizer.stats.as_dict()
        assert "observations_in" in data
        assert "dropped_as_set" in data
