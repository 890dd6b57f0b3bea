"""Unit tests for repro.bgp.messages and repro.bgp.announcement."""

import pytest

from repro.bgp.announcement import PathCommTuple, RouteObservation
from repro.bgp.community import CommunitySet
from repro.bgp.messages import BGPUpdate, Origin, PathAttributes, RIBEntry
from repro.bgp.path import ASPath
from repro.bgp.prefix import parse_prefix
from repro.core.pipeline import InferencePipeline


@pytest.fixture()
def attributes():
    return PathAttributes(
        as_path=ASPath([3356, 1299, 2914]),
        communities=CommunitySet.from_strings(["3356:100"]),
    )


class TestPathAttributes:
    def test_defaults(self, attributes):
        assert attributes.origin is Origin.IGP
        assert attributes.local_pref is None

    def test_with_communities_replaces_only_communities(self, attributes):
        replaced = attributes.with_communities(CommunitySet.empty())
        assert replaced.communities == CommunitySet.empty()
        assert replaced.as_path == attributes.as_path
        assert attributes.communities  # original untouched


class TestBGPUpdate:
    def test_announcement_requires_attributes(self):
        with pytest.raises(ValueError):
            BGPUpdate(peer_asn=1, timestamp=0, announced=(parse_prefix("8.8.8.0/24"),))

    def test_announcement_properties(self, attributes):
        update = BGPUpdate(
            peer_asn=3356,
            timestamp=10,
            announced=(parse_prefix("8.8.8.0/24"),),
            attributes=attributes,
        )
        assert update.is_announcement
        assert not update.is_withdrawal
        assert update.as_path == attributes.as_path
        assert update.communities.has_upper(3356)

    def test_withdrawal_only(self):
        update = BGPUpdate(peer_asn=1, timestamp=0, withdrawn=(parse_prefix("8.8.8.0/24"),))
        assert update.is_withdrawal
        assert not update.is_announcement
        assert update.as_path is None
        assert update.communities == CommunitySet.empty()

    def test_sequences_coerced_to_tuples(self, attributes):
        update = BGPUpdate(
            peer_asn=1,
            timestamp=0,
            announced=[parse_prefix("8.8.8.0/24")],
            attributes=attributes,
        )
        assert isinstance(update.announced, tuple)


class TestRIBEntry:
    def test_accessors(self, attributes):
        entry = RIBEntry(peer_asn=3356, prefix=parse_prefix("8.8.8.0/24"), attributes=attributes)
        assert entry.as_path.peer == 3356
        assert entry.communities.has_upper(3356)


class TestObservations:
    def _observation(self, path, comms=("3356:1",)):
        return RouteObservation(
            collector="rrc00",
            peer_asn=path[0],
            prefix=parse_prefix("8.8.8.0/24"),
            path=ASPath(path),
            communities=CommunitySet.from_strings(comms),
        )

    def test_to_tuple(self):
        observation = self._observation([3356, 1299])
        item = observation.to_tuple()
        assert item.peer == 3356
        assert item.origin == 1299
        assert item.communities.has_upper(3356)

    def test_path_comm_tuple_unpacking(self):
        item = PathCommTuple(ASPath([1, 2]), CommunitySet.empty())
        path, communities = item
        assert path == ASPath([1, 2])
        assert communities == CommunitySet.empty()
        assert len(item) == 2

    @staticmethod
    def unique_tuples(observations):
        """The batch pipeline's unique ``(path, comm)`` tuples."""
        return InferencePipeline().run_from_observations(observations).tuples

    def test_unique_tuples_deduplicates(self):
        a = self._observation([3356, 1299])
        b = self._observation([3356, 1299])
        c = self._observation([3356, 1299], comms=("1299:1",))
        result = self.unique_tuples([a, b, c])
        assert len(result) == 2

    def test_unique_tuples_preserves_order(self):
        a = self._observation([1, 2])
        b = self._observation([3, 4])
        result = self.unique_tuples([a, b, a])
        assert result[0].path == ASPath([1, 2])
        assert result[1].path == ASPath([3, 4])
