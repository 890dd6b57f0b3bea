"""Property-based tests (hypothesis) for core data structures and invariants."""

import pickle

from column_oracle import CounterStore, counter_state
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from stream_oracle import assert_packed_matches_batch, engine_windows, reference_windows

from repro.bgp.announcement import PathCommTuple, RouteObservation
from repro.bgp.community import Community, CommunitySet, LargeCommunity
from repro.bgp.messages import BGPUpdate, PathAttributes
from repro.bgp.path import ASPath
from repro.bgp.prefix import Prefix
from repro.core.classes import ForwardingClass, TaggingClass
from repro.core.column import ColumnInference
from repro.core.counters import ASCounters
from repro.core.thresholds import Thresholds
from repro.mrt.decoder import decode_path_attributes, decode_records
from repro.mrt.encoder import encode_path_attributes, encode_records
from repro.stream.engine import StreamConfig, StreamEngine
from repro.stream.window import WindowPolicy, WindowSpec
from repro.usage.propagation import CommunityPropagator
from repro.usage.roles import RoleAssignment, UsageRole

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

public_16bit_asns = st.integers(min_value=1, max_value=64000)
public_asns = st.one_of(public_16bit_asns, st.integers(min_value=131072, max_value=400000))

regular_communities = st.builds(
    Community, upper=st.integers(0, 0xFFFF), lower=st.integers(0, 0xFFFF)
)
large_communities = st.builds(
    LargeCommunity,
    upper=st.integers(0, 0xFFFFFFFF),
    data1=st.integers(0, 0xFFFFFFFF),
    data2=st.integers(0, 0xFFFFFFFF),
)
communities = st.one_of(regular_communities, large_communities)
community_sets = st.lists(communities, max_size=8).map(CommunitySet)

as_paths = st.lists(public_asns, min_size=1, max_size=8, unique=True).map(ASPath)

ipv4_prefixes = st.builds(
    lambda length, bits: Prefix.ipv4((bits << (32 - length)) & 0xFFFFFFFF, length),
    st.integers(min_value=8, max_value=32),
    st.integers(min_value=0, max_value=2**24 - 1),
)

role_codes = st.sampled_from(["tf", "tc", "sf", "sc"])


# ---------------------------------------------------------------------------
# Community / community set properties
# ---------------------------------------------------------------------------

class TestCommunityProperties:
    @given(regular_communities)
    def test_regular_string_round_trip(self, community):
        assert Community.from_string(str(community)) == community

    @given(regular_communities)
    def test_regular_value_round_trip(self, community):
        assert Community.from_value(community.value) == community

    @given(large_communities)
    def test_large_string_round_trip(self, community):
        assert LargeCommunity.from_string(str(community)) == community

    @given(st.lists(communities, max_size=10), st.lists(communities, max_size=10))
    def test_union_is_commutative_and_idempotent(self, a, b):
        left = CommunitySet(a) | CommunitySet(b)
        right = CommunitySet(b) | CommunitySet(a)
        assert left == right
        assert (left | left) == left

    @given(community_sets)
    def test_upper_fields_match_membership(self, communities_set):
        for community in communities_set:
            assert communities_set.has_upper(community.upper)
        for upper in communities_set.upper_fields():
            assert len(communities_set.with_upper(upper)) >= 1

    @given(community_sets)
    def test_regular_large_partition(self, communities_set):
        assert len(communities_set.regular()) + len(communities_set.large()) == len(communities_set)


# ---------------------------------------------------------------------------
# AS path properties
# ---------------------------------------------------------------------------

class TestPathProperties:
    @given(st.lists(public_asns, min_size=1, max_size=12))
    def test_collapse_prepending_is_idempotent_and_loses_no_asns(self, asns):
        path = ASPath(asns)
        collapsed = path.collapse_prepending()
        assert not collapsed.has_prepending
        assert collapsed.unique_asns() == path.unique_asns()
        assert collapsed.collapse_prepending() == collapsed

    @given(as_paths)
    def test_string_round_trip(self, path):
        assert ASPath.from_string(str(path)) == path

    @given(as_paths)
    def test_upstream_downstream_partition(self, path):
        for index in range(1, len(path) + 1):
            upstream = path.upstream_of(index)
            downstream = path.downstream_of(index)
            assert upstream + (path.at(index),) + downstream == path.asns


# ---------------------------------------------------------------------------
# MRT codec properties
# ---------------------------------------------------------------------------

class TestMRTProperties:
    @settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
    @given(as_paths, community_sets)
    def test_path_attribute_round_trip(self, path, communities_set):
        attributes = PathAttributes(as_path=path, communities=communities_set)
        decoded = decode_path_attributes(encode_path_attributes(attributes), asn_size=4)
        assert decoded.as_path == path
        assert decoded.communities == communities_set

    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
    @given(as_paths, community_sets, st.lists(ipv4_prefixes, min_size=1, max_size=3, unique=True))
    def test_update_round_trip(self, path, communities_set, prefixes):
        update = BGPUpdate(
            peer_asn=path.peer,
            timestamp=1621382400,
            announced=tuple(prefixes),
            attributes=PathAttributes(as_path=path, communities=communities_set),
        )
        blob = encode_records([path.peer], updates=[update])
        decoded = decode_records(blob)[-1].update
        assert decoded.announced == tuple(prefixes)
        assert decoded.attributes.as_path == path
        assert decoded.attributes.communities == communities_set


# ---------------------------------------------------------------------------
# Propagation model properties
# ---------------------------------------------------------------------------

class TestPropagationProperties:
    @settings(max_examples=100)
    @given(st.lists(public_asns, min_size=1, max_size=7, unique=True), st.data())
    def test_output_upper_fields_are_subset_of_path(self, asns, data):
        """Without noise, every community in output(A_1) names an on-path AS."""
        roles = RoleAssignment(
            {asn: UsageRole.from_code(data.draw(role_codes)) for asn in asns}
        )
        output = CommunityPropagator(roles).output(ASPath(asns))
        assert output.upper_fields() <= set(asns)

    @settings(max_examples=100)
    @given(st.lists(public_asns, min_size=1, max_size=7, unique=True), st.data())
    def test_peer_tag_present_iff_peer_is_tagger(self, asns, data):
        roles = RoleAssignment(
            {asn: UsageRole.from_code(data.draw(role_codes)) for asn in asns}
        )
        output = CommunityPropagator(roles).output(ASPath(asns))
        peer = asns[0]
        assert output.has_upper(peer) == roles[peer].is_tagger

    @settings(max_examples=100)
    @given(st.lists(public_asns, min_size=2, max_size=7, unique=True), st.data())
    def test_cleaner_peer_blocks_all_downstream_tags(self, asns, data):
        roles = RoleAssignment(
            {asn: UsageRole.from_code(data.draw(role_codes)) for asn in asns}
        )
        output = CommunityPropagator(roles).output(ASPath(asns))
        if roles[asns[0]].is_cleaner:
            assert output.upper_fields() <= {asns[0]}

    @settings(max_examples=100)
    @given(st.lists(public_asns, min_size=2, max_size=7, unique=True), st.data())
    def test_downstream_tag_visible_iff_all_upstream_forward(self, asns, data):
        roles = RoleAssignment(
            {asn: UsageRole.from_code(data.draw(role_codes)) for asn in asns}
        )
        output = CommunityPropagator(roles).output(ASPath(asns))
        origin = asns[-1]
        upstream_forward = all(roles[asn].is_forward for asn in asns[:-1])
        expected = roles[origin].is_tagger and upstream_forward
        assert output.has_upper(origin) == expected


# ---------------------------------------------------------------------------
# Counter and inference properties
# ---------------------------------------------------------------------------

class TestInferenceProperties:
    @given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500), st.integers(0, 500))
    def test_counter_shares_sum_to_one_with_evidence(self, t, s, f, c):
        counters = ASCounters(t, s, f, c)
        if counters.tagging_total:
            assert counters.tagger_share() + counters.silent_share() == 1.0
        if counters.forwarding_total:
            assert counters.forward_share() + counters.cleaner_share() == 1.0

    @given(st.integers(1, 400), st.integers(0, 400))
    def test_tagger_and_silent_thresholds_mutually_exclusive(self, t, s):
        store = CounterStore(Thresholds.uniform(0.99))
        counters = store.counters_for(1)
        counters.tagger, counters.silent = t, s
        assert not (store.is_tagger(1) and store.is_silent(1))

    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(
            st.tuples(
                st.lists(public_16bit_asns, min_size=1, max_size=5, unique=True),
                st.lists(st.integers(1, 64000), max_size=3),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_inference_never_crashes_and_only_classifies_observed_ases(self, raw):
        tuples = [
            PathCommTuple(
                ASPath(asns), CommunitySet(Community(upper, 1) for upper in uppers)
            )
            for asns, uppers in raw
        ]
        result = ColumnInference().run(tuples)
        observed = {asn for asns, _ in raw for asn in asns}
        assert result.observed_ases == observed
        for asn in observed:
            classification = result.classification_of(asn)
            assert classification.tagging in TaggingClass
            assert classification.forwarding in ForwardingClass
        # Counters only exist for observed ASes.
        for asn in counter_state(result):
            assert asn in observed

    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(
            st.tuples(
                st.lists(public_16bit_asns, min_size=1, max_size=5),
                st.lists(st.integers(1, 64000), max_size=3),
            ),
            max_size=25,
        )
    )
    def test_packed_inference_matches_object(self, raw):
        """The interned/packed counting path is a pure representation change."""
        tuples = [
            PathCommTuple(
                ASPath(asns), CommunitySet(Community(upper, 1) for upper in uppers)
            )
            for asns, uppers in raw
        ]
        assert_packed_matches_batch(tuples)

    @settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_perfect_precision_on_random_consistent_roles(self, data):
        """On any consistent ground truth the algorithm never misclassifies."""
        asns = data.draw(st.lists(public_16bit_asns, min_size=3, max_size=10, unique=True))
        # Build a small star of paths around a common peer so knowledge can bootstrap.
        peer = asns[0]
        paths = [ASPath([peer])] + [ASPath([peer, other]) for other in asns[1:]]
        roles = RoleAssignment(
            {asn: UsageRole.from_code(data.draw(role_codes)) for asn in asns}
        )
        propagator = CommunityPropagator(roles)
        tuples = [PathCommTuple(path, propagator.output(path)) for path in paths]
        result = ColumnInference().run(tuples)
        for asn in asns:
            classification = result.classification_of(asn)
            if classification.tagging is TaggingClass.TAGGER:
                assert roles[asn].is_tagger
            if classification.tagging is TaggingClass.SILENT:
                assert roles[asn].is_silent
            if classification.forwarding is ForwardingClass.FORWARD:
                assert roles[asn].is_forward
            if classification.forwarding is ForwardingClass.CLEANER:
                assert roles[asn].is_cleaner


# ---------------------------------------------------------------------------
# Columnar streaming conformance properties
# ---------------------------------------------------------------------------

#: Raw observation streams: (asns, comm-uppers, timestamp-gap) per event.
#: Small AS universe so duplicates, retractions, and dedup hits all occur.
observation_streams = st.lists(
    st.tuples(
        st.lists(st.integers(10, 40), min_size=1, max_size=5),
        st.lists(st.integers(10, 45), max_size=3),
        st.integers(0, 400),
    ),
    max_size=30,
)


def _build_observations(raw):
    observations = []
    clock = 0
    for index, (asns, uppers, gap) in enumerate(raw):
        clock += gap
        observations.append(
            RouteObservation(
                collector="prop",
                peer_asn=asns[0],
                prefix=Prefix.ipv4((20 << 24) | (index << 8), 24),
                path=ASPath(asns),
                communities=CommunitySet(Community(upper, 1) for upper in uppers),
                timestamp=clock,
            )
        )
    return observations


def _engine_outcome(engine):
    result = engine.finish()
    return (
        counter_state(result),
        sorted(result.observed_ases),
        [
            (s.window_start, s.window_end, s.events_total, counter_state(s.result))
            for s in engine.snapshots
        ],
        engine.sanitation_stats().as_dict(),
    )


class TestColumnarStreamProperties:
    """The interned stream path must equal the batch oracle end to end."""

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(observation_streams)
    def test_sliding_stream_matches_oracle(self, raw):
        """Sliding windows evict (retract) tuples; every window must equal a
        batch run over the tuples live at its close."""
        observations = _build_observations(raw)
        spec = WindowSpec(size=200, policy=WindowPolicy.SLIDING, horizon=400)
        engine = StreamEngine(StreamConfig(window=spec, shards=2))
        for observation in observations:
            engine.ingest(observation)
        engine.finish()
        windows, sanitation = reference_windows(observations, spec)
        assert engine_windows(engine) == windows
        assert engine.sanitation_stats().as_dict() == sanitation

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(observation_streams, st.data())
    def test_checkpoint_restore_is_transparent(self, raw, data):
        """Pickling state mid-stream and resuming changes nothing."""
        observations = _build_observations(raw)
        cut = data.draw(st.integers(0, len(observations)))
        spec = WindowSpec(size=200, policy=WindowPolicy.SLIDING, horizon=400)
        config = StreamConfig(window=spec, shards=2)

        straight = StreamEngine(config)
        for observation in observations:
            straight.ingest(observation)

        engine = StreamEngine(config)
        for observation in observations[:cut]:
            engine.ingest(observation)
        state = pickle.loads(pickle.dumps(engine.state_dict()))
        resumed = StreamEngine(config)
        resumed.load_state_dict(state)
        for observation in observations[cut:]:
            resumed.ingest(observation)
        resumed_outcome = _engine_outcome(resumed)
        straight_outcome = _engine_outcome(straight)
        # Snapshot *history* is in-memory only (not checkpointed), so the
        # resumed engine holds a suffix of the uninterrupted run's snapshots.
        assert resumed_outcome[:2] == straight_outcome[:2]
        resumed_snapshots, straight_snapshots = resumed_outcome[2], straight_outcome[2]
        if resumed_snapshots:
            assert straight_snapshots[-len(resumed_snapshots):] == resumed_snapshots
        assert resumed_outcome[3] == straight_outcome[3]
