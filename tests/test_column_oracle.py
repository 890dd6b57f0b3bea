"""``ColumnInference`` against the paper's listing (:mod:`column_oracle`).

Production lowers its tuples to the bucket matrix in bulk and counts with the
numpy kernels the stream engine uses; the oracle walks prepared object tuples
with frozenset membership tests.  The two share no counting code, so every
input here is a statement about the lowering and the kernels at once: equal
counters, observed ASes, codes and report -- on the hand-crafted catalogue of
``tests/test_column.py``, the session scenarios, and fuzzed inputs that reach
for what a bulk lowering gets wrong (duplicates, empty sets, prepending, the
int64 bitmask boundary, ASNs past 32 bits, block seams).
"""

from __future__ import annotations

import json
import pickle
from unittest import mock

import pytest
from column_oracle import ListingInference, assert_same_result, counter_state
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bgp.announcement import PathCommTuple
from repro.bgp.community import Community, CommunitySet, LargeCommunity
from repro.bgp.path import ASPath, PathSegment, SegmentType
from repro.core import matrix
from repro.core.column import ColumnInference
from repro.core.thresholds import Thresholds
from repro.usage.scenarios import ScenarioName


def community_of(asn):
    """A community whose upper field is *asn* (large when it needs 32 bits)."""
    return Community(asn, 1) if asn <= 0xFFFF else LargeCommunity(asn, 0, 1)


def make_tuple(asns, uppers=()):
    return PathCommTuple(ASPath(asns), CommunitySet(map(community_of, uppers)))


def assert_matches_listing(tuples, thresholds=None):
    """Production == the listing on *tuples*; returns production's result."""
    tuples = list(tuples)
    production = ColumnInference(thresholds)
    listing = ListingInference(thresholds)
    got, want = production.run(tuples), listing.run(tuples)
    assert_same_result(got, want)
    assert production.report == listing.report
    return got


def assert_stalling_is_exact(tuples, thresholds=None):
    """Stopping at the first stalled column loses nothing: the listing run
    to its last column classifies *tuples* the same."""
    tuples = list(tuples)
    exhaustive = ListingInference(thresholds, stop_when_stalled=False)
    assert_same_result(ColumnInference(thresholds).run(tuples), exhaustive.run(tuples))


#: The inputs of ``tests/test_column.py::TestHandCraftedCases``.
HAND_CRAFTED = {
    "peer tagging": [([10], [10]), ([20], [])],
    "downstream tagger reveals forwarding": [([30], [30]), ([10, 30], [30])],
    "isolated pair": [([10, 30], [30])],
    "hidden behaviour": [([10, 30], [])],
    "cleaner with known tagger": [([30], [30]), ([10, 30], [30]), ([20, 30], [])],
    "behind a cleaner": [([30], [30]), ([20, 30], []), ([20, 40], [])],
    "race condition": [([10, 20], [])],
    "selective tagging": [([30], [30]), ([30], [30]), ([10, 30], [])],
    "conflicting evidence": [([10], [10])] * 5 + [([10], [])] * 5,
    "eight of ten": [([10], [10])] * 8 + [([10], [])] * 2,
    "empty input": [],
    "three hops": [([10, 20, 30], [30])],
}


class TestCatalogue:
    @pytest.mark.parametrize("name", sorted(HAND_CRAFTED))
    def test_hand_crafted_case(self, name):
        tuples = [make_tuple(*item) for item in HAND_CRAFTED[name]]
        assert_matches_listing(tuples)
        assert_matches_listing(tuples, Thresholds.uniform(0.75))
        assert_stalling_is_exact(tuples)

    @pytest.mark.parametrize("scenario", ["random", "alltf", "alltc"])
    def test_session_scenarios(self, scenario, random_dataset, alltf_dataset, scenario_builder):
        if scenario == "alltc":
            dataset = scenario_builder.build(ScenarioName.ALLTC, seed=7)
        else:
            dataset = random_dataset if scenario == "random" else alltf_dataset
        assert_matches_listing(dataset.tuples)

    @pytest.mark.parametrize("block_size", [1000, 4096])
    def test_block_seams_leave_no_trace(self, monkeypatch, random_dataset, block_size):
        """Many lowering blocks (AS slots handed from block to block, buckets
        concatenated) give what one block gives."""
        monkeypatch.setattr(matrix, "LOWERING_BLOCK_SIZE", block_size)
        assert len(random_dataset.tuples) > 7 * block_size
        assert_matches_listing(random_dataset.tuples, Thresholds.uniform(0.9))

    def test_options_on_a_scenario(self, random_dataset):
        tuples = random_dataset.tuples[::7]
        assert_stalling_is_exact(tuples)
        assert_matches_listing(
            tuples, Thresholds(tagger=0.6, silent=0.8, forward=0.55, cleaner=0.95)
        )


# -- fuzzed inputs -------------------------------------------------------------------------
#: 16-bit, 32-bit-only and boundary ASNs; few enough that paths share ASes.
ASN_POOL = [1, 2, 3, 5, 8, 13, 65535, 65536, 4_200_000_000, 2**32 - 1]
#: Upper fields on no path at all.
STRANGERS = [99, 64_999, 3_000_000_000]


@st.composite
def short_paths(draw):
    # Not unique: prepending (7 7 7) and loops (1 2 1) stay in.
    return ASPath(draw(st.lists(st.sampled_from(ASN_POOL), min_size=1, max_size=6)))


@st.composite
def long_paths(draw):
    """Paths around the int64 hits-bitmask boundary (62 fits, 63 overflows)."""
    length = draw(st.sampled_from([61, 62, 63, 64, 70]))
    start = draw(st.sampled_from([1, 100, 65_500]))
    asns = [start + offset for offset in range(length)]
    for position in draw(st.lists(st.integers(0, length - 1), max_size=3)):
        asns[position] = draw(st.sampled_from(ASN_POOL))
    return ASPath(asns)


#: What ``ASPath.from_segments`` leaves of a path made of AS_SETs only.
EMPTY_SEQUENCE = ASPath.from_segments([PathSegment(SegmentType.AS_SET, (1, 2))])


@st.composite
def fuzzed_tuples(draw):
    path = draw(
        st.one_of(short_paths(), short_paths(), long_paths(), st.just(EMPTY_SEQUENCE))
    )
    candidates = list(path.asns) + STRANGERS
    uppers = draw(st.lists(st.sampled_from(candidates), max_size=4))
    copies = draw(st.sampled_from([1, 1, 1, 2, 5]))  # duplicate tuples count twice
    return [PathCommTuple(path, CommunitySet(map(community_of, uppers)))] * copies


fuzzed_inputs = st.lists(fuzzed_tuples(), max_size=14).map(
    lambda groups: [item for group in groups for item in group]
)


class TestFuzzed:
    @settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        fuzzed_inputs,
        st.sampled_from([0.99, 0.51, 0.75, 1.0]),
        st.sampled_from([1, 3, matrix.LOWERING_BLOCK_SIZE]),
    )
    def test_matches_the_listing(self, tuples, threshold, block):
        with mock.patch.object(matrix, "LOWERING_BLOCK_SIZE", block):
            assert_matches_listing(tuples, Thresholds.uniform(threshold))
            assert_stalling_is_exact(tuples, Thresholds.uniform(threshold))

    @pytest.mark.parametrize("length", [61, 62, 63, 64, 70, 200])
    def test_long_paths_with_evidence_at_the_far_end(self, length):
        """A chain that classifies all the way down: every AS also peers with
        the collector, so knowledge reaches the last columns, where the hit
        bit sits at position ``length - 1``.  At 0.75 the one untagged far
        end leaves every AS forward (at 0.99 its cleaner evidence would stall
        the loop half way), so every column counts."""
        chain = list(range(1000, 1000 + length))
        tuples = [make_tuple(chain[start:], chain[start:]) for start in range(length)]
        tuples.append(make_tuple(chain, chain[: length // 2]))  # far end untagged
        thresholds = Thresholds.uniform(0.75)
        result = assert_matches_listing(tuples, thresholds)
        production = ColumnInference(thresholds)
        production.run(tuples)
        assert production.report.columns_processed == length
        assert result.classification_of(chain[0]).code == "tf"
        assert result.counters_of(chain[-1]).tagging_total > 0


class TestOddInput:
    def test_asns_past_32_bits_go_through_the_dense_slots(self):
        """An ``ASPath`` validates nothing: two ASNs equal in their low 32 bits
        must not share a hits code."""
        low = 70_000
        high = low + (1 << 32)
        huge = (1 << 64) - 1
        tuples = [
            make_tuple([low], [low]),
            make_tuple([high], []),
            make_tuple([huge, low], [low]),
            make_tuple([1 << 63, high], []),
        ]
        result = assert_matches_listing(tuples)
        assert result.classification_of(low).tagging.name == "TAGGER"
        assert result.classification_of(high).tagging.name == "SILENT"

    def test_an_upper_field_off_every_path_hits_nothing(self):
        """20 sorts between the path ASNs (its insertion point is 30's index),
        5 before them all and 40 past the end."""
        tuples = [make_tuple([30], [30]), make_tuple([10, 30], [20, 5, 40])]
        result = assert_matches_listing(tuples)
        assert result.classification_of(10).forwarding.name == "CLEANER"

    @pytest.mark.parametrize("misfit", [-1, -(1 << 63) - 1, 1 << 64, 1 << 70])
    @pytest.mark.parametrize("neighbour", [7, (1 << 63) + 1])
    def test_an_asn_no_slot_can_hold_is_refused_by_name(self, misfit, neighbour):
        inference = ColumnInference()
        good = [make_tuple([10, 20], [20]), make_tuple([neighbour], [])]
        with pytest.raises(ValueError, match=rf"ASN {misfit} "):
            inference.run(good + [make_tuple([10, misfit, 30])])
        assert inference.report.columns_processed == 0  # nothing was counted

    def test_any_iterable_is_accepted(self, random_dataset):
        tuples = random_dataset.tuples[:500]
        want = ListingInference().run(tuples)
        assert_same_result(ColumnInference().run(item for item in tuples), want)
        assert_same_result(ColumnInference().run(tuple(tuples)), want)

    def test_only_plain_ints_cross_the_result_boundary(self, random_dataset):
        result = ColumnInference().run(random_dataset.tuples[:2000])
        state = counter_state(result)
        assert result.observed_ases and len(state)
        assert {type(asn) for asn in result.observed_ases} == {int}
        assert {type(asn) for asn in state} == {int}
        for asn, counters in state.items():
            assert {type(value) for value in counters} == {int}
            assert {type(value) for value in result.counters_of(asn).as_tuple()} == {int}
        json.dumps({"observed": sorted(result.observed_ases), "codes": result.as_code_map()})
        restored = pickle.loads(pickle.dumps(result))
        assert counter_state(restored) == counter_state(result)

    def test_empty_sequence_paths_are_neither_counted_nor_observed(self):
        result = assert_matches_listing(
            [PathCommTuple(EMPTY_SEQUENCE, CommunitySet([Community(1, 1)]))] * 3
        )
        assert len(result) == 0 and len(counter_state(result)) == 0
