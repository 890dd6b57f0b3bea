"""The interned tuple store and the packed counting hot path.

The columnar representation is only allowed to exist because it is
*byte-identical* to the object path; these tests pin down the interning
invariants, the packed counter store's parity with :class:`CounterStore`,
and full-inference conformance of the packed kernels (driven through the
stream classifiers, their one entry point) against batch inference on the
shared scenario fixtures.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from column_oracle import (
    CounterStore,
    ListingInference,
    assert_same_result,
    canonical,
    count_forwarding_groups,
    count_tagging_groups,
    counter_state,
    decision_view,
    fill_packed,
    flag_vector,
    group_matrix,
    pair_dict,
)
from stream_oracle import assert_packed_matches_batch

from repro.bgp.announcement import PathCommTuple
from repro.bgp.community import Community, CommunitySet
from repro.bgp.path import ASPath
from repro.core.column import (
    ColumnInference,
    count_forwarding_phase_packed,
    count_tagging_phase_packed,
    merge_phase_delta,
)
from repro.core.counters import PackedCounterStore
from repro.core.matrix import GroupMatrix
from repro.core.results import ClassificationResult
from repro.core.thresholds import Thresholds
from repro.core.tuples import TupleTable, materialize_groups, merge_group_counts
from repro.stream.incremental import _strip_flags, make_classifier


def _random_tuples(rng: random.Random, count: int) -> list:
    tuples = []
    for _ in range(count):
        asns = tuple(rng.randint(100, 140) for _ in range(rng.randint(1, 7)))
        comms = [
            Community(rng.choice(list(asns) + [999, 888]), rng.randint(0, 40))
            for _ in range(rng.randint(0, 4))
        ]
        tuples.append(PathCommTuple(ASPath(asns), CommunitySet(comms)))
    return tuples


class TestTupleTable:
    def test_interning_is_idempotent(self):
        table = TupleTable()
        item = PathCommTuple(ASPath((10, 20, 30)), CommunitySet([Community(20, 1)]))
        ref1 = table.intern_tuple(item)
        ref2 = table.intern(item.path, item.communities)
        assert ref1 == ref2
        assert len(table) == 1
        assert table.path_count == 1 and table.comm_count == 1

    def test_ids_are_dense_in_first_intern_order(self):
        table = TupleTable()
        a = PathCommTuple(ASPath((1, 2)), CommunitySet())
        b = PathCommTuple(ASPath((3, 4)), CommunitySet([Community(3, 0)]))
        ref_a = table.intern_tuple(a)
        ref_b = table.intern_tuple(b)
        assert ref_a[0] == 0 and ref_b[0] == 1
        assert ref_a[1] == 0 and ref_b[1] == 1

    def test_tuple_of_round_trips(self):
        table = TupleTable()
        rng = random.Random(1)
        items = _random_tuples(rng, 50)
        refs = [table.intern_tuple(item) for item in items]
        for item, ref in zip(items, refs):
            back = table.tuple_of(ref)
            assert back.path == item.path
            assert back.communities == item.communities

    def test_hits_bitmask_matches_membership(self):
        table = TupleTable()
        rng = random.Random(2)
        for item in _random_tuples(rng, 200):
            path_id, comm_id = table.intern_tuple(item)
            hits = table.hits_of(path_id, comm_id)
            uppers = item.communities.upper_fields()
            for position, asn in enumerate(item.path.asns):
                assert bool((hits >> position) & 1) == (asn in uppers)

    def test_state_round_trip_assigns_identical_ids(self):
        rng = random.Random(3)
        items = _random_tuples(rng, 80)
        table = TupleTable()
        refs = [table.intern_tuple(item) for item in items]

        restored = TupleTable.from_state(table.state_dict())
        assert restored.as_values() == table.as_values()
        assert restored.path_count == table.path_count
        assert restored.comm_count == table.comm_count
        # Re-interning the same tuples yields the same ids — the property
        # checkpoint restore relies on.
        for item, ref in zip(items, refs):
            assert restored.intern_tuple(item) == ref

    def test_load_state_mutates_in_place(self):
        table = TupleTable()
        holder = table  # simulates a worker holding the shared table
        table.intern_tuple(PathCommTuple(ASPath((1, 2)), CommunitySet()))
        snapshot = table.state_dict()
        table.intern_tuple(PathCommTuple(ASPath((9, 8)), CommunitySet()))
        table.load_state(snapshot)
        assert holder.path_count == 1  # the alias sees the restored content


class TestGroupCounts:
    def test_merge_and_materialize_keep_multiplicity(self):
        table = TupleTable()
        tagged = table.intern_tuple(
            PathCommTuple(ASPath((5, 6)), CommunitySet([Community(6, 1)]))
        )
        plain = table.intern_tuple(PathCommTuple(ASPath((5, 6)), CommunitySet()))
        counts = {
            (tagged[0], table.hits_of(*tagged)): 2,
            (plain[0], table.hits_of(*plain)): 1,
        }
        merged = {}
        merge_group_counts(merged, counts)
        merge_group_counts(merged, counts)
        assert sum(merged.values()) == 6
        groups = materialize_groups(table, merged)
        assert len(groups) == 2 and groups.max_length == 2
        # AS 5 is index 0 and AS 6 index 1; the tagged tuple hits position 1.
        assert canonical(groups) == {8: [((0, 1), 0b00, 2), ((0, 1), 0b10, 4)]}

    def test_merge_is_signed_and_drops_keys_at_zero(self):
        live = {(0, 1): 2, (3, 0): 1}
        merge_group_counts(live, {(0, 1): -1, (3, 0): -1, (4, 2): 1})
        assert live == {(0, 1): 1, (4, 2): 1}
        merge_group_counts(live, {(0, 1): -1, (4, 2): -1, (9, 9): 0})
        assert live == {}


def scalar_decision_flags(packed):
    """The rule ``decision_flags`` vectorises, one slot at a time."""
    tagger, silent, forward, cleaner = packed.counters.tolist()
    tagger_flags, forward_flags = [0] * packed.slots, [0] * packed.slots
    for index in range(packed.slots):
        t, f = tagger[index], forward[index]
        total = t + silent[index]
        if total and t / total >= packed.thresholds.tagger:
            tagger_flags[index] = 1
        total = f + cleaner[index]
        if total and f / total >= packed.thresholds.forward:
            forward_flags[index] = 1
    return flag_vector(tagger_flags).tolist(), flag_vector(forward_flags).tolist()


def flag_lists(flags):
    """``decision_flags`` output as two lists, after checking its form."""
    assert all(column.dtype == bool and not column[-1] for column in flags)
    return tuple(column.tolist() for column in flags)


def packed_state(packed, as_values):
    """``{asn: (t, s, f, c)}`` of the non-zero slots, through the result boundary."""
    result = ClassificationResult.from_packed(packed, as_values, set(as_values))
    return counter_state(result)


class TestPackedCounterStore:
    def test_parity_with_object_store(self):
        rng = random.Random(5)
        thresholds = Thresholds()
        as_values = tuple(range(100, 130))
        packed = PackedCounterStore(thresholds, slots=len(as_values))
        store = CounterStore(thresholds)
        for _ in range(200):
            idx = rng.randrange(len(as_values))
            delta = [rng.randint(0, 5) for _ in range(4)]
            fill_packed(packed, {idx: delta})
            store.apply_delta({as_values[idx]: delta})
        assert packed_state(packed, as_values) == store.state_dict()
        tagger_flags, forward_flags = flag_lists(packed.decision_flags())
        view = decision_view(store)
        assert {as_values[i] for i, flag in enumerate(tagger_flags) if flag} == view.tagger_ases
        assert {as_values[i] for i, flag in enumerate(forward_flags) if flag} == view.forward_ases

    @pytest.mark.parametrize("threshold", [0.51, 0.75, 0.99, 1.0])
    def test_decision_flags_equal_the_scalar_rule(self, threshold):
        rng = random.Random(23)
        packed = PackedCounterStore(Thresholds.uniform(threshold), slots=400)
        for index in range(0, 300):
            scale = rng.choice([1, 10, 1000, 10**6, 2**50])
            fill_packed(packed, {index: [rng.randint(0, scale) for _ in range(4)]})
        # Shares exactly at a threshold, one evidence short of it, lone
        # components, and (from slot 306 on) no evidence at all.
        fill_packed(
            packed,
            {
                300: [99, 1, 75, 25],
                301: [98, 2, 74, 26],
                302: [51, 49, 3, 1],
                303: [0, 7, 7, 0],
                304: [7, 0, 0, 7],
                305: [0, 0, 1, 0],
            },
        )
        flags = flag_lists(packed.decision_flags())
        assert flags == scalar_decision_flags(packed)
        assert all(len(column) == 401 for column in flags)
        assert any(flags[0]) and any(flags[1]) and not any(flags[0][306:])
        # Zero-padding to the table's AS count happens before the flags are
        # taken (the trailing False stays last), and the columns stay
        # resizable afterwards.
        padded = flag_lists(packed.decision_flags(450))
        assert [len(column) for column in padded] == [451, 451]
        assert padded == scalar_decision_flags(packed)
        packed.ensure_slots(500)

    def test_decision_flags_at_the_threshold(self):
        packed = PackedCounterStore(Thresholds.uniform(0.99), slots=3)
        fill_packed(packed, {0: [99, 1, 98, 2], 1: [98, 2, 99, 1]})
        flags = flag_lists(packed.decision_flags())
        assert flags == ([True, False, False, False], [False, True, False, False])
        assert flag_lists(PackedCounterStore().decision_flags()) == ([False], [False])

    def test_the_flag_keys_are_the_byte_flags_stripped(self):
        """A phase record's decision key is the bytes of the flags with trailing
        zeros stripped, whether the flags were a ``bytearray`` or a bool array."""
        packed = PackedCounterStore(Thresholds.uniform(0.75), slots=6)
        fill_packed(packed, {1: [3, 1, 0, 2], 3: [0, 1, 5, 0]})
        tagger, forward = packed.decision_flags(9)
        assert _strip_flags(tagger, forward) == (b"\x00\x01", b"\x00\x00\x00\x01")
        assert _strip_flags(tagger, forward) == tuple(
            bytes(bytearray(column.tolist())).rstrip(b"\x00") for column in (tagger, forward)
        )

    def test_phase_deltas_add_and_grow(self):
        packed = PackedCounterStore(slots=2)
        packed.apply_tagging_delta(np.array([[1, 2]], dtype=np.int64))
        packed.apply_forwarding_delta(np.array([[0, 0], [0, 0], [3, -4]], dtype=np.int64))
        packed.apply_tagging_delta(np.zeros((0, 2), dtype=np.int64))
        assert packed.slots == 3
        assert packed.counters.tolist() == [[1, 0, 0], [2, 0, 0], [0, 0, 3], [0, 0, -4]]
        merged = merge_phase_delta(np.array([[1, 1]]), np.array([[1, 0], [0, 5]]))
        assert merged.tolist() == [[2, 1], [0, 5]]
        merged = merge_phase_delta(np.array([[1, 1], [2, 2]]), np.array([[-1, 0]]))
        assert merged.tolist() == [[0, 1], [2, 2]]

    def test_zero_slots_read_as_absent(self):
        packed = PackedCounterStore(slots=4)
        fill_packed(packed, {2: [1, 0, 0, 0]})
        assert set(packed_state(packed, (10, 11, 12, 13))) == {12}

    def test_arrays_state_round_trip(self):
        packed = PackedCounterStore(slots=3)
        fill_packed(packed, {0: [1, 2, 3, 4], 2: [5, 6, 7, 8]})
        state = packed.arrays_state()
        assert all(column.typecode == "q" for column in state.values())
        restored = PackedCounterStore.from_arrays_state(state)
        assert packed_state(restored, (1, 2, 3)) == packed_state(packed, (1, 2, 3))
        assert packed_state(packed, (1, 2, 3)) == {1: (1, 2, 3, 4), 3: (5, 6, 7, 8)}


class TestPackedConformance:
    """The packed kernels and the object kernels agree tuple-for-tuple."""

    def test_fixture_conformance(self, random_dataset):
        # ~30k counting groups.
        assert_packed_matches_batch(random_dataset.tuples)

    def test_random_conformance(self):
        # Small inputs, duplicates (multiplicity > 1), empty.
        rng = random.Random(7)
        for _ in range(10):
            tuples = _random_tuples(rng, rng.randint(0, 60))
            assert_packed_matches_batch(tuples)


def chain_tuples(length: int) -> tuple:
    """``(chain, tuples)``: every suffix of a *length*-hop chain of taggers.

    Each chain AS tags at the front of its own suffix, so it is learnt as a
    tagger at column 1 and -- its downstream neighbour's community reaching
    the collector -- as a forwarder; the column loop then runs down the whole
    chain, finding the deciding tagger at every position up to ``length - 1``.
    Two more full-chain announcements each lack one community, which clears
    the deciding hit bit of one deep column: bit ``length - 1``, and bit
    ``min(64, length - 2)``.
    """
    chain = tuple(range(1000, 1000 + length))
    tuples = [
        PathCommTuple(ASPath(chain[start:]), CommunitySet([Community(asn, 1) for asn in chain]))
        for start in range(length)
    ]
    for cleared in (length - 1, min(64, length - 2)):
        kept = chain[:cleared] + chain[cleared + 1 :]
        tuples.append(PathCommTuple(ASPath(chain), CommunitySet([Community(a, 2) for a in kept])))
    return chain, tuples


class TestLongPathsAreOrdinaryRows:
    """Hit bits and tagger positions past bit 63 count like any other cell."""

    @pytest.mark.parametrize("length", [62, 63, 64, 65, 130])
    def test_batch_equals_the_listing(self, length):
        _, tuples = chain_tuples(length)
        tuples += _random_tuples(random.Random(length), 300)
        batch, listing = ColumnInference(), ListingInference()
        assert_same_result(batch.run(tuples), listing.run(tuples))
        assert batch.report == listing.report
        # Down the chain until a cleared bit's cleaner count breaks Cond1.
        assert batch.report.columns_processed >= min(length - 1, 63)

    @pytest.mark.parametrize("length", [62, 63, 64, 65, 130])
    def test_sliding_classifier_equals_the_listing(self, length):
        _, tuples = chain_tuples(length)
        background = _random_tuples(random.Random(length), 300)
        classifier = make_classifier("column")
        live = dict.fromkeys(tuples + background)
        steps = [
            ((), ()),
            # The longest paths leave (the column limit shrinks), then return.
            (tuples[:2] + tuples[-2:] + background[:100], ()),
            ((), tuples[:2] + tuples[-2:]),
            (tuples[2:40:3], background[:100]),
        ]
        for item in live:
            classifier.add_tuple(item)
        for evicted, arrived in steps:
            evicted = [item for item in dict.fromkeys(evicted) if item in live]
            for item in evicted:
                del live[item]
            classifier.evict_refs([classifier.table.intern_tuple(item) for item in evicted])
            for item in dict.fromkeys(arrived):
                if item not in live:
                    live[item] = None
                    classifier.add_tuple(item)
            listing = ListingInference()
            assert_same_result(classifier.update(), listing.run(list(live)))
            assert classifier.report == listing.report
        assert classifier.stats.delta_phases and classifier.stats.recount_phases

    def test_the_70_hop_chain_head_is_a_forwarding_tagger(self):
        chain, tuples = chain_tuples(70)
        assert ColumnInference().run(tuples).as_code_map()[chain[0]] == "tf"


class TestMatrixKernels:
    """The two matrix kernels against the per-group reference loops."""

    @staticmethod
    def _random_groups(rng: random.Random, count: int, *, max_length: int = 12) -> list:
        groups = []
        for _ in range(count):
            length = rng.randint(1, max_length)
            row = tuple(rng.randrange(40) for _ in range(length))
            hits = rng.getrandbits(length)
            groups.append((row, hits, rng.randint(1, 5)))
        return groups

    @staticmethod
    def _random_flags(rng: random.Random, slots: int = 40):
        tagger = [rng.randint(0, 1) for _ in range(slots)]
        # Taggers forward, like converged decisions.
        forward = [max(t, rng.randint(0, 1)) for t in tagger]
        return flag_vector(tagger), flag_vector(forward)

    KERNELS = (
        (count_tagging_phase_packed, count_tagging_groups),
        (count_forwarding_phase_packed, count_forwarding_groups),
    )

    @pytest.mark.parametrize("size", [1, 10, 100, 400, 511])
    @pytest.mark.parametrize("column", [1, 2, 3, 9])
    def test_kernels_match_the_group_loops(self, size, column):
        rng = random.Random(1000 * size + column)
        groups = self._random_groups(rng, size)
        lowered = group_matrix(groups)
        for _ in range(4):
            tagger, forward = self._random_flags(rng)
            for kernel, reference in self.KERNELS:
                got = kernel(lowered, column, tagger, forward)
                assert pair_dict(got) == reference(groups, column, tagger, forward)

    @pytest.mark.parametrize("column", [1, 63, 64, 66, 100])
    def test_long_rows_match_the_group_loops(self, column):
        """Rows of 70 and 130 hops over forward ASes, so Cond1 holds deep down."""
        rng = random.Random(column)
        groups = self._random_groups(rng, 64)
        for length in (64, 65, 70, 130, 130):
            row = tuple(rng.randrange(40, 60) for _ in range(length))
            groups.append((row, rng.getrandbits(length), rng.randint(1, 5)))
        tagger, forward = self._random_flags(rng, 60)
        forward[40:60] = True
        for slot in range(40, 60):
            tagger[slot] = rng.random() < 0.1
        lowered = group_matrix(groups)
        assert lowered.max_length == 130
        for kernel, reference in self.KERNELS:
            got = kernel(lowered, column, tagger, forward)
            assert pair_dict(got) == reference(groups, column, tagger, forward)
            assert column > 1 or got[1]

    def test_empty_columns(self):
        groups = self._random_groups(random.Random(17), 32, max_length=4)
        tagger, forward = self._random_flags(random.Random(17))
        lowered = group_matrix(groups)
        assert pair_dict(count_tagging_phase_packed(lowered, 5, tagger, forward)) == ({}, 0)
        assert pair_dict(count_forwarding_phase_packed(lowered, 4, tagger, forward)) == ({}, 0)
        for kernel, _ in self.KERNELS:
            assert pair_dict(kernel(GroupMatrix(), 1, tagger, forward)) == ({}, 0)
