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

import pytest
from column_oracle import decision_view
from stream_oracle import assert_packed_matches_batch

from repro.bgp.announcement import PathCommTuple
from repro.bgp.community import Community, CommunitySet
from repro.bgp.path import ASPath
from repro.core import matrix
from repro.core.column import (
    ColumnInference,
    count_forwarding_phase_packed,
    count_tagging_phase_packed,
)
from repro.core.counters import CounterStore, PackedCounterStore
from repro.core.matrix import GroupList, GroupMatrix
from repro.core.results import ClassificationResult
from repro.core.thresholds import Thresholds
from repro.core.tuples import TupleTable, materialize_groups, merge_group_counts


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
        assert sorted(count for _, _, count in groups) == [2, 4]
        assert {row for row, _, _ in groups} == {table.path_row(tagged[0])}

    def test_merge_is_signed_and_drops_keys_at_zero(self):
        live = {(0, 1): 2, (3, 0): 1}
        merge_group_counts(live, {(0, 1): -1, (3, 0): -1, (4, 2): 1})
        assert live == {(0, 1): 1, (4, 2): 1}
        merge_group_counts(live, {(0, 1): -1, (4, 2): -1, (9, 9): 0})
        assert live == {}


def scalar_decision_flags(packed):
    """The rule ``decision_flags`` vectorises, one slot at a time."""
    tagger_flags, forward_flags = bytearray(packed.slots), bytearray(packed.slots)
    for index in range(packed.slots):
        t, f = packed.tagger[index], packed.forward[index]
        total = t + packed.silent[index]
        if total and t / total >= packed.thresholds.tagger:
            tagger_flags[index] = 1
        total = f + packed.cleaner[index]
        if total and f / total >= packed.thresholds.forward:
            forward_flags[index] = 1
    return tagger_flags, forward_flags


def packed_state(packed, as_values):
    """``{asn: (t, s, f, c)}`` of the non-zero slots, through the result boundary."""
    result = ClassificationResult.from_packed(packed, as_values, set(as_values))
    return result.store.state_dict()


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
            packed.apply_delta({idx: delta})
            store.apply_delta({as_values[idx]: delta})
        assert packed_state(packed, as_values) == store.state_dict()
        tagger_flags, forward_flags = packed.decision_flags()
        view = decision_view(store)
        assert {as_values[i] for i, flag in enumerate(tagger_flags) if flag} == view.tagger_ases
        assert {as_values[i] for i, flag in enumerate(forward_flags) if flag} == view.forward_ases

    @pytest.mark.parametrize("threshold", [0.51, 0.75, 0.99, 1.0])
    def test_decision_flags_equal_the_scalar_rule(self, threshold):
        rng = random.Random(23)
        packed = PackedCounterStore(Thresholds.uniform(threshold), slots=400)
        for index in range(0, 300):
            scale = rng.choice([1, 10, 1000, 10**6, 2**50])
            packed.apply_delta({index: [rng.randint(0, scale) for _ in range(4)]})
        # Shares exactly at a threshold, one evidence short of it, lone
        # components, and (from slot 306 on) no evidence at all.
        packed.apply_delta(
            {
                300: [99, 1, 75, 25],
                301: [98, 2, 74, 26],
                302: [51, 49, 3, 1],
                303: [0, 7, 7, 0],
                304: [7, 0, 0, 7],
                305: [0, 0, 1, 0],
            }
        )
        flags = packed.decision_flags()
        assert flags == scalar_decision_flags(packed)
        assert all(isinstance(column, bytearray) and len(column) == 400 for column in flags)
        assert any(flags[0]) and any(flags[1]) and not any(flags[0][306:])
        # Zero-padding to the table's AS count happens before the flags are
        # taken, and the columns stay resizable afterwards (no exported view).
        padded = packed.decision_flags(450)
        assert [len(column) for column in padded] == [450, 450]
        assert padded == scalar_decision_flags(packed)
        packed.ensure_slots(500)

    def test_decision_flags_at_the_threshold(self):
        packed = PackedCounterStore(Thresholds.uniform(0.99), slots=3)
        packed.apply_delta({0: [99, 1, 98, 2], 1: [98, 2, 99, 1]})
        assert packed.decision_flags() == (bytearray(b"\x01\x00\x00"), bytearray(b"\x00\x01\x00"))
        assert PackedCounterStore().decision_flags() == (bytearray(), bytearray())

    def test_zero_slots_read_as_absent(self):
        packed = PackedCounterStore(slots=4)
        packed.apply_delta({2: [1, 0, 0, 0]})
        assert set(packed_state(packed, (10, 11, 12, 13))) == {12}

    def test_arrays_state_round_trip(self):
        packed = PackedCounterStore(slots=3)
        packed.apply_delta({0: [1, 2, 3, 4], 2: [5, 6, 7, 8]})
        restored = PackedCounterStore.from_arrays_state(packed.arrays_state())
        assert packed_state(restored, (1, 2, 3)) == packed_state(packed, (1, 2, 3))
        assert packed_state(packed, (1, 2, 3)) == {1: (1, 2, 3, 4), 3: (5, 6, 7, 8)}


class TestPackedConformance:
    """The packed kernels and the object kernels agree tuple-for-tuple."""

    def test_fixture_conformance(self, random_dataset):
        # ~30k counting groups: the numpy matrix kernels are on.
        assert len(random_dataset.tuples) >= matrix.MIN_MATRIX_GROUPS
        assert_packed_matches_batch(random_dataset.tuples)

    def test_random_conformance(self):
        # Small inputs (scalar kernels), duplicates (multiplicity > 1), empty.
        rng = random.Random(7)
        for _ in range(10):
            tuples = _random_tuples(rng, rng.randint(0, 60))
            assert_packed_matches_batch(tuples)

    def test_overflow_paths_beside_the_matrix(self):
        """Paths too long for an int64 bitmask among >= 512 matrix groups.

        Every suffix of one 70-hop chain of taggers is announced, so each
        chain AS is learnt as a forwarding tagger at column 1 and the column
        loop runs down the whole chain, past column 62.
        """
        rng = random.Random(23)
        tuples = _random_tuples(rng, 1500)
        assert len({item.path for item in tuples}) >= matrix.MIN_MATRIX_GROUPS
        chain = tuple(range(1000, 1000 + matrix.MAX_MATRIX_LENGTH + 8))
        tagged = CommunitySet([Community(asn, 1) for asn in chain])
        tuples.extend(
            PathCommTuple(ASPath(chain[start:]), tagged) for start in range(len(chain))
        )
        assert_packed_matches_batch(tuples)
        assert ColumnInference().run(tuples).as_code_map()[chain[0]] == "tf"


class TestMatrixKernels:
    """The numpy bucket kernels must match the scalar packed kernels."""

    @staticmethod
    def _random_groups(rng: random.Random, count: int, *, max_length: int = 8) -> GroupList:
        groups = GroupList()
        for _ in range(count):
            length = rng.randint(1, max_length)
            row = tuple(rng.randrange(40) for _ in range(length))
            hits = rng.getrandbits(length)
            groups.append((row, hits, rng.randint(1, 5)))
        return groups

    @staticmethod
    def _random_flags(rng: random.Random, slots: int = 40):
        tagger = bytearray(rng.randint(0, 1) for _ in range(slots))
        forward = bytearray(
            max(t, rng.randint(0, 1)) for t in tagger
        )  # taggers forward, like converged decisions
        return tagger, forward

    def _dispatch_both(self, monkeypatch, kernel, *args):
        monkeypatch.setattr(matrix, "MIN_MATRIX_GROUPS", 10**9)
        scalar = kernel(*args)
        monkeypatch.setattr(matrix, "MIN_MATRIX_GROUPS", 1)
        vectorised = kernel(*args)
        return scalar, vectorised

    @pytest.mark.parametrize("column", [1, 2, 3, 9])
    def test_column_kernels_match_scalar(self, monkeypatch, column):
        rng = random.Random(7)
        groups = self._random_groups(rng, 400)
        tagger, forward = self._random_flags(rng)
        for kernel in (count_tagging_phase_packed, count_forwarding_phase_packed):
            scalar, vectorised = self._dispatch_both(
                monkeypatch, kernel, groups, column, tagger, forward
            )
            assert vectorised == scalar

    def test_overflow_groups_take_the_scalar_path(self, monkeypatch):
        rng = random.Random(13)
        groups = self._random_groups(rng, 64)
        long_row = tuple(rng.randrange(40) for _ in range(matrix.MAX_MATRIX_LENGTH + 8))
        groups.append((long_row, (1 << len(long_row)) - 1, 2))
        assert len(GroupMatrix(groups).overflow) == 1
        tagger, forward = self._random_flags(rng)
        for column in (1, matrix.MAX_MATRIX_LENGTH + 4):
            scalar, vectorised = self._dispatch_both(
                monkeypatch,
                count_forwarding_phase_packed,
                groups,
                column,
                tagger,
                forward,
            )
            assert vectorised == scalar

    def test_column_beyond_every_length_is_empty(self, monkeypatch):
        monkeypatch.setattr(matrix, "MIN_MATRIX_GROUPS", 1)
        groups = self._random_groups(random.Random(17), 32, max_length=4)
        tagger, forward = self._random_flags(random.Random(17))
        assert count_tagging_phase_packed(groups, 5, tagger, forward) == ({}, 0)
        assert count_forwarding_phase_packed(groups, 4, tagger, forward) == ({}, 0)
