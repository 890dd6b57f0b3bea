"""The padded position-major layout of the group matrix, at its edges.

A path of ``L`` hops lives in the bucket of width class ``max(8, next power
of two >= L)`` as one column of ``(W, n)`` slot / hit planes, padded with
slot ``-1`` and no hit; the kernels read the padding slot as neither tagger
nor forwarder.  These cases put paths on either side of every width-class
edge, with zero and negative multiplicities, and hold the two kernels to the
per-group loops of ``tests/column_oracle.py`` at every column; the last one
bounds what a single hostile long path can cost the common bucket.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from column_oracle import (
    ListingInference,
    assert_same_result,
    canonical,
    count_forwarding_groups,
    count_tagging_groups,
    flag_vector,
    group_matrix,
    nonzero,
    pair_dict,
    width_class,
)

from repro.bgp.announcement import PathCommTuple
from repro.bgp.community import Community, CommunitySet
from repro.bgp.path import ASPath
from repro.core.column import (
    ColumnInference,
    count_forwarding_phase_packed,
    count_tagging_phase_packed,
)
from repro.core.matrix import _width_classes, lower_tuples
from repro.core.tuples import TupleTable, materialize_groups

EDGE_LENGTHS = (1, 7, 8, 9, 16, 17, 64, 65, 130)

KERNELS = (
    (count_tagging_phase_packed, count_tagging_groups),
    (count_forwarding_phase_packed, count_forwarding_groups),
)


def random_groups(rng, count, counts=(1, 2, 0, -1, -3)):
    """*count* short groups over slots 0-39 with signed (and zero) multiplicities."""
    groups = []
    for _ in range(count):
        length = rng.randint(1, 6)
        row = tuple(rng.randrange(40) for _ in range(length))
        groups.append((row, rng.getrandbits(length), rng.choice(counts)))
    return groups


def long_group(rng, length, count):
    """A *length*-hop group over slots 40-49, which all forward (see :func:`edge_flags`)."""
    return tuple(rng.randrange(40, 50) for _ in range(length)), rng.getrandbits(length), count


def edge_flags(rng):
    """Flags over 50 slots: taggers forward; slots 40-49 all forward, a fifth tag."""
    tagger = [rng.randint(0, 1) for _ in range(40)] + [rng.random() < 0.2 for _ in range(10)]
    forward = [max(t, rng.randint(0, 1)) for t in tagger[:40]] + [1] * 10
    return flag_vector(tagger), flag_vector(forward)


def assert_kernels_match(lowered, groups, column, tagger, forward):
    for kernel, reference in KERNELS:
        got = kernel(lowered, column, tagger, forward)
        assert got[0].shape == (len(forward) - 1, 2)
        assert pair_dict(got) == nonzero(reference(groups, column, tagger, forward))


@pytest.mark.parametrize("length", EDGE_LENGTHS)
def test_width_class_edges(length):
    """Each length on either side of a width-class edge, at every column the
    path has and one past it."""
    assert _width_classes(np.array([length], dtype=np.int64)).tolist() == [width_class(length)]
    rng = random.Random(length)
    groups = random_groups(rng, 40)
    groups += [long_group(rng, length, count) for count in (1, 0, -2, 3, 5, -1)]
    lowered = group_matrix(groups)
    assert width_class(length) in lowered.buckets
    tagger, forward = edge_flags(rng)
    for column in range(1, length + 2):
        assert_kernels_match(lowered, groups, column, tagger, forward)


def test_width_class_edges_on_an_extended_matrix():
    """Three pieces concatenated by ``extend``, spread over every width class."""
    rng = random.Random(130)
    pieces = []
    for _ in range(3):
        piece = random_groups(rng, 20, counts=(1, 0, -1, 4))
        piece += [long_group(rng, length, rng.choice([1, 0, -2, 3])) for length in EDGE_LENGTHS]
        pieces.append(piece)
    lowered = group_matrix(pieces[0])
    lowered.extend(group_matrix(pieces[1]), group_matrix(pieces[2]))
    everything = pieces[0] + pieces[1] + pieces[2]
    assert canonical(lowered) == canonical(group_matrix(everything))
    assert sorted(lowered.buckets) == [8, 16, 32, 64, 128, 256]
    tagger, forward = edge_flags(rng)
    for column in (1, 2, 3, 7, 8, 9, 10, 16, 17, 18, 64, 65, 66, 129, 130, 131):
        assert_kernels_match(lowered, everything, column, tagger, forward)


def test_the_padding_slot_is_neither_tagger_nor_forwarder():
    """Every real slot tags and forwards, so only the padding can stop a Cond1
    or Cond2 walk: a row counts nothing past its end."""
    groups = [((0, 1, 2), 0b111, 1), ((3,) * 9, 0, 2)]
    lowered = group_matrix(groups)
    tagger, forward = flag_vector([1] * 4), flag_vector([1] * 4)
    for column in range(1, 11):
        assert_kernels_match(lowered, groups, column, tagger, forward)
    assert count_tagging_phase_packed(lowered, 4, tagger, forward)[1] == 2


class TestPaddingBound:
    """10 000 four-hop groups and one 200-hop group: the short groups stay in the
    width-8 bucket and the matrix holds at most 2x its paths' cells."""

    @staticmethod
    def tuples():
        rng = random.Random(200)
        short = []
        for _ in range(10_000):
            asns = rng.sample(range(1, 600), 4)
            uppers = [Community(asn, 1) for asn in asns if rng.random() < 0.3]
            short.append(PathCommTuple(ASPath(asns), CommunitySet(uppers)))
        hostile = PathCommTuple(
            ASPath(range(1000, 1200)), CommunitySet([Community(1100, 1), Community(1199, 1)])
        )
        return short + [hostile]

    @staticmethod
    def assert_bounded(matrix):
        assert sorted(matrix.buckets) == [8, 256]
        assert matrix.buckets[8][3].tolist() == [4] * 10_000
        assert matrix.buckets[256][3].tolist() == [200]
        held = sum(rows.size for rows, _, _, _ in matrix.buckets.values())
        assert held <= 2 * (4 * 10_000 + 200)

    def test_both_lowerings_and_the_listing(self):
        items = self.tuples()
        lowered, _ = lower_tuples(items)
        self.assert_bounded(lowered)
        table = TupleTable()
        counts = {}
        for item in items:
            path_id, comm_id = table.intern_tuple(item)
            key = (path_id, table.hits_of(path_id, comm_id))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == len(items)  # no two share a (path, hits)
        self.assert_bounded(materialize_groups(table, counts))
        assert_same_result(ColumnInference().run(items), ListingInference().run(items))
