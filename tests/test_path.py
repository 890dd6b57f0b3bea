"""Unit tests for repro.bgp.path."""

import copy
import pickle

import pytest

from repro.bgp.path import ASPath, PathSegment, SegmentType


class TestASPathBasics:
    def test_peer_and_origin(self):
        path = ASPath([3356, 1299, 64515])
        assert path.peer == 3356
        assert path.origin == 64515
        assert len(path) == 3

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            ASPath([])

    def test_from_string(self):
        path = ASPath.from_string("3356 1299 2914")
        assert path.asns == (3356, 1299, 2914)

    def test_from_string_with_as_set(self):
        path = ASPath.from_string("3356 1299 {65001,65002}")
        assert path.has_as_set
        assert path.asns == (3356, 1299)  # set members are not flattened

    def test_str_round_trip(self):
        path = ASPath([1, 2, 3])
        assert ASPath.from_string(str(path)) == path

    def test_equality_and_hash(self):
        assert ASPath([1, 2]) == ASPath([1, 2])
        assert ASPath([1, 2]) == (1, 2)
        assert hash(ASPath([1, 2])) == hash(ASPath([1, 2]))

    def test_contains_and_iteration(self):
        path = ASPath([10, 20, 30])
        assert 20 in path
        assert list(path) == [10, 20, 30]
        assert path[1] == 20


class TestPaperTerminology:
    def test_index_of_is_one_based(self):
        path = ASPath([10, 20, 30])
        assert path.index_of(10) == 1
        assert path.index_of(30) == 3

    def test_at(self):
        path = ASPath([10, 20, 30])
        assert path.at(1) == 10
        assert path.at(3) == 30
        with pytest.raises(IndexError):
            path.at(0)
        with pytest.raises(IndexError):
            path.at(4)

    def test_upstream_and_downstream(self):
        path = ASPath([10, 20, 30, 40])
        assert path.upstream_of(3) == (10, 20)
        assert path.downstream_of(3) == (40,)
        assert path.upstream_of(1) == ()
        assert path.downstream_of(4) == ()

    def test_upstream_out_of_range(self):
        with pytest.raises(IndexError):
            ASPath([1]).upstream_of(2)


class TestTransformations:
    def test_collapse_prepending(self):
        path = ASPath([10, 10, 20, 20, 20, 30])
        collapsed = path.collapse_prepending()
        assert collapsed.asns == (10, 20, 30)
        assert path.asns == (10, 10, 20, 20, 20, 30)  # original untouched

    def test_collapse_without_prepending_returns_self(self):
        path = ASPath([1, 2, 3])
        assert path.collapse_prepending() is path

    def test_has_prepending(self):
        assert ASPath([1, 1, 2]).has_prepending
        assert not ASPath([1, 2, 1]).has_prepending

    def test_has_loop_detects_nonconsecutive_repeat(self):
        assert ASPath([1, 2, 1]).has_loop
        assert not ASPath([1, 1, 2]).has_loop
        assert not ASPath([1, 2, 3]).has_loop

    def test_prepend_peer_adds_when_missing(self):
        path = ASPath([20, 30])
        assert path.prepend_peer(10).asns == (10, 20, 30)

    def test_prepend_peer_noop_when_present(self):
        path = ASPath([10, 20])
        assert path.prepend_peer(10) is path

    def test_without_as_sets(self):
        clean = ASPath([1, 2, 3])
        assert clean.without_as_sets() is clean
        dirty = ASPath.from_string("1 2 {3,4}")
        assert dirty.without_as_sets() is None


class TestSegments:
    def test_from_segments_flattens_sequences(self):
        segments = [
            PathSegment(SegmentType.AS_SEQUENCE, (1, 2)),
            PathSegment(SegmentType.AS_SEQUENCE, (3,)),
        ]
        assert ASPath.from_segments(segments).asns == (1, 2, 3)

    def test_segments_synthesised_for_plain_paths(self):
        path = ASPath([1, 2])
        assert len(path.segments) == 1
        assert path.segments[0].segment_type == SegmentType.AS_SEQUENCE

    def test_as_set_segment_detected(self):
        segments = [
            PathSegment(SegmentType.AS_SEQUENCE, (1,)),
            PathSegment(SegmentType.AS_SET, (2, 3)),
        ]
        path = ASPath.from_segments(segments)
        assert path.has_as_set
        assert path.asns == (1,)

    @pytest.mark.parametrize(
        "segment_types, expected",
        [
            ([SegmentType.AS_SEQUENCE, SegmentType.AS_CONFED_SEQUENCE], False),
            ([SegmentType.AS_SEQUENCE, SegmentType.AS_SET], True),
            ([SegmentType.AS_CONFED_SET], True),
            ([], False),
        ],
    )
    def test_has_as_set_survives_every_way_a_path_is_rebuilt(self, segment_types, expected):
        # ``from_segments`` settles the answer in a slot; pickle / deepcopy go
        # through ``__reduce__`` -> ``__init__`` and must work it out again.
        path = ASPath.from_segments([PathSegment(kind, (1, 2)) for kind in segment_types])
        rebuilt = [
            path,
            pickle.loads(pickle.dumps(path)),
            copy.deepcopy(path),
            copy.copy(path),
            ASPath(path.asns, path.segments),
        ]
        for _ in range(2):  # the second read is the cached one
            assert [twin.has_as_set for twin in rebuilt] == [expected] * len(rebuilt)
        assert [twin.segments for twin in rebuilt] == [path.segments] * len(rebuilt)
        assert not ASPath(path.asns or [1]).has_as_set

    def test_one_as_sequence_keeps_no_segment_objects(self):
        segment = PathSegment(SegmentType.AS_SEQUENCE, (3356, 1299, 2914))
        path = ASPath.from_segments([segment])
        assert path._segments is None  # nothing stored ...
        assert path.segments == (segment,)  # ... exactly that one synthesised
        assert not path.has_as_set and path.asns == segment.asns
        explicit = ASPath(segment.asns, [segment])
        assert path == explicit == segment.asns and hash(path) == hash(explicit) == hash(segment.asns)
        twin = pickle.loads(pickle.dumps(path))
        assert twin == path and twin._segments is None and twin.segments == (segment,)
        assert pickle.dumps(path) == pickle.dumps(ASPath(segment.asns))

    @pytest.mark.parametrize(
        "segments",
        [
            [PathSegment(SegmentType.AS_SEQUENCE, ())],
            [PathSegment(SegmentType.AS_SEQUENCE, (1, 2)), PathSegment(SegmentType.AS_SEQUENCE, (3,))],
            [PathSegment(SegmentType.AS_CONFED_SEQUENCE, (64512, 64513))],
            [PathSegment(SegmentType.AS_SET, (1, 2))],
            [PathSegment(SegmentType.AS_SEQUENCE, (1, 2)), PathSegment(SegmentType.AS_SET, (3, 4))],
            [],
        ],
    )
    def test_every_other_shape_keeps_its_wire_segments(self, segments):
        path = ASPath.from_segments(segments)
        assert path._segments == tuple(segments) and path.segments == tuple(segments)
        assert path.has_as_set == any(segment.is_set for segment in segments)

    def test_segment_is_set_property(self):
        assert PathSegment(SegmentType.AS_SET, (1,)).is_set
        assert PathSegment(SegmentType.AS_CONFED_SET, (1,)).is_set
        assert not PathSegment(SegmentType.AS_SEQUENCE, (1,)).is_set

    def test_segment_coerces_types(self):
        segment = PathSegment(2, [1, 2])
        assert segment.segment_type == SegmentType.AS_SEQUENCE
        assert segment.asns == (1, 2)
