"""The matrix form the counting kernels read.

The two counting kernels in :mod:`repro.core.column` count whole buckets of
counting groups with boolean masks and ``bincount`` instead of walking one
group at a time, and they walk them the way the paper's listing does: column
by column.  Groups are split by path-length width class (the next power of
two, at least 8 -- every path of the benchmark's 1-8 hops shares one bucket)
into padded *position-major* ``(W, n)`` index matrices once: row ``j`` holds
the AS slot at path position ``j`` of every group of the bucket, so one
column of the listing is one contiguous vector.  Beside it each bucket keeps
its hits as a ``(W, n)`` boolean bit-plane (cell ``[p, i]``: is ``path[p]``
an upper field of group ``i``'s community set), the multiplicities and the
path lengths.  Cells past a group's length hold slot ``-1`` and no hit; the
kernels read slot ``-1`` as neither tagger nor forwarder.  A path of any
length is an ordinary group; nothing is kept aside, and one hostile long
path pads only its own bucket, by less than 2x.

Two producers build the matrix, both from flat columns and neither with a
Python tuple per group.  The stream classifier materialises its interned
``(path_id, hits) -> multiplicity`` aggregates from one gather over the
table's packed paths (:meth:`GroupMatrix.from_cells`); the one-shot batch
(:class:`~repro.core.column.ColumnInference`) has no table to intern into and
lowers its object tuples directly with :func:`lower_tuples`, a handful of
bulk numpy passes per block of tuples.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as _np

from repro.bgp.announcement import PathCommTuple, iter_blocks

#: Tuples lowered per bulk pass of :func:`lower_tuples`.  Bounds the transient
#: arrays of the lowering (~330 B per tuple of the block) whatever the input
#: size; throughput is flat from 4096 to one pass over everything, and the
#: output never depends on it.
LOWERING_BLOCK_SIZE = 8192


#: One width-class bucket: ``(rows, hits, counts, lengths)``.
Bucket = Tuple["_np.ndarray", "_np.ndarray", "_np.ndarray", "_np.ndarray"]

#: The narrowest width class: every path of up to this many hops shares one bucket.
MIN_WIDTH = 8


def _width_classes(lengths: "_np.ndarray") -> "_np.ndarray":
    """Per path length ``max(MIN_WIDTH, next power of two >= length)``."""
    # frexp's exponent of ``length - 1`` is its bit length (0 for 0 and 1).
    return _np.maximum(MIN_WIDTH, _np.left_shift(1, _np.frexp(lengths - 1)[1]))


def _bucketed(
    lengths: "_np.ndarray", slots: "_np.ndarray", hits: "_np.ndarray", counts: "_np.ndarray"
) -> "GroupMatrix":
    """Groups given as flat per-cell columns, in padded position-major buckets.

    Group ``i`` owns the ``lengths[i]`` cells of *slots* / *hits* that follow
    those of the groups before it; cells past its length read slot ``-1`` and
    hit ``False``.  Every bucket is a fresh array, no view of an input.
    """
    matrix = GroupMatrix()
    if not len(lengths):
        return matrix
    starts = _np.cumsum(lengths) - lengths
    widths = _width_classes(lengths)
    for width in _np.unique(widths).tolist():
        members = _np.flatnonzero(widths == width)
        member_lengths = lengths[members]
        offsets = _np.arange(width)[:, None]
        inside = offsets < member_lengths
        cells = (starts[members] + offsets)[inside]
        rows = _np.full(inside.shape, -1, dtype=_np.int64)
        rows[inside] = slots[cells]
        plane = _np.zeros(inside.shape, dtype=bool)
        plane[inside] = hits[cells]
        matrix.buckets[width] = (rows, plane, counts[members], member_lengths)
    return matrix


class GroupMatrix:
    """Counting groups in padded position-major buckets, keyed by width class.

    A path of ``L`` hops sits in the bucket of width ``W = max(8, next power
    of two >= L)``, which holds ``rows`` (``(W, n)`` int64: row ``j`` is the
    AS slot at path position ``j`` of every group), ``hits`` (``(W, n)``
    bool bit-plane), ``counts`` (``(n,)`` int64 multiplicities) and
    ``lengths`` (``(n,)`` int64 path lengths).  Cells past a group's length
    hold slot ``-1`` and hit ``False``; a path of more than 8 hops is padded
    by less than 2x.
    """

    __slots__ = ("buckets",)

    def __init__(self) -> None:
        self.buckets: Dict[int, Bucket] = {}

    @classmethod
    def from_cells(
        cls,
        lengths: "_np.ndarray",
        cells: "_np.ndarray",
        hits: Sequence[int],
        counts: "_np.ndarray",
    ) -> "GroupMatrix":
        """The matrix over groups given as flat columns, no tuple per group.

        Group ``i`` is the ``lengths[i]`` AS indices of *cells* that follow
        those of the groups before it, with hits bitmask ``hits[i]`` (a
        Python int of at most ``lengths[i]`` bits) and multiplicity
        ``counts[i]``.
        """
        # Each mask as its own run of little-endian octets, unpacked bit by
        # bit; cell p of group i is bit p of its run.
        sizes = (lengths + 7) // 8
        raw = b"".join([mask.to_bytes(size, "little") for mask, size in zip(hits, sizes.tolist())])
        bits = _np.unpackbits(_np.frombuffer(raw, dtype=_np.uint8), bitorder="little")
        starts = _np.cumsum(lengths) - lengths
        positions = _np.arange(len(cells)) - _np.repeat(starts, lengths)
        flat_hits = bits[_np.repeat(8 * (_np.cumsum(sizes) - sizes), lengths) + positions]
        return _bucketed(lengths, cells, flat_hits.view(bool), counts)

    def __len__(self) -> int:
        """Number of counting groups held."""
        return sum(len(bucket[2]) for bucket in self.buckets.values())

    @property
    def max_length(self) -> int:
        """Length of the longest path held (0 when empty)."""
        return max((int(bucket[3].max()) for bucket in self.buckets.values()), default=0)

    def extend(self, *others: "GroupMatrix") -> None:
        """Concatenate the buckets of *others* onto this matrix in place.

        Sound because every kernel reduces buckets with commutative sums;
        group order within a bucket never reaches the output, and groups that
        duplicate a ``(row, hits)`` already held, or cancel it with a
        negative multiplicity (a retraction), count like merged
        multiplicities.  Each width class is concatenated once (along the
        group axis) however many matrices contribute to it.
        """
        extra: Dict[int, List[Bucket]] = {}
        for other in others:
            for width, bucket in other.buckets.items():
                extra.setdefault(width, []).append(bucket)
        for width, pieces in extra.items():
            mine = self.buckets.get(width)
            if mine is not None:
                pieces = [mine, *pieces]
            if len(pieces) == 1:
                self.buckets[width] = pieces[0]
            else:
                rows, hits, counts, lengths = zip(*pieces)
                self.buckets[width] = (
                    _np.concatenate(rows, axis=1),
                    _np.concatenate(hits, axis=1),
                    _np.concatenate(counts),
                    _np.concatenate(lengths),
                )


def _refuse_misfits(runs: Sequence[Iterable[int]]) -> None:
    """Raise for the first ASN an unsigned 64-bit slot cannot hold."""
    for asn in chain.from_iterable(runs):
        if not 0 <= asn < 1 << 64:
            raise ValueError(f"ASN {asn} does not fit an unsigned 64-bit AS slot")


def _asn_array(runs: Sequence[Iterable[int]], total: int) -> "_np.ndarray":
    """The ASNs of *runs*, chained, as one ``uint64`` array of *total* items.

    Nothing upstream validates what an ``ASPath`` carries, so an ASN the
    dtype cannot hold is refused by name, never wrapped.
    """
    try:
        flat = _np.fromiter(chain.from_iterable(runs), dtype=_np.uint64, count=total)
    except OverflowError:
        _refuse_misfits(runs)
        raise
    if total and int(flat.max()) >> 63:
        # numpy < 2 wraps a negative into the upper half instead of raising.
        _refuse_misfits(runs)
    return flat


def _in_sorted(values: "_np.ndarray", pool: "_np.ndarray") -> Tuple["_np.ndarray", "_np.ndarray"]:
    """``(mask, index)``: which *values* occur in the ascending *pool*, and where."""
    index = _np.searchsorted(pool, values)
    found = index < len(pool)
    found[found] = pool[index[found]] == values[found]
    return found, index


def _lower_block(block: Sequence[PathCommTuple], slot_of: Dict[int, int]) -> GroupMatrix:
    """One block of tuples as a matrix, one group per tuple.

    ``slot_of`` maps ASN -> dense slot across blocks; the block's distinct
    ASNs that it has not met yet get the next free slots.
    """
    paths = [item.path.asns for item in block]
    uppers = [item.communities.upper_fields() for item in block]
    tuple_ids = _np.arange(len(block))
    lengths = _np.fromiter(map(len, paths), dtype=_np.int64, count=len(block))
    flat = _asn_array(paths, int(lengths.sum()))
    distinct, local = _np.unique(flat, return_inverse=True)
    slots = _np.fromiter(
        (slot_of.setdefault(asn, len(slot_of)) for asn in distinct.tolist()),
        dtype=_np.int64,
        count=len(distinct),
    )[local]

    # Cell p of a tuple's hit plane: is path[p] an upper field of its
    # community set?  One sorted search over (tuple, block-local AS index) codes; an
    # upper field that is no path ASN of the block can hit nothing.
    upper_sizes = _np.fromiter(map(len, uppers), dtype=_np.int64, count=len(block))
    upper_flat = _asn_array(uppers, int(upper_sizes.sum()))
    on_path, upper_local = _in_sorted(upper_flat, distinct)
    upper_codes = _np.repeat(tuple_ids, upper_sizes) * len(distinct) + upper_local
    upper_codes = _np.sort(upper_codes[on_path])
    hit, _ = _in_sorted(_np.repeat(tuple_ids, lengths) * len(distinct) + local, upper_codes)

    return _bucketed(lengths, slots, hit, _np.ones(len(block), dtype=_np.int64))


def lower_tuples(tuples: Iterable[PathCommTuple]) -> Tuple[GroupMatrix, List[int]]:
    """Lower object tuples straight into the kernels' matrix form, in bulk.

    Returns the matrix -- one group of multiplicity 1 per tuple, so duplicate
    tuples count as often as they occur -- and the slot -> ASN table its rows
    index (plain ``int`` values: exactly the ASNs on the paths).  No
    :class:`~repro.core.tuples.TupleTable` is involved: nothing is interned
    per tuple, the blocks go through a handful of numpy passes each.
    """
    slot_of: Dict[int, int] = {}
    matrix = GroupMatrix()
    matrix.extend(
        *[_lower_block(block, slot_of) for block in iter_blocks(tuples, LOWERING_BLOCK_SIZE)]
    )
    return matrix, list(slot_of)
