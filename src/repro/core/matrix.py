"""The matrix form the counting kernels read.

The two counting kernels in :mod:`repro.core.column` reduce whole buckets of
counting groups with boolean masks and ``bincount`` instead of walking one
group at a time: groups are split by path length into dense ``(n, L)`` index
matrices once, and each bucket keeps its hits as an ``(n, L)`` boolean
bit-plane beside the index matrix (cell ``[i, p]``: is ``path[p]`` an upper
field of group ``i``'s community set).  A path of any length is an ordinary
row; nothing is kept aside.

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


#: One path-length bucket: ``(rows, hits, counts)``.
Bucket = Tuple["_np.ndarray", "_np.ndarray", "_np.ndarray"]


def _hit_planes(hits: Sequence[int], width: int) -> "_np.ndarray":
    """``(len(hits), >= width)`` bool plane: bit ``p`` of ``hits[i]`` at ``[i, p]``."""
    size = (width + 7) // 8
    raw = b"".join([mask.to_bytes(size, "little") for mask in hits])
    octets = _np.frombuffer(raw, dtype=_np.uint8).reshape(len(hits), size)
    return _np.unpackbits(octets, axis=1, bitorder="little").view(bool)


class GroupMatrix:
    """Counting groups bucketed by path length into dense index matrices.

    Per length ``L`` the bucket holds ``rows`` (``(n, L)`` int64 AS-index
    matrix), ``hits`` (``(n, L)`` bool bit-plane), and ``counts`` (``(n,)``
    int64 multiplicities).
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
        Python int, any length) and multiplicity ``counts[i]``.  Every bucket
        is a fresh array, no view of an input.
        """
        matrix = cls()
        if not len(lengths):
            return matrix
        starts = _np.cumsum(lengths) - lengths
        planes = _hit_planes(hits, int(lengths.max()))
        for length in _np.unique(lengths).tolist():
            members = _np.flatnonzero(lengths == length)
            matrix.buckets[length] = (
                cells[starts[members][:, None] + _np.arange(length)],
                planes[members, :length],
                counts[members],
            )
        return matrix

    def __len__(self) -> int:
        """Number of counting groups held."""
        return sum(len(counts) for _, _, counts in self.buckets.values())

    @property
    def max_length(self) -> int:
        """Length of the longest path held (0 when empty)."""
        return max(self.buckets, default=0)

    def extend(self, *others: "GroupMatrix") -> None:
        """Concatenate the buckets of *others* onto this matrix in place.

        Sound because every kernel reduces buckets with commutative sums;
        row order within a bucket never reaches the output, and rows that
        duplicate a ``(row, hits)`` already held, or cancel it with a
        negative multiplicity (a retraction), count like merged
        multiplicities.  Each length is concatenated once however many
        matrices contribute to it.
        """
        extra: Dict[int, List[Bucket]] = {}
        for other in others:
            for length, bucket in other.buckets.items():
                extra.setdefault(length, []).append(bucket)
        for length, pieces in extra.items():
            mine = self.buckets.get(length)
            if mine is not None:
                pieces = [mine, *pieces]
            if len(pieces) == 1:
                self.buckets[length] = pieces[0]
            else:
                rows, hits, counts = zip(*pieces)
                self.buckets[length] = (
                    _np.concatenate(rows),
                    _np.concatenate(hits),
                    _np.concatenate(counts),
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
    ends = _np.cumsum(lengths)
    starts = ends - lengths
    flat = _asn_array(paths, int(ends[-1]))
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

    matrix = GroupMatrix()
    for length in _np.unique(lengths).tolist():
        members = _np.flatnonzero(lengths == length)
        cells = starts[members][:, None] + _np.arange(length)
        matrix.buckets[length] = (
            slots[cells],
            hit[cells],
            _np.ones(len(members), dtype=_np.int64),
        )
    return matrix


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
