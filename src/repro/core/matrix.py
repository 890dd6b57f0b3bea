"""The numpy counting kernels and the matrix form they count over.

The scalar packed kernels in :mod:`repro.core.column` walk one counting
group at a time.  The same sums can be computed bucket-wise: groups are
split by path length into dense ``(n, L)`` index matrices once, and every
phase reduces whole buckets with boolean masks and ``bincount`` instead of a
Python loop per group.  All arithmetic stays in integers (the ``bincount``
weights are integer-valued float64, exact far beyond any realistic event
count), so the deltas are *identical* to the scalar kernels -- the
conformance suites run with this path active.

Two producers build the matrix, both from flat columns and neither with a
Python tuple per group.  The stream classifier materialises its interned
``(path_id, hits) -> multiplicity`` aggregates as a :class:`GroupList`, whose
matrix is filled from one gather over the table's packed paths
(:meth:`GroupMatrix.from_cells`) once the set is big enough for these
kernels; the one-shot batch (:class:`~repro.core.column.ColumnInference`)
has no table to intern into and lowers its object tuples directly with
:func:`lower_tuples`, a handful of bulk numpy passes per block of tuples.

Groups whose path is longer than :data:`MAX_MATRIX_LENGTH` cannot have
their hits bitmask represented in an ``int64`` and are kept aside in
:attr:`GroupMatrix.overflow` for the scalar kernels, which also serve
group lists below :data:`MIN_MATRIX_GROUPS`.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as _np

from repro.bgp.announcement import PathCommTuple, iter_blocks

#: Longest path representable as an int64 hits bitmask (sign bit spared).
MAX_MATRIX_LENGTH = 62

#: Below this many groups the scalar kernels win; matrix setup is overhead.
MIN_MATRIX_GROUPS = 512

#: Tuples lowered per bulk pass of :func:`lower_tuples`.  Bounds the transient
#: arrays of the lowering (~330 B per tuple of the block) whatever the input
#: size; throughput is flat from 4096 to one pass over everything, and the
#: output never depends on it.
LOWERING_BLOCK_SIZE = 8192


class GroupList(list):
    """Counting groups in the form the kernels will read them in.

    Small sets are a plain list of ``(row, hits, multiplicity)`` tuples for
    the scalar kernels, with a matrix built (once) on demand.  A set the
    interned lowering already delivered as a matrix holds no tuples at all:
    the list is empty and the group count is carried, so ``len()`` and
    truthiness mean "groups held" whichever form that is.
    """

    __slots__ = ("_matrix", "_lowered")

    def __init__(self, groups: Iterable = (), matrix: Optional["GroupMatrix"] = None) -> None:
        super().__init__(groups)
        self._matrix = matrix
        #: Groups held by the matrix alone (no tuple was ever built for them).
        self._lowered = 0 if matrix is None else len(matrix)

    def __len__(self) -> int:
        return self._lowered or super().__len__()

    def matrix(self) -> "GroupMatrix":
        """The matrix form (built from the tuples on first use, then cached)."""
        matrix = self._matrix
        if matrix is None:
            matrix = self._matrix = GroupMatrix(self)
        return matrix

    def extend_merged(self, other: "GroupList") -> None:
        """Append *other*'s groups, folding its matrix into the cached one.

        The appended rows may duplicate ``(row, hits)`` keys already present,
        or cancel them with a negative multiplicity (a retraction); kernels
        sum group contributions commutatively and emit deltas in ascending
        AS-index order, so such rows are indistinguishable from merged
        multiplicities.  Once either side is matrix-only so is the result
        (its tuples, if it had any, are lowered and let go).
        """
        if self._lowered or other._lowered:
            total = len(self) + len(other)
            self.matrix().extend(other.matrix())
            self.clear()
            self._lowered = total
        else:
            matrix = self._matrix
            self.extend(other)
            if matrix is not None:
                matrix.extend(other.matrix())


#: One path-length bucket: ``(rows, hits, counts)``.
Bucket = Tuple["_np.ndarray", "_np.ndarray", "_np.ndarray"]


class GroupMatrix:
    """Counting groups bucketed by path length into dense index matrices.

    Per length ``L`` the bucket holds ``rows`` (``(n, L)`` int64 AS-index
    matrix), ``hits`` (``(n,)`` int64 bitmasks), and ``counts`` (``(n,)``
    int64 multiplicities).
    """

    __slots__ = ("buckets", "overflow")

    def __init__(self, groups: Iterable = ()) -> None:
        self.buckets: Dict[int, Bucket] = {}
        self.overflow: list = []
        columns = list(zip(*groups))
        if columns:
            rows, hits, counts = columns
            lengths = _np.fromiter(map(len, rows), dtype=_np.int64, count=len(rows))
            cells = _np.fromiter(
                chain.from_iterable(rows), dtype=_np.int64, count=int(lengths.sum())
            )
            lowered = self.from_cells(lengths, cells, hits, _np.array(counts, dtype=_np.int64))
            self.buckets, self.overflow = lowered.buckets, lowered.overflow

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
        those of the groups before it, with bitmask ``hits[i]`` (Python ints:
        an overflow path's does not fit an ``int64``) and multiplicity
        ``counts[i]``.  Every bucket is a fresh array, no view of an input.
        """
        matrix = cls()
        starts = _np.cumsum(lengths) - lengths
        masks = _np.array(hits, dtype=object)
        for length in _np.unique(lengths).tolist():
            members = _np.flatnonzero(lengths == length)
            if length > MAX_MATRIX_LENGTH:
                matrix.overflow.extend(
                    (tuple(cells[start : start + length].tolist()), masks[member], count)
                    for member, start, count in zip(
                        members.tolist(), starts[members].tolist(), counts[members].tolist()
                    )
                )
                continue
            matrix.buckets[length] = (
                cells[starts[members][:, None] + _np.arange(length)],
                masks[members].astype(_np.int64),
                counts[members],
            )
        return matrix

    def __len__(self) -> int:
        """Number of counting groups held (bucket rows plus overflow)."""
        return sum(len(counts) for _, _, counts in self.buckets.values()) + len(self.overflow)

    @property
    def max_length(self) -> int:
        """Length of the longest path held (0 when empty)."""
        return max(chain(self.buckets, (len(row) for row, _, _ in self.overflow)), default=0)

    def extend(self, *others: "GroupMatrix") -> None:
        """Concatenate the buckets of *others* onto this matrix in place.

        Sound because every kernel reduces buckets with commutative sums;
        row order within a bucket never reaches the output.  Each length is
        concatenated once however many matrices contribute to it.
        """
        extra: Dict[int, List[Bucket]] = {}
        for other in others:
            for length, bucket in other.buckets.items():
                extra.setdefault(length, []).append(bucket)
            self.overflow.extend(other.overflow)
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

    # Bit p of a tuple's hits: is path[p] an upper field of its community
    # set?  One sorted search over (tuple, block-local AS index) codes; an
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
        if length > MAX_MATRIX_LENGTH:
            for start in starts[members].tolist():
                row = tuple(slots[start : start + length].tolist())
                bits = _np.flatnonzero(hit[start : start + length]).tolist()
                matrix.overflow.append((row, sum(1 << bit for bit in bits), 1))
            continue
        positions = _np.arange(length)
        cells = starts[members][:, None] + positions
        matrix.buckets[length] = (
            slots[cells],
            (hit[cells].astype(_np.int64) << positions).sum(axis=1),
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


def _flags_array(flags) -> "_np.ndarray":
    """Zero-copy uint8 view of a decision flag bytearray."""
    return _np.frombuffer(flags, dtype=_np.uint8)


def _accumulate(
    totals: "_np.ndarray", indices: "_np.ndarray", weights: "_np.ndarray"
) -> None:
    """``totals[indices] += weights`` with repeated indices summed exactly."""
    if indices.size:
        totals += _np.bincount(
            indices, weights=weights, minlength=len(totals)
        ).astype(_np.int64)


def _nonzero_delta(
    first: "_np.ndarray", second: "_np.ndarray"
) -> Dict[int, List[int]]:
    """Lower two per-slot component arrays into the kernels' delta dict."""
    nonzero = _np.nonzero(first | second)[0]
    return {
        int(index): [int(a), int(b)]
        for index, a, b in zip(
            nonzero.tolist(), first[nonzero].tolist(), second[nonzero].tolist()
        )
    }


def count_tagging_matrix(
    matrix: GroupMatrix, column: int, forward_flags
) -> Tuple[Dict[int, List[int]], int]:
    """Vectorised :func:`repro.core.column.count_tagging_phase_packed`.

    Does not handle :attr:`GroupMatrix.overflow`; the dispatching caller
    folds those through the scalar kernel.
    """
    forward = _flags_array(forward_flags)
    slots = len(forward)
    taggers = _np.zeros(slots, dtype=_np.int64)
    silents = _np.zeros(slots, dtype=_np.int64)
    increments = 0
    position = column - 1
    for length, (rows, hits, counts) in matrix.buckets.items():
        if length < column:
            continue
        if column > 1:
            qualified = forward[rows[:, :position]].all(axis=1)
            rows_q, hits_q, counts_q = rows[qualified], hits[qualified], counts[qualified]
        else:
            rows_q, hits_q, counts_q = rows, hits, counts
        if not counts_q.size:
            continue
        indices = rows_q[:, position]
        tagged = ((hits_q >> position) & 1).astype(bool)
        _accumulate(taggers, indices[tagged], counts_q[tagged])
        _accumulate(silents, indices[~tagged], counts_q[~tagged])
        increments += int(counts_q.sum())
    return _nonzero_delta(taggers, silents), increments


def count_forwarding_matrix(
    matrix: GroupMatrix, column: int, tagger_flags, forward_flags
) -> Tuple[Dict[int, List[int]], int]:
    """Vectorised :func:`repro.core.column.count_forwarding_phase_packed`.

    The Cond2 scan ("nearest downstream tagger reachable through forward
    ASes") becomes a per-bucket reachability mask: position ``j`` is
    reachable while every earlier downstream position was a non-tagger
    forwarder, and the first reachable tagger position (``argmax`` over the
    eligibility mask) selects the hit bit exactly like the scalar walk.
    """
    tagger = _flags_array(tagger_flags)
    forward = _flags_array(forward_flags)
    slots = len(forward)
    forwards = _np.zeros(slots, dtype=_np.int64)
    cleaners = _np.zeros(slots, dtype=_np.int64)
    increments = 0
    position = column - 1
    for length, (rows, hits, counts) in matrix.buckets.items():
        if length <= column:  # no downstream positions to search
            continue
        if column > 1:
            qualified = forward[rows[:, :position]].all(axis=1)
            rows_q, hits_q, counts_q = rows[qualified], hits[qualified], counts[qualified]
        else:
            rows_q, hits_q, counts_q = rows, hits, counts
        if not counts_q.size:
            continue
        downstream = rows_q[:, column:]
        is_tagger = tagger[downstream] != 0
        proceed = (~is_tagger) & (forward[downstream] != 0)
        reachable = _np.empty(is_tagger.shape, dtype=bool)
        reachable[:, 0] = True
        if reachable.shape[1] > 1:
            reachable[:, 1:] = _np.logical_and.accumulate(proceed[:, :-1], axis=1)
        eligible = reachable & is_tagger
        found = eligible.any(axis=1)
        if not found.any():
            continue
        first = eligible[found].argmax(axis=1)
        tagger_position = column + first
        tagged = ((hits_q[found] >> tagger_position) & 1).astype(bool)
        indices = rows_q[found, position]
        counts_f = counts_q[found]
        _accumulate(forwards, indices[tagged], counts_f[tagged])
        _accumulate(cleaners, indices[~tagged], counts_f[~tagged])
        increments += int(counts_f.sum())
    return _nonzero_delta(forwards, cleaners), increments
