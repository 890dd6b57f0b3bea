"""Vectorised (numpy) twins of the packed counting kernels.

The pure-Python packed kernels in :mod:`repro.core.column` walk one
counting group at a time.  The same sums can be computed bucket-wise: groups are split by path length into dense
``(n, L)`` index matrices once, and every phase reduces whole buckets with
boolean masks and ``bincount`` instead of a Python loop per group.  All arithmetic stays in integers (the ``bincount``
weights are integer-valued float64, exact far beyond any realistic event
count), so the deltas are *identical* to the scalar kernels — the
conformance suites run with this path active.

Groups whose path is longer than :data:`MAX_MATRIX_LENGTH` cannot have
their hits bitmask represented in an ``int64`` and are kept aside in
:attr:`GroupMatrix.overflow` for the scalar kernels, which also serve
inputs below :data:`MIN_MATRIX_GROUPS`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as _np

#: Longest path representable as an int64 hits bitmask (sign bit spared).
MAX_MATRIX_LENGTH = 62

#: Below this many groups the scalar kernels win; matrix setup is overhead.
MIN_MATRIX_GROUPS = 512


class GroupList(list):
    """A list of counting groups carrying a lazily built matrix form.

    The matrix is cached on first use, so a group set is lowered to numpy
    once, not once per phase.
    """

    __slots__ = ("_matrix",)

    def matrix(self) -> "GroupMatrix":
        """The cached matrix form (built on first use)."""
        matrix = getattr(self, "_matrix", None)
        if matrix is None:
            matrix = self._matrix = GroupMatrix(self)
        return matrix

    def extend_merged(self, other: "GroupList") -> None:
        """Append *other*'s groups, folding its matrix into the cached one.

        The appended rows may duplicate ``(row, hits)`` keys already present,
        or cancel them with a negative multiplicity (a retraction); kernels
        sum group contributions commutatively and emit deltas in ascending
        AS-index order, so such rows are indistinguishable from merged
        multiplicities.  Keeping the matrix incrementally beats
        rebuilding it from Python tuples on every streaming update.
        """
        matrix = getattr(self, "_matrix", None)
        self.extend(other)
        if matrix is not None:
            matrix.extend(other.matrix())


class GroupMatrix:
    """Counting groups bucketed by path length into dense index matrices.

    Per length ``L`` the bucket holds ``rows`` (``(n, L)`` int64 AS-index
    matrix), ``hits`` (``(n,)`` int64 bitmasks), and ``counts`` (``(n,)``
    int64 multiplicities).
    """

    __slots__ = ("buckets", "overflow")

    def __init__(self, groups) -> None:
        by_length: Dict[int, list] = {}
        overflow = []
        for group in groups:
            length = len(group[0])
            if length > MAX_MATRIX_LENGTH:
                overflow.append(group)
            else:
                by_length.setdefault(length, []).append(group)
        self.overflow: list = overflow
        self.buckets: Dict[int, Tuple["_np.ndarray", "_np.ndarray", "_np.ndarray"]] = {}
        for length, bucket in by_length.items():
            self.buckets[length] = (
                _np.array([g[0] for g in bucket], dtype=_np.int64),
                _np.array([g[1] for g in bucket], dtype=_np.int64),
                _np.array([g[2] for g in bucket], dtype=_np.int64),
            )

    def extend(self, other: "GroupMatrix") -> None:
        """Concatenate *other*'s buckets onto this matrix in place.

        Sound because every kernel reduces buckets with commutative sums;
        row order within a bucket never reaches the output.
        """
        buckets = self.buckets
        for length, (rows, hits, counts) in other.buckets.items():
            mine = buckets.get(length)
            if mine is None:
                buckets[length] = (rows, hits, counts)
            else:
                buckets[length] = (
                    _np.concatenate((mine[0], rows)),
                    _np.concatenate((mine[1], hits)),
                    _np.concatenate((mine[2], counts)),
                )
        self.overflow.extend(other.overflow)


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
