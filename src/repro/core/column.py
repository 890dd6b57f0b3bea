"""The column-based inference algorithm (paper Section 5.6, Listing 1).

The algorithm iterates over the input ``(path, comm)`` tuples **by path
index** (column) rather than path by path (row).  For every column ``x`` it
performs two passes:

1. **count tagging** -- for every tuple whose path is long enough and whose
   upstream ASes satisfy Cond1, increase ``t[A_x]`` when a community with
   upper field ``A_x`` is present in ``output(A_1)``, else ``s[A_x]``;
2. **count forwarding** -- additionally require a qualifying downstream
   tagger ``A_t`` (Cond2) and increase ``f[A_x]`` when ``A_t``'s community is
   present, else ``c[A_x]``.

Knowledge gained at lower indices (starting with the trivially observable
collector peers at index 1) feeds the condition checks at higher indices.
Within one pass the knowledge is pinned to the decision flags taken when the
pass starts, which makes every pass a pure function of ``(tuples,
decisions)``; the streaming engine exploits this purity to count only the
turnover when the decisions are unchanged.  The loop stops as soon as a
column produces no new evidence, which in practice happens around index 7
(the paper makes the same observation).

There is one set of counting kernels.  Tuples are counted as ``(AS-index
row, hits bitmask, multiplicity)`` groups: :class:`ColumnInference` lowers
its object tuples to a :class:`~repro.core.matrix.GroupMatrix` in bulk
(:func:`~repro.core.matrix.lower_tuples`), the stream classifier groups its
interned tuples, and both run the two ``count_*_phase_packed`` kernels below
over dense per-slot counters.  The listing-shaped object-tuple implementation
lives on as the differential oracle in ``tests/column_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.bgp.announcement import PathCommTuple
from repro.bgp.asn import ASN
from repro.core import matrix as _matrix
from repro.core.counters import PackedCounterStore
from repro.core.results import ClassificationResult
from repro.core.thresholds import Thresholds
from repro.core.tuples import CountingGroup

#: Per-AS two-component counter deltas produced by one counting phase
#: (``[dt, ds]`` for tagging phases, ``[df, dc]`` for forwarding phases).
PhaseDelta = Dict[ASN, List[int]]

#: What the packed kernels count over: a group sequence, or its matrix form.
Groups = Union[Sequence[CountingGroup], _matrix.GroupMatrix]


def merge_phase_delta(target: PhaseDelta, extra: PhaseDelta) -> None:
    """Fold *extra* phase deltas into *target* in place.

    Phase deltas are per-AS commutative sums, so merging the deltas of
    disjoint tuple chunks is equivalent to counting the concatenated chunk in
    one pass — the property the incremental classifier relies on when it
    counts only the turnover of a phase, and the packed kernels when they
    add the overflow groups to a matrix count.
    """
    for asn, (first, second) in extra.items():
        entry = target.get(asn)
        if entry is None:
            target[asn] = [first, second]
        else:
            entry[0] += first
            entry[1] += second


def _kernel_form(groups: Groups) -> Groups:
    """The matrix form of *groups* if there is one worth using, else *groups*."""
    if isinstance(groups, _matrix.GroupMatrix) or len(groups) < _matrix.MIN_MATRIX_GROUPS:
        return groups  # lowered in bulk by the batch path / too small to pay off
    matrix_of = getattr(groups, "matrix", None)  # GroupList carries the cache
    return matrix_of() if matrix_of is not None else groups


def count_tagging_phase_packed(
    groups: Groups,
    column: int,
    tagger_flags: Sequence[int],
    forward_flags: Sequence[int],
) -> Tuple[Dict[int, List[int]], int]:
    """Phase 1 of one column: count tagging evidence.

    Pure in ``(groups, column, flags)``; returns the per-AS-index ``[dt,
    ds]`` deltas and the number of increments (the stall signal).  Operates
    on ``(as-index row, hits, count)`` work units: the Cond1 scan runs once
    per group and the contribution is multiplied by the group's
    multiplicity (phase contributions are commutative).  The ``A_x in
    output(A_1)`` membership test is one bit test on ``hits``.

    A :class:`~repro.core.matrix.GroupMatrix` and large
    :class:`~repro.core.matrix.GroupList` inputs take the vectorised bucket
    kernel; overflow groups (paths too long for an int64 bitmask) and small
    group lists run the scalar loop below.
    """
    groups = _kernel_form(groups)
    if not isinstance(groups, _matrix.GroupMatrix):
        return _count_tagging_groups(groups, column, tagger_flags, forward_flags)
    delta, increments = _matrix.count_tagging_matrix(groups, column, forward_flags)
    if groups.overflow:
        extra, more = _count_tagging_groups(groups.overflow, column, tagger_flags, forward_flags)
        merge_phase_delta(delta, extra)
        increments += more
    return delta, increments


def _count_tagging_groups(
    groups: Sequence[CountingGroup],
    column: int,
    tagger_flags: Sequence[int],
    forward_flags: Sequence[int],
) -> Tuple[Dict[int, List[int]], int]:
    """Scalar tagging kernel (also the conformance oracle for the matrix)."""
    del tagger_flags  # same signature as the forwarding kernel
    delta: Dict[int, List[int]] = {}
    delta_get = delta.get
    increments = 0
    check_cond1 = column > 1
    position = column - 1
    bit = 1 << position
    for row, hits, count in groups:
        if len(row) < column:
            continue
        if check_cond1:
            qualified = True
            for i in range(position):
                if not forward_flags[row[i]]:
                    qualified = False
                    break
            if not qualified:
                continue
        index = row[position]
        entry = delta_get(index)
        if entry is None:
            entry = delta[index] = [0, 0]
        if hits & bit:
            entry[0] += count
        else:
            entry[1] += count
        increments += count
    return delta, increments


def count_forwarding_phase_packed(
    groups: Groups,
    column: int,
    tagger_flags: Sequence[int],
    forward_flags: Sequence[int],
) -> Tuple[Dict[int, List[int]], int]:
    """Phase 2 of one column: count forwarding evidence.

    Pure in ``(groups, column, flags)``; returns the per-AS-index ``[df,
    dc]`` deltas and the number of increments.  The Cond2 tagger search
    walks the AS-index row through the packed decision flags; whether the
    found tagger's community is present is the bit of ``hits`` at the
    tagger's path position (the bitmask was computed per position).

    Dispatches to the vectorised bucket kernel exactly like
    :func:`count_tagging_phase_packed`.
    """
    groups = _kernel_form(groups)
    if not isinstance(groups, _matrix.GroupMatrix):
        return _count_forwarding_groups(groups, column, tagger_flags, forward_flags)
    delta, increments = _matrix.count_forwarding_matrix(
        groups, column, tagger_flags, forward_flags
    )
    if groups.overflow:
        extra, more = _count_forwarding_groups(
            groups.overflow, column, tagger_flags, forward_flags
        )
        merge_phase_delta(delta, extra)
        increments += more
    return delta, increments


def _count_forwarding_groups(
    groups: Sequence[CountingGroup],
    column: int,
    tagger_flags: Sequence[int],
    forward_flags: Sequence[int],
) -> Tuple[Dict[int, List[int]], int]:
    """Scalar forwarding kernel (also the matrix kernel's overflow path)."""
    delta: Dict[int, List[int]] = {}
    delta_get = delta.get
    increments = 0
    check_cond1 = column > 1
    position = column - 1
    for row, hits, count in groups:
        length = len(row)
        if length < column:
            continue
        if check_cond1:
            qualified = True
            for i in range(position):
                if not forward_flags[row[i]]:
                    qualified = False
                    break
            if not qualified:
                continue
        tagger_position = -1
        for candidate in range(column, length):
            if tagger_flags[row[candidate]]:
                tagger_position = candidate
                break
            if not forward_flags[row[candidate]]:
                break
        if tagger_position < 0:
            continue
        index = row[position]
        entry = delta_get(index)
        if entry is None:
            entry = delta[index] = [0, 0]
        if (hits >> tagger_position) & 1:
            entry[0] += count
        else:
            entry[1] += count
        increments += count
    return delta, increments


@dataclass
class ColumnInferenceReport:
    """Diagnostics about one inference run (coverage per column)."""

    columns_processed: int = 0
    tagging_counts_per_column: List[int] = field(default_factory=list)
    forwarding_counts_per_column: List[int] = field(default_factory=list)

    @property
    def total_tagging_counts(self) -> int:
        """Total number of tagging counter increments."""
        return sum(self.tagging_counts_per_column)

    @property
    def total_forwarding_counts(self) -> int:
        """Total number of forwarding counter increments."""
        return sum(self.forwarding_counts_per_column)


class ColumnInference:
    """Runs the paper's column-based inference over ``(path, comm)`` tuples."""

    def __init__(
        self,
        thresholds: Optional[Thresholds] = None,
        *,
        max_columns: Optional[int] = None,
        stop_when_stalled: bool = True,
    ) -> None:
        self.thresholds = thresholds or Thresholds()
        self.max_columns = max_columns
        self.stop_when_stalled = stop_when_stalled
        self.report = ColumnInferenceReport()

    def run(self, tuples: Iterable[PathCommTuple]) -> ClassificationResult:
        """Infer the community usage classification for every observed AS."""
        groups, as_values = _matrix.lower_tuples(tuples)
        packed = PackedCounterStore(self.thresholds, slots=len(as_values))
        longest = groups.max_length
        limit = longest if self.max_columns is None else min(longest, self.max_columns)
        self.report = ColumnInferenceReport()
        for column in range(1, limit + 1):
            # The two kernels are looked up by module-level name on every
            # call: benchmarks/e2e times them by swapping those names.
            tagging_delta, tagging_increments = count_tagging_phase_packed(
                groups, column, *packed.decision_flags()
            )
            packed.apply_tagging_delta(tagging_delta)
            forwarding_delta, forwarding_increments = count_forwarding_phase_packed(
                groups, column, *packed.decision_flags()
            )
            packed.apply_forwarding_delta(forwarding_delta)
            self.report.columns_processed = column
            self.report.tagging_counts_per_column.append(tagging_increments)
            self.report.forwarding_counts_per_column.append(forwarding_increments)
            if (
                self.stop_when_stalled
                and column > 1
                and tagging_increments == 0
                and forwarding_increments == 0
            ):
                break
        return ClassificationResult.from_packed(packed, as_values, set(as_values))
