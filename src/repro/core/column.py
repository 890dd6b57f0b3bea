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

There is one form and one pair of counting kernels.  Tuples are counted as
``(AS-index row, hits, multiplicity)`` groups in the padded position-major
width-class buckets of a :class:`~repro.core.matrix.GroupMatrix`:
:class:`ColumnInference` lowers its object tuples in bulk
(:func:`~repro.core.matrix.lower_tuples`), the stream classifier lowers its
interned groups from the table's packed paths, and both run the two numpy
``count_*_phase_packed`` kernels below.  They walk a bucket the way the
listing walks its tuples, path position by path position, each step one
contiguous vector op over every group of the bucket, and return their
per-slot deltas as ``(slots, 2)`` int64 arrays that the
:class:`~repro.core.counters.PackedCounterStore` matrix adds.  The
listing-shaped object-tuple implementation, and the per-group loops these
kernels replaced, live on as differential oracles in
``tests/column_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

import numpy as _np

from repro.bgp.announcement import PathCommTuple
from repro.core.counters import PackedCounterStore
from repro.core.matrix import GroupMatrix, lower_tuples
from repro.core.results import ClassificationResult
from repro.core.thresholds import Thresholds


def merge_phase_delta(target: "_np.ndarray", extra: "_np.ndarray") -> "_np.ndarray":
    """``target + extra`` over two ``(slots, 2)`` phase deltas, the shorter zero-grown.

    Phase deltas are per-AS commutative sums, so merging the deltas of
    disjoint tuple chunks is equivalent to counting the concatenated chunk in
    one pass — the property the incremental classifier relies on when it
    counts only the turnover of a phase.  The sum is taken in place in the
    longer of the two arrays, which is returned.
    """
    if len(target) < len(extra):
        target, extra = extra, target
    target[: len(extra)] += extra
    return target


def _pair_delta(
    codes: List["_np.ndarray"], weights: List["_np.ndarray"], slots: int
) -> "_np.ndarray":
    """The ``(slots, 2)`` int64 weight sums of ``2 * slot + component`` codes.

    One ``bincount`` per phase over every bucket's codes; its weights are
    integer-valued float64, exact far beyond any realistic event count.
    """
    if not codes:
        return _np.zeros((slots, 2), dtype=_np.int64)
    totals = _np.bincount(
        _np.concatenate(codes), weights=_np.concatenate(weights), minlength=2 * slots
    )
    return totals.astype(_np.int64).reshape(slots, 2)


def _qualified(rows: "_np.ndarray", position: int, forward: "_np.ndarray") -> "_np.ndarray":
    """Per group: it has a cell at *position* and Cond1 holds (every AS upstream forwards)."""
    qualified = rows[position] >= 0
    for upstream in rows[:position]:
        qualified &= forward[upstream]
    return qualified


def count_tagging_phase_packed(
    groups: GroupMatrix,
    column: int,
    tagger_flags: "_np.ndarray",
    forward_flags: "_np.ndarray",
) -> Tuple["_np.ndarray", int]:
    """Phase 1 of one column: count tagging evidence.

    Pure in ``(groups, column, flags)``; returns the ``(slots, 2)`` per-AS-index
    ``[dt, ds]`` deltas and the number of increments (the stall signal).  The
    flags are bool vectors over the slots plus one trailing ``False``, so the
    padding slot ``-1`` is neither tagger nor forwarder.  Each bucket wide
    enough for *column* is walked position by position: Cond1 is an AND of
    the forward flags of the upstream rows, the ``A_x in output(A_1)`` test is
    the hit-plane row at ``x``, and each group's contribution is its
    multiplicity (phase contributions are commutative).
    """
    del tagger_flags  # same signature as the forwarding kernel
    codes: List["_np.ndarray"] = []
    weights: List["_np.ndarray"] = []
    increments = 0
    position = column - 1
    for width, (rows, hits, counts, _) in groups.buckets.items():
        if width < column:
            continue
        qualified = _qualified(rows, position, forward_flags)
        if not qualified.any():
            continue
        # Component 0 (t) when A_x's community is present, else 1 (s).
        codes.append(2 * rows[position][qualified] + ~hits[position][qualified])
        weights.append(counts[qualified])
        increments += int(weights[-1].sum())
    return _pair_delta(codes, weights, len(forward_flags) - 1), increments


def count_forwarding_phase_packed(
    groups: GroupMatrix,
    column: int,
    tagger_flags: "_np.ndarray",
    forward_flags: "_np.ndarray",
) -> Tuple["_np.ndarray", int]:
    """Phase 2 of one column: count forwarding evidence.

    Pure in ``(groups, column, flags)``; returns the ``(slots, 2)`` per-AS-index
    ``[df, dc]`` deltas and the number of increments.  The Cond2 scan
    ("nearest downstream tagger reachable through forward ASes") walks the
    downstream rows over a shrinking set of searching groups: reaching a
    tagger ends a group's search and its hit-plane cell says whether the
    tagger's community is present; reaching a non-forwarder (the padding
    slot included) ends it without a count.
    """
    codes: List["_np.ndarray"] = []
    weights: List["_np.ndarray"] = []
    increments = 0
    position = column - 1
    for width, (rows, hits, counts, _) in groups.buckets.items():
        if width <= column:  # no downstream positions to search
            continue
        searching = _np.flatnonzero(_qualified(rows, position, forward_flags))
        for downstream in range(column, width):
            if not searching.size:
                break
            slots = rows[downstream][searching]
            is_tagger = tagger_flags[slots]
            found = searching[is_tagger]
            if found.size:
                # Component 0 (f) when the tagger's community is present, else 1 (c).
                codes.append(2 * rows[position][found] + ~hits[downstream][found])
                weights.append(counts[found])
                increments += int(weights[-1].sum())
            searching = searching[~is_tagger & forward_flags[slots]]
    return _pair_delta(codes, weights, len(forward_flags) - 1), increments


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
        groups, as_values = lower_tuples(tuples)
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
