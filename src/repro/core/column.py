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
``(AS-index row, hits, multiplicity)`` groups bucketed by path length into a
:class:`~repro.core.matrix.GroupMatrix`: :class:`ColumnInference` lowers its
object tuples in bulk (:func:`~repro.core.matrix.lower_tuples`), the stream
classifier lowers its interned groups from the table's packed paths, and both
run the two numpy ``count_*_phase_packed`` kernels below, which reduce a
whole length bucket per step over dense per-slot counters.  The
listing-shaped object-tuple implementation, and the per-group loops these
kernels replaced, live on as differential oracles in
``tests/column_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as _np

from repro.bgp.announcement import PathCommTuple
from repro.bgp.asn import ASN
from repro.core.counters import PackedCounterStore
from repro.core.matrix import GroupMatrix, lower_tuples
from repro.core.results import ClassificationResult
from repro.core.thresholds import Thresholds

#: Per-AS two-component counter deltas produced by one counting phase
#: (``[dt, ds]`` for tagging phases, ``[df, dc]`` for forwarding phases).
PhaseDelta = Dict[ASN, List[int]]


def merge_phase_delta(target: PhaseDelta, extra: PhaseDelta) -> None:
    """Fold *extra* phase deltas into *target* in place.

    Phase deltas are per-AS commutative sums, so merging the deltas of
    disjoint tuple chunks is equivalent to counting the concatenated chunk in
    one pass — the property the incremental classifier relies on when it
    counts only the turnover of a phase.
    """
    for asn, (first, second) in extra.items():
        entry = target.get(asn)
        if entry is None:
            target[asn] = [first, second]
        else:
            entry[0] += first
            entry[1] += second


def _pair_delta(
    codes: List["_np.ndarray"], weights: List["_np.ndarray"], slots: int
) -> Dict[int, List[int]]:
    """Sum the weights of ``2 * slot + component`` codes into the kernels' delta dict.

    One ``bincount`` per phase over every bucket's codes; its weights are
    integer-valued float64, exact far beyond any realistic event count.
    """
    if not codes:
        return {}
    totals = _np.bincount(
        _np.concatenate(codes), weights=_np.concatenate(weights), minlength=2 * slots
    ).astype(_np.int64)
    pairs = totals.reshape(slots, 2)
    nonzero = _np.flatnonzero(pairs[:, 0] | pairs[:, 1])
    return dict(zip(nonzero.tolist(), pairs[nonzero].tolist()))


def _qualified(rows: "_np.ndarray", position: int, forward: "_np.ndarray") -> "_np.ndarray":
    """Cond1 per row: every AS upstream of *position* is a forward AS."""
    return forward[rows[:, :position]].all(axis=1)


def count_tagging_phase_packed(
    groups: GroupMatrix,
    column: int,
    tagger_flags: bytearray,
    forward_flags: bytearray,
) -> Tuple[Dict[int, List[int]], int]:
    """Phase 1 of one column: count tagging evidence.

    Pure in ``(groups, column, flags)``; returns the per-AS-index ``[dt,
    ds]`` deltas and the number of increments (the stall signal).  Every
    length bucket at least *column* long is reduced at once: the Cond1 scan
    is one mask over its upstream cells, the ``A_x in output(A_1)`` test is
    the hit-plane column at ``x``, and each group's contribution is its
    multiplicity (phase contributions are commutative).
    """
    del tagger_flags  # same signature as the forwarding kernel
    forward = _np.frombuffer(forward_flags, dtype=_np.uint8)
    codes: List["_np.ndarray"] = []
    weights: List["_np.ndarray"] = []
    increments = 0
    position = column - 1
    for length, (rows, hits, counts) in groups.buckets.items():
        if length < column:
            continue
        if column > 1:
            qualified = _qualified(rows, position, forward)
            rows, hits, counts = rows[qualified], hits[qualified], counts[qualified]
        if not counts.size:
            continue
        # Component 0 (t) when A_x's community is present, else 1 (s).
        codes.append(2 * rows[:, position] + ~hits[:, position])
        weights.append(counts)
        increments += int(counts.sum())
    return _pair_delta(codes, weights, len(forward)), increments


def count_forwarding_phase_packed(
    groups: GroupMatrix,
    column: int,
    tagger_flags: bytearray,
    forward_flags: bytearray,
) -> Tuple[Dict[int, List[int]], int]:
    """Phase 2 of one column: count forwarding evidence.

    Pure in ``(groups, column, flags)``; returns the per-AS-index ``[df,
    dc]`` deltas and the number of increments.  The Cond2 scan ("nearest
    downstream tagger reachable through forward ASes") becomes a per-bucket
    reachability mask: position ``j`` is reachable while every earlier
    downstream position was a non-tagger forwarder, and the first reachable
    tagger position (``argmax`` over the eligibility mask) picks the
    hit-plane cell that says whether the tagger's community is present.
    """
    tagger = _np.frombuffer(tagger_flags, dtype=_np.uint8)
    forward = _np.frombuffer(forward_flags, dtype=_np.uint8)
    codes: List["_np.ndarray"] = []
    weights: List["_np.ndarray"] = []
    increments = 0
    position = column - 1
    for length, (rows, hits, counts) in groups.buckets.items():
        if length <= column:  # no downstream positions to search
            continue
        if column > 1:
            qualified = _qualified(rows, position, forward)
            rows, hits, counts = rows[qualified], hits[qualified], counts[qualified]
        if not counts.size:
            continue
        downstream = rows[:, column:]
        is_tagger = tagger[downstream] != 0
        proceed = (~is_tagger) & (forward[downstream] != 0)
        reachable = _np.empty(is_tagger.shape, dtype=bool)
        reachable[:, 0] = True
        if reachable.shape[1] > 1:
            reachable[:, 1:] = _np.logical_and.accumulate(proceed[:, :-1], axis=1)
        eligible = reachable & is_tagger
        found = _np.flatnonzero(eligible.any(axis=1))
        if not found.size:
            continue
        # Component 0 (f) when the tagger's community is present, else 1 (c).
        tagged = hits[found, column + eligible[found].argmax(axis=1)]
        codes.append(2 * rows[found, position] + ~tagged)
        weights.append(counts[found])
        increments += int(weights[-1].sum())
    return _pair_delta(codes, weights, len(forward)), increments


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
