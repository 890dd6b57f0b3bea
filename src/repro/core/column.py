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
Within one pass the knowledge is pinned to a :class:`DecisionView` snapshot
taken when the pass starts, which makes every pass a pure function of
``(tuples, decisions)``; the streaming engine exploits this purity to count
only newly arrived tuples when the decisions are unchanged.  The loop stops
as soon as a column produces no new evidence, which in practice happens
around index 7 (the paper makes the same observation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.bgp.announcement import PathCommTuple
from repro.bgp.asn import ASN
from repro.core import matrix as _matrix
from repro.core.counters import CounterStore, DecisionView
from repro.core.results import ClassificationResult
from repro.core.thresholds import Thresholds
from repro.core.tuples import CountingGroup

#: The internal per-tuple form: ``(path ASNs, upper fields of output(A_1))``.
PreparedTuple = Tuple[Tuple[ASN, ...], FrozenSet[ASN]]

#: Per-AS two-component counter deltas produced by one counting phase
#: (``[dt, ds]`` for tagging phases, ``[df, dc]`` for forwarding phases).
PhaseDelta = Dict[ASN, List[int]]


def prepare_tuple(item: PathCommTuple) -> PreparedTuple:
    """Pre-compute the membership-test form of one ``(path, comm)`` tuple."""
    return (item.path.asns, item.communities.upper_fields())


def prepare_tuples(tuples: Iterable[PathCommTuple]) -> List[PreparedTuple]:
    """Pre-compute the membership-test form of many tuples."""
    return [prepare_tuple(item) for item in tuples]


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


def count_tagging_phase(
    prepared: Sequence[PreparedTuple],
    column: int,
    decisions: DecisionView,
) -> Tuple[PhaseDelta, int]:
    """Phase 1 of one column: count tagging evidence.

    Pure in ``(prepared, column, decisions)``; returns the per-AS
    ``[dt, ds]`` deltas and the number of increments (the stall signal).
    """
    delta: PhaseDelta = {}
    delta_get = delta.get
    increments = 0
    forward_ases = decisions.forward_ases
    check_cond1 = column > 1
    for asns, uppers in prepared:
        if len(asns) < column:
            continue
        if check_cond1:
            # Cond1: every AS between the collector and A_x must forward.
            qualified = True
            for i in range(column - 1):
                if asns[i] not in forward_ases:
                    qualified = False
                    break
            if not qualified:
                continue
        asn = asns[column - 1]
        entry = delta_get(asn)
        if entry is None:
            entry = delta[asn] = [0, 0]
        if asn in uppers:
            entry[0] += 1
        else:
            entry[1] += 1
        increments += 1
    return delta, increments


def count_forwarding_phase(
    prepared: Sequence[PreparedTuple],
    column: int,
    decisions: DecisionView,
) -> Tuple[PhaseDelta, int]:
    """Phase 2 of one column: count forwarding evidence.

    Pure in ``(prepared, column, decisions)``; returns the per-AS
    ``[df, dc]`` deltas and the number of increments (the stall signal).
    """
    delta: PhaseDelta = {}
    delta_get = delta.get
    increments = 0
    tagger_ases = decisions.tagger_ases
    forward_ases = decisions.forward_ases
    check_cond1 = column > 1
    for asns, uppers in prepared:
        if len(asns) < column:
            continue
        if check_cond1:
            qualified = True
            for i in range(column - 1):
                if asns[i] not in forward_ases:
                    qualified = False
                    break
            if not qualified:
                continue
        # Cond2: nearest downstream tagger reachable through forward ASes.
        tagger_asn: Optional[ASN] = None
        for position in range(column, len(asns)):
            candidate = asns[position]
            if candidate in tagger_ases:
                tagger_asn = candidate
                break
            if candidate not in forward_ases:
                break
        if tagger_asn is None:
            continue
        asn = asns[column - 1]
        entry = delta_get(asn)
        if entry is None:
            entry = delta[asn] = [0, 0]
        if tagger_asn in uppers:
            entry[0] += 1
        else:
            entry[1] += 1
        increments += 1
    return delta, increments


def _group_matrix(groups: Sequence[CountingGroup]) -> Optional["_matrix.GroupMatrix"]:
    """The vectorised form of *groups* if it is worth using, else ``None``."""
    if len(groups) < _matrix.MIN_MATRIX_GROUPS:
        return None
    matrix_of = getattr(groups, "matrix", None)  # GroupList carries the cache
    return matrix_of() if matrix_of is not None else None


def count_tagging_phase_packed(
    groups: Sequence[CountingGroup],
    column: int,
    tagger_flags: Sequence[int],
    forward_flags: Sequence[int],
) -> Tuple[Dict[int, List[int]], int]:
    """Columnar twin of :func:`count_tagging_phase`.

    Operates on grouped ``(as-index row, hits, count)`` work units: the
    Cond1 scan runs once per group and the contribution is multiplied by
    the group's multiplicity, which is exactly the sum the object kernel
    produces over the group's tuples (phase contributions are commutative).
    The ``A_x in output(A_1)`` membership test is one bit test on ``hits``.

    Large :class:`~repro.core.matrix.GroupList` inputs take the vectorised
    bucket kernel; overflow groups (paths too long for an int64 bitmask)
    and small inputs run the scalar loop below.
    """
    matrix = _group_matrix(groups)
    if matrix is not None:
        delta, increments = _matrix.count_tagging_matrix(matrix, column, forward_flags)
        if matrix.overflow:
            extra, more = _count_tagging_groups(
                matrix.overflow, column, tagger_flags, forward_flags
            )
            merge_phase_delta(delta, extra)
            increments += more
        return delta, increments
    return _count_tagging_groups(groups, column, tagger_flags, forward_flags)


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
    groups: Sequence[CountingGroup],
    column: int,
    tagger_flags: Sequence[int],
    forward_flags: Sequence[int],
) -> Tuple[Dict[int, List[int]], int]:
    """Columnar twin of :func:`count_forwarding_phase`.

    The Cond2 tagger search walks the AS-index row through the packed
    decision flags; whether the found tagger's community is present is the
    bit of ``hits`` at the tagger's path position (identical to the object
    kernel's frozenset test, because the bitmask was computed per position).

    Dispatches to the vectorised bucket kernel exactly like
    :func:`count_tagging_phase_packed`.
    """
    matrix = _group_matrix(groups)
    if matrix is not None:
        delta, increments = _matrix.count_forwarding_matrix(
            matrix, column, tagger_flags, forward_flags
        )
        if matrix.overflow:
            extra, more = _count_forwarding_groups(
                matrix.overflow, column, tagger_flags, forward_flags
            )
            merge_phase_delta(delta, extra)
            increments += more
        return delta, increments
    return _count_forwarding_groups(groups, column, tagger_flags, forward_flags)


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

    def run(self, tuples: Sequence[PathCommTuple]) -> ClassificationResult:
        """Infer the community usage classification for every observed AS."""
        store = CounterStore(self.thresholds)
        observed: Set[ASN] = set()
        # Pre-compute the upper-field sets once; membership tests dominate the
        # inner loops.
        prepared: List[PreparedTuple] = []
        max_length = 0
        for item in tuples:
            asns = item.path.asns
            observed.update(asns)
            prepared.append((asns, item.communities.upper_fields()))
            if len(asns) > max_length:
                max_length = len(asns)

        limit = max_length if self.max_columns is None else min(max_length, self.max_columns)
        self.report = ColumnInferenceReport()
        for column in range(1, limit + 1):
            # The two kernels are looked up by module-level name on every
            # call: benchmarks/e2e times them by swapping those names.
            tagging_delta, tagging_increments = count_tagging_phase(
                prepared, column, store.decision_view()
            )
            store.apply_tagging_delta(tagging_delta)
            forwarding_delta, forwarding_increments = count_forwarding_phase(
                prepared, column, store.decision_view()
            )
            store.apply_forwarding_delta(forwarding_delta)
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
        return ClassificationResult(store=store, observed_ases=observed, algorithm="column")
