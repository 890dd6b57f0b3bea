"""Differential oracle for the column-based inference: the paper's listing.

This is the object-tuple implementation of Section 5.6 / Listing 1 that
``repro.core.column`` shipped until the batch path moved onto the numpy
bucket kernels: two pure-Python passes per column over prepared
``(path ASNs, upper fields)`` tuples, frozenset membership tests, the
decisions pinned to a :class:`DecisionView` per pass.  It shares no counting
code with production -- only the plain
:class:`~repro.core.counters.CounterStore`, the report dataclass and
``prepare_tuple`` -- which is what makes "production == this" a statement
about the lowering *and* the kernels, and what keeps the stream suites'
"stream == batch" from comparing the matrix kernels with themselves.

Below the listing sit the group-level references of the matrix form: the
per-group loops :func:`count_tagging_groups` / :func:`count_forwarding_groups`
(the scalar packed kernels production counted small group sets and paths
over 62 hops with until the matrix became the only form) and
:func:`group_matrix`, the tuple-per-group lowering into the kernels' bucket
layout that ``GroupMatrix.from_cells`` and ``lower_tuples`` are held to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bgp.announcement import PathCommTuple
from repro.bgp.asn import ASN
from repro.core.column import ColumnInferenceReport, PhaseDelta
from repro.core.counters import CounterStore
from repro.core.matrix import GroupMatrix
from repro.core.results import ClassificationResult
from repro.core.row import PreparedTuple, prepare_tuple
from repro.core.thresholds import Thresholds


@dataclass(frozen=True)
class DecisionView:
    """Frozen snapshot of the threshold predicates of a counter state.

    The column algorithm consults ``is_tagger`` / ``is_forward`` while
    counting; a :class:`DecisionView` pins the answers to the knowledge at a
    well-defined point (the start of a counting phase), which makes every
    phase a pure function of ``(tuples, decisions)``.
    """

    tagger_ases: FrozenSet[ASN]
    forward_ases: FrozenSet[ASN]

    def is_tagger(self, asn: ASN) -> bool:
        """Snapshot answer to :meth:`CounterStore.is_tagger`."""
        return asn in self.tagger_ases

    def is_forward(self, asn: ASN) -> bool:
        """Snapshot answer to :meth:`CounterStore.is_forward`."""
        return asn in self.forward_ases


def decision_view(store: CounterStore) -> DecisionView:
    """Snapshot the ``is_tagger`` / ``is_forward`` predicates of all ASes."""
    tagger_threshold = store.thresholds.tagger
    forward_threshold = store.thresholds.forward
    taggers = []
    forwards = []
    for asn, counters in store.items():
        tagging_total = counters.tagger + counters.silent
        if tagging_total and counters.tagger / tagging_total >= tagger_threshold:
            taggers.append(asn)
        forwarding_total = counters.forward + counters.cleaner
        if forwarding_total and counters.forward / forwarding_total >= forward_threshold:
            forwards.append(asn)
    return DecisionView(frozenset(taggers), frozenset(forwards))


def apply_tagging_delta(store: CounterStore, delta: PhaseDelta) -> None:
    """Apply ``{asn: (dt, ds)}`` tagging deltas."""
    for asn, (d_tagger, d_silent) in delta.items():
        counters = store.counters_for(asn)
        counters.tagger += d_tagger
        counters.silent += d_silent


def apply_forwarding_delta(store: CounterStore, delta: PhaseDelta) -> None:
    """Apply ``{asn: (df, dc)}`` forwarding deltas."""
    for asn, (d_forward, d_cleaner) in delta.items():
        counters = store.counters_for(asn)
        counters.forward += d_forward
        counters.cleaner += d_cleaner


def prepare_tuples(tuples: Iterable[PathCommTuple]) -> List[PreparedTuple]:
    """Pre-compute the membership-test form of many tuples."""
    return [prepare_tuple(item) for item in tuples]


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


class ListingInference:
    """The paper's column loop over object tuples (``ColumnInference``'s API)."""

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
        store = CounterStore(self.thresholds)
        observed: Set[ASN] = set()
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
            tagging_delta, tagging_increments = count_tagging_phase(
                prepared, column, decision_view(store)
            )
            apply_tagging_delta(store, tagging_delta)
            forwarding_delta, forwarding_increments = count_forwarding_phase(
                prepared, column, decision_view(store)
            )
            apply_forwarding_delta(store, forwarding_delta)
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


def assert_same_result(got: ClassificationResult, want: ClassificationResult) -> None:
    """Two classification results agree on counters, observed ASes and codes."""
    assert got.store.state_dict() == want.store.state_dict()
    assert got.observed_ases == want.observed_ases
    assert got.as_code_map() == want.as_code_map()


# -- the matrix form, one group at a time ---------------------------------------------------
#: One unit of packed counting work: ``(as-index row, hits bitmask, multiplicity)``.
CountingGroup = Tuple[Tuple[int, ...], int, int]


def count_tagging_groups(
    groups: Sequence[CountingGroup],
    column: int,
    tagger_flags: Sequence[int],
    forward_flags: Sequence[int],
) -> Tuple[Dict[int, List[int]], int]:
    """Phase 1 one group at a time: Cond1 walk, then one bit test on ``hits``."""
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


def count_forwarding_groups(
    groups: Sequence[CountingGroup],
    column: int,
    tagger_flags: Sequence[int],
    forward_flags: Sequence[int],
) -> Tuple[Dict[int, List[int]], int]:
    """Phase 2 one group at a time: the Cond2 walk picks the bit of ``hits``."""
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


def group_matrix(groups: Iterable[CountingGroup]) -> GroupMatrix:
    """*groups* in the kernels' bucket layout, one Python tuple at a time.

    Rows of one path length share a bucket; a group's hits bitmask becomes
    its row of the bucket's bool bit-plane, bit ``p`` at column ``p``.
    """
    by_length: Dict[int, List[CountingGroup]] = {}
    for group in groups:
        by_length.setdefault(len(group[0]), []).append(group)
    lowered = GroupMatrix()
    for length, bucket in by_length.items():
        lowered.buckets[length] = (
            np.array([row for row, _, _ in bucket], dtype=np.int64).reshape(len(bucket), length),
            np.array(
                [[bool(hits >> p & 1) for p in range(length)] for _, hits, _ in bucket], dtype=bool
            ).reshape(len(bucket), length),
            np.array([count for _, _, count in bucket], dtype=np.int64),
        )
    return lowered


def canonical(lowered: GroupMatrix):
    """Bucket for bucket, ``(row, hits bitmask, count)`` in a canonical order.

    Row order within a bucket never reaches the kernels' output, so two
    lowerings are the same matrix iff their canonical forms are equal.
    """
    buckets = {}
    for length, (rows, hits, counts) in lowered.buckets.items():
        assert rows.dtype == counts.dtype == np.int64 and hits.dtype == bool
        assert rows.shape == hits.shape == (len(counts), length)
        masks = [sum(1 << p for p, bit in enumerate(plane) if bit) for plane in hits.tolist()]
        buckets[length] = sorted(zip(map(tuple, rows.tolist()), masks, counts.tolist()))
    return buckets
