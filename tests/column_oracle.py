"""Differential oracle for the column-based inference: the paper's listing.

This is the object-tuple implementation of Section 5.6 / Listing 1 that
``repro.core.column`` shipped until the batch path moved onto the numpy
bucket kernels: two pure-Python passes per column over prepared
``(path ASNs, upper fields)`` tuples, frozenset membership tests, the
decisions pinned to a :class:`DecisionView` per pass.  It shares no counting
code with production -- only the report dataclass and ``prepare_tuple`` --
which is what makes "production == this" a statement about the lowering
*and* the kernels, and what keeps the stream suites' "stream == batch" from
comparing the matrix kernels with themselves.

It counts into :class:`CounterStore`, the per-AS statement of Section 5.3 /
5.5 that ``repro.core.counters`` shipped beside the packed columns until a
result became its columns: a dict of :class:`ASCounters` with the scalar
threshold queries ``is_tagger`` ... ``get_class``, plus the Cond1 / Cond2
helpers of Section 5.2 over it.  :func:`result_from_store` lowers a store
into a result one AS at a time, and :func:`counter_state` reads a result back
as the ``{asn: (t, s, f, c)}`` of its counted rows.

Below the listing sit the group-level references of the matrix form: the
per-group loops :func:`count_tagging_groups` / :func:`count_forwarding_groups`
(the scalar packed kernels production counted small group sets and paths
over 62 hops with until the matrix became the only form) and
:func:`group_matrix`, the tuple-per-group lowering into the kernels' padded
position-major width-class buckets that ``GroupMatrix.from_cells`` and
``lower_tuples`` are held to (:func:`canonical` checks the layout), with the
helpers that hold the kernels' ``(slots, 2)`` array deltas to those loops'
dicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bgp.announcement import PathCommTuple
from repro.bgp.asn import ASN
from repro.bgp.path import ASPath
from repro.core.classes import ForwardingClass, TaggingClass, UsageClassification
from repro.core.column import ColumnInferenceReport
from repro.core.counters import ASCounters
from repro.core.matrix import GroupMatrix
from repro.core.results import ClassificationResult
from repro.core.row import PreparedTuple, prepare_tuple
from repro.core.thresholds import Thresholds


#: Per-AS two-component counter deltas produced by one counting phase
#: (``[dt, ds]`` for tagging phases, ``[df, dc]`` for forwarding phases).
PhaseDelta = Dict[ASN, List[int]]


class CounterStore:
    """The counters of all ASes plus the threshold queries over them."""

    def __init__(self, thresholds: Optional[Thresholds] = None) -> None:
        self.thresholds = thresholds or Thresholds()
        self._counters: Dict[ASN, ASCounters] = {}

    # -- mutation -------------------------------------------------------------------
    def counters_for(self, asn: ASN) -> ASCounters:
        """The (mutable) counters of *asn*, created on first access."""
        counters = self._counters.get(asn)
        if counters is None:
            counters = ASCounters()
            self._counters[asn] = counters
        return counters

    def apply_delta(self, delta: Mapping[ASN, Sequence[int]]) -> None:
        """Apply ``{asn: (dt, ds, df, dc)}`` deltas; a negative component retracts."""
        for asn, (d_tagger, d_silent, d_forward, d_cleaner) in delta.items():
            counters = self.counters_for(asn)
            counters.tagger += d_tagger
            counters.silent += d_silent
            counters.forward += d_forward
            counters.cleaner += d_cleaner

    # -- (de)serialisation -------------------------------------------------------------
    def state_dict(self) -> Dict[ASN, Tuple[int, int, int, int]]:
        """Plain-data snapshot of every AS's counters."""
        return {asn: counters.as_tuple() for asn, counters in self._counters.items()}

    @classmethod
    def from_state(
        cls,
        state: Mapping[ASN, Sequence[int]],
        thresholds: Optional[Thresholds] = None,
    ) -> "CounterStore":
        """Rebuild a store from a :meth:`state_dict` snapshot."""
        store = cls(thresholds)
        for asn, values in state.items():
            store._counters[asn] = ASCounters.from_tuple(values)
        return store

    # -- lookup ----------------------------------------------------------------------
    def get(self, asn: ASN) -> ASCounters:
        """The counters of *asn* (zeroes if the AS was never counted)."""
        return self._counters.get(asn, ASCounters())

    def __contains__(self, asn: object) -> bool:
        return asn in self._counters

    def __len__(self) -> int:
        return len(self._counters)

    def __iter__(self) -> Iterator[ASN]:
        return iter(self._counters)

    def items(self) -> Iterable[Tuple[ASN, ASCounters]]:
        return self._counters.items()

    # -- threshold queries (Section 5.3) ------------------------------------------------
    def is_tagger(self, asn: ASN) -> bool:
        """``t[A] / (t[A] + s[A]) >= tagger_threshold`` (with evidence)."""
        counters = self._counters.get(asn)
        if counters is None or counters.tagging_total == 0:
            return False
        return counters.tagger_share() >= self.thresholds.tagger

    def is_silent(self, asn: ASN) -> bool:
        """``s[A] / (t[A] + s[A]) >= silent_threshold`` (with evidence)."""
        counters = self._counters.get(asn)
        if counters is None or counters.tagging_total == 0:
            return False
        return counters.silent_share() >= self.thresholds.silent

    def is_forward(self, asn: ASN) -> bool:
        """``f[A] / (f[A] + c[A]) >= forward_threshold`` (with evidence)."""
        counters = self._counters.get(asn)
        if counters is None or counters.forwarding_total == 0:
            return False
        return counters.forward_share() >= self.thresholds.forward

    def is_cleaner(self, asn: ASN) -> bool:
        """``c[A] / (f[A] + c[A]) >= cleaner_threshold`` (with evidence)."""
        counters = self._counters.get(asn)
        if counters is None or counters.forwarding_total == 0:
            return False
        return counters.cleaner_share() >= self.thresholds.cleaner

    # -- classification (Section 5.5) ------------------------------------------------------
    def get_tagging(self, asn: ASN) -> TaggingClass:
        """``get_tagging(A)``: tagger, silent, undecided, or none."""
        counters = self._counters.get(asn)
        if counters is None or counters.tagging_total == 0:
            return TaggingClass.NONE
        if self.is_tagger(asn):
            return TaggingClass.TAGGER
        if self.is_silent(asn):
            return TaggingClass.SILENT
        return TaggingClass.UNDECIDED

    def get_forwarding(self, asn: ASN) -> ForwardingClass:
        """``get_forwarding(A)``: forward, cleaner, undecided, or none."""
        counters = self._counters.get(asn)
        if counters is None or counters.forwarding_total == 0:
            return ForwardingClass.NONE
        if self.is_forward(asn):
            return ForwardingClass.FORWARD
        if self.is_cleaner(asn):
            return ForwardingClass.CLEANER
        return ForwardingClass.UNDECIDED

    def get_class(self, asn: ASN) -> UsageClassification:
        """``get_class(A)``: the two-character classification of *asn*."""
        return UsageClassification(self.get_tagging(asn), self.get_forwarding(asn))

    def classify_all(self) -> Dict[ASN, UsageClassification]:
        """Classification of every AS with at least one counter."""
        return {asn: self.get_class(asn) for asn in self._counters}


# -- the counting conditions (Section 5.2), over a store ------------------------------------
def cond1(path: ASPath, index: int, store: CounterStore) -> bool:
    """Cond1: ``is_forward(A_i)`` for every upstream ``A_i`` (``i < index``).

    *index* is 1-based (the paper's ``x``).  At ``index == 1`` there is no
    upstream AS and the condition holds trivially.
    """
    asns = path.asns
    for i in range(index - 1):
        if not store.is_forward(asns[i]):
            return False
    return True


def find_downstream_tagger(path: ASPath, index: int, store: CounterStore) -> Optional[int]:
    """The 1-based index of the nearest qualifying downstream tagger.

    Scans downstream of *index* for the first AS ``A_t`` with
    ``is_tagger(A_t)``; every AS strictly between *index* and ``t`` must be a
    forward AS.  Returns ``None`` when no such tagger exists (Cond2 fails).
    """
    asns = path.asns
    for t in range(index + 1, len(asns) + 1):
        candidate = asns[t - 1]
        if store.is_tagger(candidate):
            return t
        if not store.is_forward(candidate):
            return None
    return None


def cond2(path: ASPath, index: int, store: CounterStore) -> bool:
    """Cond2: a downstream tagger reachable through forward ASes exists."""
    return find_downstream_tagger(path, index, store) is not None


# -- between stores and results -------------------------------------------------------------
def result_from_store(
    store: CounterStore, observed: Optional[Iterable[ASN]] = None, algorithm: str = "column"
) -> ClassificationResult:
    """The result over *store*, lowered one AS at a time.

    One row per AS of *observed* (default: every counted AS), zeroes where
    the store never counted it.
    """
    asns = sorted(store if observed is None else set(observed))
    quads = [store.get(asn).as_tuple() for asn in asns]
    counters = np.array(quads, dtype=np.int64).reshape(-1, 4).T
    return ClassificationResult(asns, counters, store.thresholds, algorithm)


def counter_state(result: ClassificationResult) -> Dict[ASN, Tuple[int, int, int, int]]:
    """``{asn: (t, s, f, c)}`` of every row of *result* with evidence.

    What :meth:`CounterStore.state_dict` answers for the store a result was
    counted into (all-zero rows are observed ASes never counted).
    """
    return {row[0]: tuple(row[2:]) for row in result.records() if any(row[2:])}


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
        return result_from_store(store, observed)


def assert_same_result(got: ClassificationResult, want: ClassificationResult) -> None:
    """Two classification results agree on counters, observed ASes and codes."""
    assert counter_state(got) == counter_state(want)
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


def width_class(length: int) -> int:
    """The bucket a path of *length* hops lives in: the next power of two, at least 8."""
    return max(8, 1 << (length - 1).bit_length())


def group_matrix(groups: Iterable[CountingGroup]) -> GroupMatrix:
    """*groups* in the kernels' bucket layout, one Python tuple at a time.

    Rows of one width class share a bucket, transposed to position-major
    ``(width, n)`` planes; a group's hits bitmask becomes its column of the
    bucket's bool bit-plane, bit ``p`` at row ``p``, and the cells past its
    length read slot ``-1`` / ``False``.
    """
    by_width: Dict[int, List[CountingGroup]] = {}
    for group in groups:
        by_width.setdefault(width_class(len(group[0])), []).append(group)
    lowered = GroupMatrix()
    for width, bucket in by_width.items():
        rows = [list(row) + [-1] * (width - len(row)) for row, _, _ in bucket]
        hits = [
            [bool(hits >> p & 1) and p < len(row) for p in range(width)]
            for row, hits, _ in bucket
        ]
        lowered.buckets[width] = (
            np.array(rows, dtype=np.int64).reshape(len(bucket), width).T.copy(),
            np.array(hits, dtype=bool).reshape(len(bucket), width).T.copy(),
            np.array([count for _, _, count in bucket], dtype=np.int64),
            np.array([len(row) for row, _, _ in bucket], dtype=np.int64),
        )
    return lowered


def canonical(lowered: GroupMatrix):
    """Bucket for bucket, ``(row, hits bitmask, count)`` in a canonical order.

    Group order within a bucket never reaches the kernels' output, so two
    lowerings are the same matrix iff their canonical forms are equal.  The
    layout is checked on the way: int64 / bool planes of shape ``(width,
    n)``, C-contiguous so a path position is one contiguous row, every group
    in the bucket of its width class, and its padding cells exactly ``-1`` /
    ``False``.
    """
    buckets = {}
    for width, (rows, hits, counts, lengths) in lowered.buckets.items():
        assert rows.dtype == counts.dtype == lengths.dtype == np.int64 and hits.dtype == bool
        assert rows.shape == hits.shape == (width, len(counts)) and lengths.shape == counts.shape
        assert rows.flags.c_contiguous and hits.flags.c_contiguous
        entries = []
        columns = zip(rows.T.tolist(), hits.T.tolist(), lengths.tolist(), counts.tolist())
        for cells, plane, length, count in columns:
            assert width_class(length) == width
            assert min(cells[:length]) >= 0
            assert cells[length:] == [-1] * (width - length)
            assert plane[length:] == [False] * (width - length)
            mask = sum(1 << p for p, bit in enumerate(plane) if bit)
            entries.append((tuple(cells[:length]), mask, count))
        buckets[width] = sorted(entries)
    return buckets


def flag_vector(flags: Iterable[int]) -> np.ndarray:
    """Per-slot decision flags as the kernels take them: bool, one trailing ``False``."""
    return np.array([*map(bool, flags), False], dtype=bool)


def pair_dict(counted: Tuple[np.ndarray, int]) -> Tuple[Dict[int, List[int]], int]:
    """A kernel's ``((slots, 2) delta, increments)`` as ``({slot: [a, b]}, increments)``
    over the non-zero slots, the form the group loops return."""
    delta, increments = counted
    assert delta.dtype == np.int64 and delta.ndim == 2 and delta.shape[1] == 2
    return {slot: pair for slot, pair in enumerate(delta.tolist()) if any(pair)}, increments


def nonzero(counted: Tuple[Dict[int, List[int]], int]) -> Tuple[Dict[int, List[int]], int]:
    """A group loop's ``(delta, increments)`` without the ``[0, 0]`` entries a scalar
    walk leaves where signed (or zero) multiplicities cancel."""
    delta, increments = counted
    return {index: pair for index, pair in delta.items() if any(pair)}, increments


def fill_packed(packed, quads: Mapping[int, Sequence[int]]) -> None:
    """Add ``{slot: (dt, ds, df, dc)}`` to a ``PackedCounterStore`` through its two phase adds."""
    pairs = np.zeros((max(quads, default=-1) + 1, 4), dtype=np.int64)
    for slot, quad in quads.items():
        pairs[slot] += quad
    packed.apply_tagging_delta(pairs[:, :2])
    packed.apply_forwarding_delta(pairs[:, 2:])
