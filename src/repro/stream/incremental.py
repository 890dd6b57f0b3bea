"""Incremental (streaming) version of the column-based inference.

The batch :class:`~repro.core.column.ColumnInference` recounts every tuple on
every run.  The streaming engine cannot afford that: updates arrive
continuously and windows close every few seconds.  The classifiers here keep
enough per-phase state to fold newly arrived tuples into — and retract
expired ones from — an existing classification and only fall back to
recounting when the *knowledge* the algorithm relies on actually changed.

Tuples are interned ``(path_id, comm_id)`` refs into the engine's shared
:class:`~repro.core.tuples.TupleTable` and counting runs the two kernels of
:mod:`repro.core.column` over a :class:`~repro.core.matrix.GroupMatrix` of
``(row, hits, multiplicity)`` groups.  The batch
:class:`~repro.core.column.ColumnInference` counts through the same two
kernels (over a matrix it lowers in bulk), so the oracle the stream tests
compare against is the paper's listing over object tuples,
``tests/column_oracle.py``.  The row-based baseline
(:class:`~repro.core.row.RowInference`) is a batch comparison only;
:func:`classifier_from_state` refuses a checkpoint whose classifier state
says ``"row"``.

The key observation (see :mod:`repro.core.column`) is that every counting
phase is a pure function of ``(tuple set, decision flags)``, linear in the
tuples' multiplicities:

* if the decision view of a phase is **unchanged** since the last update,
  every tuple that stayed contributes exactly the same deltas, so only the
  turnover is counted: tuples that arrived since then with multiplicity
  ``+1`` and tuples that were evicted with multiplicity ``-1``, through the
  same kernels (``O(arrived + evicted)``);
* if it **changed**, the phase is recounted over the live tuple set and the
  fresh deltas replace the recorded ones.

Because phase contributions are commutative sums, the result is *provably
identical* to a batch run over the live tuples, independent of arrival
order, eviction order or sharding — the property the streaming equivalence
tests pin down.

Between the engine and the kernels a window's turnover stays columnar.  Per
tuple the column classifier only folds the signed multiplicity into its
pending ``(path_id, hits)`` group; at :meth:`~ColumnarColumnClassifier.update`
one ragged gather over the table's packed paths
(:meth:`TupleTable.path_cells <repro.core.tuples.TupleTable.path_cells>`)
serves both the live per-AS / per-length counts -- two int64 columns, one
``bincount`` each -- and the turnover's matrix lowering
(:func:`~repro.core.tuples.materialize_groups`, padded position-major
width-class buckets), whatever its size.  The counted cache the recounts read
is a matrix too, and each update's signed turnover is concatenated onto its
buckets along the group axis.  Phase deltas stay ``(slots, 2)`` int64 arrays
from the kernels through the phase records to the counter matrix; only a
checkpoint turns them into the sparse ``{slot: [a, b]}`` dicts format 3 has
always held.

What an update hands back stays columnar: the classifier gives
:meth:`ClassificationResult.from_packed
<repro.core.results.ClassificationResult.from_packed>` its packed counter
columns, the table's AS array and the observed set, and it classifies every
AS in one numpy pass.  It copies what it keeps, so a result (and the window
snapshot holding it) does not move when later tuples intern new ASes or the
next update rebinds the counters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.bgp.announcement import PathCommTuple
from repro.core.column import (
    ColumnInferenceReport,
    count_forwarding_phase_packed,
    count_tagging_phase_packed,
    merge_phase_delta,
)
from repro.core.counters import PackedCounterStore
from repro.core.matrix import GroupMatrix
from repro.core.results import ClassificationResult
from repro.core.thresholds import Thresholds
from repro.core.tuples import (
    GroupCounts,
    TupleRef,
    TupleTable,
    materialize_groups,
    merge_group_counts,
)
from repro.stream.checkpoint import CheckpointError, refuse_removed_switches

#: The cached matrix of the counted groups takes every update's signed
#: rows; once it would hold more than this many rows per live group it is
#: mostly cancelled pairs, so it is dropped and rebuilt from the live set by
#: the next recount.
_CACHE_COMPACTION_FACTOR = 2


@dataclass
class IncrementalStats:
    """Telemetry proving (or disproving) that updates stay incremental."""

    updates: int = 0
    tuples_added: int = 0
    #: Phases folded in by counting only arrived (+1) and evicted (-1) tuples.
    delta_phases: int = 0
    #: Phases recounted over the live tuple set (knowledge changed).
    recount_phases: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for reporting."""
        return {
            "updates": self.updates,
            "tuples_added": self.tuples_added,
            "delta_phases": self.delta_phases,
            "recount_phases": self.recount_phases,
        }


def _fold_counts(
    column: "_np.ndarray", indices: "_np.ndarray", weights: "_np.ndarray"
) -> "_np.ndarray":
    """*column* with the signed *weights* summed into its *indices* slots (grown to fit)."""
    total = _np.bincount(indices, weights=weights, minlength=len(column)).astype(_np.int64)
    total[: len(column)] += column
    return total


def _live_counts(column: "_np.ndarray", names: Optional[Sequence[int]] = None) -> Dict[int, int]:
    """The non-zero slots of *column* as ``{names[slot] (or slot): count}``."""
    slots = _np.flatnonzero(column)
    keys = slots if names is None else _np.array(names, dtype=_np.uint64)[slots]
    return dict(zip(keys.tolist(), column[slots].tolist()))


@dataclass
class PackedPhaseRecord:
    """Memoised outcome of one counting phase (one column, one pass).

    ``delta`` holds the summed ``(slots, 2)`` per-AS-index contributions of
    *all* tuples counted under ``decisions``; ``increments`` is the total
    number of counter increments (the stall signal of the column loop).
    ``decisions`` is the pair of per-AS-index decision flag vectors with
    trailing zeros stripped: two snapshots are equal iff they set the same
    flag for the same AS, regardless of how many ASes the shared tuple
    table interned in between (new ASes have no evidence, hence zero
    flags — exactly what the stripped encoding makes implicit).  A
    checkpoint holds ``delta`` as ``{slot: [a, b]}`` over its non-zero slots
    (:func:`_sparse_records`).
    """

    decisions: "tuple[bytes, bytes]"
    delta: "_np.ndarray"
    increments: int


def _strip_flags(
    tagger_flags: "_np.ndarray", forward_flags: "_np.ndarray"
) -> "tuple[bytes, bytes]":
    """Growth-invariant equality key of a decision flag snapshot."""
    return (tagger_flags.tobytes().rstrip(b"\x00"), forward_flags.tobytes().rstrip(b"\x00"))


def _sparse_records(records: List[PackedPhaseRecord]) -> List[PackedPhaseRecord]:
    """*records* with each delta as the checkpoint's ``{slot: [a, b]}`` of non-zero slots."""
    sparse = []
    for record in records:
        slots = _np.flatnonzero(record.delta.any(axis=1))
        delta = dict(zip(slots.tolist(), record.delta[slots].tolist()))
        sparse.append(replace(record, delta=delta))
    return sparse


def _dense_records(records: List[PackedPhaseRecord]) -> List[PackedPhaseRecord]:
    """Inverse of :func:`_sparse_records`; zero pairs and any key order are fine."""
    dense = []
    for record in records:
        pairs = _np.zeros((max(record.delta, default=-1) + 1, 2), dtype=_np.int64)
        values = _np.array(list(record.delta.values()), dtype=_np.int64).reshape(-1, 2)
        pairs[list(record.delta)] = values
        dense.append(replace(record, delta=pairs))
    return dense


class ColumnarColumnClassifier:
    """Maintains a column-inference classification under tuple turnover.

    Usage: :meth:`add_refs` newly deduplicated tuples as they arrive and
    :meth:`evict_refs` the ones a sliding window expires, then :meth:`update`
    at every window boundary to obtain a :class:`ClassificationResult`
    identical to a batch :class:`~repro.core.column.ColumnInference` run over
    the tuples live at that point.

    Tuples are held as ``(path_id, hits) -> multiplicity`` aggregates
    against a (usually engine-shared) :class:`TupleTable`; phases run the
    packed kernels over grouped work units and the per-phase memoisation
    compares packed decision flags.  The observed ASes and the column limit
    are the non-zero slots of two reference-count columns that lag the
    pending turnover until the next update; :meth:`result`, ``tuple_count``
    and :meth:`state_dict` read as if they did not (format 3 keeps the
    ``as_refs`` / ``length_refs`` dicts).  The first update after nothing was live
    (a fresh classifier, or one whose tuples all expired) lowers its groups
    once: the turnover is the live set, so its matrix becomes the counted
    cache as it is.
    """

    algorithm = "column"

    def __init__(
        self,
        thresholds: Optional[Thresholds] = None,
        *,
        table: Optional[TupleTable] = None,
    ) -> None:
        self.thresholds = thresholds or Thresholds()
        self.stats = IncrementalStats()
        self.report = ColumnInferenceReport()
        self.table = table if table is not None else TupleTable()
        #: The live tuples the phase records cover (multiplicities > 0).
        self._groups: GroupCounts = {}
        #: Turnover since the last update: arrivals +1, evictions -1.
        self._pending_groups: GroupCounts = {}
        self._counted_cache: Optional[GroupMatrix] = None
        self._tuple_count = 0
        #: Live tuples per dense AS index / per path length as of the last
        #: update (the pending turnover is folded in by :meth:`_ref_columns`):
        #: the non-zero slots are the observed ASes and the lengths in use.
        self._as_refs: "_np.ndarray" = _np.zeros(0, dtype=_np.int64)
        self._length_refs: "_np.ndarray" = _np.zeros(0, dtype=_np.int64)
        self._tagging_records: List[PackedPhaseRecord] = []
        self._forwarding_records: List[PackedPhaseRecord] = []
        self._packed = PackedCounterStore(self.thresholds)

    # -- ingestion ---------------------------------------------------------------------
    @property
    def tuple_count(self) -> int:
        """Number of unique tuples currently live (incl. pending turnover)."""
        return self._tuple_count

    def _queue(self, refs: Sequence[TupleRef], count: int) -> None:
        """Fold tuples in with a signed multiplicity: ``+1`` arrive, ``-1`` leave.

        Only the pending group and the tuple count move per tuple; what the
        turnover does to the per-AS and per-length columns is summed over
        its path cells in bulk, by the next :meth:`update`.
        """
        hits_of = self.table.hits_of
        pending = self._pending_groups
        for path_id, comm_id in refs:
            key = (path_id, hits_of(path_id, comm_id))
            total = pending.get(key, 0) + count
            if total:
                pending[key] = total
            else:  # an arrival and an eviction of one group cancel without a trace
                del pending[key]
        self._tuple_count += count * len(refs)

    def add_refs(self, refs: Sequence[TupleRef]) -> None:
        """Queue interned unique tuples for the next :meth:`update`."""
        self._queue(refs, 1)
        self.stats.tuples_added += len(refs)

    def add_ref(self, ref: TupleRef) -> None:
        """Queue one interned unique tuple (:meth:`add_refs` of one)."""
        self.add_refs((ref,))

    def add_tuple(self, item: PathCommTuple) -> None:
        """Intern and queue one new unique tuple."""
        self.add_ref(self.table.intern_tuple(item))

    def evict_refs(self, evicted: Sequence[TupleRef]) -> None:
        """Queue the retraction of expired live tuples (sliding windows).

        A phase's contribution is linear in the tuples' multiplicities, so an
        eviction is an arrival with multiplicity ``-1``: the next
        :meth:`update` subtracts the evicted tuples' deltas from every phase
        whose decision view survived and recounts only from the first phase
        whose view the turnover actually changed.
        """
        self._queue(evicted, -1)

    def _ref_columns(
        self, counts: GroupCounts, cells: Optional[Tuple["_np.ndarray", "_np.ndarray"]] = None
    ) -> Tuple["_np.ndarray", "_np.ndarray"]:
        """The per-AS-index and per-length columns with *counts* folded in.

        Two ``bincount``s over the groups' path *cells* (gathered here unless
        :meth:`update` already did), each cell weighted with its group's
        signed multiplicity.  A reader between arrivals and the next update
        folds the pending turnover on demand.
        """
        if not counts:
            return self._as_refs, self._length_refs
        lengths, flat = cells or self.table.path_cells([path_id for path_id, _ in counts])
        weights = _np.fromiter(counts.values(), dtype=_np.int64, count=len(counts))
        return (
            _fold_counts(self._as_refs, flat, _np.repeat(weights, lengths)),
            _fold_counts(self._length_refs, lengths, weights),
        )

    # -- classification -----------------------------------------------------------------
    def _counted_groups(self) -> GroupMatrix:
        cache = self._counted_cache
        if cache is None:
            cache = self._counted_cache = materialize_groups(self.table, self._groups)
        return cache

    def _run_phase(
        self,
        records: List[PackedPhaseRecord],
        count_phase,
        pending: GroupMatrix,
        column: int,
        packed: PackedCounterStore,
    ) -> PackedPhaseRecord:
        """Bring one phase record up to date and return it."""
        index = column - 1
        tagger_flags, forward_flags = packed.decision_flags(self.table.as_count)
        decisions = _strip_flags(tagger_flags, forward_flags)
        record = records[index] if index < len(records) else None
        if record is not None and record.decisions == decisions:
            if pending:
                delta, increments = count_phase(pending, column, tagger_flags, forward_flags)
                record.delta = merge_phase_delta(record.delta, delta)
                record.increments += increments
            self.stats.delta_phases += 1
        else:
            delta, increments = count_phase(
                self._counted_groups(), column, tagger_flags, forward_flags
            )
            record = PackedPhaseRecord(decisions=decisions, delta=delta, increments=increments)
            if index < len(records):
                records[index] = record
            else:
                records.append(record)
            self.stats.recount_phases += 1
        return record

    def update(self) -> ClassificationResult:
        """Fold the pending turnover in and return the up-to-date classification."""
        turnover = self._pending_groups
        # One gather of the turnover's paths serves the reference columns
        # and the matrix lowering.
        cells = self.table.path_cells([path_id for path_id, _ in turnover]) if turnover else None
        self._as_refs, self._length_refs = self._ref_columns(turnover, cells)
        self._pending_groups = {}
        pending = materialize_groups(self.table, turnover, cells)
        if turnover:
            first = not self._groups
            merge_group_counts(self._groups, turnover)
            cache = self._counted_cache
            if first:
                # Nothing was live: the turnover *is* the live set, already lowered.
                self._counted_cache = pending
            elif cache is not None:
                if len(cache) + len(pending) > _CACHE_COMPACTION_FACTOR * len(self._groups):
                    self._counted_cache = None
                else:
                    # Fold the signed rows into the cached matrix instead of
                    # rebuilding it from scratch.  Appended rows may duplicate
                    # or cancel keys already there — kernel sums commute, so
                    # that is equivalent to merged counts.
                    cache.extend(pending)

        packed = PackedCounterStore(self.thresholds)
        report = ColumnInferenceReport()
        max_length = int(_np.flatnonzero(self._length_refs).max(initial=0))
        for column in range(1, max_length + 1):
            tagging = self._run_phase(
                self._tagging_records, count_tagging_phase_packed, pending, column, packed
            )
            packed.apply_tagging_delta(tagging.delta)
            forwarding = self._run_phase(
                self._forwarding_records, count_forwarding_phase_packed, pending, column, packed
            )
            packed.apply_forwarding_delta(forwarding.delta)
            report.columns_processed = column
            report.tagging_counts_per_column.append(tagging.increments)
            report.forwarding_counts_per_column.append(forwarding.increments)
            if column > 1 and tagging.increments == 0 and forwarding.increments == 0:
                break  # a batch run would stop here
        # Records past the last processed column (a stall, or the longest
        # path retracted) never saw this turnover; kept, they would resurrect
        # evicted evidence the next time the loop runs that far.
        del self._tagging_records[report.columns_processed :]
        del self._forwarding_records[report.columns_processed :]

        self._packed = packed
        self.report = report
        self.stats.updates += 1
        return self.result()

    def result(self) -> ClassificationResult:
        """The classification as of the last :meth:`update`."""
        as_values = self.table.as_values()
        observed = set(_live_counts(self._ref_columns(self._pending_groups)[0], as_values))
        return ClassificationResult.from_packed(self._packed, as_values, observed)

    # -- checkpointing ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Plain-data snapshot (ids are relative to the shared table)."""
        as_refs, length_refs = self._ref_columns(self._pending_groups)
        return {
            "algorithm": self.algorithm,
            "thresholds": self.thresholds,
            "groups": dict(self._groups),
            "pending_groups": dict(self._pending_groups),
            "tuple_count": self._tuple_count,
            "as_refs": _live_counts(as_refs, self.table.as_values()),
            "length_refs": _live_counts(length_refs),
            "tagging_records": _sparse_records(self._tagging_records),
            "forwarding_records": _sparse_records(self._forwarding_records),
            "store_arrays": self._packed.arrays_state(),
            "stats": replace(self.stats),
            # Rebound by every update(), never mutated in place: safe to share.
            "report": self.report,
        }

    @classmethod
    def from_state(
        cls, state: Dict[str, object], table: TupleTable
    ) -> "ColumnarColumnClassifier":
        """Rebuild against the restored table the ids were minted by."""
        classifier = cls(state["thresholds"], table=table)
        classifier._groups = dict(state["groups"])
        classifier._pending_groups = dict(state["pending_groups"])
        classifier._tuple_count = state["tuple_count"]
        # The columns lag the pending turnover, which the checkpointed
        # ``as_refs`` / ``length_refs`` include: re-derived from the counted groups.
        classifier._as_refs, classifier._length_refs = classifier._ref_columns(
            classifier._groups
        )
        classifier._tagging_records = _dense_records(state["tagging_records"])
        classifier._forwarding_records = _dense_records(state["forwarding_records"])
        classifier._packed = PackedCounterStore.from_arrays_state(
            state["store_arrays"], classifier.thresholds
        )
        classifier.stats = replace(state["stats"])
        classifier.report = state["report"]
        return classifier


def make_classifier(
    algorithm: str,
    thresholds: Optional[Thresholds] = None,
    *,
    # benchmarks/e2e/adapter.py::replay_classifier_add still passes
    # ("column", representation="columnar"); the next benchmark PR drops both
    # parameters, which accept nothing else.
    representation: str = "columnar",
    table: Optional[TupleTable] = None,
) -> ColumnarColumnClassifier:
    """Instantiate the incremental column classifier."""
    if algorithm != "column":
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if representation != "columnar":
        raise ValueError(f"unknown representation {representation!r}")
    return ColumnarColumnClassifier(thresholds, table=table)


def classifier_from_state(
    state: Dict[str, object], table: TupleTable
) -> ColumnarColumnClassifier:
    """Rebuild the classifier a ``state_dict`` snapshot came from.

    *table* is the restored :class:`TupleTable` the state's ids were minted by.
    """
    algorithm = state.get("algorithm")
    if algorithm == "row":
        raise CheckpointError(
            "checkpoint holds a streaming row-baseline state, which this version "
            "no longer runs; run the baseline in batch: repro classify --algorithm row"
        )
    if algorithm != "column":
        raise CheckpointError(f"unknown algorithm in classifier state: {algorithm!r}")
    refuse_removed_switches(state)
    return ColumnarColumnClassifier.from_state(state, table)
