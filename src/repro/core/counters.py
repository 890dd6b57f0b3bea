"""Per-AS evidence counters (paper Section 5.3).

Four counters are maintained per AS:

* ``t`` / ``s`` -- occurrences counted as tagger / silent evidence,
* ``f`` / ``c`` -- occurrences counted as forward / cleaner evidence.

An AS is a tagger when ``t / (t + s)`` meets the tagger threshold (with
evidence), and likewise for silent, forward and cleaner.  The counting
phases read ``is_tagger`` / ``is_forward`` of every AS (Cond1 / Cond2 need
the knowledge gained so far, :meth:`PackedCounterStore.decision_flags`) and
the final classification reads all four (Section 5.5,
:func:`class_code_indices`).  Both are :func:`_share_mask`, the one threshold
rule, over the :class:`PackedCounterStore` columns; :class:`ASCounters` is
the per-AS value a result hands out.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as _np

from repro.core.thresholds import Thresholds


#: The four counters in ``t, s, f, c`` order, as exports and payloads name them.
COUNTER_NAMES = ("tagger", "silent", "forward", "cleaner")


@dataclass
class ASCounters:
    """The four evidence counters of a single AS."""

    tagger: int = 0
    silent: int = 0
    forward: int = 0
    cleaner: int = 0

    # -- tagging ----------------------------------------------------------------
    @property
    def tagging_total(self) -> int:
        """Total tagging evidence (``t + s``)."""
        return self.tagger + self.silent

    def tagger_share(self) -> float:
        """``t / (t + s)``, or 0.0 without evidence."""
        total = self.tagging_total
        return self.tagger / total if total else 0.0

    def silent_share(self) -> float:
        """``s / (t + s)``, or 0.0 without evidence."""
        total = self.tagging_total
        return self.silent / total if total else 0.0

    # -- forwarding ----------------------------------------------------------------
    @property
    def forwarding_total(self) -> int:
        """Total forwarding evidence (``f + c``)."""
        return self.forward + self.cleaner

    def forward_share(self) -> float:
        """``f / (f + c)``, or 0.0 without evidence."""
        total = self.forwarding_total
        return self.forward / total if total else 0.0

    def cleaner_share(self) -> float:
        """``c / (f + c)``, or 0.0 without evidence."""
        total = self.forwarding_total
        return self.cleaner / total if total else 0.0

    def as_tuple(self) -> Tuple[int, int, int, int]:
        """``(t, s, f, c)`` for compact comparisons in tests."""
        return (self.tagger, self.silent, self.forward, self.cleaner)

    @classmethod
    def from_tuple(cls, values: Sequence[int]) -> "ASCounters":
        """Inverse of :meth:`as_tuple`."""
        tagger, silent, forward, cleaner = values
        return cls(tagger=tagger, silent=silent, forward=forward, cleaner=cleaner)


def _share_mask(hits: "_np.ndarray", misses: "_np.ndarray", threshold: float) -> "_np.ndarray":
    """Per-slot ``total != 0 and hit / total >= threshold`` over two int64 columns.

    float64 true division of two int64 counts rounds exactly like Python's
    ``int / int`` while both stay below 2**53, so the mask equals the per-AS
    rule ``total and hit / total >= threshold`` over :class:`ASCounters`.
    """
    totals = hits + misses
    evidence = totals != 0
    shares = _np.divide(hits, totals, out=_np.zeros(len(hits)), where=evidence)
    return evidence & (shares >= threshold)


def class_code_indices(counters: "_np.ndarray", thresholds: Thresholds) -> "_np.ndarray":
    """``get_class(A)`` (Section 5.5) for every column of a ``(4, n)`` ``t, s, f, c`` matrix.

    One ``uint8`` index per AS into :data:`~repro.core.classes.CLASS_CODES`:
    ``4 * tagging + forwarding``, each half in enum order (hit side 0, miss
    side 1, undecided 2, none 3; the hit side -- tagger, forward -- wins).
    """
    tagger, silent, forward, cleaner = counters

    def half(hit, miss, hit_threshold: float, miss_threshold: float):
        index = 3 - ((hit + miss) != 0)
        index[_share_mask(miss, hit, miss_threshold)] = 1
        index[_share_mask(hit, miss, hit_threshold)] = 0
        return index

    tagging = half(tagger, silent, thresholds.tagger, thresholds.silent)
    forwarding = half(forward, cleaner, thresholds.forward, thresholds.cleaner)
    return (4 * tagging + forwarding).astype(_np.uint8)


class PackedCounterStore:
    """The counters of all ASes as four dense ``array('q')`` columns.

    Columns are indexed by the dense AS index a
    :class:`~repro.core.tuples.TupleTable` assigns, so the hot counting loops
    touch machine integers instead of per-AS objects.  Results copy the
    columns (:meth:`columns`) and classify them in bulk; a slot whose four
    counters are all zero reads as never counted.
    """

    __slots__ = ("thresholds", "tagger", "silent", "forward", "cleaner")

    def __init__(self, thresholds: Optional[Thresholds] = None, slots: int = 0) -> None:
        self.thresholds = thresholds or Thresholds()
        self.tagger: "array[int]" = array("q", bytes(8 * slots))
        self.silent: "array[int]" = array("q", bytes(8 * slots))
        self.forward: "array[int]" = array("q", bytes(8 * slots))
        self.cleaner: "array[int]" = array("q", bytes(8 * slots))

    @property
    def slots(self) -> int:
        """Number of AS-index slots currently allocated."""
        return len(self.tagger)

    def ensure_slots(self, count: int) -> None:
        """Grow to at least *count* zero-initialised slots."""
        grow = count - len(self.tagger)
        if grow > 0:
            pad = bytes(8 * grow)
            self.tagger.frombytes(pad)
            self.silent.frombytes(pad)
            self.forward.frombytes(pad)
            self.cleaner.frombytes(pad)

    # -- incremental updates ----------------------------------------------------------
    def apply_tagging_delta(self, delta: Mapping[int, Sequence[int]]) -> None:
        """Apply ``{as_index: (dt, ds)}`` deltas (may be negative)."""
        tagger, silent = self.tagger, self.silent
        for index, (d_tagger, d_silent) in delta.items():
            tagger[index] += d_tagger
            silent[index] += d_silent

    def apply_forwarding_delta(self, delta: Mapping[int, Sequence[int]]) -> None:
        """Apply ``{as_index: (df, dc)}`` deltas (may be negative)."""
        forward, cleaner = self.forward, self.cleaner
        for index, (d_forward, d_cleaner) in delta.items():
            forward[index] += d_forward
            cleaner[index] += d_cleaner

    def apply_delta(self, delta: Mapping[int, Sequence[int]]) -> None:
        """Apply full ``{as_index: (dt, ds, df, dc)}`` deltas (may be negative)."""
        tagger, silent, forward, cleaner = self.tagger, self.silent, self.forward, self.cleaner
        for index, (d_tagger, d_silent, d_forward, d_cleaner) in delta.items():
            tagger[index] += d_tagger
            silent[index] += d_silent
            forward[index] += d_forward
            cleaner[index] += d_cleaner

    # -- decisions ---------------------------------------------------------------------
    def decision_flags(self, slots: Optional[int] = None) -> Tuple[bytearray, bytearray]:
        """Per-index ``is_tagger`` / ``is_forward`` flags, zero-padded to *slots*.

        A flag is set iff there is evidence and the share meets the
        threshold (:func:`_share_mask`).  The flags are a
        snapshot: they pin a counting phase to the knowledge at its start,
        which makes the phase a pure function of ``(groups, flags)``.
        Padding lets the kernels index by any AS the table has interned,
        counted or not.
        """
        if slots is not None:
            self.ensure_slots(slots)
        tagger, silent, forward, cleaner = self._views()
        return (
            bytearray(_share_mask(tagger, silent, self.thresholds.tagger)),
            bytearray(_share_mask(forward, cleaner, self.thresholds.forward)),
        )

    # -- conversion / (de)serialisation -----------------------------------------------
    def _views(self) -> "list[_np.ndarray]":
        """Zero-copy int64 views of ``t, s, f, c``: drop them before the columns resize."""
        columns = (self.tagger, self.silent, self.forward, self.cleaner)
        return [_np.frombuffer(column, dtype=_np.int64) for column in columns]

    def columns(self, slots: int) -> "_np.ndarray":
        """A ``(4, slots)`` int64 *copy* of ``t, s, f, c``, zero-padded past :attr:`slots`.

        What a :class:`~repro.core.results.ClassificationResult` keeps, so
        later deltas and column growth cannot move it.
        """
        columns = _np.zeros((4, slots), dtype=_np.int64)
        held = min(slots, len(self.tagger))
        columns[:, :held] = [view[:held] for view in self._views()]
        return columns

    def arrays_state(self) -> Dict[str, "array[int]"]:
        """Raw column snapshot (checkpointing alongside the tuple table)."""
        return {
            "tagger": array("q", self.tagger),
            "silent": array("q", self.silent),
            "forward": array("q", self.forward),
            "cleaner": array("q", self.cleaner),
        }

    @classmethod
    def from_arrays_state(
        cls, state: Mapping[str, Sequence[int]], thresholds: Optional[Thresholds] = None
    ) -> "PackedCounterStore":
        """Rebuild from :meth:`arrays_state` output (same table required)."""
        store = cls(thresholds)
        store.tagger = array("q", state["tagger"])
        store.silent = array("q", state["silent"])
        store.forward = array("q", state["forward"])
        store.cleaner = array("q", state["cleaner"])
        return store
