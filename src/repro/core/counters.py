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
    """The counters of all ASes as one ``(4, slots)`` int64 ``t, s, f, c`` matrix.

    Columns are indexed by the dense AS index a
    :class:`~repro.core.tuples.TupleTable` assigns, so the counting phases
    add their ``(slots, 2)`` deltas as whole arrays instead of touching
    per-AS objects.  Results copy the columns (:meth:`columns`) and classify
    them in bulk; a slot whose four counters are all zero reads as never
    counted.
    """

    __slots__ = ("thresholds", "counters")

    def __init__(self, thresholds: Optional[Thresholds] = None, slots: int = 0) -> None:
        self.thresholds = thresholds or Thresholds()
        self.counters = _np.zeros((4, slots), dtype=_np.int64)

    @property
    def slots(self) -> int:
        """Number of AS-index slots currently allocated."""
        return self.counters.shape[1]

    def ensure_slots(self, count: int) -> None:
        """Grow to at least *count* zero-initialised slots."""
        if count > self.slots:
            grown = _np.zeros((4, count), dtype=_np.int64)
            grown[:, : self.slots] = self.counters
            self.counters = grown

    # -- incremental updates ----------------------------------------------------------
    def _add(self, first: int, delta: "_np.ndarray") -> None:
        self.ensure_slots(len(delta))
        self.counters[first : first + 2, : len(delta)] += delta.T

    def apply_tagging_delta(self, delta: "_np.ndarray") -> None:
        """Add a ``(slots, 2)`` ``[dt, ds]`` phase delta (may be negative)."""
        self._add(0, delta)

    def apply_forwarding_delta(self, delta: "_np.ndarray") -> None:
        """Add a ``(slots, 2)`` ``[df, dc]`` phase delta (may be negative)."""
        self._add(2, delta)

    # -- decisions ---------------------------------------------------------------------
    def decision_flags(self, slots: Optional[int] = None) -> Tuple["_np.ndarray", "_np.ndarray"]:
        """Per-index ``is_tagger`` / ``is_forward`` bool flags, zero-padded to *slots*.

        A flag is set iff there is evidence and the share meets the
        threshold (:func:`_share_mask`).  The flags are a
        snapshot: they pin a counting phase to the knowledge at its start,
        which makes the phase a pure function of ``(groups, flags)``.
        Padding lets the kernels index by any AS the table has interned,
        counted or not, and one trailing ``False`` past the slots makes the
        matrix padding slot ``-1`` neither tagger nor forwarder.
        """
        if slots is not None:
            self.ensure_slots(slots)
        tagger, silent, forward, cleaner = self.counters
        flags = _np.zeros((2, self.slots + 1), dtype=bool)
        flags[0, :-1] = _share_mask(tagger, silent, self.thresholds.tagger)
        flags[1, :-1] = _share_mask(forward, cleaner, self.thresholds.forward)
        return flags[0], flags[1]

    # -- conversion / (de)serialisation -----------------------------------------------
    def columns(self, slots: int) -> "_np.ndarray":
        """A ``(4, slots)`` int64 *copy* of ``t, s, f, c``, zero-padded past :attr:`slots`.

        What a :class:`~repro.core.results.ClassificationResult` keeps, so
        later deltas and column growth cannot move it.
        """
        columns = _np.zeros((4, slots), dtype=_np.int64)
        held = min(slots, self.slots)
        columns[:, :held] = self.counters[:, :held]
        return columns

    def arrays_state(self) -> Dict[str, "array[int]"]:
        """Raw column snapshot (checkpointing alongside the tuple table)."""
        return {
            name: array("q", column.tobytes())
            for name, column in zip(COUNTER_NAMES, self.counters)
        }

    @classmethod
    def from_arrays_state(
        cls, state: Mapping[str, Sequence[int]], thresholds: Optional[Thresholds] = None
    ) -> "PackedCounterStore":
        """Rebuild from :meth:`arrays_state` output (same table required)."""
        store = cls(thresholds)
        store.counters = _np.array([state[name] for name in COUNTER_NAMES], dtype=_np.int64)
        return store
