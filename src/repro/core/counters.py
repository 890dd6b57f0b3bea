"""Per-AS evidence counters (paper Section 5.3).

Four counters are maintained per AS:

* ``t`` / ``s`` -- occurrences counted as tagger / silent evidence,
* ``f`` / ``c`` -- occurrences counted as forward / cleaner evidence.

The threshold queries ``is_tagger(A)`` etc. evaluate the share of the
respective counter against the configured threshold; they are used both
*during* counting (Cond1 / Cond2 need the knowledge gained so far) and for
the final classification.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as _np

from repro.bgp.asn import ASN
from repro.core.classes import ForwardingClass, TaggingClass, UsageClassification
from repro.core.thresholds import Thresholds


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
        """Inverse of :meth:`as_tuple` (used by checkpoint restore)."""
        tagger, silent, forward, cleaner = values
        return cls(tagger=tagger, silent=silent, forward=forward, cleaner=cleaner)


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

    # -- (de)serialisation (checkpointing) ------------------------------------------
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


def _share_flags(hit: "array[int]", miss: "array[int]", threshold: float) -> bytearray:
    """Per-slot ``total != 0 and hit / total >= threshold`` over two columns.

    float64 true division of two int64 counts rounds exactly like Python's
    ``int / int`` while both stay below 2**53, so the flags equal the scalar
    rule's.  The numpy views over the ``array`` buffers are locals: they are
    released on return, before anyone may resize the columns again.
    """
    hits = _np.frombuffer(hit, dtype=_np.int64)
    totals = hits + _np.frombuffer(miss, dtype=_np.int64)
    evidence = totals != 0
    shares = _np.divide(hits, totals, out=_np.zeros(len(hits)), where=evidence)
    return bytearray((evidence & (shares >= threshold)).view(_np.uint8))


class PackedCounterStore:
    """Dense ``array``-backed twin of :class:`CounterStore`.

    Counters live in four flat ``array('q')`` columns indexed by the dense
    AS index a :class:`~repro.core.tuples.TupleTable` assigns, so the hot
    counting loops touch machine integers instead of per-AS objects.  The
    delta/state APIs mirror the object store; a slot whose four
    counters are all zero reads as *absent*, which keeps the membership
    semantics identical to an object store that pruned retracted evidence.
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

        The flag semantics are exactly :meth:`CounterStore.is_tagger` /
        :meth:`CounterStore.is_forward`'s: a flag is set iff there is
        evidence and the share meets the threshold.  The flags are a
        snapshot: they pin a counting phase to the knowledge at its start,
        which makes the phase a pure function of ``(groups, flags)``.
        Padding lets the kernels index by any AS the table has interned,
        counted or not.
        """
        if slots is not None:
            self.ensure_slots(slots)
        return (
            _share_flags(self.tagger, self.silent, self.thresholds.tagger),
            _share_flags(self.forward, self.cleaner, self.thresholds.forward),
        )

    # -- conversion / (de)serialisation -----------------------------------------------
    def state_dict(self, as_values: Sequence[ASN]) -> Dict[ASN, Tuple[int, int, int, int]]:
        """``{asn: (t, s, f, c)}`` of every non-zero slot (object-store parity)."""
        state: Dict[ASN, Tuple[int, int, int, int]] = {}
        tagger, silent, forward, cleaner = self.tagger, self.silent, self.forward, self.cleaner
        for index in range(len(tagger)):
            t, s, f, c = tagger[index], silent[index], forward[index], cleaner[index]
            if t or s or f or c:
                state[as_values[index]] = (t, s, f, c)
        return state

    def to_store(self, as_values: Sequence[ASN]) -> CounterStore:
        """An equivalent object :class:`CounterStore` (the result boundary)."""
        return CounterStore.from_state(self.state_dict(as_values), self.thresholds)

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
