"""Classification results.

A result is per-AS columns -- ASN (ascending), class-code index and the four
counters of every observed AS -- and each summary the paper reports (counts
per tagging and forwarding class, Table 3; full classifications tf / tc / sf
/ sc) or the stream publishes (code map, record rows) is one pass over them.
The columnar algorithms hand over their packed counters as they are
(:meth:`ClassificationResult.from_packed`); everything else (the row
baseline, imported databases, stored and replicated snapshots) builds the
columns itself.  Codes always come from
:func:`~repro.core.counters.class_code_indices`, and a per-AS lookup is a
binary search into the sorted ASN column (``nn`` and zero counters for an AS
never observed).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as _np

from repro.bgp.asn import ASN
from repro.core.classes import (
    CLASS_CODES,
    CLASSIFICATIONS,
    UNCLASSIFIED,
    ForwardingClass,
    TaggingClass,
    UsageClassification,
)
from repro.core.counters import ASCounters, PackedCounterStore, class_code_indices
from repro.core.thresholds import Thresholds

#: The four full classification codes in the paper's reporting order.
FULL_CLASS_CODES: Tuple[str, ...] = ("tf", "tc", "sf", "sc")


def diff_code_maps(
    previous: Mapping[ASN, str], current: Mapping[ASN, str]
) -> Dict[ASN, Tuple[str, str]]:
    """``{asn: (old_code, new_code)}`` of every AS whose code differs.

    Both arguments are :meth:`ClassificationResult.as_code_map` views.  ASes
    absent from *previous* appear with ``old_code == "nn"``, and ASes that
    disappeared from *current* (all their evidence evicted under a sliding
    window) appear with ``new_code == "nn"``.
    """
    changes: Dict[ASN, Tuple[str, str]] = {}
    unclassified = UNCLASSIFIED.code
    for asn, new_code in current.items():
        old_code = previous.get(asn, unclassified)
        if new_code != old_code:
            changes[asn] = (old_code, new_code)
    for asn, old_code in previous.items():
        if asn not in current and old_code != unclassified:
            changes[asn] = (old_code, unclassified)
    return changes


class ClassificationResult:
    """The outcome of one inference run.

    A result is a finished value: its columns are taken once and never
    follow later changes to the counters, the observed set or the classifier
    that produced it.  It pickles as those columns (its ``__dict__``).
    """

    def __init__(
        self,
        asns: Sequence[ASN],
        counters: _np.ndarray,
        thresholds: Thresholds,
        algorithm: str = "column",
    ) -> None:
        """The result over ascending *asns* and their ``(4, n)`` *counters*.

        Codes are computed from *thresholds*; *counters* is kept as given, so
        the caller must not mutate it afterwards.
        """
        as_list: List[ASN] = _np.asarray(asns, dtype=_np.uint64).tolist()
        #: ``(asns, code indices, (4, n) counters)``, rows in ascending ASN order.
        self._columns: Tuple[List[ASN], _np.ndarray, _np.ndarray] = (
            as_list,
            class_code_indices(counters, thresholds),
            counters,
        )
        #: Every AS seen in the input paths (including those never counted).
        self.observed_ases: Set[ASN] = set(as_list)
        #: Name of the algorithm that produced the result (column / row).
        self.algorithm = algorithm
        #: The thresholds the result was computed with.
        self.thresholds: Thresholds = thresholds

    @classmethod
    def from_packed(
        cls,
        packed: PackedCounterStore,
        as_values: Sequence[ASN],
        observed_ases: Set[ASN],
        algorithm: str = "column",
    ) -> "ClassificationResult":
        """The result over *packed*'s columns, slot ``i`` belonging to ``as_values[i]``.

        Everything is copied here (a few memcpys and sorts, no per-AS loop):
        the classifier may go on mutating *packed* and the table growing
        *as_values* without moving the result.  Every observed AS must be in
        *as_values*; slots off *observed_ases* hold no evidence (counters are
        sums over the live tuples) and are left out.
        """
        asns = _np.array(as_values, dtype=_np.uint64)
        order = _np.argsort(asns)
        observed = _np.sort(_np.fromiter(observed_ases, _np.uint64, len(observed_ases)))
        rows = order[_np.searchsorted(asns, observed, sorter=order)]
        counters = packed.columns(len(asns))[:, rows]
        return cls(observed, counters, packed.thresholds, algorithm)

    def columns(self) -> Tuple[List[ASN], _np.ndarray, _np.ndarray]:
        """``(asns, code indices, (4, n) counters)``, rows in ascending ASN order."""
        return self._columns

    # -- per-AS access -----------------------------------------------------------
    def _row(self, asn: ASN) -> Optional[int]:
        """The row of *asn*, or ``None`` when it was never observed."""
        asns = self._columns[0]
        row = bisect_left(asns, asn)
        return row if row < len(asns) and asns[row] == asn else None

    def classification_of(self, asn: ASN) -> UsageClassification:
        """The classification of *asn* (``nn`` when never counted)."""
        row = self._row(asn)
        if row is None:
            return UNCLASSIFIED
        return CLASSIFICATIONS[CLASS_CODES[self._columns[1][row]]]

    def counters_of(self, asn: ASN) -> ASCounters:
        """The raw evidence counters of *asn* (zeroes when never counted)."""
        row = self._row(asn)
        if row is None:
            return ASCounters()
        return ASCounters.from_tuple(self._columns[2][:, row].tolist())

    def __getitem__(self, asn: ASN) -> UsageClassification:
        return self.classification_of(asn)

    def __len__(self) -> int:
        return len(self.observed_ases)

    # -- summaries (one implementation each, over the columns) ------------------------
    def _code_counts(self) -> _np.ndarray:
        """ASes per code as a ``(tagging, forwarding)`` 4 x 4 matrix."""
        return _np.bincount(self.columns()[1], minlength=len(CLASS_CODES)).reshape(4, 4)

    def classifications(self) -> Dict[ASN, UsageClassification]:
        """Classification of every observed AS."""
        return {asn: CLASSIFICATIONS[code] for asn, code in self.as_code_map().items()}

    def tagging_counts(self) -> Dict[TaggingClass, int]:
        """Number of ASes per inferred tagging class (Table 3, upper half)."""
        return dict(zip(TaggingClass, self._code_counts().sum(axis=1).tolist()))

    def forwarding_counts(self) -> Dict[ForwardingClass, int]:
        """Number of ASes per inferred forwarding class (Table 3, middle)."""
        return dict(zip(ForwardingClass, self._code_counts().sum(axis=0).tolist()))

    def code_counter(self) -> Counter:
        """A :class:`collections.Counter` over two-character codes."""
        counts = zip(CLASS_CODES, self._code_counts().ravel().tolist())
        return Counter({code: count for code, count in counts if count})

    def full_class_counts(self) -> Dict[str, int]:
        """Number of ASes per full classification (Table 3, lower part)."""
        counter = self.code_counter()
        return {code: counter[code] for code in FULL_CLASS_CODES}

    def fully_classified_ases(self) -> Dict[ASN, UsageClassification]:
        """Every AS whose tagging *and* forwarding behaviour was decided."""
        return {asn: cls for asn, cls in self.classifications().items() if cls.is_full}

    def ases_with_class(self, code: str) -> List[ASN]:
        """Sorted list of ASes whose classification equals *code*."""
        return [asn for asn, cls in self.as_code_map().items() if cls == code]

    def ases_with_tagging(self, tagging: TaggingClass) -> List[ASN]:
        """Sorted list of ASes with the given inferred tagging class."""
        return [asn for asn, cls in self.classifications().items() if cls.tagging is tagging]

    def ases_with_forwarding(self, forwarding: ForwardingClass) -> List[ASN]:
        """Sorted list of ASes with the given inferred forwarding class."""
        return [
            asn for asn, cls in self.classifications().items() if cls.forwarding is forwarding
        ]

    # -- incremental / streaming views -------------------------------------------------
    def as_code_map(self) -> Dict[ASN, str]:
        """Flat ``{asn: code}`` view, the unit of streaming diffs.

        Like :meth:`records`, in ascending ASN order -- whatever the shard
        count, arrival order or hash seed, so stored rows and pickled code
        maps are reproducible.
        """
        asns, codes, _ = self.columns()
        return dict(zip(asns, map(CLASS_CODES.__getitem__, codes.tolist())))

    def records(self) -> List[Tuple[int, str, int, int, int, int]]:
        """One ``(asn, code, t, s, f, c)`` row per observed AS: what backends persist."""
        asns, codes, counters = self.columns()
        return list(
            zip(asns, map(CLASS_CODES.__getitem__, codes.tolist()), *counters.tolist())
        )

    def changed_since(self, previous: Mapping[ASN, str]) -> Dict[ASN, Tuple[str, str]]:
        """Classification changes relative to an earlier :meth:`as_code_map`.

        :func:`diff_code_maps` against this result's own code map.  The
        streaming engine emits the same diff per window (from the map it
        keeps anyway) so consumers can follow a live classification database
        without re-reading it wholesale.
        """
        return diff_code_maps(previous, self.as_code_map())

    def summary(self) -> Dict[str, int]:
        """A flat summary dictionary used by reports and benchmarks."""
        tagging = self.tagging_counts()
        forwarding = self.forwarding_counts()
        full = self.full_class_counts()
        return {
            "ases_observed": len(self.observed_ases),
            "tagger": tagging[TaggingClass.TAGGER],
            "silent": tagging[TaggingClass.SILENT],
            "tagging_undecided": tagging[TaggingClass.UNDECIDED],
            "tagging_none": tagging[TaggingClass.NONE],
            "forward": forwarding[ForwardingClass.FORWARD],
            "cleaner": forwarding[ForwardingClass.CLEANER],
            "forwarding_undecided": forwarding[ForwardingClass.UNDECIDED],
            "forwarding_none": forwarding[ForwardingClass.NONE],
            **{f"full_{code}": count for code, count in full.items()},
        }
