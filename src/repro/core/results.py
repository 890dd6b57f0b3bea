"""Classification results.

Wraps the final counter store and provides the summaries the paper reports:
per-class counts split by tagging and forwarding (Table 3), full
classifications (tf / tc / sf / sc), and per-AS lookup with ``nn`` for ASes
that were never counted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Set, Tuple

from repro.bgp.asn import ASN
from repro.core.classes import (
    UNCLASSIFIED,
    ForwardingClass,
    TaggingClass,
    UsageClassification,
)
from repro.core.counters import ASCounters, CounterStore
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


@dataclass
class ClassificationResult:
    """The outcome of one inference run."""

    store: CounterStore
    #: Every AS seen in the input paths (including those never counted).
    observed_ases: Set[ASN] = field(default_factory=set)
    #: Name of the algorithm that produced the result (column / row).
    algorithm: str = "column"

    # -- per-AS access -----------------------------------------------------------
    def classification_of(self, asn: ASN) -> UsageClassification:
        """The classification of *asn* (``nn`` when never counted)."""
        if asn in self.store:
            return self.store.get_class(asn)
        return UNCLASSIFIED

    def counters_of(self, asn: ASN) -> ASCounters:
        """The raw evidence counters of *asn*."""
        return self.store.get(asn)

    def __getitem__(self, asn: ASN) -> UsageClassification:
        return self.classification_of(asn)

    def __len__(self) -> int:
        return len(self.observed_ases)

    @property
    def thresholds(self) -> Thresholds:
        """The thresholds the result was computed with."""
        return self.store.thresholds

    # -- summaries --------------------------------------------------------------------
    def classifications(self) -> Dict[ASN, UsageClassification]:
        """Classification of every observed AS."""
        return {asn: self.classification_of(asn) for asn in self.observed_ases}

    def tagging_counts(self) -> Dict[TaggingClass, int]:
        """Number of ASes per inferred tagging class (Table 3, upper half)."""
        counts: Dict[TaggingClass, int] = {cls: 0 for cls in TaggingClass}
        for asn in self.observed_ases:
            counts[self.classification_of(asn).tagging] += 1
        return counts

    def forwarding_counts(self) -> Dict[ForwardingClass, int]:
        """Number of ASes per inferred forwarding class (Table 3, middle)."""
        counts: Dict[ForwardingClass, int] = {cls: 0 for cls in ForwardingClass}
        for asn in self.observed_ases:
            counts[self.classification_of(asn).forwarding] += 1
        return counts

    def full_class_counts(self) -> Dict[str, int]:
        """Number of ASes per full classification (Table 3, lower part)."""
        counts: Dict[str, int] = {code: 0 for code in FULL_CLASS_CODES}
        for asn in self.observed_ases:
            classification = self.classification_of(asn)
            if classification.is_full:
                counts[classification.code] += 1
        return counts

    def fully_classified_ases(self) -> Dict[ASN, UsageClassification]:
        """Every AS whose tagging *and* forwarding behaviour was decided."""
        result: Dict[ASN, UsageClassification] = {}
        for asn in self.observed_ases:
            classification = self.classification_of(asn)
            if classification.is_full:
                result[asn] = classification
        return result

    def ases_with_class(self, code: str) -> List[ASN]:
        """Sorted list of ASes whose classification equals *code*."""
        return sorted(
            asn for asn in self.observed_ases if self.classification_of(asn).code == code
        )

    def ases_with_tagging(self, tagging: TaggingClass) -> List[ASN]:
        """Sorted list of ASes with the given inferred tagging class."""
        return sorted(
            asn
            for asn in self.observed_ases
            if self.classification_of(asn).tagging is tagging
        )

    def ases_with_forwarding(self, forwarding: ForwardingClass) -> List[ASN]:
        """Sorted list of ASes with the given inferred forwarding class."""
        return sorted(
            asn
            for asn in self.observed_ases
            if self.classification_of(asn).forwarding is forwarding
        )

    def code_counter(self) -> Counter:
        """A :class:`collections.Counter` over two-character codes."""
        return Counter(self.classification_of(asn).code for asn in self.observed_ases)

    # -- incremental / streaming views -------------------------------------------------
    def as_code_map(self) -> Dict[ASN, str]:
        """Flat ``{asn: code}`` view, the unit of streaming diffs."""
        return {asn: self.classification_of(asn).code for asn in self.observed_ases}

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
