"""Export and import of the classification database.

The paper publishes its per-AS inferences as a public resource (Section 1,
[5]).  This module provides the equivalent for this reproduction: a stable,
line-oriented text format (and a JSON variant) containing, per AS, the
two-character classification, the four evidence counters, and the evidence
shares, so downstream tooling (hijack detection, community filtering, ...)
can consume the inferences without running the pipeline.

Format (one AS per line, ``|``-separated)::

    # as-community-usage v1
    # asn|class|t|s|f|c
    3356|tf|412|3|371|0
    64496|sn|0|57|0|0

Export and :meth:`ClassificationDatabase.to_result` both go through the
result's columns, so the classes they carry are the ones
:func:`~repro.core.counters.class_code_indices` computes.  Import refuses
what an export never writes -- an unknown class code, a non-integer or
negative counter, a JSON entry without ``asn`` / ``class``, a JSON document
that is not a list -- with a :class:`ValueError` naming the line or entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, TextIO

import numpy as _np

from repro.bgp.asn import ASN
from repro.core.classes import CLASSIFICATIONS, UsageClassification
from repro.core.counters import COUNTER_NAMES, ASCounters
from repro.core.results import ClassificationResult
from repro.core.thresholds import Thresholds

#: Format magic written as the first header line.
FORMAT_HEADER = "# as-community-usage v1"

def _count(name: str, value: object) -> int:
    """*value* as a non-negative integer, or :class:`ValueError` naming *name*.

    Accepts ints and decimal strings; refuses floats and bools, which
    ``int()`` would silently truncate or coerce.
    """
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{name} {value!r} is not an integer")
    try:
        count = int(value)
    except ValueError:
        raise ValueError(f"{name} {value!r} is not an integer") from None
    if count < 0:
        raise ValueError(f"{name} {value!r} is negative")
    return count


@dataclass(frozen=True)
class ClassificationRecord:
    """One exported AS: classification plus raw evidence."""

    asn: ASN
    classification: UsageClassification
    counters: ASCounters

    def to_line(self) -> str:
        """Serialise to the ``|``-separated line format."""
        c = self.counters
        return f"{self.asn}|{self.classification.code}|{c.tagger}|{c.silent}|{c.forward}|{c.cleaner}"

    @classmethod
    def from_line(cls, line: str) -> "ClassificationRecord":
        """Parse one data line; :class:`ValueError` names the line."""
        parts = line.strip().split("|")
        try:
            if len(parts) != 6:
                raise ValueError(f"expected 6 fields, got {len(parts)}")
            asn, code, *counts = parts
            return cls.from_fields(asn, code, counts)
        except ValueError as error:
            raise ValueError(f"malformed classification line {line.strip()!r}: {error}") from None

    @classmethod
    def from_fields(cls, asn: object, code: object, counts: List[object]) -> "ClassificationRecord":
        """A record from raw field values, rejecting anything :meth:`to_line` never writes.

        The ASN and the ``t, s, f, c`` counters must be non-negative integers
        (or their decimal strings) and *code* one of the 16 class codes.
        """
        classification = CLASSIFICATIONS.get(code) if isinstance(code, str) else None
        if classification is None:
            raise ValueError(f"unknown class code {code!r}")
        names = ("asn", *COUNTER_NAMES)
        values = [_count(name, value) for name, value in zip(names, [asn, *counts])]
        return cls(values[0], classification, ASCounters.from_tuple(values[1:]))

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation."""
        return {
            "asn": self.asn,
            "class": self.classification.code,
            "tagger_count": self.counters.tagger,
            "silent_count": self.counters.silent,
            "forward_count": self.counters.forward,
            "cleaner_count": self.counters.cleaner,
        }


class ClassificationDatabase:
    """An exported (or imported) set of per-AS classification records."""

    def __init__(self, records: Optional[Mapping[ASN, ClassificationRecord]] = None) -> None:
        self._records: Dict[ASN, ClassificationRecord] = dict(records or {})

    # -- construction ----------------------------------------------------------------
    @classmethod
    def from_result(cls, result: ClassificationResult) -> "ClassificationDatabase":
        """Build a database from a finished classification result (one pass over its rows)."""
        return cls(
            {
                asn: ClassificationRecord(
                    asn, CLASSIFICATIONS[code], ASCounters(tagger, silent, forward, cleaner)
                )
                for asn, code, tagger, silent, forward, cleaner in result.records()
            }
        )

    # -- mapping protocol --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, asn: object) -> bool:
        return asn in self._records

    def __iter__(self) -> Iterator[ASN]:
        return iter(sorted(self._records))

    def get(self, asn: ASN) -> Optional[ClassificationRecord]:
        """The record of *asn*, or ``None``."""
        return self._records.get(asn)

    def classification_of(self, asn: ASN) -> Optional[UsageClassification]:
        """Shortcut: the classification of *asn*, or ``None``."""
        record = self._records.get(asn)
        return record.classification if record else None

    def records(self) -> List[ClassificationRecord]:
        """All records, sorted by ASN."""
        return [self._records[asn] for asn in sorted(self._records)]

    def counts_by_code(self) -> Dict[str, int]:
        """Number of ASes per two-character classification code."""
        counts: Dict[str, int] = {}
        for record in self._records.values():
            counts[record.classification.code] = counts.get(record.classification.code, 0) + 1
        return counts

    # -- text format ---------------------------------------------------------------------
    def dump(self, stream: TextIO) -> None:
        """Write the database in the line format."""
        stream.write(FORMAT_HEADER + "\n")
        stream.write("# asn|class|t|s|f|c\n")
        for record in self.records():
            stream.write(record.to_line() + "\n")

    def dumps(self) -> str:
        """The line format as a string."""
        from io import StringIO

        buffer = StringIO()
        self.dump(buffer)
        return buffer.getvalue()

    @classmethod
    def load(cls, stream: TextIO) -> "ClassificationDatabase":
        """Read a database from the line format."""
        records: Dict[ASN, ClassificationRecord] = {}
        for number, raw in enumerate(stream, 1):
            line = raw.strip()
            if number == 1:
                if line != FORMAT_HEADER:
                    raise ValueError(f"unexpected header {line!r}; expected {FORMAT_HEADER!r}")
                continue
            if not line or line.startswith("#"):
                continue
            try:
                record = ClassificationRecord.from_line(line)
            except ValueError as error:
                raise ValueError(f"line {number}: {error}") from None
            records[record.asn] = record
        return cls(records)

    @classmethod
    def loads(cls, text: str) -> "ClassificationDatabase":
        """Read a database from a string in the line format."""
        from io import StringIO

        return cls.load(StringIO(text))

    # -- JSON format ---------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialise to JSON (list of per-AS objects)."""
        return json.dumps([record.to_dict() for record in self.records()], indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ClassificationDatabase":
        """Parse the JSON serialisation; :class:`ValueError` names a bad entry."""
        entries = json.loads(text)
        if not isinstance(entries, list):
            raise ValueError(f"expected a JSON list of per-AS objects, got {type(entries).__name__}")
        records: Dict[ASN, ClassificationRecord] = {}
        for index, entry in enumerate(entries):
            try:
                if not isinstance(entry, dict):
                    raise ValueError(f"expected an object, got {type(entry).__name__}")
                missing = [key for key in ("asn", "class") if key not in entry]
                if missing:
                    raise ValueError(f"missing key {missing[0]!r}")
                counts = [entry.get(f"{name}_count", 0) for name in COUNTER_NAMES]
                record = ClassificationRecord.from_fields(entry["asn"], entry["class"], counts)
            except ValueError as error:
                raise ValueError(f"entry {index}: {error}") from None
            records[record.asn] = record
        return cls(records)

    # -- round trip back into a result ------------------------------------------------------
    def to_result(self, thresholds: Optional[Thresholds] = None) -> ClassificationResult:
        """Rebuild a :class:`ClassificationResult` from the exported counters.

        Because the export keeps the raw counters, re-deriving the classes
        with the same thresholds reproduces the original classification; with
        different thresholds this doubles as an offline re-thresholding tool.
        """
        asns = sorted(self._records)
        quads = [self._records[asn].counters.as_tuple() for asn in asns]
        counters = _np.array(quads, dtype=_np.int64).reshape(-1, 4).T
        return ClassificationResult(asns, counters, thresholds or Thresholds(), "imported")
