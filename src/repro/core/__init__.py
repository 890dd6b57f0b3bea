"""The paper's primary contribution: per-AS community usage inference.

* :mod:`repro.core.classes` -- the inferred classes (tagger / silent /
  undecided / none and forward / cleaner / undecided / none),
* :mod:`repro.core.thresholds` -- the counting thresholds (default 99%),
* :mod:`repro.core.counters` -- per-AS evidence counters as packed columns
  and the one threshold rule over them (``class_code_indices``),
* :mod:`repro.core.column` -- the column-based inference algorithm
  (Section 5.6, Listing 1), Cond1 and Cond2 (Section 5.2) included,
* :mod:`repro.core.row` -- the row-based baseline (Listing 2),
* :mod:`repro.core.results` -- classification results (per-AS columns)
  and summaries,
* :mod:`repro.core.attribution` -- the future-work extension that attributes
  concrete community values to inferred taggers,
* :mod:`repro.core.pipeline` -- the end-to-end pipeline from raw collector
  data to per-AS classifications.
"""

from repro.core.classes import ForwardingClass, TaggingClass, UsageClassification
from repro.core.thresholds import Thresholds
from repro.core.counters import ASCounters
from repro.core.column import ColumnInference
from repro.core.row import RowInference
from repro.core.results import ClassificationResult
from repro.core.attribution import CommunityAttribution
from repro.core.export import ClassificationDatabase, ClassificationRecord
from repro.core.pipeline import InferencePipeline, PipelineResult

__all__ = [
    "TaggingClass",
    "ForwardingClass",
    "UsageClassification",
    "Thresholds",
    "ASCounters",
    "ColumnInference",
    "RowInference",
    "ClassificationResult",
    "CommunityAttribution",
    "ClassificationDatabase",
    "ClassificationRecord",
    "InferencePipeline",
    "PipelineResult",
]
