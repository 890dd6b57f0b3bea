"""Evaluation harness.

Scores inference results against ground truth and computes every analysis
the paper's evaluation section reports:

* :mod:`repro.eval.metrics` -- precision/recall and confusion matrices with
  hidden/leaf rows (Tables 2, 5, 6),
* :mod:`repro.eval.roc` -- threshold sweeps and ROC curves (Figure 2),
* :mod:`repro.eval.stability` -- incremental-day stability and longitudinal
  class counts (Figures 3 and 4),
* :mod:`repro.eval.characterization` -- customer-cone CDFs per class and
  community-type counts at peer ASes (Figures 5 and 6),
* :mod:`repro.eval.peering` -- PEERING-testbed style active validation
  (Table 4).
"""

from repro.eval.metrics import (
    ConfusionMatrix,
    PrecisionRecall,
    ScenarioEvaluation,
    evaluate_scenario,
)
from repro.eval.roc import ROCPoint, threshold_sweep
from repro.eval.stability import IncrementalDayAnalysis, LongitudinalPoint
from repro.eval.characterization import (
    ConeDistribution,
    cone_cdf_by_class,
    peer_community_types,
)
from repro.eval.peering import PeeringExperiment, PeeringValidationResult

__all__ = [
    "ConfusionMatrix",
    "PrecisionRecall",
    "ScenarioEvaluation",
    "evaluate_scenario",
    "ROCPoint",
    "threshold_sweep",
    "IncrementalDayAnalysis",
    "LongitudinalPoint",
    "ConeDistribution",
    "cone_cdf_by_class",
    "peer_community_types",
    "PeeringExperiment",
    "PeeringValidationResult",
]
