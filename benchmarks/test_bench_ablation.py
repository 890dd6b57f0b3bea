"""Ablation benchmarks.

* row-based baseline (paper Listing 2) versus the column-based algorithm on
  the same ground truth -- quantifies the precision the conditions buy,
* threshold ablation on a consistent scenario -- shows that the consistent
  case is insensitive to the threshold (Section 6.3.1).
"""

from __future__ import annotations

import pytest

from repro.core.classes import TaggingClass
from repro.core.column import ColumnInference
from repro.core.row import RowInference
from repro.core.thresholds import Thresholds
from repro.usage.scenarios import ScenarioName


@pytest.fixture(scope="module")
def random_dataset(context):
    return context.scenario_builder().build(ScenarioName.RANDOM, seed=1)


def _tagging_precision(dataset, result):
    correct = wrong = 0
    for asn in result.observed_ases:
        role = dataset.roles.get(asn)
        tagging = result.classification_of(asn).tagging
        if tagging is TaggingClass.TAGGER:
            correct, wrong = (correct + 1, wrong) if role.is_tagger else (correct, wrong + 1)
        elif tagging is TaggingClass.SILENT:
            correct, wrong = (correct + 1, wrong) if role.is_silent else (correct, wrong + 1)
    return correct / (correct + wrong) if (correct + wrong) else 1.0


@pytest.mark.benchmark(group="ablation")
def test_bench_column_algorithm(benchmark, run_once, random_dataset):
    result = run_once(benchmark, ColumnInference().run, random_dataset.tuples)
    precision = _tagging_precision(random_dataset, result)
    print(f"\ncolumn-based: precision={precision:.4f} summary={result.summary()}")
    assert precision == pytest.approx(1.0)


@pytest.mark.benchmark(group="ablation")
def test_bench_row_baseline(benchmark, run_once, random_dataset):
    result = run_once(benchmark, RowInference().run, random_dataset.tuples)
    precision = _tagging_precision(random_dataset, result)
    print(f"\nrow-based baseline: precision={precision:.4f} summary={result.summary()}")
    # The baseline trades precision for coverage - exactly the paper's argument
    # for the column-based design.
    assert precision < 1.0


@pytest.mark.benchmark(group="ablation")
def test_bench_threshold_ablation_consistent_scenario(benchmark, run_once, random_dataset):
    def sweep():
        return {
            value: ColumnInference(Thresholds.uniform(value)).run(random_dataset.tuples).summary()
            for value in (0.70, 0.90, 0.99)
        }

    summaries = run_once(benchmark, sweep)
    taggers = [summary["tagger"] for summary in summaries.values()]
    print(f"\ntagger counts per threshold: {dict(zip(summaries, taggers))}")
    # Consistent behaviour is classified identically irrespective of threshold.
    assert max(taggers) - min(taggers) <= max(1, int(0.02 * max(taggers)))
