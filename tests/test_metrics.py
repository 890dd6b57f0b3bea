"""Tests for scenario evaluation metrics, ROC sweeps, and stability analyses."""

import pytest
from column_oracle import CounterStore, result_from_store

from repro.core.column import ColumnInference
from repro.core.thresholds import Thresholds
from repro.eval.metrics import ConfusionMatrix, evaluate_scenario
from repro.eval.roc import roc_series, threshold_sweep
from repro.eval.stability import IncrementalDayAnalysis, longitudinal_series
from repro.usage.scenarios import ScenarioName


class TestConfusionMatrix:
    def test_add_and_cell(self):
        matrix = ConfusionMatrix(kind="tagging")
        matrix.add("tagger", "tagger", 5)
        matrix.add("tagger", "none")
        assert matrix.cell("tagger", "tagger") == 5
        assert matrix.cell("tagger", "none") == 1
        assert matrix.cell("silent", "tagger") == 0
        assert matrix.row_total("tagger") == 6

    def test_to_text_contains_rows_and_columns(self):
        matrix = ConfusionMatrix(kind="forwarding")
        matrix.add("cleaner (leaf)", "none", 3)
        text = matrix.to_text()
        assert "cleaner (leaf)" in text
        assert "forward" in text  # column header


class TestScenarioEvaluation:
    def test_random_scenario_scores(self, random_dataset, random_classification):
        evaluation = evaluate_scenario(random_dataset, random_classification)
        # The paper's headline claim: perfect precision on consistent behaviour.
        assert evaluation.tagging.precision == pytest.approx(1.0)
        assert evaluation.forwarding.precision == pytest.approx(1.0)
        assert 0.3 < evaluation.tagging.recall <= 1.0
        assert 0.2 < evaluation.forwarding.recall <= 1.0

    def test_confusion_matrix_has_no_cross_class_errors(self, random_dataset, random_classification):
        evaluation = evaluate_scenario(random_dataset, random_classification)
        assert evaluation.tagging_matrix.cell("tagger", "silent") == 0
        assert evaluation.tagging_matrix.cell("silent", "tagger") == 0
        assert evaluation.forwarding_matrix.cell("forward", "cleaner") == 0
        assert evaluation.forwarding_matrix.cell("cleaner", "forward") == 0

    def test_hidden_rows_only_contain_none_or_undecided(self, random_dataset, random_classification):
        evaluation = evaluate_scenario(random_dataset, random_classification)
        for row in ("tagger (hidden)", "silent (hidden)"):
            if row not in evaluation.tagging_matrix.rows:
                continue
            assert evaluation.tagging_matrix.cell(row, "tagger") == 0
            assert evaluation.tagging_matrix.cell(row, "silent") == 0

    def test_leaf_rows_have_no_forwarding_classification(self, random_dataset, random_classification):
        evaluation = evaluate_scenario(random_dataset, random_classification)
        for row, cells in evaluation.forwarding_matrix.rows.items():
            if "(leaf)" in row:
                assert cells.get("forward", 0) == 0
                assert cells.get("cleaner", 0) == 0

    def test_selective_scenario_reduces_recall_not_precision_much(self, scenario_builder):
        dataset = scenario_builder.build(ScenarioName.RANDOM_P, seed=7)
        result = ColumnInference().run(dataset.tuples)
        evaluation = evaluate_scenario(dataset, result)
        assert evaluation.tagging.precision > 0.8
        assert "selective" in evaluation.tagging_matrix.rows or "selective (hidden)" in evaluation.tagging_matrix.rows

    def test_table2_row_shape(self, random_dataset, random_classification):
        row = evaluate_scenario(random_dataset, random_classification).table2_row()
        assert row["scenario"] == "random"
        assert "tagging_recall" in row and "full_sc" in row


class TestROCSweep:
    def test_sweep_produces_monotone_fpr(self, scenario_builder):
        dataset = scenario_builder.build(ScenarioName.RANDOM_P, seed=7)
        curves = threshold_sweep(dataset, thresholds=(0.6, 0.9, 1.0))
        for classifier in ("tagging", "forwarding"):
            points = curves[classifier]
            assert len(points) == 3
            # Raising the threshold cannot increase the false-positive rate.
            fprs = [p.false_positive_rate for p in points]
            assert fprs[0] >= fprs[-1]
            # All rates are valid probabilities.
            for point in points:
                assert 0.0 <= point.false_positive_rate <= 1.0
                assert 0.0 <= point.true_positive_rate <= 1.0

    def test_roc_series_shape(self, scenario_builder):
        dataset = scenario_builder.build(ScenarioName.RANDOM_P, seed=7)
        curves = threshold_sweep(dataset, thresholds=(0.9,))
        series = roc_series(curves["tagging"])
        assert len(series) == 1 and len(series[0]) == 2


class TestStability:
    def _result_with(self, codes):
        """Build a fake classification result with given full classes."""
        store = CounterStore(Thresholds())
        observed = set()
        for asn, code in codes.items():
            observed.add(asn)
            store.apply_delta(
                {
                    asn: (
                        int(code[0] == "t"),
                        int(code[0] != "t"),
                        int(code[1] == "f"),
                        int(code[1] != "f"),
                    )
                }
            )
        return result_from_store(store, observed)

    def test_new_stable_recurring(self):
        day1 = self._result_with({1: "tf", 2: "sc"})
        day2 = self._result_with({1: "tf", 2: "sc", 3: "tf"})
        day3 = self._result_with({1: "tf", 2: "sc", 3: "sf"})  # 3 changes class
        day4 = self._result_with({1: "tf", 2: "sc", 3: "tf"})  # 3 returns to tf
        analysis = IncrementalDayAnalysis.from_results([day1, day2, day3, day4])
        tf_counts = analysis.counts_for("tf")
        assert tf_counts[0].new == 1
        assert tf_counts[1].new == 1 and tf_counts[1].stable == 1
        assert tf_counts[3].recurring == 1
        assert analysis.stability_share("sc") == pytest.approx(1.0)

    def test_longitudinal_series(self):
        results = [("q1", self._result_with({1: "tf"})), ("q2", self._result_with({1: "tf", 2: "sc"}))]
        series = longitudinal_series(results)
        assert series[0].count("tf") == 1
        assert series[1].count("sc") == 1
        assert series[0].label == "q1"
