"""Integration tests for the experiment drivers (tiny scale).

Each driver must run end to end and reproduce the qualitative findings of the
corresponding paper table / figure; the two golden classes pin Table 2 and
Table 3 cell by cell at the test context's scale and seed (ROADMAP item 5(a),
beside ``tests/test_column.py::TestGoldenRandomScenario``), so a counting
change that flips a class fails here whatever it does to the inequalities.
"""

import io

import pytest
from column_oracle import counter_state

from repro.experiments import figure2, figure3, figure4, figure5, figure6, table1, table2, table3, table4, table5_6
from repro.experiments.context import ExperimentContext, ExperimentScale
from repro.experiments.runner import DEFAULT_SCALE, EXPERIMENTS, run_all, run_matrix
from repro.experiments import runner as runner_module
from repro.usage.scenarios import ScenarioName


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(scale=ExperimentScale.TINY, seed=2)


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self, context):
        return table1.run(context)

    def test_all_columns_present(self, result):
        names = [column.name for column in result.columns]
        assert names == ["ripe", "routeviews", "isolario", "dMay21", "pch"]

    def test_aggregate_dominates_members(self, result):
        aggregate = result.column("dMay21")
        for name in ("ripe", "routeviews", "isolario"):
            assert aggregate.unique_tuples >= result.column(name).unique_tuples
            assert aggregate.as_after_cleaning >= result.column(name).as_after_cleaning

    def test_pch_has_no_rib_entries(self, result):
        assert result.column("pch").rib_entries == 0

    def test_leaf_majority_and_32bit_share(self, result):
        aggregate = result.column("dMay21")
        assert aggregate.leaf_ases / aggregate.as_after_cleaning > 0.6
        assert 0.2 < aggregate.ases_32bit / aggregate.as_after_cleaning < 0.6

    def test_format_text(self, result):
        assert "Entries total" in result.format_text()


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self, context):
        return table2.run(context, iterations=1)

    def test_all_scenarios_present(self, result):
        assert [row.scenario for row in result.rows] == [
            "alltc",
            "alltf",
            "random",
            "random+noise",
            "random-p",
            "random-pp",
        ]

    def test_consistent_scenarios_have_perfect_precision(self, result):
        for scenario in ("alltc", "alltf", "random"):
            row = result.row(scenario)
            assert row.tagging_precision == pytest.approx(1.0)
            assert row.forwarding_precision == pytest.approx(1.0)
        # Noise can introduce a handful of misclassifications (the paper's
        # Table 5 shows 53 out of ~22k); precision stays very close to 1.
        noise = result.row("random+noise")
        assert noise.tagging_precision > 0.95
        assert noise.forwarding_precision > 0.95

    def test_alltf_beats_alltc_in_coverage(self, result):
        alltf = result.row("alltf")
        alltc = result.row("alltc")
        assert alltf.counts["full_tf"] > alltc.counts["full_tc"]
        assert alltf.counts["nn"] < alltc.counts["nn"]

    def test_noise_increases_undecided(self, result):
        assert result.row("random+noise").counts["u*"] > result.row("random").counts["u*"]

    def test_selective_scenarios_reduce_recall(self, result):
        assert result.row("random-p").tagging_recall < result.row("random").tagging_recall
        assert result.row("random-pp").tagging_recall <= result.row("random-p").tagging_recall

    def test_format_text(self, result):
        text = result.format_text()
        assert "random-pp" in text


class TestGoldenTable2:
    """Literal Table 2 cells, one iteration per scenario (ROADMAP item 5(a))."""

    #: scenario -> input digest, tagging (tp, fp, fn), forwarding (tp, fp, fn),
    #: counts in ``Table2Row.counts`` order: full tc/sc/tf/sf, partial
    #: tn/sn/nc/nf, nn, u*, *u, uu.
    GOLDEN = {
        "alltc": ("d4ebc8c3f8a242c1", (63, 0, 0), (59, 0, 4),
                  [59, 0, 0, 0, 4, 0, 0, 0, 438, 0, 0, 0]),
        "alltf": ("b3fed8f43aea6cc3", (493, 0, 8), (88, 0, 3),
                  [0, 0, 88, 0, 405, 0, 0, 0, 8, 0, 0, 0]),
        "random": ("5aef782b0082b8d5", (245, 0, 29), (53, 0, 22),
                   [13, 10, 12, 18, 93, 99, 0, 0, 256, 0, 0, 0]),
        "random+noise": ("55166f9212d25128", (200, 2, 74), (45, 0, 30),
                         [10, 7, 12, 4, 95, 67, 0, 0, 256, 42, 7, 1]),
        "random-p": ("dedc7e4380966042", (147, 31, 72), (36, 0, 32),
                     [11, 8, 4, 13, 40, 95, 0, 0, 323, 0, 7, 0]),
        "random-pp": ("4362d099d72cccc8", (125, 22, 94), (33, 1, 35),
                      [11, 9, 3, 11, 31, 73, 0, 0, 354, 0, 9, 0]),
    }
    COUNT_KEYS = [
        "full_tc", "full_sc", "full_tf", "full_sf",
        "partial_tn", "partial_sn", "partial_nc", "partial_nf",
        "nn", "u*", "*u", "uu",
    ]

    @pytest.fixture(scope="class")
    def result(self, context, input_digest):
        for scenario in table2.SCENARIO_ORDER:
            dataset = context.scenario_builder(seed=context.seed).build(
                scenario, seed=context.seed
            )
            assert input_digest(dataset.tuples) == (31563, self.GOLDEN[scenario.value][0])
        return table2.run(context, iterations=1)

    @pytest.mark.parametrize("scenario", sorted(GOLDEN))
    def test_cells(self, result, scenario):
        _digest, tagging, forwarding, counts = self.GOLDEN[scenario]
        (evaluation,) = result.evaluations[scenario]
        for got, want in ((evaluation.tagging, tagging), (evaluation.forwarding, forwarding)):
            assert (got.true_positives, got.false_positives, got.false_negatives) == want
        row = result.row(scenario)
        assert list(row.counts) == self.COUNT_KEYS
        assert list(row.counts.values()) == counts


class TestTable5and6:
    def test_matrices_have_no_cross_class_errors_in_random(self, context):
        result = table5_6.run(context, scenarios=(ScenarioName.RANDOM,))
        tagging = result.tagging["random"]
        forwarding = result.forwarding["random"]
        assert tagging.cell("tagger", "silent") == 0
        assert tagging.cell("silent", "tagger") == 0
        assert forwarding.cell("forward", "cleaner") == 0
        assert "Table 5" in result.format_text()


class TestFigure2:
    def test_roc_curves(self, context):
        result = figure2.run(context, thresholds=(0.6, 0.99))
        for scenario in ("random-p", "random-pp"):
            for classifier in ("tagging", "forwarding"):
                points = result.curve(scenario, classifier)
                assert len(points) == 2
                assert all(0 <= p.false_positive_rate <= 0.5 for p in points)
        assert "Figure 2" in result.format_text()


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self, context):
        return table3.run(context)

    def test_columns_and_rows(self, result):
        assert "dMay21" in result.columns
        assert result.count("dMay21", "tagger") > 0
        assert result.count("dMay21", "silent") > result.count("dMay21", "tagger")

    def test_aggregate_yields_most_full_classifications(self, result):
        aggregate_full = sum(
            result.count("dMay21", row)
            for row in ("tagger-forward", "tagger-cleaner", "silent-forward", "silent-cleaner")
        )
        for name in ("ripe", "routeviews", "isolario"):
            member_full = sum(
                result.count(name, row)
                for row in ("tagger-forward", "tagger-cleaner", "silent-forward", "silent-cleaner")
            )
            assert aggregate_full >= member_full

    def test_format_text(self, result):
        assert "silent-cleaner" in result.format_text()


class TestGoldenTable3:
    """Literal Table 3 columns per collector project (ROADMAP item 5(a))."""

    #: dataset -> (tuples, input digest), then the twelve ``table3.ROW_ORDER`` cells.
    GOLDEN = {
        "ripe": ((25050, "deb947163b8a21f1"), [18, 133, 0, 350, 12, 12, 6, 471, 1, 9, 11, 3]),
        "routeviews": ((13527, "9d25e77b03eceb6f"), [13, 50, 0, 438, 3, 8, 6, 484, 1, 5, 2, 3]),
        "isolario": ((5010, "b2fd580eb6f90f01"), [12, 41, 0, 448, 3, 4, 1, 493, 2, 3, 1, 1]),
        "dMay21": ((31563, "00409fa4709a1b03"), [23, 184, 0, 294, 19, 15, 7, 460, 2, 10, 17, 5]),
        "pch": ((42585, "669eacd4620d621d"), [28, 234, 0, 239, 28, 24, 7, 442, 2, 14, 26, 10]),
    }

    @pytest.fixture(scope="class")
    def result(self, context, input_digest):
        for name, (digest, _cells) in self.GOLDEN.items():
            if name == "dMay21":
                tuples = context.aggregate_tuples
            else:
                tuples = context.internet.tuples_for_project(name)
            assert input_digest(tuples) == digest
        return table3.run(context)

    def test_cells(self, result):
        assert list(result.columns) == list(self.GOLDEN)
        for name, (_digest, cells) in self.GOLDEN.items():
            assert [result.count(name, row) for row in table3.ROW_ORDER] == cells, name


class TestFigures3Through6:
    def test_figure3_stability(self, context):
        result = figure3.run(context, days=3)
        assert set(result.counts) == {"tf", "tc", "sf", "sc"}
        # Across all full classes the vast majority of members are stable
        # since day 1 (individual classes can be tiny at this scale).
        stable = sum(per_day[-1].stable for per_day in result.counts.values())
        total = sum(per_day[-1].total for per_day in result.counts.values())
        assert total > 0
        assert stable / total > 0.6
        assert "==" in result.format_text()

    def test_figure4_longitudinal_is_stable(self, context):
        result = figure4.run(context, labels=("q1", "q2", "q3"))
        assert len(result.series) == 3
        for code in ("tf", "sc"):
            if max(result.counts_for(code)):
                assert result.relative_spread(code) < 0.5
        assert "q2" in result.format_text()

    def test_figure5_community_types(self, context):
        result = figure5.run(context)
        from repro.sanitize.sources import CommunitySource

        # Silent-cleaner peers export neither peer nor foreign communities.
        assert result.total_of("sc", CommunitySource.PEER) == 0
        assert result.total_of("sc", CommunitySource.FOREIGN) == 0
        assert "class" in result.format_text()

    def test_figure6_cone_characterisation(self, context):
        result = figure6.run(context)
        silent = result.distribution("tagging", "silent")
        tagger = result.distribution("tagging", "tagger")
        if len(silent) and len(tagger):
            assert result.leaf_share("tagging", "tagger") < result.leaf_share("tagging", "silent")
        assert "dimension" in result.format_text()

    def test_table4_validation(self, context):
        result = table4.run(context, labels=("exp-1", "exp-2"), n_pops=6)
        assert len(result.experiments) == 2
        for experiment in result.experiments:
            assert experiment.absent_cleaner_share > experiment.present_cleaner_share
        assert "exp-1" in result.format_text()


class TestRunner:
    def test_run_all_subset(self, context):
        stream = io.StringIO()
        results = run_all(ExperimentScale.TINY, only=["figure6"], seed=2, stream=stream)
        assert "figure6" in results
        assert "figure6" in stream.getvalue()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_all(ExperimentScale.TINY, only=["nope"])

    def test_registry_covers_all_tables_and_figures(self):
        expected = {
            "table1",
            "table2",
            "table3",
            "table4",
            "table5_6",
            "figure2",
            "figure3",
            "figure4",
            "figure5",
            "figure6",
        }
        assert set(EXPERIMENTS) == expected

    def test_api_and_cli_share_one_default_scale(self, monkeypatch):
        """run_all and the CLI must use the same documented default scale."""
        import inspect

        assert inspect.signature(run_all).parameters["scale"].default is DEFAULT_SCALE

        seen = {}

        def spy_run_all(scale, **kwargs):
            seen["scale"] = scale
            return {}

        monkeypatch.setattr(runner_module, "run_all", spy_run_all)
        assert runner_module.main([]) == 0
        assert seen["scale"] is DEFAULT_SCALE

    def test_run_all_parallel_matches_serial(self, context):
        serial_stream = io.StringIO()
        parallel_stream = io.StringIO()
        serial = run_all(
            ExperimentScale.TINY, only=["table3", "figure6"], seed=2, stream=serial_stream
        )
        parallel = run_all(
            ExperimentScale.TINY,
            only=["table3", "figure6"],
            seed=2,
            stream=parallel_stream,
            workers=2,
        )
        assert set(serial) == set(parallel) == {"table3", "figure6"}
        assert (
            parallel["figure6"].format_text() == serial["figure6"].format_text()
        )
        assert parallel["table3"].format_text() == serial["table3"].format_text()


class TestContextCache:
    def test_aggregate_artifacts_round_trip_through_cache(self, tmp_path):
        warm = ExperimentContext(scale=ExperimentScale.TINY, seed=2, cache_dir=tmp_path)
        tuples = warm.aggregate_tuples
        classification = warm.aggregate_classification
        assert any(tmp_path.iterdir())  # cache files written

        cold = ExperimentContext(scale=ExperimentScale.TINY, seed=2, cache_dir=tmp_path)
        assert cold.aggregate_tuples == tuples
        assert (
            cold.aggregate_classification.as_code_map() == classification.as_code_map()
        )
        assert (
            counter_state(cold.aggregate_classification)
            == counter_state(classification)
        )

    def test_cache_key_separates_scales_seeds_and_thresholds(self, tmp_path):
        from repro.core.thresholds import Thresholds

        a = ExperimentContext(scale=ExperimentScale.TINY, seed=2, cache_dir=tmp_path)
        b = ExperimentContext(scale=ExperimentScale.TINY, seed=3, cache_dir=tmp_path)
        c = ExperimentContext(
            scale=ExperimentScale.TINY,
            seed=2,
            thresholds=Thresholds.uniform(0.9),
            cache_dir=tmp_path,
        )
        paths = {
            ctx._cache_path("aggregate-tuples") for ctx in (a, b, c)
        }
        assert len(paths) == 3

    def test_corrupt_cache_entry_is_rebuilt(self, tmp_path):
        context = ExperimentContext(scale=ExperimentScale.TINY, seed=2, cache_dir=tmp_path)
        path = context._cache_path("aggregate-tuples")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"definitely not a pickle")
        assert len(context.aggregate_tuples) > 0


class TestMatrix:
    def test_matrix_sweeps_seeds_and_scales(self):
        stream = io.StringIO()
        result = run_matrix(
            [ExperimentScale.TINY],
            [1, 2],
            base_seed=2,
            scenario=ScenarioName.RANDOM,
            stream=stream,
        )
        assert len(result.cells) == 2
        assert {cell.seed for cell in result.cells} == {1, 2}
        stability = result.stability()
        assert "tiny" in stability
        assert stability["tiny"]["prec_tagging_mean"] >= 0.0
        assert "scenario stability matrix" in stream.getvalue()

    def test_matrix_parallel_matches_serial(self):
        serial = run_matrix(
            [ExperimentScale.TINY], [1, 2], base_seed=2, stream=io.StringIO()
        )
        parallel = run_matrix(
            [ExperimentScale.TINY], [1, 2], base_seed=2, workers=2, stream=io.StringIO()
        )
        assert [c.as_row() for c in parallel.cells] == [c.as_row() for c in serial.cells]
