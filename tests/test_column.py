"""Unit and behaviour tests for the column-based inference algorithm.

The hand-crafted cases mirror the worked examples of Sections 5.1 and 5.4 of
the paper; the scenario-level tests check the paper's headline claims
(100% precision on consistent behaviour, no classification of hidden ASes);
the golden test pins literal counts so a counting change that flips a class
fails here, whatever it does to the inequalities.
"""

import pytest
from column_oracle import counter_state

from repro.bgp.announcement import PathCommTuple
from repro.bgp.community import CommunitySet
from repro.bgp.path import ASPath
from repro.core.classes import ForwardingClass, TaggingClass
from repro.core.column import ColumnInference
from repro.core.row import RowInference
from repro.core.thresholds import Thresholds
from repro.usage.scenarios import ScenarioName


def tuples_from(*items):
    """Build (path, comm) tuples from (path asns, community strings) pairs."""
    return [
        PathCommTuple(ASPath(asns), CommunitySet.from_strings(comms)) for asns, comms in items
    ]


class TestHandCraftedCases:
    def test_peer_tagging_is_trivially_observable(self):
        # C <- X : X:* and C <- Y : empty  =>  X tagger, Y silent (Section 5.1).
        result = ColumnInference().run(
            tuples_from(([10], ["10:1"]), ([20], []))
        )
        assert result.classification_of(10).tagging is TaggingClass.TAGGER
        assert result.classification_of(20).tagging is TaggingClass.SILENT

    def test_downstream_tagger_reveals_forwarding(self):
        # C <- X <- Z with Z:* visible reveals X's forwarding behaviour once Z
        # is known to be a tagger (here: because Z also peers with a collector,
        # which is how knowledge bootstraps in real data, Section 5.6).
        result = ColumnInference().run(
            tuples_from(([30], ["30:1"]), ([10, 30], ["30:1"]))
        )
        assert result.classification_of(30).tagging is TaggingClass.TAGGER
        assert result.classification_of(10).tagging is TaggingClass.SILENT
        assert result.classification_of(10).forwarding is ForwardingClass.FORWARD

    def test_isolated_pair_is_a_race_condition(self):
        # Without any other vantage on Z, the same situation cannot be
        # resolved: Cond1 for Z needs X forward, Cond2 for X needs Z tagger
        # (Section 5.2.1) - the algorithm deliberately returns none.
        result = ColumnInference().run(tuples_from(([10, 30], ["30:1"])))
        assert result.classification_of(30).tagging is TaggingClass.NONE
        assert result.classification_of(10).forwarding is ForwardingClass.NONE

    def test_hidden_behaviour_is_not_classified(self):
        # C <- X : empty, X's downstream Z cannot be judged (Section 5.1.2):
        # we cannot tell whether Z is silent or X is a cleaner.
        result = ColumnInference().run(tuples_from(([10, 30], [])))
        assert result.classification_of(30).tagging is TaggingClass.NONE
        assert result.classification_of(10).forwarding is ForwardingClass.NONE

    def test_cleaner_detected_with_known_tagger(self):
        # Z is a known tagger (seen directly at a collector); Y hides Z's tag.
        result = ColumnInference().run(
            tuples_from(
                ([30], ["30:1"]),          # Z peers with a collector and tags
                ([10, 30], ["30:1"]),      # X forwards Z's tag
                ([20, 30], []),            # Y removes it
            )
        )
        assert result.classification_of(30).tagging is TaggingClass.TAGGER
        assert result.classification_of(10).forwarding is ForwardingClass.FORWARD
        assert result.classification_of(20).forwarding is ForwardingClass.CLEANER

    def test_counting_behind_cleaner_is_skipped(self):
        # Section 5.1.2: occurrences behind a cleaner must not count as silent.
        result = ColumnInference().run(
            tuples_from(
                ([30], ["30:1"]),
                ([20, 30], []),        # 20 becomes a cleaner
                ([20, 40], []),        # 40 is hidden behind cleaner 20
            )
        )
        assert result.classification_of(20).forwarding is ForwardingClass.CLEANER
        assert result.classification_of(40).tagging is TaggingClass.NONE

    def test_race_condition_yields_none(self):
        # Single path C <- X <- Y with no information: neither can be judged
        # beyond X's own tagging (Section 5.2.1).
        result = ColumnInference().run(tuples_from(([10, 20], [])))
        assert result.classification_of(10).tagging is TaggingClass.SILENT
        assert result.classification_of(10).forwarding is ForwardingClass.NONE
        assert result.classification_of(20).tagging is TaggingClass.NONE

    def test_selective_tagging_towards_collector_causes_cleaner_misreading(self):
        # Section 5.4: Z tags only towards the collector; X then looks like a
        # cleaner because Z's tag is missing behind it.
        result = ColumnInference().run(
            tuples_from(
                ([30], ["30:1"]),
                ([30], ["30:1"]),
                ([10, 30], []),
            )
        )
        assert result.classification_of(30).tagging is TaggingClass.TAGGER
        assert result.classification_of(10).forwarding is ForwardingClass.CLEANER

    def test_conflicting_evidence_yields_undecided(self):
        # The same peer sometimes tags and sometimes does not (half/half).
        items = tuples_from(*([([10], ["10:1"])] * 5 + [([10], [])] * 5))
        result = ColumnInference().run(items)
        assert result.classification_of(10).tagging is TaggingClass.UNDECIDED

    def test_lower_threshold_resolves_undecided(self):
        items = tuples_from(*([([10], ["10:1"])] * 8 + [([10], [])] * 2))
        strict = ColumnInference(Thresholds.uniform(0.99)).run(items)
        relaxed = ColumnInference(Thresholds.uniform(0.75)).run(items)
        assert strict.classification_of(10).tagging is TaggingClass.UNDECIDED
        assert relaxed.classification_of(10).tagging is TaggingClass.TAGGER

    def test_empty_input(self):
        result = ColumnInference().run([])
        assert len(result) == 0
        assert result.summary()["ases_observed"] == 0

    def test_report_tracks_increments(self):
        inference = ColumnInference()
        inference.run(tuples_from(([10], ["10:1"]), ([20], [])))
        assert sum(inference.report.tagging_counts_per_column) == 2

    def test_run_looks_the_kernels_up_by_module_name(
        self, monkeypatch, random_dataset, random_classification
    ):
        """``benchmarks/e2e`` (``KernelSpans``) times the two phases by swapping
        the module-level kernel names and reads ``len()`` of what they count
        over as ``matrix.groups``, so ``run`` must resolve them at call time:
        each wrapper sees one call per processed column, over one group per
        tuple."""
        from repro.core import column

        names = ("count_tagging_phase_packed", "count_forwarding_phase_packed")
        calls = []

        def spy(name):
            kernel = getattr(column, name)

            def wrapped(groups, index, tagger_flags, forward_flags):
                calls.append((index, name, len(groups)))
                return kernel(groups, index, tagger_flags, forward_flags)

            monkeypatch.setattr(column, name, wrapped)

        for name in names:
            spy(name)
        inference = ColumnInference()
        result = inference.run(random_dataset.tuples)
        assert calls == [
            (index, name, len(random_dataset.tuples))
            for index in range(1, inference.report.columns_processed + 1)
            for name in names
        ]
        assert counter_state(result) == counter_state(random_classification)


class TestScenarioBehaviour:
    def test_perfect_precision_on_random_scenario(self, random_dataset, random_classification):
        for asn in random_classification.observed_ases:
            role = random_dataset.roles.get(asn)
            classification = random_classification.classification_of(asn)
            if classification.tagging is TaggingClass.TAGGER:
                assert role.is_tagger
            elif classification.tagging is TaggingClass.SILENT:
                assert role.is_silent
            if classification.forwarding is ForwardingClass.FORWARD:
                assert role.is_forward
            elif classification.forwarding is ForwardingClass.CLEANER:
                assert role.is_cleaner

    def test_hidden_ases_are_not_classified(self, random_dataset, random_classification):
        for asn in random_dataset.visibility.tagging_hidden:
            assert random_classification.classification_of(asn).tagging in (
                TaggingClass.NONE,
                TaggingClass.UNDECIDED,
            )

    def test_leaf_ases_have_no_forwarding_class(self, random_dataset, random_classification):
        for asn in list(random_dataset.leaf_ases)[:300]:
            assert random_classification.classification_of(asn).forwarding is ForwardingClass.NONE

    def test_alltf_classifies_most_ases_as_taggers(self, alltf_dataset):
        result = ColumnInference().run(alltf_dataset.tuples)
        summary = result.summary()
        assert summary["silent"] == 0
        assert summary["cleaner"] == 0
        assert summary["tagger"] > 0.9 * summary["ases_observed"]

    def test_alltc_classifies_only_peers(self, scenario_builder):
        dataset = scenario_builder.build(ScenarioName.ALLTC, seed=7)
        result = ColumnInference().run(dataset.tuples)
        taggers = set(result.ases_with_tagging(TaggingClass.TAGGER))
        assert taggers == dataset.collector_peers
        assert result.summary()["silent"] == 0

    def test_undecided_appears_under_noise(self, scenario_builder):
        dataset = scenario_builder.build(ScenarioName.RANDOM_NOISE, seed=7)
        result = ColumnInference().run(dataset.tuples)
        assert result.summary()["tagging_undecided"] > 0


class TestGoldenRandomScenario:
    """Literal counts on the session ``random_dataset`` (ROADMAP item 5(a))."""

    @pytest.fixture(scope="class")
    def tuples(self, random_dataset, input_digest):
        # The input first, so a generator change is told apart from a counting
        # change.
        assert input_digest(random_dataset.tuples) == (30660, "0337142e7b0f7b72")
        return random_dataset.tuples

    CLASSES = ("tagger", "silent", "forward", "cleaner")

    def test_column_inference(self, tuples):
        inference = ColumnInference()
        summary = inference.run(tuples).summary()
        assert [summary[key] for key in self.CLASSES] == [159, 133, 39, 34]
        assert [summary[f"full_{code}"] for code in ("tf", "tc", "sf", "sc")] == [26, 18, 13, 16]
        report = inference.report
        assert report.tagging_counts_per_column == [30660, 15300, 11219, 6543, 2530, 541, 64, 4, 0]
        assert report.forwarding_counts_per_column == [19208, 11485, 5683, 1917, 364, 40, 2, 0, 0]

    def test_row_inference(self, tuples):
        summary = RowInference().run(tuples).summary()
        assert [summary[key] for key in self.CLASSES] == [0, 327, 1, 60]
