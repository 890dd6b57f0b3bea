"""Tests for the classification database export/import (repro.core.export)."""

import io

import pytest

from repro.bgp.announcement import PathCommTuple
from repro.bgp.community import CommunitySet
from repro.bgp.path import ASPath
from repro.core.column import ColumnInference
from repro.core.export import FORMAT_HEADER, ClassificationDatabase, ClassificationRecord
from repro.core.thresholds import Thresholds


@pytest.fixture()
def result():
    tuples = [
        PathCommTuple(ASPath([10]), CommunitySet.from_strings(["10:1"])),
        PathCommTuple(ASPath([20]), CommunitySet.empty()),
        PathCommTuple(ASPath([30]), CommunitySet.from_strings(["30:1"])),
        PathCommTuple(ASPath([10, 30]), CommunitySet.from_strings(["10:1", "30:1"])),
        PathCommTuple(ASPath([20, 30]), CommunitySet.from_strings(["30:1"])),
    ]
    return ColumnInference().run(tuples), tuples


class TestRecord:
    def test_line_round_trip(self):
        original = ClassificationRecord.from_line("3356|tf|412|3|371|0")
        assert original.asn == 3356
        assert original.classification.code == "tf"
        assert original.counters.tagger == 412
        assert ClassificationRecord.from_line(original.to_line()) == original

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            ClassificationRecord.from_line("3356|tf|1")

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("1|tf|a|0|0|0", "tagger 'a' is not an integer"),
            ("1|tf|0|0|1.5|0", "forward '1.5' is not an integer"),
            ("x|tf|0|0|0|0", "asn 'x' is not an integer"),
            ("1|zz|1|0|0|0", "unknown class code 'zz'"),
            ("1|t|1|0|0|0", "unknown class code 't'"),
            ("1|tf|-5|0|0|0", "tagger '-5' is negative"),
            ("1|tf|0|0|0|-1", "cleaner '-1' is negative"),
        ],
    )
    def test_bad_fields_are_refused_naming_the_line(self, line, reason):
        with pytest.raises(ValueError) as caught:
            ClassificationRecord.from_line(line)
        assert str(caught.value) == f"malformed classification line {line!r}: {reason}"

    def test_to_dict(self):
        record = ClassificationRecord.from_line("1|sc|0|5|0|9")
        data = record.to_dict()
        assert data["class"] == "sc"
        assert data["cleaner_count"] == 9


class TestDatabase:
    def test_from_result_contains_all_observed_ases(self, result):
        classification, _ = result
        database = ClassificationDatabase.from_result(classification)
        assert len(database) == len(classification.observed_ases)
        assert 10 in database
        assert database.classification_of(10).code == classification.classification_of(10).code

    def test_text_round_trip(self, result):
        classification, _ = result
        database = ClassificationDatabase.from_result(classification)
        text = database.dumps()
        assert text.startswith(FORMAT_HEADER)
        restored = ClassificationDatabase.loads(text)
        assert len(restored) == len(database)
        for asn in database:
            assert restored.get(asn) == database.get(asn)

    def test_json_round_trip(self, result):
        classification, _ = result
        database = ClassificationDatabase.from_result(classification)
        restored = ClassificationDatabase.from_json(database.to_json())
        assert restored.counts_by_code() == database.counts_by_code()

    def test_load_rejects_wrong_header(self):
        with pytest.raises(ValueError):
            ClassificationDatabase.load(io.StringIO("# something else\n1|tf|1|0|1|0\n"))

    @pytest.mark.parametrize("line", ["1|tf|a|0|0|0", "1|zz|1|0|0|0", "1|tf|-5|0|0|0"])
    def test_load_names_the_bad_line(self, line):
        text = f"{FORMAT_HEADER}\n# asn|class|t|s|f|c\n10|tf|5|0|5|0\n{line}\n"
        with pytest.raises(ValueError) as caught:
            ClassificationDatabase.loads(text)
        assert str(caught.value).startswith(f"line 4: malformed classification line {line!r}: ")

    @pytest.mark.parametrize(
        "text, reason",
        [
            ('{"asn": 1, "class": "tf"}', "expected a JSON list of per-AS objects, got dict"),
            ('[{"asn": 1, "class": "tf"}, {"class": "tf"}]', "entry 1: missing key 'asn'"),
            ('[{"asn": 1}]', "entry 0: missing key 'class'"),
            ('[{"asn": 1, "class": "zz"}]', "entry 0: unknown class code 'zz'"),
            ('[{"asn": 1, "class": "tf", "tagger_count": -5}]', "entry 0: tagger -5 is negative"),
            (
                '[{"asn": 1, "class": "tf", "silent_count": 2.5}]',
                "entry 0: silent 2.5 is not an integer",
            ),
            (
                '[{"asn": 1, "class": "tf", "forward_count": "a"}]',
                "entry 0: forward 'a' is not an integer",
            ),
            ("[7]", "entry 0: expected an object, got int"),
        ],
    )
    def test_from_json_names_the_bad_entry(self, text, reason):
        with pytest.raises(ValueError) as caught:
            ClassificationDatabase.from_json(text)
        assert str(caught.value) == reason

    def test_comments_and_blank_lines_ignored(self):
        text = FORMAT_HEADER + "\n# comment\n\n10|tf|5|0|5|0\n"
        database = ClassificationDatabase.loads(text)
        assert len(database) == 1

    def test_counts_by_code(self, result):
        classification, _ = result
        database = ClassificationDatabase.from_result(classification)
        counts = database.counts_by_code()
        assert sum(counts.values()) == len(database)

    def test_to_result_reproduces_classification(self, result):
        classification, _ = result
        database = ClassificationDatabase.from_result(classification)
        rebuilt = database.to_result()
        for asn in classification.observed_ases:
            assert rebuilt.classification_of(asn) == classification.classification_of(asn)

    def test_to_result_allows_rethresholding(self, result):
        classification, _ = result
        database = ClassificationDatabase.from_result(classification)
        relaxed = database.to_result(Thresholds.uniform(0.51))
        strict = database.to_result(Thresholds.uniform(1.0))
        # Relaxing thresholds can only keep or increase decided inferences.
        relaxed_decided = sum(1 for asn in relaxed.observed_ases if relaxed[asn].tagging.is_decided)
        strict_decided = sum(1 for asn in strict.observed_ases if strict[asn].tagging.is_decided)
        assert relaxed_decided >= strict_decided

    def test_iteration_is_sorted(self, result):
        classification, _ = result
        database = ClassificationDatabase.from_result(classification)
        assert list(database) == sorted(database)
