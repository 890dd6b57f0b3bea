"""Unit tests for counters, thresholds and classes, and for the per-AS oracle
(``CounterStore``, Cond1 / Cond2) in ``tests/column_oracle.py``."""

import pytest
from column_oracle import CounterStore, cond1, cond2, find_downstream_tagger

from repro.bgp.path import ASPath
from repro.core.classes import ForwardingClass, TaggingClass, UNCLASSIFIED, UsageClassification
from repro.core.counters import ASCounters
from repro.core.thresholds import Thresholds


class TestThresholds:
    def test_defaults_are_99_percent(self):
        thresholds = Thresholds()
        assert thresholds.tagger == thresholds.cleaner == 0.99

    def test_uniform(self):
        thresholds = Thresholds.uniform(0.8)
        assert thresholds.silent == 0.8 and thresholds.forward == 0.8

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Thresholds(tagger=0.4)
        with pytest.raises(ValueError):
            Thresholds(cleaner=1.01)

    def test_partial_overrides(self):
        thresholds = Thresholds().with_tagging(0.9)
        assert thresholds.tagger == 0.9
        assert thresholds.forward == 0.99
        forwarding = Thresholds().with_forwarding(0.8)
        assert forwarding.cleaner == 0.8


class TestUsageClassification:
    def test_code_round_trip(self):
        for code in ("tf", "sc", "un", "nn", "uu", "tn"):
            assert UsageClassification.from_code(code).code == code

    def test_invalid_code_rejected(self):
        with pytest.raises(ValueError):
            UsageClassification.from_code("t")
        with pytest.raises(ValueError):
            UsageClassification.from_code("xy")

    def test_full_partial_empty(self):
        assert UsageClassification.from_code("tf").is_full
        assert UsageClassification.from_code("tn").is_partial
        assert UsageClassification.from_code("nu").is_empty
        assert UNCLASSIFIED.is_empty

    def test_from_role(self):
        from repro.usage.roles import ForwardingRole, TaggingRole

        assert TaggingClass.from_role(TaggingRole.TAGGER) is TaggingClass.TAGGER
        assert ForwardingClass.from_role(ForwardingRole.CLEANER) is ForwardingClass.CLEANER


class TestASCounters:
    def test_shares(self):
        counters = ASCounters(tagger=99, silent=1, forward=3, cleaner=1)
        assert counters.tagger_share() == pytest.approx(0.99)
        assert counters.silent_share() == pytest.approx(0.01)
        assert counters.forward_share() == pytest.approx(0.75)
        assert counters.cleaner_share() == pytest.approx(0.25)

    def test_shares_without_evidence(self):
        counters = ASCounters()
        assert counters.tagger_share() == 0.0
        assert counters.forward_share() == 0.0


class TestCounterStore:
    def test_counting_and_lookup(self):
        store = CounterStore()
        store.apply_delta({10: (2, 1, 0, 0)})
        assert store.get(10).as_tuple() == (2, 1, 0, 0)
        assert store.get(99).as_tuple() == (0, 0, 0, 0)
        assert 10 in store and 99 not in store

    def test_threshold_queries(self):
        store = CounterStore(Thresholds.uniform(0.9))
        store.apply_delta({1: (9, 1, 0, 0)})
        assert store.is_tagger(1)
        assert not store.is_silent(1)

    def test_no_evidence_means_no_class(self):
        store = CounterStore()
        assert not store.is_tagger(5)
        assert not store.is_forward(5)
        assert store.get_tagging(5) is TaggingClass.NONE
        assert store.get_forwarding(5) is ForwardingClass.NONE

    def test_undecided_when_between_thresholds(self):
        store = CounterStore(Thresholds.uniform(0.99))
        store.apply_delta({1: (1, 1, 0, 0)})
        assert store.get_tagging(1) is TaggingClass.UNDECIDED

    def test_get_class_combines_both(self):
        store = CounterStore()
        store.apply_delta({1: (1, 0, 1, 0)})
        assert store.get_class(1).code == "tf"

    def test_classify_all(self):
        store = CounterStore()
        store.apply_delta({1: (0, 1, 0, 0), 2: (0, 0, 0, 1)})
        classes = store.classify_all()
        assert classes[1].code == "sn"
        assert classes[2].code == "nc"

    def test_exactly_at_threshold_counts(self):
        store = CounterStore(Thresholds.uniform(0.99))
        store.apply_delta({7: (0, 0, 99, 1)})
        assert store.is_forward(7)


class TestConditions:
    def make_store(self, forward_asns=(), tagger_asns=(), cleaner_asns=()):
        store = CounterStore()
        for asn in forward_asns:
            store.apply_delta({asn: (0, 0, 1, 0)})
        for asn in tagger_asns:
            store.apply_delta({asn: (1, 0, 0, 0)})
        for asn in cleaner_asns:
            store.apply_delta({asn: (0, 0, 0, 1)})
        return store

    def test_cond1_trivial_at_index_one(self):
        store = self.make_store()
        assert cond1(ASPath([1, 2, 3]), 1, store)

    def test_cond1_requires_all_upstream_forward(self):
        path = ASPath([1, 2, 3])
        assert cond1(path, 3, self.make_store(forward_asns=[1, 2]))
        assert not cond1(path, 3, self.make_store(forward_asns=[1]))
        assert not cond1(path, 3, self.make_store(forward_asns=[1], cleaner_asns=[2]))

    def test_cond2_finds_nearest_tagger(self):
        path = ASPath([1, 2, 3, 4])
        store = self.make_store(forward_asns=[2, 3], tagger_asns=[4])
        assert find_downstream_tagger(path, 1, store) == 4
        assert cond2(path, 1, store)

    def test_cond2_blocked_by_unknown_intermediate(self):
        path = ASPath([1, 2, 3, 4])
        store = self.make_store(tagger_asns=[4])
        assert find_downstream_tagger(path, 1, store) is None

    def test_cond2_tagger_right_after_index(self):
        path = ASPath([1, 2, 3])
        store = self.make_store(tagger_asns=[2])
        assert find_downstream_tagger(path, 1, store) == 2

    def test_cond2_fails_at_origin(self):
        path = ASPath([1, 2, 3])
        store = self.make_store(tagger_asns=[1, 2, 3], forward_asns=[1, 2, 3])
        assert find_downstream_tagger(path, 3, store) is None
