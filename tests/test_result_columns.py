"""The columnar :class:`ClassificationResult` against the per-AS rule.

``class_code_indices`` states Section 5.5 once over columns and every
summary of a result is one numpy pass over them.  The oracle here is the
per-AS loop of ``tests/column_oracle.py``: ``CounterStore.get_class`` /
``CounterStore.get`` per observed AS.  Results are built every way production
builds them -- from packed columns (``from_packed``, what batch and stream
column inference hand over), by the constructor, from a wire payload
(``snapshot_from_payload``), from an imported database (``to_result``) and by
the row baseline (``RowInference``) -- and each must equal the loops, its
wire payload and exported database included, byte for byte.  The rest pins
what going columnar put at risk: an emitted snapshot never moves, and row
order is ascending ASN whatever the shard count.
"""

from __future__ import annotations

import json
import pickle
import random
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from column_oracle import CounterStore, counter_state, fill_packed, result_from_store
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.announcement import PathCommTuple, RouteObservation
from repro.bgp.community import Community, CommunitySet
from repro.bgp.path import ASPath
from repro.bgp.prefix import parse_prefix
from repro.core.classes import CLASS_CODES, ForwardingClass, TaggingClass
from repro.core.counters import PackedCounterStore, class_code_indices
from repro.core.export import ClassificationDatabase, ClassificationRecord
from repro.core.results import FULL_CLASS_CODES, ClassificationResult
from repro.core.row import RowInference, prepare_tuple, row_tuple_delta
from repro.core.thresholds import Thresholds
from repro.service import SnapshotStore, snapshot_payload
from repro.service.backends.base import snapshot_from_payload
from repro.stream import MemorySource, StreamConfig, StreamEngine, WindowPolicy, WindowSpec
from repro.stream.engine import WindowSnapshot
from repro.stream.incremental import make_classifier

#: Shares that sit exactly on a threshold as ``(hit, miss, threshold)``.
ON_THRESHOLD = [(3, 1, 0.75), (99, 1, 0.99), (51, 49, 0.51), (9, 1, 0.9), (7, 0, 1.0)]
THRESHOLD_VALUES = st.one_of(
    st.sampled_from([0.51, 0.6, 0.75, 0.9, 0.99, 1.0]),
    st.floats(0.51, 1.0, allow_nan=False),
)


@st.composite
def halves(draw):
    """One ``(hit, miss)`` evidence pair: none, on a threshold, lopsided, huge."""
    kind = draw(st.sampled_from(["none", "edge", "edge", "small", "small", "huge"]))
    if kind == "none":
        return (0, 0)
    if kind == "edge":
        hit, miss, _ = draw(st.sampled_from(ON_THRESHOLD))
        scale = draw(st.sampled_from([1, 1, 7, 1 << 30]))
        pair = (hit * scale, miss * scale)
        return pair if draw(st.booleans()) else pair[::-1]
    top = 100 if kind == "small" else 1 << 40
    return (draw(st.integers(0, top)), draw(st.integers(0, top)))


QUADS = st.lists(st.tuples(halves(), halves()).map(lambda pair: (*pair[0], *pair[1])), max_size=40)
THRESHOLDS = st.builds(
    Thresholds,
    tagger=THRESHOLD_VALUES,
    silent=THRESHOLD_VALUES,
    forward=THRESHOLD_VALUES,
    cleaner=THRESHOLD_VALUES,
)


def built_ways(quads, thresholds, uncounted=0, retract=False):
    """``(store, observed, {way: result})`` over *quads*, one result per way.

    AS ``100 + 3 * i`` holds ``quads[i]``, in a shuffled slot as a table would
    intern it.  *uncounted* more ASes are observed without evidence: their
    slots lie past the packed columns, or -- with *retract* -- inside them,
    counted once and retracted to zero again.  Besides the packed columns,
    the result is built by the constructor and decoded from the oracle's
    wire payload and exported database.
    """
    counted = len(quads)
    asns = [100 + 3 * index for index in range(counted + uncounted)]
    slots = list(range(counted))
    random.Random(counted).shuffle(slots)
    slots += range(counted, counted + uncounted)
    as_values = [asn for _, asn in sorted(zip(slots, asns))]
    packed = PackedCounterStore(thresholds, slots=counted + (uncounted if retract else 0))
    store = CounterStore(thresholds)
    for asn, slot, quad in zip(asns, slots, quads):
        fill_packed(packed, {slot: quad})
        if any(quad):
            store.apply_delta({asn: quad})
    if retract:
        for slot in slots[counted:]:
            fill_packed(packed, {slot: (4, 3, 2, 1)})
            fill_packed(packed, {slot: (-4, -3, -2, -1)})
    observed = set(asns)
    counters = np.array(list(quads) + [(0, 0, 0, 0)] * uncounted, dtype=np.int64)
    return store, observed, {
        "from_packed": ClassificationResult.from_packed(packed, as_values, set(observed)),
        "constructor": ClassificationResult(asns, counters.reshape(-1, 4).T, thresholds),
        "payload": snapshot_from_payload(
            oracle_payload(store, observed, "column"), thresholds
        ).result,
        "imported": oracle_database(store, observed).to_result(thresholds),
    }


# -- the encoders, per AS over the oracle store ------------------------------------------
#: The window fields of the snapshots the encoders are held to.
WINDOW = dict(window_start=3600, window_end=7200, skipped_windows=1, events_total=9, unique_tuples=4)
CHANGED = {100: ("nn", "tf"), 7: ("sc", "nn")}


def oracle_summary(store, observed):
    """:meth:`ClassificationResult.summary`, one ``get_class`` per observed AS."""
    classes = [store.get_class(asn) for asn in observed]
    summary = {"ases_observed": len(classes)}
    for key, tagging in zip(
        ("tagger", "silent", "tagging_undecided", "tagging_none"), TaggingClass
    ):
        summary[key] = sum(cls.tagging is tagging for cls in classes)
    for key, forwarding in zip(
        ("forward", "cleaner", "forwarding_undecided", "forwarding_none"), ForwardingClass
    ):
        summary[key] = sum(cls.forwarding is forwarding for cls in classes)
    for code in FULL_CLASS_CODES:
        summary[f"full_{code}"] = sum(cls.code == code for cls in classes)
    return summary


def oracle_payload(store, observed, algorithm):
    """:func:`snapshot_payload` of a :data:`WINDOW` snapshot, one AS at a time."""
    ases = {}
    for asn in sorted(observed):
        counters = store.get(asn)
        ases[str(asn)] = {
            "code": store.get_class(asn).code,
            "counters": dict(zip(("tagger", "silent", "forward", "cleaner"), counters.as_tuple())),
            "shares": {
                "tagger": counters.tagger_share(),
                "silent": counters.silent_share(),
                "forward": counters.forward_share(),
                "cleaner": counters.cleaner_share(),
            },
        }
    summary = {
        "window_start": WINDOW["window_start"],
        "window_end": WINDOW["window_end"],
        "events_total": WINDOW["events_total"],
        "unique_tuples": WINDOW["unique_tuples"],
        "changed_ases": len(CHANGED),
        **oracle_summary(store, observed),
    }
    changed = {str(asn): list(codes) for asn, codes in sorted(CHANGED.items())}
    return {
        **WINDOW,
        "algorithm": algorithm,
        "summary": summary,
        "ases": ases,
        "changed": changed,
    }


def oracle_database(store, observed):
    """:meth:`ClassificationDatabase.from_result`, one AS at a time."""
    return ClassificationDatabase(
        {
            asn: ClassificationRecord(asn, store.get_class(asn), store.get(asn))
            for asn in sorted(observed)
        }
    )


def assert_encodes_like_the_oracle(result, store, observed):
    """Payload, text and JSON export of *result* == the per-AS encodings."""
    snapshot = WindowSnapshot(**WINDOW, result=result, changed=dict(CHANGED))
    assert json.dumps(snapshot_payload(snapshot), sort_keys=True) == json.dumps(
        oracle_payload(store, observed, result.algorithm), sort_keys=True
    )
    exported, want = ClassificationDatabase.from_result(result), oracle_database(store, observed)
    assert exported.dumps() == want.dumps()
    assert exported.to_json() == want.to_json()
    # An AS never observed reads nn and zero counters.
    for never in (0, 99, max(observed, default=0) + 1, 2**64 - 1):
        if never not in observed:
            assert result.classification_of(never).code == "nn" and result[never].code == "nn"
            assert result.counters_of(never).as_tuple() == (0, 0, 0, 0)


def assert_equals_the_loops(result, store, observed):
    """Every columnar view of *result* == the per-AS loop it replaced."""
    order = sorted(observed)
    classes = {asn: store.get_class(asn) for asn in order}
    codes = {asn: classes[asn].code for asn in order}
    assert result.as_code_map() == codes
    assert list(result.as_code_map()) == order
    assert result.records() == [
        (asn, codes[asn], *store.get(asn).as_tuple()) for asn in order
    ]
    assert result.classifications() == classes
    assert result.code_counter() == Counter(codes.values())
    tagging = {cls: 0 for cls in TaggingClass}
    forwarding = {cls: 0 for cls in ForwardingClass}
    full = {code: 0 for code in FULL_CLASS_CODES}
    for classification in classes.values():
        tagging[classification.tagging] += 1
        forwarding[classification.forwarding] += 1
        if classification.is_full:
            full[classification.code] += 1
    assert result.tagging_counts() == tagging
    assert result.forwarding_counts() == forwarding
    assert result.full_class_counts() == full
    assert result.fully_classified_ases() == {
        asn: cls for asn, cls in classes.items() if cls.is_full
    }
    summary = result.summary()
    assert summary["ases_observed"] == len(order)
    assert [summary[key] for key in ("tagger", "silent", "tagging_undecided", "tagging_none")] == [
        tagging[cls] for cls in TaggingClass
    ]
    assert [
        summary[key] for key in ("forward", "cleaner", "forwarding_undecided", "forwarding_none")
    ] == [forwarding[cls] for cls in ForwardingClass]
    assert {code: summary[f"full_{code}"] for code in FULL_CLASS_CODES} == full
    for code in set(codes.values()) | {"tf"}:
        assert result.ases_with_class(code) == [asn for asn in order if codes[asn] == code]
    for cls in TaggingClass:
        assert result.ases_with_tagging(cls) == [a for a in order if classes[a].tagging is cls]
    for cls in ForwardingClass:
        assert result.ases_with_forwarding(cls) == [
            a for a in order if classes[a].forwarding is cls
        ]
    # Per-AS access (a binary search into the columns) agrees too.
    assert counter_state(result) == store.state_dict()
    for asn in order[:5]:
        assert result.classification_of(asn) == classes[asn]
        assert result.counters_of(asn).as_tuple() == store.get(asn).as_tuple()
    assert result.classification_of(99).code == "nn"


class TestVectorisedRule:
    @settings(max_examples=300, deadline=None)
    @given(
        quads=QUADS,
        thresholds=THRESHOLDS,
        uncounted=st.integers(0, 3),
        retract=st.booleans(),
    )
    def test_columns_equal_the_per_as_loops(self, quads, thresholds, uncounted, retract):
        store, observed, results = built_ways(quads, thresholds, uncounted, retract)
        for result in results.values():
            assert_equals_the_loops(result, store, observed)
            assert_encodes_like_the_oracle(result, store, observed)
            assert result.thresholds == thresholds

    @settings(max_examples=100, deadline=None)
    @given(
        paths=st.lists(
            st.tuples(
                st.lists(st.integers(1, 12), min_size=1, max_size=5),
                st.lists(st.integers(1, 14), max_size=4),
            ),
            max_size=30,
        ),
        thresholds=THRESHOLDS,
    )
    def test_the_row_baseline_equals_the_per_as_loops(self, paths, thresholds):
        """``RowInference`` sums one delta and builds its result from it; the
        oracle applies each tuple's delta to a store and reads it AS by AS."""
        tuples = [
            PathCommTuple(ASPath(asns), CommunitySet(Community(upper, 1) for upper in uppers))
            for asns, uppers in paths
        ]
        store = CounterStore(thresholds)
        for item in tuples:
            store.apply_delta(row_tuple_delta(prepare_tuple(item)))
        observed = {asn for asns, _ in paths for asn in asns}
        result = RowInference(thresholds).run(tuples)
        assert result.algorithm == "row" and result.observed_ases == observed
        assert_equals_the_loops(result, store, observed)
        assert_encodes_like_the_oracle(result, store, observed)

    @settings(max_examples=200, deadline=None)
    @given(quads=QUADS, thresholds=THRESHOLDS)
    def test_code_index_equals_get_class(self, quads, thresholds):
        store = CounterStore(thresholds)
        store.apply_delta(dict(enumerate(quads)))
        columns = np.array(quads, dtype=np.int64).reshape(-1, 4).T
        indices = class_code_indices(columns, thresholds)
        assert indices.dtype == np.uint8
        assert [CLASS_CODES[index] for index in indices.tolist()] == [
            store.get_class(asn).code for asn in range(len(quads))
        ]

    def test_all_sixteen_codes_and_every_edge(self):
        """tagger / silent / undecided / none x forward / cleaner / undecided / none,
        with every decided share sitting exactly on its threshold."""
        thresholds = Thresholds(tagger=0.75, silent=0.99, forward=0.9, cleaner=0.51)
        tagging = {"t": (3, 1), "s": (1, 99), "u": (74, 26), "n": (0, 0)}
        forwarding = {"f": (9, 1), "c": (49, 51), "u": (89, 11), "n": (0, 0)}
        quads = [(*tagging[t], *forwarding[f]) for t in "tsun" for f in "fcun"]
        store, observed, results = built_ways(quads, thresholds)
        want = [t + f for t in "tsun" for f in "fcun"]
        assert list(CLASS_CODES) == want
        for result in results.values():
            assert list(result.as_code_map().values()) == want
            assert_equals_the_loops(result, store, observed)
            assert_encodes_like_the_oracle(result, store, observed)
        # One below each threshold is undecided.
        below = [(74, 26, 0, 0), (1, 98, 0, 0), (0, 0, 89, 11), (0, 0, 50, 50)]
        for result in built_ways(below, thresholds)[2].values():
            assert list(result.as_code_map().values()) == ["un", "un", "nu", "nu"]

    def test_the_hit_side_is_tested_first(self):
        """Valid thresholds (> 0.5) make tagger and silent exclusive, so the order
        of the two tests only shows outside that domain: at 0.5 a 1 : 1 split
        meets both, and ``get_tagging`` / ``get_forwarding`` answer tagger / forward."""
        halfway = SimpleNamespace(tagger=0.5, silent=0.5, forward=0.5, cleaner=0.5)
        store = CounterStore(halfway)
        store.apply_delta({1: (2, 2, 5, 5)})
        assert store.get_class(1).code == "tf"
        columns = np.array([[2], [2], [5], [5]], dtype=np.int64)
        assert CLASS_CODES[class_code_indices(columns, halfway)[0]] == "tf"

    def test_empty_results(self):
        for result in (
            result_from_store(CounterStore()),
            ClassificationResult([], np.zeros((4, 0), dtype=np.int64), Thresholds()),
            ClassificationResult.from_packed(PackedCounterStore(), [], set()),
            ClassificationResult.from_packed(PackedCounterStore(slots=2), [7, 8], set()),
        ):
            assert result.as_code_map() == {} and result.records() == []
            assert result.summary()["ases_observed"] == 0 and len(result) == 0
            assert sum(result.tagging_counts().values()) == 0
            assert counter_state(result) == {}
            assert result.classification_of(1).code == "nn"
            assert result.counters_of(1).as_tuple() == (0, 0, 0, 0)

    def test_observed_slots_past_the_packed_columns_read_zero(self):
        """ASes interned after the counters were last sized (pending arrivals)."""
        packed = PackedCounterStore(slots=1)
        fill_packed(packed, {0: [5, 0, 0, 0]})
        result = ClassificationResult.from_packed(packed, [20, 10, 30], {10, 20, 30})
        assert result.records() == [
            (10, "nn", 0, 0, 0, 0), (20, "tn", 5, 0, 0, 0), (30, "nn", 0, 0, 0, 0)
        ]
        assert counter_state(result) == {20: (5, 0, 0, 0)}

    def test_a_result_pickles_as_its_columns(self):
        """The pickled state is the ``_columns`` triple plus three plain fields.
        An experiments ``--cache-dir`` pickle whose ``__dict__`` also carries
        ``_store`` (``None`` on a packed-built result) still loads."""
        result = built_ways([(3, 1, 0, 2), (0, 0, 0, 0), (1, 99, 5, 0)], Thresholds(), 1)[2][
            "from_packed"
        ]
        assert set(vars(result)) == {"_columns", "observed_ases", "algorithm", "thresholds"}
        assert views(pickle.loads(pickle.dumps(result))) == views(result)
        older = ClassificationResult.__new__(ClassificationResult)
        older.__dict__.update(vars(result), _store=None)
        restored = pickle.loads(pickle.dumps(older, protocol=pickle.HIGHEST_PROTOCOL))
        assert views(restored) == views(result)
        assert restored.classification_of(100).code == result.classification_of(100).code


def feed(seed=3, windows=12, per_window=25):
    """A feed whose every window interns new ASes and lets old tuples expire."""
    rng = random.Random(seed)
    events = []
    for window in range(windows):
        base = 10 + 4 * window  # the AS population drifts upwards
        for step in range(per_window):
            asns = rng.sample(range(base, base + 12), rng.randint(1, 4))
            tagging = [asn for asn in asns if asn % 2 == 0 and rng.random() < 0.9]
            events.append(
                RouteObservation(
                    collector="rrc00",
                    peer_asn=asns[0],
                    prefix=parse_prefix("8.8.8.0/24"),
                    path=ASPath(asns),
                    communities=CommunitySet([Community(asn, 1) for asn in tagging]),
                    timestamp=100 * window + 4 * step,
                )
            )
    return events


def views(result):
    """Everything a consumer may read off a result, as plain data."""
    return (
        result.as_code_map(),
        result.records(),
        result.summary(),
        counter_state(result),
        set(result.observed_ases),
    )


SLIDING = WindowSpec(size=100, policy=WindowPolicy.SLIDING, horizon=300)


class TestSnapshotsDoNotMove:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_an_emitted_snapshot_is_final(self, shards):
        """Later windows intern new ASes, change counters and evict tuples."""
        emitted = []
        engine = StreamEngine(
            StreamConfig(window=SLIDING, shards=shards),
            on_window=lambda snapshot: emitted.append(views(snapshot.result)),
        )
        engine.run(MemorySource(feed()))
        assert len(emitted) == len(engine.snapshots) >= 10
        assert engine.stats.tuples_evicted > 50
        assert len({len(view[1]) for view in emitted}) > 1  # the AS set did move
        assert [views(snapshot.result) for snapshot in engine.snapshots] == emitted

        # A second run reads nothing at emission: every view is first
        # touched after the last window closed.
        late = StreamEngine(StreamConfig(window=SLIDING, shards=shards))
        late.run(MemorySource(feed()))
        assert [views(snapshot.result) for snapshot in late.snapshots] == emitted

    def test_a_result_survives_its_classifier(self):
        events = feed(windows=4)
        classifier = make_classifier("column")
        refs = [classifier.table.intern(event.path, event.communities) for event in events]
        refs = list(dict.fromkeys(refs))
        for ref in refs[:40]:
            classifier.add_ref(ref)
        result = classifier.update()
        held, untouched = views(result), classifier.update()
        for ref in refs[40:]:
            classifier.add_ref(ref)  # new ASes: the table's AS array grows
        classifier.evict_refs(refs[:30])
        moved = classifier.update()
        assert views(moved) != held
        assert views(result) == held
        assert views(untouched) == held  # first read here


class TestRowOrder:
    def test_records_are_in_ascending_asn_order_whatever_the_shard_count(self):
        events = feed(seed=9)
        rows = {}
        for shards in (1, 3, 8):
            engine = StreamEngine(StreamConfig(window=SLIDING, shards=shards))
            engine.run(MemorySource(events))
            rows[shards] = [snapshot.result.records() for snapshot in engine.snapshots]
            for snapshot, records in zip(engine.snapshots, rows[shards]):
                asns = [record[0] for record in records]
                assert asns == sorted(snapshot.result.observed_ases)
                assert list(snapshot.result.as_code_map()) == asns
            assert list(engine.state_dict()["last_codes"]) == asns
        assert rows[1] == rows[3] == rows[8]


class TestWireFormat:
    def test_payload_and_store_round_trip_of_a_packed_built_snapshot(self):
        """A snapshot over packed columns serialises exactly like the same
        snapshot lowered from the oracle store, and survives a backend unchanged."""
        engine = StreamEngine(StreamConfig(window=SLIDING))
        engine.run(MemorySource(feed(windows=5)))
        store = SnapshotStore(":memory:")
        for snapshot in engine.snapshots:
            rebuilt = result_from_store(
                CounterStore.from_state(counter_state(snapshot.result), snapshot.result.thresholds),
                snapshot.result.observed_ases,
                algorithm=snapshot.result.algorithm,
            )
            want = json.dumps(snapshot_payload(snapshot))
            snapshot_id = store.append_snapshot(snapshot)
            assert json.dumps(snapshot_payload(store.load_snapshot(snapshot_id))) == want
            snapshot.result = rebuilt
            assert json.dumps(snapshot_payload(snapshot)) == want
