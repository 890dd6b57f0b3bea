"""The columnar :class:`ClassificationResult` against the per-AS rule.

``class_code_indices`` states Section 5.5 once over columns and every
summary of a result is one numpy pass over them.  The oracle here is the
loop they replaced: ``CounterStore.get_class`` / ``CounterStore.get`` per
observed AS.  Results are built both ways -- from packed columns
(``from_packed``, what batch and stream column inference hand over) and from an object
``CounterStore`` (row batch, imported databases, stored snapshots) -- and
both must equal the loops.  The rest pins what going lazy put at risk: an
emitted snapshot never moves, and row order is ascending ASN whatever the
shard count.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.announcement import RouteObservation
from repro.bgp.community import Community, CommunitySet
from repro.bgp.path import ASPath
from repro.bgp.prefix import parse_prefix
from repro.core.classes import CLASS_CODES, ForwardingClass, TaggingClass
from repro.core.counters import CounterStore, PackedCounterStore, class_code_indices
from repro.core.results import FULL_CLASS_CODES, ClassificationResult
from repro.core.thresholds import Thresholds
from repro.service import SnapshotStore, snapshot_payload
from repro.stream import MemorySource, StreamConfig, StreamEngine, WindowPolicy, WindowSpec
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


def both_ways(quads, thresholds, uncounted=0, retract=False):
    """``(store, observed, packed-built result, store-built result)`` over *quads*.

    AS ``100 + 3 * i`` holds ``quads[i]``, in a shuffled slot as a table would
    intern it.  *uncounted* more ASes are observed without evidence: their
    slots lie past the packed columns, or -- with *retract* -- inside them,
    counted once and retracted to zero again.
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
        packed.apply_delta({slot: quad})
        if any(quad):
            store.apply_delta({asn: quad})
    if retract:
        for slot in slots[counted:]:
            packed.apply_delta({slot: (4, 3, 2, 1)})
            packed.apply_delta({slot: (-4, -3, -2, -1)})
    observed = set(asns)
    return (
        store,
        observed,
        ClassificationResult.from_packed(packed, as_values, set(observed)),
        ClassificationResult(store=store, observed_ases=set(observed)),
    )


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
    # Per-AS access (the lazily built object store) agrees too.
    assert result.store.state_dict() == store.state_dict()
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
        store, observed, from_packed, from_store = both_ways(
            quads, thresholds, uncounted, retract
        )
        assert_equals_the_loops(from_packed, store, observed)
        assert_equals_the_loops(from_store, store, observed)
        assert from_packed.thresholds == from_store.thresholds == thresholds

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
        store, observed, from_packed, from_store = both_ways(quads, thresholds)
        want = [t + f for t in "tsun" for f in "fcun"]
        assert list(CLASS_CODES) == want
        for result in (from_packed, from_store):
            assert list(result.as_code_map().values()) == want
            assert_equals_the_loops(result, store, observed)
        # One below each threshold is undecided.
        below = [(74, 26, 0, 0), (1, 98, 0, 0), (0, 0, 89, 11), (0, 0, 50, 50)]
        assert list(both_ways(below, thresholds)[2].as_code_map().values()) == [
            "un", "un", "nu", "nu"
        ]

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
            ClassificationResult(CounterStore()),
            ClassificationResult.from_packed(PackedCounterStore(), [], set()),
            ClassificationResult.from_packed(PackedCounterStore(slots=2), [7, 8], set()),
        ):
            assert result.as_code_map() == {} and result.records() == []
            assert result.summary()["ases_observed"] == 0 and len(result) == 0
            assert sum(result.tagging_counts().values()) == 0
            assert len(result.store) == 0

    def test_observed_slots_past_the_packed_columns_read_zero(self):
        """ASes interned after the counters were last sized (pending arrivals)."""
        packed = PackedCounterStore(slots=1)
        packed.apply_delta({0: [5, 0, 0, 0]})
        result = ClassificationResult.from_packed(packed, [20, 10, 30], {10, 20, 30})
        assert result.records() == [
            (10, "nn", 0, 0, 0, 0), (20, "tn", 5, 0, 0, 0), (30, "nn", 0, 0, 0, 0)
        ]
        assert result.store.state_dict() == {20: (5, 0, 0, 0)}


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
        result.store.state_dict(),
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

        # A second run reads nothing at emission: every view, the object
        # store included, is first touched after the last window closed.
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
        assert views(untouched) == held  # its store is first built here


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
        snapshot over an object store, and survives a backend unchanged."""
        engine = StreamEngine(StreamConfig(window=SLIDING))
        engine.run(MemorySource(feed(windows=5)))
        store = SnapshotStore(":memory:")
        for snapshot in engine.snapshots:
            rebuilt = ClassificationResult(
                store=CounterStore.from_state(
                    {record[0]: record[2:] for record in snapshot.result.records() if any(record[2:])},
                    snapshot.result.thresholds,
                ),
                observed_ases=set(snapshot.result.observed_ases),
                algorithm=snapshot.result.algorithm,
            )
            want = json.dumps(snapshot_payload(snapshot))
            snapshot_id = store.append_snapshot(snapshot)
            assert json.dumps(snapshot_payload(store.load_snapshot(snapshot_id))) == want
            snapshot.result = rebuilt
            assert json.dumps(snapshot_payload(snapshot)) == want
