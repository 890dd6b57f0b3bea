"""The columnar turnover against the per-tuple path it replaced.

Since PR 24 a window's signed turnover stays columns from the engine to the
kernels: the column classifier keeps its live per-AS / per-length counts as
int64 columns brought up to date by two ``bincount``s per ``update()``, and a
group set the numpy kernels will take is lowered straight into matrix buckets
from one ragged gather over the table's packed paths.  The code this
displaced lives on here as the oracle:

* :class:`RefOracle` is the parent's ``_queue``: five dict updates per tuple,
  one per AS on its path (``_add_refs``);
* ``tuple_lowering`` is a ``(row, hits, count)`` tuple per group, regrouped
  by length and unpacked bit by bit (``column_oracle.group_matrix``).

Two deliberate mutations must each fail this file: dropping the ``weights=``
multiplicity of the per-AS ``bincount`` (``_fold_counts``), and leaving the
cached matrix as it was instead of concatenating the turnover onto it
(``cache.extend(pending)`` in ``update()``).
"""

from __future__ import annotations

import pickle
import random
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from column_oracle import (
    ListingInference,
    assert_same_result,
    canonical,
    count_forwarding_groups,
    count_tagging_groups,
    counter_state,
    flag_vector,
    group_matrix,
    nonzero,
    pair_dict,
)
from stream_oracle import engine_windows, reference_windows

from repro.bgp.announcement import PathCommTuple, RouteObservation
from repro.bgp.community import Community, CommunitySet
from repro.bgp.path import ASPath
from repro.bgp.prefix import parse_prefix
from repro.core.column import count_forwarding_phase_packed, count_tagging_phase_packed
from repro.core.matrix import GroupMatrix
from repro.core.thresholds import Thresholds
from repro.core.tuples import TupleTable, materialize_groups
from repro.stream import MemorySource, StreamConfig, StreamEngine, WindowPolicy, WindowSpec
from repro.stream.incremental import (
    _CACHE_COMPACTION_FACTOR,
    PackedPhaseRecord,
    classifier_from_state,
    make_classifier,
)

ASES = list(range(1, 9))


def make_tuple(asns, tagging, value=1):
    """A tuple over *asns* carrying a community of each AS in *tagging*."""
    return PathCommTuple(
        ASPath(asns), CommunitySet([Community(asn, value) for asn in tagging])
    )


# -- the per-tuple oracle -----------------------------------------------------------------
def _add_refs(refs, asns, count):
    """The parent's signed per-AS reference count: a key leaves at zero."""
    for asn in asns:
        total = refs.get(asn, 0) + count
        if total:
            refs[asn] = total
        else:
            del refs[asn]


class RefOracle:
    """What the parent's per-tuple ``_queue`` kept, one dict update at a time."""

    def __init__(self):
        self.as_refs = {}
        self.length_refs = {}
        self.tuple_count = 0
        self.live = {}

    def queue(self, item, count):
        asns = item.path.asns
        _add_refs(self.as_refs, asns, count)
        _add_refs(self.length_refs, [len(asns)], count)
        self.tuple_count += count
        if count > 0:
            self.live[item] = None
        else:
            del self.live[item]


def assert_matches_oracle(classifier, oracle):
    """Every observation point between arrivals and ``update()``."""
    state = classifier.state_dict()
    assert state["as_refs"] == oracle.as_refs
    assert state["length_refs"] == oracle.length_refs
    assert all(type(value) is int for value in [*state["as_refs"], *state["as_refs"].values()])
    assert all(type(v) is int for v in [*state["length_refs"], *state["length_refs"].values()])
    assert state["tuple_count"] == classifier.tuple_count == oracle.tuple_count
    result = classifier.result()
    assert result.observed_ases == set(oracle.as_refs)
    assert sorted(result.as_code_map()) == sorted(oracle.as_refs)


def assert_update_equals_batch(classifier, oracle, **options):
    batch = ListingInference(classifier.thresholds, **options)
    want = batch.run(list(oracle.live))
    assert_same_result(classifier.update(), want)
    assert classifier.report == batch.report
    if not options.get("stop_when_stalled", True) and options.get("max_columns") is None:
        # The column limit is the highest live path length.
        assert classifier.report.columns_processed == max(oracle.length_refs, default=0)
    assert_matches_oracle(classifier, oracle)
    assert_same_result(classifier.result(), want)


def roundtrip(classifier):
    """The classifier restored from a pickled checkpoint of itself."""
    state = pickle.loads(pickle.dumps(classifier.state_dict()))
    table = TupleTable.from_state(pickle.loads(pickle.dumps(classifier.table.state_dict())))
    return classifier_from_state(state, table)


@st.composite
def tuples(draw):
    asns = draw(st.lists(st.sampled_from(ASES), min_size=1, max_size=6, unique=True))
    # 99 is on no path: a tuple with it and one without share (path, hits),
    # i.e. one group of multiplicity 2.
    tagging = draw(st.lists(st.sampled_from(asns + [99]), max_size=3, unique=True))
    return make_tuple(asns, tagging)


#: ``("add_refs", indices)`` / ``("add_ref", index)`` / ``("evict_refs",
#: indices)`` name pool entries (skipped when already live / not live).
OPS = st.one_of(
    st.tuples(st.just("add_refs"), st.lists(st.integers(0, 23), max_size=8, unique=True)),
    st.tuples(st.just("add_ref"), st.integers(0, 23)),
    st.tuples(st.just("evict_refs"), st.lists(st.integers(0, 23), max_size=8, unique=True)),
    st.tuples(st.sampled_from(["update", "checkpoint", "clear"]), st.none()),
)


class TestReferenceColumnsEqualThePerTupleDicts:
    @settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        pool=st.lists(tuples(), min_size=1, max_size=24, unique=True),
        ops=st.lists(OPS, max_size=40),
        stop_when_stalled=st.booleans(),
        max_columns=st.sampled_from([None, 2]),
    )
    def test_interleaved_sequences(self, pool, ops, stop_when_stalled, max_columns):
        options = {"stop_when_stalled": stop_when_stalled, "max_columns": max_columns}
        classifier = make_classifier("column", Thresholds.uniform(0.75), **options)
        oracle = RefOracle()
        for name, argument in [*ops, ("update", None)]:
            if name == "update":
                assert_update_equals_batch(classifier, oracle, **options)
                continue
            if name == "checkpoint":
                classifier = roundtrip(classifier)
            elif name == "clear":
                items = list(oracle.live)
                classifier.evict_refs([classifier.table.intern_tuple(i) for i in items])
                for item in items:
                    oracle.queue(item, -1)
            elif name == "evict_refs":
                items = [pool[i % len(pool)] for i in argument]
                items = [item for item in dict.fromkeys(items) if item in oracle.live]
                classifier.evict_refs([classifier.table.intern_tuple(i) for i in items])
                for item in items:
                    oracle.queue(item, -1)
            else:
                indices = argument if name == "add_refs" else [argument]
                items = [pool[i % len(pool)] for i in indices]
                items = [item for item in dict.fromkeys(items) if item not in oracle.live]
                refs = [classifier.table.intern_tuple(item) for item in items]
                if name == "add_refs":
                    classifier.add_refs(refs)
                else:
                    for ref in refs:
                        classifier.add_ref(ref)
                for item in items:
                    oracle.queue(item, 1)
            assert_matches_oracle(classifier, oracle)

    def test_a_multiplicity_two_group_counts_twice_per_as(self):
        """Two tuples of one ``(path, hits)`` group: every AS on the path has 2."""
        classifier = make_classifier("column")
        oracle = RefOracle()
        pair = [make_tuple([1, 2, 3], [2]), make_tuple([1, 2, 3], [2, 99])]
        classifier.add_refs([classifier.table.intern_tuple(item) for item in pair])
        for item in pair:
            oracle.queue(item, 1)
        assert list(classifier._pending_groups.values()) == [2]
        assert_matches_oracle(classifier, oracle)
        assert_update_equals_batch(classifier, oracle)
        assert classifier.state_dict()["as_refs"] == {1: 2, 2: 2, 3: 2}
        assert classifier.state_dict()["length_refs"] == {3: 2}

    def test_arrival_and_eviction_of_one_group_cancel(self):
        classifier = make_classifier("column")
        oracle = RefOracle()
        kept, gone = make_tuple([4, 5], [5]), make_tuple([6, 7, 8], [])
        for item in (kept, gone):
            classifier.add_tuple(item)
            oracle.queue(item, 1)
        classifier.evict_refs([classifier.table.intern_tuple(gone)])
        oracle.queue(gone, -1)
        assert len(classifier._pending_groups) == 1  # cancelled without a trace
        assert_matches_oracle(classifier, oracle)
        assert_update_equals_batch(classifier, oracle)
        assert classifier.result().observed_ases == {4, 5}

    def test_empty_turnover_and_everything_evicted(self):
        classifier = make_classifier("column", stop_when_stalled=False)
        oracle = RefOracle()
        assert_update_equals_batch(classifier, oracle, stop_when_stalled=False)  # nothing, ever
        items = [make_tuple([1, 2, 3, 4], [4]), make_tuple([2, 3], [3])]
        for item in items:
            classifier.add_tuple(item)
            oracle.queue(item, 1)
        assert_update_equals_batch(classifier, oracle, stop_when_stalled=False)
        assert_update_equals_batch(classifier, oracle, stop_when_stalled=False)  # empty turnover
        classifier.evict_refs([classifier.table.intern_tuple(items[0])])
        oracle.queue(items[0], -1)
        assert_update_equals_batch(classifier, oracle, stop_when_stalled=False)  # limit shrinks
        assert classifier.report.columns_processed == 2
        classifier.evict_refs([classifier.table.intern_tuple(items[1])])
        oracle.queue(items[1], -1)
        assert_update_equals_batch(classifier, oracle, stop_when_stalled=False)
        assert classifier.state_dict()["as_refs"] == {} == classifier.state_dict()["length_refs"]
        assert classifier.result().observed_ases == set()
        assert classifier.report.columns_processed == 0
        assert_update_equals_batch(roundtrip(classifier), oracle, stop_when_stalled=False)

    def test_a_restored_classifier_does_not_fold_its_pending_turnover_twice(self):
        classifier = make_classifier("column")
        oracle = RefOracle()
        for asns in ([1, 2], [1, 2, 3], [3, 1]):
            classifier.add_tuple(make_tuple(asns, asns[-1:]))
            oracle.queue(make_tuple(asns, asns[-1:]), 1)
        classifier.update()
        late = make_tuple([1, 2, 3, 4, 5], [5])
        classifier.add_tuple(late)
        classifier.evict_refs([classifier.table.intern_tuple(make_tuple([1, 2], [2]))])
        oracle.queue(late, 1)
        oracle.queue(make_tuple([1, 2], [2]), -1)
        restored = roundtrip(classifier)  # mid-window: the pending groups are not empty
        assert restored._pending_groups
        for candidate in (classifier, restored):
            assert_matches_oracle(candidate, oracle)
        for candidate in (classifier, restored):
            assert_update_equals_batch(candidate, oracle)
        assert pickle.dumps(restored.state_dict()["as_refs"]) == pickle.dumps(
            classifier.state_dict()["as_refs"]
        )


# -- the lowering ---------------------------------------------------------------------------
def row_of(table, path_id):
    """The AS-index row of an interned path, read through the ASN symbols."""
    return tuple(map(table.intern_asn, table.path_of(path_id).asns))


def counting_groups(table, counts):
    """``(row, hits, count)`` per ``(path_id, hits) -> count`` aggregate."""
    return [(row_of(table, path_id), hits, n) for (path_id, hits), n in counts.items()]


def tuple_lowering(table, counts):
    """A Python tuple per group, regrouped by length and unpacked bit by bit."""
    return group_matrix(counting_groups(table, counts))


def group_counts(table, rng, count, lengths, *, ases=400):
    """*count* distinct ``(path_id, hits) -> multiplicity`` groups over random paths."""
    counts = {}
    while len(counts) < count:
        asns = rng.sample(range(1, ases), rng.choice(lengths))
        tagging = [asn for asn in asns if rng.random() < 0.3]
        ref = table.intern_tuple(make_tuple(asns, tagging))
        counts[(ref[0], table.hits_of(*ref))] = rng.choice([1, 1, 2, 3, -1, -2])
    return counts


class TestNumpyLoweringEqualsTupleLowering:
    @pytest.mark.parametrize("count", [1, 10, 511, 513])
    def test_lowering_equals_the_tuple_lowering(self, count):
        table = TupleTable()
        counts = group_counts(table, random.Random(count), count, [1, 2, 3, 5, 8])
        lowered = materialize_groups(table, counts)
        assert isinstance(lowered, GroupMatrix)
        assert len(lowered) == count and bool(lowered)
        assert canonical(lowered) == canonical(tuple_lowering(table, counts))

    def test_long_paths_mixed_into_one_turnover(self):
        """Paths past 63 hops are bucket rows like any other: hits past bit 63 too."""
        table = TupleTable()
        rng = random.Random(62)
        counts = group_counts(table, rng, 600, [2, 4, 61, 62, 63, 64, 65, 130], ases=200)
        lowered = materialize_groups(table, counts)
        assert set(lowered.buckets) == {8, 64, 128, 256}
        assert lowered.buckets[256][1][64:].any()  # past an int64 mask
        assert canonical(lowered) == canonical(tuple_lowering(table, counts))
        assert lowered.max_length == 130 and len(lowered) == 600
        assert canonical(GroupMatrix()) == canonical(materialize_groups(table, {})) == {}
        assert GroupMatrix().max_length == 0 and len(GroupMatrix()) == 0

    def test_the_gather_matches_the_rows_whatever_the_id_order(self):
        table = TupleTable()
        counts = group_counts(table, random.Random(5), 40, [1, 3, 7])
        path_ids = [path_id for path_id, _ in counts][::-1] * 2  # repeated, descending
        lengths, cells = table.path_cells(path_ids)
        assert lengths.tolist() == [len(row_of(table, path_id)) for path_id in path_ids]
        assert cells.tolist() == [index for p in path_ids for index in row_of(table, p)]
        lengths, cells = table.path_cells([])
        assert lengths.tolist() == [] == cells.tolist()
        lengths, cells = TupleTable().path_cells([])
        assert lengths.tolist() == [] == cells.tolist()

    @pytest.mark.parametrize("small_first", [True, False])
    def test_extend_folds_a_turnover_into_the_cache(self, small_first):
        """A small cache takes a large turnover, and the reverse."""
        table = TupleTable()
        rng = random.Random(9)
        small = group_counts(table, rng, 40, [1, 2, 3, 5])
        large = group_counts(table, rng, 700, [1, 2, 3, 5, 64])
        first, second = (small, large) if small_first else (large, small)
        cache = materialize_groups(table, first)
        cache.extend(materialize_groups(table, second))
        assert len(cache) == len(first) + len(second)
        want = tuple_lowering(table, first)
        want.extend(tuple_lowering(table, second))
        assert canonical(cache) == canonical(want)
        # ... and the kernels read the merged cache like the group loops read the tuples.
        everything = counting_groups(table, first) + counting_groups(table, second)
        tagger = [rng.randint(0, 1) for _ in range(table.as_count)]
        forward = flag_vector(max(t, rng.randint(0, 1)) for t in tagger)
        tagger = flag_vector(tagger)
        for kernel, reference in (
            (count_tagging_phase_packed, count_tagging_groups),
            (count_forwarding_phase_packed, count_forwarding_groups),
        ):
            for column in (1, 2, 4):
                want = reference(everything, column, tagger, forward)
                assert pair_dict(kernel(cache, column, tagger, forward)) == nonzero(want)


# -- buffers ----------------------------------------------------------------------------------
class TestNoBufferStaysExported:
    """A live ``frombuffer`` view of a table array would make the next append
    raise ``BufferError: cannot resize an array that is exporting buffers``."""

    @staticmethod
    def fresh(rng, base):
        asns = [base + step for step in range(rng.randint(2, 6))]  # new ASes, new path
        return make_tuple(asns, asns[-1:])

    def test_update_result_intern_update(self):
        rng = random.Random(11)
        classifier = make_classifier("column")
        live = [self.fresh(rng, 10 * step) for step in range(1, 40)]
        for item in live:
            classifier.add_tuple(item)
        held = classifier.update()
        again = classifier.result()
        state = pickle.dumps(classifier.state_dict())
        frozen = (held.as_code_map(), held.records(), counter_state(held))
        # The table grows under everything that was handed out.
        grown = [self.fresh(rng, 1000 + 10 * step) for step in range(1, 40)]
        for item in grown:
            classifier.add_tuple(item)  # BufferError here if a view were still alive
        classifier.evict_refs([classifier.table.intern_tuple(item) for item in live[:5]])
        classifier.state_dict()
        classifier.result()
        for item in grown[:3]:
            classifier.table.intern_tuple(self.fresh(rng, 5000 + item.path.asns[0]))
        assert (held.as_code_map(), held.records(), counter_state(held)) == frozen
        assert again.as_code_map() == frozen[0]
        restored = classifier_from_state(
            pickle.loads(state), TupleTable.from_state(classifier.table.state_dict())
        )
        assert restored.result().as_code_map() == frozen[0]
        assert_same_result(classifier.update(), ListingInference().run(live[5:] + grown))
        assert (held.as_code_map(), held.records(), counter_state(held)) == frozen

    def test_a_held_matrix_and_gather_survive_table_growth(self):
        table = TupleTable()
        rng = random.Random(13)
        counts = group_counts(table, rng, 600, [1, 2, 3, 5, 64])
        lowered = materialize_groups(table, counts)
        lengths, cells = table.path_cells([path_id for path_id, _ in counts])
        frozen = (canonical(lowered), lengths.tobytes(), cells.tobytes())
        for arrays in lowered.buckets.values():
            assert all(array.base is None or array.base.base is None for array in arrays)
        group_counts(table, rng, 300, [2, 6], ases=4000)  # appends to every packed array
        assert (canonical(lowered), lengths.tobytes(), cells.tobytes()) == frozen


# -- the engine, window by window ---------------------------------------------------------
class TestEngineWindowsAcrossACompaction:
    """Sliding windows whose cache grows, compacts and regrows, against the oracle."""

    @staticmethod
    def feed(windows=7, per_window=560, seed=41):
        rng = random.Random(seed)
        pool = {}
        while len(pool) < 2200:
            asns = rng.sample(range(1, 70), rng.randint(1, 6))
            tagging = [asn for asn in asns if asn % 2 == 0 and rng.random() < 0.9]
            pool[make_tuple(asns, tagging, value=rng.randint(1, 2))] = None
        pool = list(pool)
        events = []
        for window in range(windows):
            for step, item in enumerate(rng.sample(pool, per_window)):
                events.append(
                    RouteObservation(
                        collector="rrc00",
                        peer_asn=item.path.asns[0],
                        prefix=parse_prefix("8.8.8.0/24"),
                        path=item.path,
                        communities=item.communities,
                        timestamp=1000 * window + step,
                    )
                )
        return events

    @pytest.mark.parametrize("shards", [1, 4])
    def test_windows_equal_the_oracle(self, shards):
        events = self.feed()
        spec = WindowSpec(size=1000, policy=WindowPolicy.SLIDING, horizon=2000)
        engine = StreamEngine(StreamConfig(window=spec, shards=shards))
        seen = []

        def on_window(_snapshot):
            classifier = engine.classifier
            cache = classifier._counted_cache
            seen.append((cache, None if cache is None else len(cache), len(classifier._groups)))

        engine.on_window = on_window
        result = engine.run(MemorySource(events))
        windows, _ = reference_windows(events, spec)
        assert engine_windows(engine) == windows
        assert result is engine.snapshots[-1].result  # the final flush builds one result
        # The cache took the turnover's rows, and the compaction rule read
        # its group count.
        caches = [cache for cache, _, _ in seen]
        assert all(cache is None or isinstance(cache, GroupMatrix) for cache in caches)
        assert any(size is not None and size > groups for _, size, groups in seen)
        for cache, size, groups in seen:
            assert size is None or size <= _CACHE_COMPACTION_FACTOR * groups
        assert any(
            before is not None and after is not before for before, after in zip(caches, caches[1:])
        )


# -- checkpoint format 3: the phase deltas ------------------------------------------------------
def parent_form(record, as_count):
    """*record* as a checkpoint of the dict-delta classifier holds it: the delta a
    ``{slot: [a, b]}`` dict in merge order, where a pair cancelled to ``[0, 0]``
    may stay behind, and the decisions the stripped bytes of ``bytearray`` flags."""
    delta = {slot: list(pair) for slot, pair in reversed(list(record.delta.items()))}
    cancelled = [slot for slot in range(as_count) if slot not in delta]
    if cancelled:
        delta[cancelled[0]] = [0, 0]
    decisions = tuple(bytes(bytearray(list(key))).rstrip(b"\x00") for key in record.decisions)
    return PackedPhaseRecord(decisions=decisions, delta=delta, increments=record.increments)


class TestCheckpointPhaseDeltas:
    """Checkpoints hold each phase record's delta as ``{slot: [a, b]}`` over its
    non-zero slots; a restore densifies it, whoever wrote it."""

    SPEC = WindowSpec(size=1000, policy=WindowPolicy.SLIDING, horizon=2000)

    def test_a_dict_delta_state_resumes_to_the_same_windows(self):
        events = TestEngineWindowsAcrossACompaction.feed(windows=6, per_window=300)
        cut = 3 * 300 + 120  # mid-window, after evictions
        engine = StreamEngine(StreamConfig(window=self.SPEC))
        engine.ingest_block(events[:cut])
        state = pickle.loads(pickle.dumps(engine.state_dict()))
        as_count = engine.classifier.table.as_count
        classifier = state["classifier"]
        for name in ("tagging_records", "forwarding_records"):
            assert classifier[name]
            classifier[name] = [parent_form(record, as_count) for record in classifier[name]]
        resumed = StreamEngine(StreamConfig(window=self.SPEC))
        resumed.load_state_dict(pickle.loads(pickle.dumps(state)))
        closed = len(engine.snapshots)
        for candidate in (engine, resumed):
            candidate.ingest_block(events[cut:])
            candidate.finish()
        windows = engine_windows(engine)
        assert windows == reference_windows(events, self.SPEC)[0]
        assert engine_windows(resumed) == windows[closed:]
        # Every record was reused where the live engine reused it: the keys
        # matched and the densified deltas were folded into, not recounted.
        assert resumed.classifier.stats == engine.classifier.stats
        assert pickle.dumps(resumed.classifier.state_dict()) == pickle.dumps(
            engine.classifier.state_dict()
        )

    def test_a_state_holds_int_pairs_of_the_non_zero_slots(self):
        events = TestEngineWindowsAcrossACompaction.feed(windows=5, per_window=300)
        engine = StreamEngine(StreamConfig(window=self.SPEC))
        engine.run(MemorySource(events))
        live = engine.classifier._tagging_records + engine.classifier._forwarding_records
        state = engine.classifier.state_dict()
        saved = state["tagging_records"] + state["forwarding_records"]
        assert live and len(saved) == len(live)
        for record, kept in zip(saved, live):
            assert type(record.delta) is dict and isinstance(kept.delta, np.ndarray)
            for slot, pair in record.delta.items():
                assert type(slot) is int and type(pair) is list and len(pair) == 2
                assert all(type(value) is int for value in pair) and any(pair)
            want = {slot: pair for slot, pair in enumerate(kept.delta.tolist()) if any(pair)}
            assert record.delta == want
            assert all(type(key) is bytes for key in record.decisions)
        assert all(type(column) is array for column in state["store_arrays"].values())
        assert {column.typecode for column in state["store_arrays"].values()} == {"q"}

