"""Retraction conformance: evicting a tuple is adding it with multiplicity -1.

The incremental classifiers fold evictions into their phase records as
signed deltas instead of rebuilding; whatever order arrivals, evictions,
updates and checkpoint round-trips come in, every ``update()`` must equal a
fresh *batch* inference over the tuples live at that point — counters,
observed ASes, classes and, for the column algorithm, the per-column report.
"""

from __future__ import annotations

import pickle
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from column_oracle import ListingInference, assert_same_result
from stream_oracle import engine_windows, reference_windows

from repro.bgp.announcement import PathCommTuple, RouteObservation
from repro.bgp.community import Community, CommunitySet
from repro.bgp.path import ASPath
from repro.bgp.prefix import parse_prefix
from repro.core import matrix
from repro.core.row import RowInference
from repro.core.thresholds import Thresholds
from repro.core.tuples import TupleTable
from repro.stream import (
    MemorySource,
    StreamConfig,
    StreamEngine,
    WindowPolicy,
    WindowSpec,
)
from repro.stream import incremental
from repro.stream.incremental import (
    _CACHE_COMPACTION_FACTOR,
    classifier_from_state,
    make_classifier,
)

ASES = list(range(1, 9))


def make_tuple(asns, tagging):
    """A tuple over *asns* carrying a community of each AS in *tagging*."""
    return PathCommTuple(
        ASPath(asns), CommunitySet([Community(asn, 1) for asn in tagging])
    )


@st.composite
def tuples(draw):
    asns = draw(st.lists(st.sampled_from(ASES), min_size=1, max_size=6, unique=True))
    tagging = draw(st.lists(st.sampled_from(asns + [99]), max_size=3, unique=True))
    return make_tuple(asns, tagging)


#: An op is a pool index (toggle that tuple: add it, or evict it when live),
#: or one of the names below.
OPS = st.one_of(
    st.integers(0, 15), st.sampled_from(["update", "clear", "checkpoint"])
)


def batch_inference(algorithm, thresholds, **options):
    if algorithm == "row":
        return RowInference(thresholds)
    return ListingInference(thresholds, **options)


def assert_equals_batch(classifier, live, **options):
    """``classifier.update()`` == a fresh batch run over the *live* tuples."""
    batch = batch_inference(classifier.algorithm, classifier.thresholds, **options)
    want = batch.run(list(live))
    assert_same_result(classifier.update(), want)
    assert classifier.tuple_count == len(live)
    if classifier.algorithm == "column":
        assert classifier.report == batch.report


def roundtrip(classifier):
    """The classifier restored from a pickled checkpoint of itself."""
    state = pickle.loads(pickle.dumps(classifier.state_dict()))
    table = TupleTable.from_state(pickle.loads(pickle.dumps(classifier.table.state_dict())))
    return classifier_from_state(state, table)


def replay(algorithm, pool, ops, thresholds, **options):
    """Apply *ops* to a fresh classifier, checking every update against batch."""
    classifier = make_classifier(algorithm, thresholds, **options)
    live = {}  # insertion-ordered set of live tuples
    for op in [*ops, "update"]:
        if op == "update":
            assert_equals_batch(classifier, live, **options)
        elif op == "clear":
            classifier.evict_refs([classifier.table.intern_tuple(item) for item in live])
            live.clear()
        elif op == "checkpoint":
            classifier = roundtrip(classifier)
        else:
            item = pool[op % len(pool)]
            if item in live:
                del live[item]
                classifier.evict_refs([classifier.table.intern_tuple(item)])
            else:
                live[item] = None
                classifier.add_tuple(item)


class TestInterleavedTurnover:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        pool=st.lists(tuples(), min_size=1, max_size=16, unique=True),
        ops=st.lists(OPS, max_size=60),
        threshold=st.sampled_from([0.51, 0.75, 0.99]),
        stop_when_stalled=st.booleans(),
        max_columns=st.sampled_from([None, 2]),
        # 512 in production; 2 sends these small sets through the numpy
        # matrix kernels (and its incrementally extended cache) as well.
        min_matrix_groups=st.sampled_from([2, matrix.MIN_MATRIX_GROUPS]),
    )
    # The longest path is retracted (the column limit shrinks under records
    # that never saw the retraction), then a longer one regrows it.
    @example(
        pool=[make_tuple([1], [1]), make_tuple([1, 2, 3], [3]), make_tuple([2, 1, 3, 4], [4])],
        ops=[0, 1, "update", 1, "update", 1, 2, "update", 2, "update", 2],
        threshold=0.51,
        stop_when_stalled=False,
        max_columns=None,
        min_matrix_groups=2,
    )
    def test_column_equals_batch_after_every_update(
        self, pool, ops, threshold, stop_when_stalled, max_columns, min_matrix_groups
    ):
        with mock.patch.object(matrix, "MIN_MATRIX_GROUPS", min_matrix_groups):
            replay(
                "column",
                pool,
                ops,
                Thresholds.uniform(threshold),
                stop_when_stalled=stop_when_stalled,
                max_columns=max_columns,
            )

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        pool=st.lists(tuples(), min_size=1, max_size=16, unique=True),
        ops=st.lists(OPS, max_size=60),
        threshold=st.sampled_from([0.51, 0.75, 0.99]),
    )
    def test_row_equals_batch_after_every_update(self, pool, ops, threshold):
        replay("row", pool, ops, Thresholds.uniform(threshold))

    def test_turnover_across_the_matrix_threshold_and_cache_compaction(self):
        """A sliding-sized live set under the production matrix threshold.

        Taggers (even ASes, 10 % of their tuples untagged) and cleaners
        (multiples of 7) keep shares near the threshold, so views flip and
        phases recount while the live set turns over.
        """
        rng = random.Random(17)
        pool = {}
        while len(pool) < 2400:
            asns = rng.sample(range(1, 60), rng.randint(1, 6))
            tagging = []
            for asn in asns:  # from the collector peer outwards
                if asn % 2 == 0 and rng.random() < 0.9:
                    tagging.append(asn)
                if asn % 7 == 0:
                    break  # a cleaner strips what the ASes behind it tagged
            pool[make_tuple(asns, tagging)] = None
        pool = list(pool)
        classifier = make_classifier("column", Thresholds.uniform(0.75))
        live = {}
        compactions = matrix_updates = 0
        for step in range(14):
            if step == 9:  # drain below the matrix threshold, then regrow
                arrivals, departures = [], list(live)[: len(live) - 100]
            else:
                arrivals = rng.sample([item for item in pool if item not in live], 400)
                departures = rng.sample(list(live), min(len(live), 150 if step < 6 else 420))
            for item in departures:
                del live[item]
            classifier.evict_refs([classifier.table.intern_tuple(item) for item in departures])
            for item in arrivals:
                live[item] = None
                classifier.add_tuple(item)
            before = classifier._counted_cache
            assert_equals_batch(classifier, live)
            after = classifier._counted_cache
            groups = len(classifier._groups)
            assert after is None or len(after) <= _CACHE_COMPACTION_FACTOR * groups
            compactions += before is not None and after is not before
            matrix_updates += groups >= matrix.MIN_MATRIX_GROUPS
        assert compactions >= 2 and 2 <= matrix_updates < 14
        assert classifier.report.columns_processed > 2
        assert classifier.stats.delta_phases > 20 and classifier.stats.recount_phases > 20


class TestRetractionRegressions:
    def test_records_past_a_shrunken_limit_do_not_resurrect_evidence(self):
        """Evict everything, close an empty window, re-add the same tuple.

        The column limit drops to 0 on the empty close, so no phase runs and
        no record sees the retraction; a record that survived would count the
        re-added tuple on top of the evicted one: ``(0, 2, 0, 0)``.
        """
        events = [
            RouteObservation(
                collector="rrc00",
                peer_asn=10,
                prefix=parse_prefix("8.8.8.0/24"),
                path=ASPath([10]),
                communities=CommunitySet.empty(),
                timestamp=timestamp,
            )
            for timestamp in (0, 100, 500)
        ]
        spec = WindowSpec(size=100, policy=WindowPolicy.SLIDING, horizon=300)
        engine = StreamEngine(StreamConfig(window=spec))
        final = engine.run(MemorySource(events))
        windows, _ = reference_windows(events, spec)
        assert engine_windows(engine) == windows
        assert any(window[3] == 0 for window in windows)  # the empty close happened
        assert final.counters_of(10).as_tuple() == (0, 1, 0, 0)

    @pytest.mark.parametrize("algorithm", ["column", "row"])
    def test_checkpoint_between_eviction_and_update(self, algorithm):
        """Signed pending groups in flight survive a checkpoint round-trip."""
        items = [
            make_tuple([3], [3]),
            make_tuple([1, 3], [3]),
            make_tuple([2, 3], []),
            make_tuple([2, 4, 3], [3]),
        ]
        classifier = make_classifier(algorithm)
        for item in items:
            classifier.add_tuple(item)
        classifier.update()
        classifier.evict_refs([classifier.table.intern_tuple(item) for item in items[2:]])
        classifier.add_tuple(make_tuple([5, 3], [3]))
        restored = roundtrip(classifier)  # -1 and +1 groups still pending
        live = [*items[:2], make_tuple([5, 3], [3])]
        assert_equals_batch(restored, live)
        assert_equals_batch(classifier, live)
        assert restored.stats == classifier.stats


class TestFirstFlushLowersOnce:
    """When nothing was live, the lowered turnover *is* the counted cache."""

    @staticmethod
    def lowering_spy():
        """``(what materialize_groups returned, the patch that records it)``."""
        lowered = []
        real = incremental.materialize_groups

        def spy(table, counts):
            lowered.append(real(table, counts))
            return lowered[-1]

        return lowered, mock.patch.object(incremental, "materialize_groups", spy)

    def pool(self, count=120, seed=23):
        rng = random.Random(seed)
        pool = {}
        while len(pool) < count:
            asns = rng.sample(range(1, 30), rng.randint(1, 5))
            pool[make_tuple(asns, [asn for asn in asns if asn % 2 == 0])] = None
        return list(pool)

    def test_cache_identity_then_turnover_then_compaction(self):
        pool = self.pool()
        classifier = make_classifier("column", Thresholds.uniform(0.75))
        live = dict.fromkeys(pool[:40])
        for item in live:
            classifier.add_tuple(item)
        lowered, patched = self.lowering_spy()
        with patched:
            assert_equals_batch(classifier, live)
        assert len(lowered) == 1  # not once for pending and again for the recount
        assert classifier._counted_cache is lowered[0]
        assert sorted(classifier._counted_cache) == sorted(
            incremental.materialize_groups(classifier.table, classifier._groups)
        )

        # Turnover: the same object takes the signed rows ...
        first = classifier._counted_cache
        for item in pool[40:50]:
            live[item] = None
            classifier.add_tuple(item)
        evicted = list(live)[:5]
        for item in evicted:
            del live[item]
        classifier.evict_refs([classifier.table.intern_tuple(item) for item in evicted])
        assert_equals_batch(classifier, live)
        assert classifier._counted_cache is first and len(first) == 40 + 10 + 5

        # ... until cancelled pairs outweigh the live groups and it is dropped.
        evicted = list(live)[:35]
        for item in evicted:
            del live[item]
        classifier.evict_refs([classifier.table.intern_tuple(item) for item in evicted])
        for item in pool[50:90]:
            live[item] = None
            classifier.add_tuple(item)
        assert len(first) + 75 > _CACHE_COMPACTION_FACTOR * len(live)
        assert_equals_batch(classifier, live)
        assert classifier._counted_cache is not first

        # Everything leaves; the next arrivals are a first flush again, over
        # whatever cancelled rows the cache still held.
        classifier.evict_refs([classifier.table.intern_tuple(item) for item in live])
        live.clear()
        assert_equals_batch(classifier, live)
        live = dict.fromkeys(pool[90:])
        for item in live:
            classifier.add_tuple(item)
        lowered, patched = self.lowering_spy()
        with patched:
            assert_equals_batch(classifier, live)
        assert len(lowered) == 1 and classifier._counted_cache is lowered[0]
        assert_equals_batch(roundtrip(classifier), live)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_engine_windows_across_a_first_flush_turnover_and_compaction(self, shards):
        rng = random.Random(31)
        pool = self.pool(count=200)
        events = []
        for window in range(10):
            arrivals = pool[:60] if window == 0 else rng.sample(pool, 45)
            for step, item in enumerate(arrivals):
                events.append(
                    RouteObservation(
                        collector="rrc00",
                        peer_asn=item.path.asns[0],
                        prefix=parse_prefix("8.8.8.0/24"),
                        path=item.path,
                        communities=item.communities,
                        timestamp=100 * window + step,
                    )
                )
        spec = WindowSpec(size=100, policy=WindowPolicy.SLIDING, horizon=200)
        engine = StreamEngine(StreamConfig(window=spec, shards=shards))
        caches = []
        engine.on_window = lambda _snapshot: caches.append(engine.classifier._counted_cache)
        engine.run(MemorySource(events))
        windows, _ = reference_windows(events, spec)
        assert engine_windows(engine) == windows
        assert caches[0] is not None and caches[1] is caches[0]  # first flush, then turnover
        assert any(after is not before for before, after in zip(caches, caches[1:]))
