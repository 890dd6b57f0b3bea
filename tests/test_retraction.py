"""Retraction conformance: evicting a tuple is adding it with multiplicity -1.

The incremental classifier folds evictions into its phase records as
signed deltas instead of rebuilding; whatever order arrivals, evictions,
updates and checkpoint round-trips come in, every ``update()`` must equal a
fresh *batch* inference over the tuples live at that point — counters,
observed ASes, classes and the per-column report.
"""

from __future__ import annotations

import pickle
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from column_oracle import ListingInference, assert_same_result, canonical
from stream_oracle import engine_windows, reference_windows

from repro.bgp.announcement import PathCommTuple, RouteObservation
from repro.bgp.community import Community, CommunitySet
from repro.bgp.path import ASPath
from repro.bgp.prefix import parse_prefix
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


def assert_equals_batch(classifier, live):
    """``classifier.update()`` == a fresh batch run over the *live* tuples."""
    batch = ListingInference(classifier.thresholds)
    want = batch.run(list(live))
    assert_same_result(classifier.update(), want)
    assert classifier.tuple_count == len(live)
    assert classifier.report == batch.report


def roundtrip(classifier):
    """The classifier restored from a pickled checkpoint of itself."""
    state = pickle.loads(pickle.dumps(classifier.state_dict()))
    table = TupleTable.from_state(pickle.loads(pickle.dumps(classifier.table.state_dict())))
    return classifier_from_state(state, table)


def replay(pool, ops, thresholds):
    """Apply *ops* to a fresh classifier, checking every update against batch."""
    classifier = make_classifier("column", thresholds)
    live = {}  # insertion-ordered set of live tuples
    for op in [*ops, "update"]:
        if op == "update":
            assert_equals_batch(classifier, live)
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
    )
    # The longest path is retracted (the column limit shrinks under records
    # that never saw the retraction), then a longer one regrows it.
    @example(
        pool=[make_tuple([1], [1]), make_tuple([1, 2, 3], [3]), make_tuple([2, 1, 3, 4], [4])],
        ops=[0, 1, "update", 1, "update", 1, 2, "update", 2, "update", 2],
        threshold=0.51,
    )
    def test_column_equals_batch_after_every_update(self, pool, ops, threshold):
        replay(pool, ops, Thresholds.uniform(threshold))

    def test_sliding_sized_turnover_and_cache_compaction(self):
        """A sliding-sized live set that drains to 100 tuples and regrows.

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
        compactions = 0
        for step in range(14):
            if step == 9:  # drain to 100 live tuples, then regrow
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
        assert compactions >= 2
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

    def test_checkpoint_between_eviction_and_update(self):
        """Signed pending groups in flight survive a checkpoint round-trip."""
        items = [
            make_tuple([3], [3]),
            make_tuple([1, 3], [3]),
            make_tuple([2, 3], []),
            make_tuple([2, 4, 3], [3]),
        ]
        classifier = make_classifier("column")
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

        def spy(*args):
            lowered.append(real(*args))
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
        assert canonical(classifier._counted_cache) == canonical(
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


# -- expiry, scenario by scenario -------------------------------------------------------------
# PR 24 measured per-window buckets of keys by newest sighting against the
# O(live) ``_last_seen`` scan below them: the buckets were worth < 2 % of a
# ``sliding_flush`` repetition and were dropped (CHANGES.md).  The cases they
# were pinned with stay, against the scan: whoever tries again starts here.
def sighting(item, timestamp):
    return RouteObservation(
        collector="rrc00",
        peer_asn=item.path.asns[0],
        prefix=parse_prefix("8.8.8.0/24"),
        path=item.path,
        communities=item.communities,
        timestamp=timestamp,
    )


def record_evictions(engine):
    """The tuples of every ``evict_refs`` call *engine* makes from here on."""
    calls = []
    classifier = engine.classifier
    real = classifier.evict_refs

    def evict_refs(evicted):
        assert len(set(evicted)) == len(evicted)  # a key is evicted once
        calls.append([classifier.table.tuple_of(key) for key in evicted])
        real(evicted)

    classifier.evict_refs = evict_refs
    return calls


def checkpoint_parts(engine):
    """The checkpoint entry by entry, as bytes -- but for the shard workers' dedup
    *sets*, whose pickled order follows their hash-table history: those by value."""
    state = engine.state_dict()
    return {
        name: part if name == "router" else pickle.dumps(part) for name, part in state.items()
    }


def by_repr(items):
    return sorted(items, key=repr)


class TestExpiryScenarios:
    """What leaves at which close, and that every window equals the oracle."""

    ITEMS = [make_tuple([asn, 20 + asn % 3, 30], [30] if asn % 2 else []) for asn in range(1, 13)]

    def run(self, events, spec, shards=1):
        engine = StreamEngine(StreamConfig(window=spec, shards=shards))
        evicted = record_evictions(engine)
        engine.run(MemorySource(events))
        assert engine_windows(engine) == reference_windows(events, spec)[0]
        assert engine.stats.tuples_evicted == sum(map(len, evicted))
        cutoff = engine.snapshots[-1].window_end - spec.effective_horizon
        assert all(seen >= cutoff for seen, _shard in engine._last_seen.values())
        return engine, evicted

    def test_a_horizon_that_is_no_multiple_of_the_window(self):
        """Cutoffs 150, 250, ...: they fall *into* a window's worth of sightings."""
        a, b, c, d = self.ITEMS[:4]
        spec = WindowSpec(size=100, policy=WindowPolicy.SLIDING, horizon=250)
        events = [sighting(a, 110), sighting(b, 149), sighting(c, 150), sighting(d, 199)]
        events += [sighting(self.ITEMS[4], stamp) for stamp in (205, 305, 405, 505)]
        _engine, evicted = self.run(events, spec)
        # close 400 (cutoff 150) takes a and b and leaves c and d, seen in the
        # same window; close 500 (cutoff 250) takes those.
        assert [by_repr(batch) for batch in evicted[:2]] == [by_repr([a, b]), by_repr([c, d])]

    def test_late_duplicates_do_not_rewind_retention_or_evict_twice(self):
        a, b = self.ITEMS[:2]
        spec = WindowSpec(size=100, policy=WindowPolicy.SLIDING, horizon=200)
        events = [sighting(a, 10), sighting(b, 20), sighting(a, 250)]
        # Behind the watermark, older than what is known: a stays at 250, b at 20.
        events += [sighting(a, 15), sighting(a, 240), sighting(b, 5), sighting(b, 20)]
        events += [sighting(self.ITEMS[2], stamp) for stamp in (310, 410, 510)]
        _engine, evicted = self.run(events, spec)
        assert evicted[0] == [b]  # at close 300, cutoff 100
        assert evicted[1] == [a]  # at close 500, cutoff 300
        assert sum(batch.count(a) for batch in evicted) == 1

    def test_a_key_seen_again_in_later_windows_leaves_by_its_newest_sighting(self):
        a, b = self.ITEMS[:2]
        spec = WindowSpec(size=100, policy=WindowPolicy.SLIDING, horizon=200)
        events = [sighting(a, 10), sighting(b, 11), sighting(a, 120), sighting(a, 230)]
        events += [sighting(b, 231), sighting(self.ITEMS[2], 345), sighting(self.ITEMS[2], 445)]
        events += [sighting(self.ITEMS[2], 545)]
        _engine, evicted = self.run(events, spec)
        assert by_repr(evicted[0]) == by_repr([a, b])  # both at close 500, cutoff 300

    def test_evicted_and_announced_again_behind_the_watermark(self):
        a, filler = self.ITEMS[0], self.ITEMS[5]
        spec = WindowSpec(size=100, policy=WindowPolicy.SLIDING, horizon=250)
        events = [sighting(a, 120), sighting(filler, 199), sighting(filler, 310)]
        # close 400 (cutoff 150) evicts a; then a comes back *late*, stamped into
        # the window it was just evicted from, and goes again at the next close.
        events += [sighting(filler, 401), sighting(a, 180), sighting(filler, 505)]
        events += [sighting(filler, 605)]
        engine, evicted = self.run(events, spec)
        assert [batch for batch in evicted if a in batch] == [[a], [a]]
        assert a not in {engine._table.tuple_of(key) for key in engine._last_seen}

    def test_windows_skipped_by_a_quiet_feed(self):
        spec = WindowSpec(size=100, policy=WindowPolicy.SLIDING, horizon=250)
        events = [sighting(item, 10 + 40 * step) for step, item in enumerate(self.ITEMS[:6])]
        events += [sighting(self.ITEMS[6], 1500), sighting(self.ITEMS[7], 1501)]
        events += [sighting(self.ITEMS[0], 3333)]
        engine, evicted = self.run(events, spec)
        assert [len(batch) for batch in evicted] == [6, 2]
        assert [engine._table.tuple_of(key) for key in engine._last_seen] == [self.ITEMS[0]]

    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("horizon", [200, 250, 330])
    def test_a_random_feed_with_late_events_and_gaps(self, shards, horizon):
        rng = random.Random(horizon + shards)
        spec = WindowSpec(size=100, policy=WindowPolicy.SLIDING, horizon=horizon)
        events, clock = [], 0
        for _ in range(400):
            clock += rng.choice([1, 3, 7, 19, 19, 260 if rng.random() < 0.04 else 2])
            late = rng.randint(0, 320) if rng.random() < 0.2 else 0
            events.append(sighting(rng.choice(self.ITEMS), max(0, clock - late)))
        _engine, evicted = self.run(events, spec, shards)
        assert sum(map(len, evicted)) > 10

    @pytest.mark.parametrize("shards", [1, 3])
    def test_restore_mid_horizon_continues_byte_for_byte(self, shards):
        """Later evictions, snapshots and the next checkpoint equal the uninterrupted run's."""
        rng = random.Random(97)
        spec = WindowSpec(size=100, policy=WindowPolicy.SLIDING, horizon=250)
        events, clock = [], 0
        for _ in range(300):
            clock += rng.choice([1, 3, 7, 19, 40])
            late = rng.randint(0, 200) if rng.random() < 0.15 else 0
            events.append(sighting(rng.choice(self.ITEMS), max(0, clock - late)))
        cut = 170  # mid-window: the classifier's pending turnover is not empty
        straight = StreamEngine(StreamConfig(window=spec, shards=shards))
        straight.run(MemorySource(events[:cut]), finish=False)
        assert straight.classifier._pending_groups
        resumed = StreamEngine(StreamConfig(window=spec, shards=shards))
        resumed.load_state_dict(pickle.loads(pickle.dumps(straight.state_dict())))
        assert checkpoint_parts(resumed) == checkpoint_parts(straight)
        logs = [record_evictions(engine) for engine in (straight, resumed)]
        windows_before = len(straight.snapshots)
        for engine in (straight, resumed):
            engine.run(MemorySource(events[cut:240]), finish=False)
        assert checkpoint_parts(resumed) == checkpoint_parts(straight)  # the next checkpoint
        for engine in (straight, resumed):
            engine.run(MemorySource(events[240:]))
        assert logs[0] == logs[1] and sum(map(len, logs[0])) > 5
        assert engine_windows(resumed) == engine_windows(straight)[windows_before:]
        assert engine_windows(straight) == reference_windows(events, spec)[0]
        assert checkpoint_parts(resumed) == checkpoint_parts(straight)
