"""Benchmarks of the streaming classification engine.

Measures what a live deployment cares about:

* sustained ingest throughput (events/sec) over a steady-state synthetic
  feed — recorded in ``extra_info``; an absolute floor applies only when
  the ``REPRO_BENCH_MIN_STREAM_EPS`` environment variable sets one (the
  ``bench-trajectory`` CI job gates at 150k events/sec; the rate itself is
  gated by ``steady_churn`` ``throughput`` in ``BENCHMARK.json``);
* steady-state memory: once the unique-tuple set is warm, re-announcements
  must not grow engine state;
* the cost of a window flush on a warm engine (the incremental delta path)
  versus cold batch inference over the same tuples.
"""

from __future__ import annotations

import os
import tracemalloc

import pytest

from repro.core.column import ColumnInference
from repro.stream import MemorySource, ScenarioSource, StreamConfig, StreamEngine, WindowSpec

#: Acceptance floor for sustained ingest throughput (unset: record only).
MIN_EVENTS_PER_SEC = float(os.environ.get("REPRO_BENCH_MIN_STREAM_EPS", "0"))


@pytest.fixture(scope="module")
def stream_events(context):
    """A steady-state synthetic feed: every tuple announced three times."""
    tuples = context.aggregate_tuples
    return list(ScenarioSource(tuples, duration=86400, repeat=3))


@pytest.mark.benchmark(group="stream")
def test_bench_stream_ingest_throughput(benchmark, stream_events):
    def drain():
        engine = StreamEngine(StreamConfig(window=WindowSpec(size=3600), shards=4))
        engine.run(MemorySource(stream_events))
        return engine

    engine = benchmark.pedantic(drain, rounds=5, iterations=1, warmup_rounds=1)
    assert engine.stats.events_in == len(stream_events)
    assert engine.stats.windows_closed > 0
    assert engine.stats.blocks_in > 0

    # Gate on the fastest round: shared runners suffer multi-tens-of-percent
    # scheduling noise, and the minimum is the standard robust estimator of
    # the code's true cost.  The mean stays in extra_info for trend tracking.
    events_per_sec = len(stream_events) / benchmark.stats.stats.min
    benchmark.extra_info["events_per_sec"] = round(events_per_sec)
    benchmark.extra_info["events_per_sec_mean"] = round(
        len(stream_events) / benchmark.stats.stats.mean
    )
    benchmark.extra_info["events"] = len(stream_events)
    benchmark.extra_info["unique_tuples"] = engine.unique_tuples
    if MIN_EVENTS_PER_SEC:
        assert events_per_sec >= MIN_EVENTS_PER_SEC, (
            f"sustained throughput {events_per_sec:,.0f} events/sec "
            f"is below the {MIN_EVENTS_PER_SEC:,.0f} floor "
            f"set by REPRO_BENCH_MIN_STREAM_EPS"
        )


@pytest.mark.benchmark(group="stream")
def test_bench_stream_steady_state_memory(benchmark, context):
    """Re-announcing known routes must not grow engine state."""
    tuples = context.aggregate_tuples
    warmup = list(ScenarioSource(tuples, duration=86400))
    steady = list(ScenarioSource(tuples, start=warmup[-1].timestamp + 1, duration=86400))

    engine = StreamEngine(StreamConfig(window=WindowSpec(size=3600), shards=4))
    engine.run(MemorySource(warmup), finish=False)
    tuples_after_warmup = engine.unique_tuples

    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()

    def reannounce():
        engine.run(MemorySource(steady), finish=False)

    benchmark.pedantic(reannounce, rounds=1, iterations=1)
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    growth = after - before
    benchmark.extra_info["steady_state_growth_bytes"] = growth
    benchmark.extra_info["unique_tuples"] = engine.unique_tuples
    # No new unique tuples may appear, and state growth must stay marginal
    # (window snapshots are retained by design; they are bounded).
    assert engine.unique_tuples == tuples_after_warmup
    assert growth < 32 * 1024 * 1024


@pytest.mark.benchmark(group="stream")
def test_bench_stream_window_flush_warm(benchmark, context):
    """A warm flush (delta path) must beat cold batch inference."""
    tuples = context.aggregate_tuples
    engine = StreamEngine(StreamConfig(window=WindowSpec(size=3600)))
    engine.run(MemorySource(ScenarioSource(tuples, duration=86400)), finish=False)
    engine.classifier.update()  # settle: next updates take the delta path

    def warm_flush():
        return engine.classifier.update()

    result = benchmark(warm_flush)
    assert len(result.observed_ases) > 0

    cold = ColumnInference()
    import time

    start = time.perf_counter()
    cold.run(tuples)
    cold_seconds = time.perf_counter() - start
    benchmark.extra_info["cold_batch_seconds"] = round(cold_seconds, 4)
    assert benchmark.stats.stats.mean < cold_seconds
