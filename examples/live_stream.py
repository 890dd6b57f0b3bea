#!/usr/bin/env python3
"""Live streaming demo: windowed classification over a replayed update feed.

Builds a small synthetic Internet, materialises one day of collector
archives as binary MRT blobs, and replays them through the streaming engine
the way a RIS-Live / BGPStream consumer would:

1. events flow through per-AS-partition shard workers (sanitation + dedup),
2. every closed event-time window emits a snapshot of the continuously
   maintained classification, including which ASes changed class,
3. engine state is checkpointed mid-stream and restored into a second
   engine, which finishes the replay,
4. the final streamed classification is verified to be *identical* to the
   batch pipeline run over the same archive.

Run with::

    python examples/live_stream.py
"""

from __future__ import annotations

import tempfile

from repro.core.pipeline import InferencePipeline
from repro.datasets import SyntheticConfig, SyntheticInternet
from repro.stream import (
    CheckpointManager,
    MRTReplaySource,
    StreamConfig,
    StreamEngine,
    WindowSpec,
)


def main() -> None:
    # 1. Build the substrate and archive one day of collector data as MRT.
    print("building synthetic Internet and one day of MRT archives...")
    internet = SyntheticInternet.build(SyntheticConfig.small(seed=7))
    archive = internet.archive_for("ripe")
    day = archive.generate_day(0)
    blobs = archive.day_to_mrt(day)
    total_bytes = sum(len(blob) for blob in blobs.values())
    print(f"  {len(blobs)} collectors, {len(day.observations)} observations, "
          f"{total_bytes / 1e6:.1f} MB of MRT")

    # 2. Stream the archive: hourly windows, 4 shards, live snapshots.
    def report(snapshot) -> None:
        summary = snapshot.summary()
        print(f"  window [{snapshot.window_start:>10}, {snapshot.window_end:>10}): "
              f"{summary['unique_tuples']:>6} tuples, "
              f"{summary['ases_observed']:>4} ASes, "
              f"{summary['changed_ases']:>3} changed classes")

    config = StreamConfig(window=WindowSpec(size=3600), shards=4, checkpoint_every=20_000)
    source = MRTReplaySource(blobs, order="time")

    with tempfile.TemporaryDirectory() as checkpoint_dir:
        manager = CheckpointManager(checkpoint_dir)
        engine = StreamEngine(config, checkpoints=manager, on_window=report)

        print("\nstreaming (first half of the feed)...")
        events = list(source)
        half = len(events) // 2
        for observation in events[:half]:
            engine.ingest(observation)
        engine.checkpoint()
        print(f"  checkpointed at event {half} -> {manager.latest().name}")

        print("restoring into a fresh engine and finishing the replay...")
        resumed = StreamEngine.restore(manager, on_window=report)
        for observation in events[half:]:
            resumed.ingest(observation)
        streamed = resumed.finish()

        stats = resumed.stats
        print(f"\n  {stats.events_in} events, {stats.windows_closed} windows, "
              f"{resumed.unique_tuples} unique tuples, "
              f"{resumed.late_events} late events")
        incremental = resumed.classifier.stats
        print(f"  incremental updates: {incremental.delta_phases} delta phases, "
              f"{incremental.recount_phases} recounted phases")

    # 3. The streaming invariant: a fully drained feed equals the batch run.
    print("\nverifying streamed result against the batch pipeline...")
    batch = InferencePipeline().run_from_mrt(blobs)
    same_classes = streamed.as_code_map() == batch.result.as_code_map()
    same_counters = streamed.records() == batch.result.records()
    print(f"  classifications identical: {same_classes}")
    print(f"  evidence counters identical: {same_counters}")
    if not (same_classes and same_counters):
        raise SystemExit("streaming/batch mismatch — this is a bug")

    summary = streamed.summary()
    print("\nfinal classification summary:")
    for key in ("ases_observed", "tagger", "silent", "forward", "cleaner"):
        print(f"  {key:>15}: {summary[key]}")
    print("  fully classified: "
          + ", ".join(f"{k[5:]}={v}" for k, v in summary.items() if k.startswith("full_")))


if __name__ == "__main__":
    main()
