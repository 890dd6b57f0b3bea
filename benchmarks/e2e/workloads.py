"""The seven workloads: fixtures, one timed repetition each, oracles, layers.

Every workload has the same life cycle, driven by ``run.py``:

``prepare()``
    builds the seeded inputs and whatever the job needs around them (a store,
    a server subprocess).  It is what ``setup_s`` times.
``repeat(tracer=None)``
    one closed, run-to-completion job through the program's public entry
    points.  Only the call into the program sits inside the timed region;
    fixtures of the repetition (an empty store, a pristine store copy, a
    fresh server) are made before the clock starts.  With a tracer the same
    job runs behind the proxies of :mod:`tracing`.
``verify()``
    the oracles, after the last repetition and outside any timed region.
``layers(...)``
    the per-layer numbers: read off the traced repetitions' spans, or from
    isolated replays of the same blocks through one layer's public functions.

A per-layer value of ``None`` means "not measured here"; the reason is kept
next to it and both reach the detail report.  A metric a workload does not
mention at all is idle there and gets the workload's ``idle`` sentence.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import http.client
import json
import os
import random
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import adapter
from tracing import Proxy, StampedSource, Tracer

#: Events fed to the isolated sanitize / intern / classifier-add replays.
PROBE_EVENTS = 32768
#: Block size of the in-process engines (the program's default).
BLOCK_SIZE = 4096
#: Batch size of the multi-process engine's scatter/gather (its default).
POOL_BATCH = 1024

#: Spans recorded around the engine's collaborators in the traced pass.
ROUTER_SPANS = {
    "process_block": "router.process_block",
    "process_block_new": "router.process_block",
    "evict": "router.evict",
}
CLOCK_SPANS = {"advance_block": "clock.advance_block", "close_current": "clock.close_current"}
CLASSIFIER_SPANS = {
    "update": "classifier.update",
    "evict_refs": "classifier.evict",
    "evict": "classifier.evict",
}
STORE_SPANS = {
    "append_snapshot": "store.append_snapshot",
    "set_ingest_stats": "store.set_ingest_stats",
}
PUBLISH_SPANS = {"__call__": "publish.on_window"}


@dataclass
class Repetition:
    """What one timed job did."""

    items: int
    failed: int
    wall: float
    #: Seconds each result took to reach its consumer.
    latencies: List[float]
    tracer: Optional[Tracer] = None
    kernels: Optional[adapter.KernelSpans] = None
    extra: Dict[str, object] = field(default_factory=dict)
    #: Host speed while the job ran, against the reference (``run.py`` sets it).
    speed: float = 1.0


@dataclass
class Check:
    """One oracle's verdict."""

    name: str
    attempted: int
    failed: int
    note: str = ""


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))] if ordered else 0.0


def compare_code_maps(name: str, got: Dict[int, str], want: Dict[int, str]) -> Check:
    """One comparison per AS in either map; a differing code is a failure."""
    asns = set(got) | set(want)
    wrong = sum(1 for asn in asns if got.get(asn) != want.get(asn))
    return Check(name, len(asns), wrong)


class Layers:
    """Per-layer values with the reason any of them is missing."""

    def __init__(self) -> None:
        self.values: Dict[str, Optional[float]] = {}
        self.reasons: Dict[str, str] = {}

    def set(self, name: str, value: float) -> None:
        self.values[name] = value

    def skip(self, names: Iterable[str], reason: str) -> None:
        for name in names:
            self.values[name] = None
            self.reasons[name] = reason

    def attempt(self, names: Sequence[str], compute: Callable[[], Dict[str, float]]) -> None:
        """Run one probe; a vanished entry point nulls its metrics only."""
        try:
            self.values.update(compute())
        except adapter.Unavailable as error:
            self.skip(names, str(error))


class World:
    """The synthetic Internet and the seed's draw of traffic on it."""

    def __init__(self, scale: str, seed: int, stride: int) -> None:
        self.scale = scale
        self.seed = seed
        #: Keep every *stride*-th tuple / event (``--smoke`` shrinks inputs).
        self.stride = stride
        self.internet = adapter.build_internet(scale, seed)

    def tuples(self, step: int = 1, share: int = 1) -> list:
        """Aggregate tuples, interleaved across peers, starting where the seed says.

        Which tuples a workload gets (every *step*-th of the first 1/*share*)
        and how they interleave is part of the fixed world -- generation order
        would hand each shard whole blocks of one peer.  The seed only rotates
        the day, so every seed announces the same tuples in different windows.
        """
        tuples = adapter.aggregate_tuples(self.internet)
        random.Random(adapter.TOPOLOGY_SEED).shuffle(tuples)
        tuples = tuples[: len(tuples) // share : step * self.stride]
        start = random.Random(self.seed).randrange(len(tuples))
        return tuples[start:] + tuples[:start]


class Workload:
    """Common life cycle; see the module docstring."""

    name = ""
    #: What ``throughput`` counts and what ``result_ms_p50`` waits for.
    item = ""
    result = ""
    #: The same two numbers under the names ISSUE 12 / the ROADMAP use.
    aliases: Dict[str, str] = {}
    #: Why the layers this workload reports nothing for did no work.
    idle = ""

    def __init__(self, scale: str, seed: int, stride: int, workdir: Path) -> None:
        self.scale = scale
        self.seed = seed
        self.stride = stride
        self.workdir = workdir
        self.counter = 0

    def fresh_path(self, stem: str) -> Path:
        self.counter += 1
        return self.workdir / f"{self.name}-{stem}-{self.counter}"

    def prepare(self) -> None:
        raise NotImplementedError

    def digest(self) -> str:
        raise NotImplementedError

    def repeat(self, tracer: Optional[Tracer] = None) -> Repetition:
        raise NotImplementedError

    def verify(self) -> List[Check]:
        raise NotImplementedError

    def state_bytes(self) -> int:
        raise NotImplementedError

    def layers(self, plain: List[Repetition], traced: List[Repetition]) -> Layers:
        raise NotImplementedError

    def close(self) -> None:
        """Stop what ``prepare`` / ``repeat`` started."""


def overhead_ratio(plain: List[Repetition], traced: List[Repetition]) -> float:
    """Traced wall over untraced wall, both at the reference host speed."""
    return median([rep.wall * rep.speed for rep in traced]) / median(
        [rep.wall * rep.speed for rep in plain]
    )


def kernel_layers(layers: Layers, traced: List[Repetition]) -> None:
    names = ["column.tagging_phase_s", "column.forwarding_phase_s", "matrix.groups"]
    if not traced or not traced[-1].kernels or not traced[-1].kernels.available:
        layers.skip(names, "no packed counting kernel found to wrap")
        return
    layers.set(
        "column.tagging_phase_s",
        median([rep.tracer.busy("column.tagging_phase") for rep in traced]),
    )
    layers.set(
        "column.forwarding_phase_s",
        median([rep.tracer.busy("column.forwarding_phase") for rep in traced]),
    )
    layers.set("matrix.groups", traced[-1].kernels.groups)


def intern_layers(layers: Layers, items: Sequence) -> None:
    """Isolated replays of the intern table and the classifier's add path."""
    names = [
        "tuples.intern_ns_per_tuple",
        "tuples.paths_interned",
        "tuples.comms_interned",
        "tuples.intern_hit_ratio",
    ]
    interned: Dict[str, object] = {}

    def intern() -> Dict[str, float]:
        interned.update(adapter.replay_intern(items))
        calls = max(1, interned["calls"])
        return {
            "tuples.intern_ns_per_tuple": interned["seconds"] / calls * 1e9,
            "tuples.paths_interned": interned["paths"],
            "tuples.comms_interned": interned["comms"],
            "tuples.intern_hit_ratio": 1.0 - (interned["paths"] + interned["comms"]) / (2 * calls),
        }

    layers.attempt(names, intern)

    def add() -> Dict[str, float]:
        if not interned:
            raise adapter.Unavailable("no interned tuples to add")
        seconds, count = adapter.replay_classifier_add(interned["table"], interned["refs"])
        return {"incremental.add_ns_per_tuple": seconds / max(1, count) * 1e9}

    layers.attempt(["incremental.add_ns_per_tuple"], add)


def store_read_layers(layers: Layers, store, asns: Sequence[int]) -> None:
    names = [
        "backends.as_latest_us_p50",
        "backends.as_history_us_p50",
        "backends.load_snapshot_ms_p50",
    ]

    def reads() -> Dict[str, float]:
        timings = adapter.replay_store_reads(store, asns)
        return {
            "backends.as_latest_us_p50": median(timings["as_latest"]) * 1e6,
            "backends.as_history_us_p50": median(timings["as_history"]) * 1e6,
            "backends.load_snapshot_ms_p50": median(timings["load_snapshot"]) * 1e3,
        }

    layers.attempt(names, reads)


def store_file_bytes(path: Path) -> int:
    """The SQLite file plus its write-ahead log, as they sit on disk."""
    return sum(
        candidate.stat().st_size
        for candidate in (path, Path(f"{path}-wal"))
        if candidate.exists()
    )


def remove_store(path: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)


# -- ingest -------------------------------------------------------------------------------
class IngestWorkload(Workload):
    """A feed drained through an engine that publishes into a SQLite store."""

    item = "events"
    result = "window snapshot durable in the store"
    aliases = {"throughput": "ingest_eps", "result_ms_p50": "window_publish_ms_p50",
               "state_mb": "checkpoint_mb"}
    idle = "not on this path: the feed is pre-decoded, the engine in-process, nothing serves HTTP"
    window = adapter.HOUR_SECONDS
    shards = 1
    sliding_horizon: Optional[int] = None
    #: ``(engine, store, store path, result)`` of the newest repetition.
    last: Optional[Tuple[object, object, Path, object]] = None

    def build_feed(self, world: World) -> None:
        """Set ``self.events`` (decoded feed) or ``self.blobs`` (MRT bytes)."""
        raise NotImplementedError

    def make_engine(self, on_window: Callable):
        return adapter.stream_engine(
            window=self.window,
            shards=self.shards,
            sliding_horizon=self.sliding_horizon,
            on_window=on_window,
        )

    def prepare(self) -> None:
        self.close()
        self.events: Optional[list] = None
        self.blobs: Optional[Dict[str, bytes]] = None
        self.build_feed(World(self.scale, self.seed, self.stride))
        self.source = (
            adapter.mrt_source(self.blobs)
            if self.blobs is not None
            else adapter.memory_source(self.events)
        )
        self.checkpoint: Optional[Tuple[float, float, int]] = None

    def digest(self) -> str:
        sha = hashlib.sha256()
        if self.blobs is not None:
            for collector, blob in sorted(self.blobs.items()):
                sha.update(collector.encode())
                sha.update(blob)
        else:
            for line in adapter.describe_events(self.events):
                sha.update(line)
        return sha.hexdigest()

    def _drop_last(self) -> None:
        if self.last is not None:
            _engine, store, path, _result = self.last
            store.close()
            remove_store(path)
            self.last = None

    def repeat(self, tracer: Optional[Tracer] = None) -> Repetition:
        self._drop_last()
        path = self.fresh_path("store.db")
        store = adapter.open_store(path)
        latencies: List[float] = []
        source = StampedSource(self.source, tracer)

        def published(_snapshot) -> None:
            latencies.append(time.perf_counter() - source.handed)

        engine = self.make_engine(published)
        kernels = None
        if tracer is None:
            adapter.attach(engine, store)
        else:
            adapter.attach(engine, Proxy(store, tracer, STORE_SPANS))
            engine.on_window = Proxy(engine.on_window, tracer, PUBLISH_SPANS)
            engine.router = Proxy(engine.router, tracer, ROUTER_SPANS)
            engine.clock = Proxy(engine.clock, tracer, CLOCK_SPANS)
            engine.classifier = Proxy(engine.classifier, tracer, CLASSIFIER_SPANS)
            kernels = adapter.KernelSpans(tracer)
        result = None
        gc.collect()
        with kernels or contextlib.nullcontext():
            began = time.perf_counter()
            root = tracer.begin("run") if tracer is not None else -1
            try:
                result = engine.run(source)
            except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
                traceback.print_exc(file=sys.stderr)
            wall = time.perf_counter() - began
            if tracer is not None:
                if source.drain_span >= 0:
                    tracer.end(source.drain_span)
                tracer.end(root)
        items = engine.stats.events_in
        self.last = (engine, store, path, result)
        return Repetition(
            items=items,
            failed=items if result is None else 0,
            wall=wall,
            latencies=latencies,
            tracer=tracer,
            kernels=kernels,
            extra={"blocks_out": source.blocks},
        )

    # -- oracles ------------------------------------------------------------------------
    def reference_result(self):
        if self.blobs is not None:
            return adapter.reference_from_mrt(self.blobs)
        return adapter.reference_from_observations(self.events)

    def verify(self) -> List[Check]:
        engine, store, _path, result = self.last
        checks = []
        if result is None:
            return [Check("engine.run", 1, 1, "the last repetition raised")]
        same = adapter.snapshot_view(adapter.stored_latest(store)) == adapter.snapshot_view(
            engine.snapshots[-1]
        )
        checks.append(Check("stored snapshot == engine.snapshots[-1]", 1, 0 if same else 1))
        checks.append(self.verify_result(result))
        return checks

    def verify_result(self, result) -> Check:
        """Cumulative finals equal one batch run over the same events."""
        return compare_code_maps(
            "final classification == InferencePipeline.run_from_observations",
            adapter.code_map(result),
            adapter.code_map(self.reference_result()),
        )

    def state_bytes(self) -> int:
        return self._checkpoint()[2]

    def _checkpoint(self) -> Tuple[float, float, int]:
        if self.checkpoint is None:
            self.checkpoint = adapter.checkpoint_roundtrip(
                self.last[0], self.fresh_path("checkpoints")
            )
        return self.checkpoint

    # -- layers -------------------------------------------------------------------------
    def probe_blocks(self) -> List[list]:
        events = self.events[:PROBE_EVENTS]
        return [events[start : start + BLOCK_SIZE] for start in range(0, len(events), BLOCK_SIZE)]

    def layers(self, plain: List[Repetition], traced: List[Repetition]) -> Layers:
        layers = Layers()
        engine, store, path, _result = self.last
        counts = adapter.engine_counts(engine)
        events = max(1, counts["events_in"])

        def over_traced(compute: Callable[[Tracer], float]) -> float:
            return median([compute(rep.tracer) for rep in traced])

        self.source_layers(layers, traced)
        blocks = self.probe_blocks()
        kept: list = []

        def sanitize() -> Dict[str, float]:
            sanitized, seconds = adapter.replay_sanitize(blocks)
            kept.extend(sanitized)
            replayed = max(1, sum(len(block) for block in blocks))
            return {"sanitize.block_ns_per_event": seconds / replayed * 1e9}

        layers.attempt(["sanitize.block_ns_per_event"], sanitize)
        layers.set("sanitize.events_in", counts["sanitize_events_in"])
        layers.set(
            "sanitize.keep_ratio",
            counts["sanitize_events_out"] / max(1, counts["sanitize_events_in"]),
        )
        layers.set("sanitize.dropped_total", counts["sanitize_dropped"])
        intern_layers(layers, kept)

        self.sharding_layers(layers, traced, counts)
        layers.set(
            "window.advance_ns_per_event",
            over_traced(lambda t: t.busy("clock.advance_block")) / events * 1e9,
        )
        layers.set("window.windows_closed", counts["windows_closed"])
        layers.set("window.late_events", counts["late_events"])

        layers.set(
            "incremental.update_ms_p50",
            over_traced(lambda t: median(t.durations("classifier.update"))) * 1e3,
        )
        layers.set(
            "incremental.update_busy_s", over_traced(lambda t: t.busy("classifier.update"))
        )
        layers.set("incremental.evict_busy_s", over_traced(lambda t: t.busy("classifier.evict")))
        layers.set("incremental.tuples_evicted", counts["tuples_evicted"])
        kernel_layers(layers, traced)

        engine_spans = ("run", "engine.ingest_block", "engine.drain")
        layers.set(
            "engine.self_s",
            over_traced(lambda t: sum(sum(t.self_times(name)) for name in engine_spans)),
        )
        layers.set(
            "engine.span_coverage",
            median([rep.tracer.busy("run") / rep.wall for rep in traced]),
        )
        layers.set("engine.blocks_in", counts["blocks_in"])
        layers.set("engine.flush_ms_p50", over_traced(lambda t: median(flushes(t))) * 1e3)

        save_s, load_s, _size = self._checkpoint()
        layers.set("checkpoint.save_ms", save_s * 1e3)
        layers.set("checkpoint.load_ms", load_s * 1e3)

        layers.set(
            "publish.call_ms_p50",
            over_traced(lambda t: median(t.durations("publish.on_window"))) * 1e3,
        )
        layers.set(
            "publish.self_ms_p50",
            over_traced(lambda t: median(t.self_times("publish.on_window"))) * 1e3,
        )
        layers.set(
            "backends.append_ms_p50",
            over_traced(lambda t: median(t.durations("store.append_snapshot"))) * 1e3,
        )
        layers.set(
            "backends.bytes_per_snapshot",
            store_file_bytes(path) / max(1, len(store)),
        )
        asns = sorted(adapter.code_map(engine.snapshots[-1].result))[:200]
        store_read_layers(layers, store, asns)

        self.parallel_layers(layers, plain)
        layers.set("trace_overhead_ratio", overhead_ratio(plain, traced))
        return layers

    def source_layers(self, layers: Layers, traced: List[Repetition]) -> None:
        """Decode-side layers; only a from-bytes feed has any."""

    def sharding_layers(
        self, layers: Layers, traced: List[Repetition], counts: Dict[str, float]
    ) -> None:
        events = max(1, counts["events_in"])
        layers.set(
            "sharding.block_ns_per_event",
            median([rep.tracer.busy("router.process_block") for rep in traced]) / events * 1e9,
        )
        layers.set("sharding.new_tuple_ratio", counts["tuples_added"] / events)
        layers.set("sharding.load_skew", counts["load_skew"])

    def parallel_layers(self, layers: Layers, plain: List[Repetition]) -> None:
        """Pool-side layers; only the multi-process engine has any."""

    def close(self) -> None:
        self._drop_last()


def flushes(tracer: Tracer) -> List[float]:
    """Seconds from the first classifier call of a window close to its publish end."""
    durations: List[float] = []
    opened: Optional[float] = None
    for name, start, end, _parent in sorted(tracer.spans, key=lambda span: span[1]):
        if name.startswith("classifier.") and opened is None:
            opened = start
        elif name == "publish.on_window" and opened is not None:
            durations.append(end - opened)
            opened = None
    return durations


MRT_LAYERS = [
    "mrt.decode_ns_per_record",
    "mrt.records",
    "mrt.bytes_in",
    "mrt.decode_errors",
    "collectors.observe_ns_per_event",
    "collectors.blocks_out",
]
PARALLEL_LAYERS = [
    "parallel.roundtrip_ms_p50",
    "parallel.ipc_bytes_per_event",
    "parallel.main_self_s",
]

class MrtReplay(IngestWorkload):
    name = "mrt_replay"
    idle = "not on this path: the engine is in-process and nothing serves HTTP"
    # Archive order replays one collector after the other, so event time
    # runs through the day once per collector and hourly windows degenerate
    # into a few closes over an almost empty engine.  A replayed day has one
    # result that matters, the classification at its end: one day-long window.
    window = adapter.DAY_SECONDS

    def build_feed(self, world: World) -> None:
        self.blobs = adapter.isolario_day_mrt(world.internet)
        if self.stride > 1:
            # Smoke: keep the first collectors only (MRT bytes cannot be thinned).
            keep = sorted(self.blobs)[: max(1, len(self.blobs) // self.stride)]
            self.blobs = {name: self.blobs[name] for name in keep}

    def probe_blocks(self) -> List[list]:
        first = min(self.blobs)
        blocks, _seconds = adapter.replay_observe({first: self.blobs[first]}, BLOCK_SIZE)
        return blocks[: PROBE_EVENTS // BLOCK_SIZE]

    def source_layers(self, layers: Layers, traced: List[Repetition]) -> None:
        def decode() -> Dict[str, float]:
            decoded = adapter.replay_mrt_decode(self.blobs)
            fetch = median([rep.tracer.busy("source.next_block") for rep in traced])
            events = max(1, traced[-1].items)
            return {
                "mrt.decode_ns_per_record": decoded["seconds"] / max(1, decoded["records"]) * 1e9,
                "mrt.records": decoded["records"],
                "mrt.bytes_in": decoded["bytes"],
                "mrt.decode_errors": decoded["errors"],
                # What the replay source spends per event above bare decoding.
                "collectors.observe_ns_per_event": (fetch - decoded["seconds"]) / events * 1e9,
                "collectors.blocks_out": traced[-1].extra["blocks_out"],
            }

        layers.attempt(MRT_LAYERS, decode)


class SteadyChurn(IngestWorkload):
    name = "steady_churn"
    shards = 4

    def build_feed(self, world: World) -> None:
        self.events = adapter.churn_feed(world.tuples(), repeat=3)


class SlidingFlush(IngestWorkload):
    name = "sliding_flush"
    window = 900
    sliding_horizon = 7200
    #: Share of the feed replayed through both engines by the oracle.
    oracle_share = 5

    def build_feed(self, world: World) -> None:
        self.events = adapter.churn_feed(world.tuples(step=3), repeat=3)

    def windows_of(self, events: Sequence, production: bool) -> List[Tuple[int, Dict[int, str]]]:
        seen: List[Tuple[int, Dict[int, str]]] = []
        engine = adapter.stream_engine(
            window=self.window,
            sliding_horizon=self.sliding_horizon,
            on_window=lambda s: seen.append((s.window_end, adapter.code_map(s.result))),
            production=production,
        )
        engine.run(adapter.memory_source(events))
        return seen

    def verify_result(self, _result) -> Check:
        """Window by window against the object-representation engine."""
        name = "sliding windows == object-representation engine"
        prefix = self.events[: len(self.events) // self.oracle_share]
        try:
            want = self.windows_of(prefix, production=False)
        except adapter.Unavailable as error:
            return Check(name, 0, 0, f"skipped: {error}")
        got = self.windows_of(prefix, production=True)
        if [end for end, _ in got] != [end for end, _ in want]:
            return Check(name, len(want), len(want), "window boundaries differ")
        wrong = sum(1 for (_, ours), (_, theirs) in zip(got, want) if ours != theirs)
        return Check(name, len(want), wrong)


class ParallelChurn(IngestWorkload):
    name = "parallel_churn"
    idle = "not on this path: the feed is pre-decoded and nothing serves HTTP"
    # Quarter-hour windows: with four hourly closes per repetition the median
    # publish latency followed whichever tuples the seed put in them (+-10 %).
    window = 900
    shards = 2
    workers = 2

    def build_feed(self, world: World) -> None:
        # What the first sixth of the steady_churn feed holds: half the
        # tuples, each announced once, over four hours of event time.
        self.events = adapter.churn_feed(
            world.tuples(share=2), repeat=1, duration=adapter.DAY_SECONDS // 6
        )

    def make_engine(self, on_window: Callable):
        return adapter.parallel_engine(
            window=self.window, shards=self.shards, workers=self.workers, on_window=on_window
        )

    def sharding_layers(
        self, layers: Layers, traced: List[Repetition], counts: Dict[str, float]
    ) -> None:
        layers.skip(
            ["sharding.block_ns_per_event"], "the router runs inside the pool's processes"
        )
        layers.set(
            "sharding.new_tuple_ratio", counts["tuples_added"] / max(1, counts["events_in"])
        )
        layers.set("sharding.load_skew", counts["load_skew"])

    def parallel_layers(self, layers: Layers, plain: List[Repetition]) -> None:
        def pool() -> Dict[str, float]:
            replay = adapter.replay_pool(
                self.events, shards=self.shards, workers=self.workers, batch=POOL_BATCH
            )
            return {
                "parallel.roundtrip_ms_p50": median(replay["roundtrips"]) * 1e3,
                "parallel.ipc_bytes_per_event": replay["ipc_bytes"] / max(1, replay["events"]),
                # The engine's wall time not spent waiting on a round-trip.
                "parallel.main_self_s": median([rep.wall for rep in plain])
                - sum(replay["roundtrips"]),
            }

        layers.attempt(PARALLEL_LAYERS, pool)


# -- batch classification ------------------------------------------------------------------
class BatchClassify(Workload):
    name = "batch_classify"
    item = "tuples"
    result = "one complete classification"
    aliases = {"result_ms_p50": "classify_s x 1000"}
    idle = "batch classification starts from tuples: no feed, engine, store or server"

    def prepare(self) -> None:
        self.tuples = World(self.scale, self.seed, self.stride).tuples()
        self.result_last = None

    def digest(self) -> str:
        sha = hashlib.sha256()
        for line in adapter.describe_tuples(self.tuples):
            sha.update(line)
        return sha.hexdigest()

    def repeat(self, tracer: Optional[Tracer] = None) -> Repetition:
        kernels = adapter.KernelSpans(tracer) if tracer is not None else None
        failed = 0
        gc.collect()
        with kernels or contextlib.nullcontext():
            began = time.perf_counter()
            try:
                self.result_last = adapter.classify_tuples(self.tuples)
            except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                failed = len(self.tuples)
            wall = time.perf_counter() - began
        return Repetition(
            items=len(self.tuples),
            failed=failed,
            wall=wall,
            latencies=[wall],
            tracer=tracer,
            kernels=kernels,
        )

    def verify(self) -> List[Check]:
        name = "classification == object-representation pipeline"
        if self.result_last is None:
            return [Check("run_from_tuples", 1, 1, "the last repetition raised")]
        try:
            want = adapter.code_map(adapter.reference_from_tuples(self.tuples))
        except adapter.Unavailable as error:
            return [Check(name, 0, 0, f"skipped: {error}")]
        return [compare_code_maps(name, adapter.code_map(self.result_last), want)]

    def state_bytes(self) -> int:
        return len(adapter.exported_database(self.result_last))

    def layers(self, plain: List[Repetition], traced: List[Repetition]) -> Layers:
        layers = Layers()
        intern_layers(layers, self.tuples)
        kernel_layers(layers, traced)
        layers.set("trace_overhead_ratio", overhead_ratio(plain, traced))
        return layers



# -- serving ------------------------------------------------------------------------------
def share_one_cpu() -> None:
    """Pin this process, and the server it is about to spawn, to one core.

    In a closed loop of one connection client and server strictly alternate,
    so a second core buys nothing but cross-core wake-ups: on the two-core
    sandbox that cost ~20 % of the queries/s and quadrupled the run-to-run
    spread.  The server subprocess inherits the mask.  The highest-numbered
    core is the one least likely to be fielding the machine's interrupts.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class ServeWorkload(Workload):
    """A closed loop of one keep-alive connection against one server process."""

    item = "HTTP requests"
    result = "one HTTP response"
    aliases = {"throughput": "query_qps", "result_ms_p50": "query_p50_ms"}
    idle = "serving reads a finished store: no feed, no engine, and here no producer"
    #: Hourly snapshots in the store before serving starts.
    initial_snapshots = 24
    #: ``(low, high)`` the cache hit ratio must fall in, or the workload does
    #: not exercise what it claims.
    hit_ratio_range = (0.0, 1.0)

    def serving(self) -> Tuple[http.client.HTTPConnection, Path]:
        """The open connection and the store file behind the server."""
        raise NotImplementedError

    def build_store(self) -> Tuple[Path, List[object]]:
        """Drain one day through an engine; returns the store and every snapshot."""
        share_one_cpu()
        self.tuples = World(self.scale, self.seed, self.stride).tuples()
        snapshots: List[object] = []
        engine = adapter.stream_engine(shards=4, on_window=snapshots.append)
        engine.run(adapter.memory_source(adapter.churn_feed(self.tuples, repeat=1)))
        path = self.fresh_path("pristine.db")
        store = adapter.open_store(path)
        for snapshot in snapshots[: self.initial_snapshots]:
            store.append_snapshot(snapshot)
        store.close()
        self.asns = sorted(adapter.code_map(snapshots[-1].result))
        self.hit_ratios: List[float] = []
        return path, snapshots

    def digest(self) -> str:
        """Over the order the store was fed in and the query schedule."""
        sha = hashlib.sha256()
        for line in adapter.describe_tuples(self.tuples):
            sha.update(line)
        sha.update("\n".join(self.schedule).encode())
        return sha.hexdigest()

    def connect(self, server) -> http.client.HTTPConnection:
        host, port = server.address
        return http.client.HTTPConnection(host, port, timeout=60)

    @staticmethod
    def fetch(connection: http.client.HTTPConnection, target: str) -> Tuple[int, bytes]:
        connection.request("GET", target)
        response = connection.getresponse()
        return response.status, response.read()

    def drive(
        self,
        connection: http.client.HTTPConnection,
        targets: Sequence[str],
        latencies: List[float],
    ) -> Tuple[float, int]:
        """Send *targets* back to back; returns ``(wall seconds, non-200 count)``."""
        failed = 0
        request = connection.request
        respond = connection.getresponse
        clock = time.perf_counter
        record = latencies.append
        began = clock()
        for target in targets:
            sent = clock()
            request("GET", target)
            response = respond()
            response.read()
            record(clock() - sent)
            if response.status != 200:
                failed += 1
        return clock() - began, failed

    def cache_counters(self, connection: http.client.HTTPConnection) -> Tuple[int, int]:
        status, body = self.fetch(connection, "/v1/stats")
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        server = json.loads(body)["server"]
        return server["cache_hits"], server["cache_misses"]

    def verify(self) -> List[Check]:
        """HTTP bodies byte-equal to the socket-free ones; the cache as claimed."""
        connection, store_path = self.serving()
        store = adapter.open_store(store_path)
        try:
            service = adapter.socket_free_service(store)
            targets = sorted(set(self.schedule))
            wrong = 0
            for target in targets:
                status, body = self.fetch(connection, target)
                local = service.handle(target)
                if status != 200 or local.status != 200 or body != local.body:
                    wrong += 1
        finally:
            store.close()
        low, high = self.hit_ratio_range
        ratio = median(self.hit_ratios)
        return [
            Check("HTTP body == ClassificationService.handle body", len(targets), wrong),
            Check(
                f"cache hit ratio within [{low}, {high}]",
                1,
                0 if low <= ratio <= high else 1,
                f"measured {ratio:.4f}",
            ),
        ]

    def state_bytes(self) -> int:
        return store_file_bytes(self.serving()[1])

    def layers(self, plain: List[Repetition], traced: List[Repetition]) -> Layers:
        """Socket-free handler timings and store reads on a private copy."""
        layers = Layers()
        store_path = self.serving()[1]
        copy = self.fresh_path("probe.db")
        shutil.copyfile(store_path, copy)
        store = adapter.open_store(copy)
        try:
            service = adapter.socket_free_service(store)
            targets = list(dict.fromkeys(self.schedule))[:512]
            miss: List[float] = []
            hit: List[float] = []
            for timings in (miss, hit):  # first pass fills the cache, second hits it
                for target in targets:
                    began = time.perf_counter()
                    service.handle(target)
                    timings.append(time.perf_counter() - began)
            layers.set("server.handle_miss_us_p50", median(miss) * 1e6)
            layers.set("server.handle_hit_us_p50", median(hit) * 1e6)
            store_read_layers(layers, store, self.asns[:200])
            layers.set(
                "backends.bytes_per_snapshot",
                store_file_bytes(copy) / max(1, len(store)),
            )
        finally:
            store.close()
            remove_store(copy)
        ratio = median(self.hit_ratios)
        layers.set("server.cache_hit_ratio", ratio)
        handled = "server.handle_hit_us_p50" if ratio >= 0.5 else "server.handle_miss_us_p50"
        p50_us = median([median(rep.latencies) for rep in plain]) * 1e6
        layers.set("server.http_overhead_us", p50_us - layers.values[handled])
        pooled = [latency for rep in plain for latency in rep.latencies]
        layers.set("server.query_p99_ms", percentile(pooled, 0.99) * 1e3)
        layers.set("trace_overhead_ratio", overhead_ratio(plain, traced))
        return layers


def hit_ratio(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    """Cache hits over cacheable requests between two ``/v1/stats`` readings.

    ``/v1/stats`` is itself served uncached and counted as a miss, and the
    first reading lands inside the interval: take that one request out.
    """
    hits, misses = after[0] - before[0], after[1] - before[1] - 1
    return hits / max(1, hits + misses)


class ServeHot(ServeWorkload):
    """64 hot ASes plus the heavy endpoints; everything fits the response cache."""

    name = "serve_hot"
    hit_ratio_range = (0.95, 1.0)
    requests = 2000
    hot_ases = 64
    server = None
    connection = None

    def serving(self) -> Tuple[http.client.HTTPConnection, Path]:
        return self.connection, self.store_path

    def prepare(self) -> None:
        self.close()
        self.store_path, _snapshots = self.build_store()
        rng = random.Random(self.seed)
        hot = rng.sample(self.asns, min(self.hot_ases, len(self.asns)))
        self.schedule = []
        for index in range(self.requests):
            draw = rng.random()
            asn = hot[index % len(hot)]
            if draw < 0.02:
                self.schedule.append("/v1/snapshot/latest")
            elif draw < 0.04:
                self.schedule.append("/v1/diff")
            elif draw < 0.14:
                self.schedule.append(f"/v1/as/{asn}?history=8")
            else:
                self.schedule.append(f"/v1/as/{asn}")
        self.server = adapter.start_server(self.store_path)
        self.connection = self.connect(self.server)
        self.drive(self.connection, sorted(set(self.schedule)), [])  # fill the response cache

    def repeat(self, tracer: Optional[Tracer] = None) -> Repetition:
        latencies: List[float] = []
        before = self.cache_counters(self.connection)
        gc.collect()
        wall, failed = self.drive(self.connection, self.schedule, latencies)
        after = self.cache_counters(self.connection)
        self.hit_ratios.append(hit_ratio(before, after))
        return Repetition(
            items=len(self.schedule),
            failed=failed,
            wall=wall,
            latencies=latencies,
            tracer=tracer,
        )

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        if self.server is not None:
            self.server.close()
            self.server = None


class ServeColdPublish(ServeWorkload):
    """Every AS in rotation, so the cache always misses, beside a live producer."""

    name = "serve_cold_publish"
    idle = "serving reads a finished store: no feed and no engine"
    hit_ratio_range = (0.0, 0.05)
    initial_snapshots = 12
    #: ``(server, connection, store path)`` of the newest repetition.
    live: Optional[Tuple[object, http.client.HTTPConnection, Path]] = None
    #: One ``append_snapshot`` per this many requests.
    publish_every = 500
    rotations = 2

    def prepare(self) -> None:
        self.close()
        self.pristine, snapshots = self.build_store()
        self.reserve = snapshots[self.initial_snapshots :]
        variants = ("", "?history=2", "?history=4")
        order = list(self.asns)
        random.Random(self.seed).shuffle(order)
        rotation = [f"/v1/as/{asn}{variant}" for variant in variants for asn in order]
        self.schedule = rotation * self.rotations

    def _stop_live(self) -> None:
        if self.live is not None:
            server, connection, path = self.live
            connection.close()
            server.close()
            remove_store(path)
            self.live = None

    def repeat(self, tracer: Optional[Tracer] = None) -> Repetition:
        self._stop_live()
        path = self.fresh_path("live.db")
        shutil.copyfile(self.pristine, path)
        server = adapter.start_server(path)
        connection = self.connect(server)
        self.live = (server, connection, path)
        store = adapter.open_store(path)
        try:
            publish = adapter.publisher(
                store if tracer is None else Proxy(store, tracer, STORE_SPANS)
            )
            if tracer is not None:
                publish = Proxy(publish, tracer, PUBLISH_SPANS)
            self.drive(connection, self.schedule[:32], [])  # open the reader, warm the path
            before = self.cache_counters(connection)
            latencies: List[float] = []
            publishes: List[float] = []
            wall = 0.0
            failed = 0
            reserve = iter(self.reserve)
            gc.collect()
            for start in range(0, len(self.schedule), self.publish_every):
                segment, wrong = self.drive(
                    connection, self.schedule[start : start + self.publish_every], latencies
                )
                wall += segment
                failed += wrong
                snapshot = next(reserve, None)
                if snapshot is not None:
                    began = time.perf_counter()
                    publish(snapshot)
                    publishes.append(time.perf_counter() - began)
            after = self.cache_counters(connection)
        finally:
            store.close()
        self.hit_ratios.append(hit_ratio(before, after))
        return Repetition(
            items=len(self.schedule),
            failed=failed,
            wall=wall,
            latencies=latencies,
            tracer=tracer,
            extra={"publishes": publishes},
        )

    def serving(self) -> Tuple[http.client.HTTPConnection, Path]:
        return self.live[1], self.live[2]

    def layers(self, plain: List[Repetition], traced: List[Repetition]) -> Layers:
        layers = super().layers(plain, traced)
        calls = [median(rep.tracer.durations("publish.on_window")) for rep in traced]
        selfs = [median(rep.tracer.self_times("publish.on_window")) for rep in traced]
        appends = [median(rep.tracer.durations("store.append_snapshot")) for rep in traced]
        layers.set("publish.call_ms_p50", median(calls) * 1e3)
        layers.set("publish.self_ms_p50", median(selfs) * 1e3)
        layers.set("backends.append_ms_p50", median(appends) * 1e3)
        return layers

    def close(self) -> None:
        self._stop_live()


WORKLOADS = {
    workload.name: workload
    for workload in (
        MrtReplay,
        SteadyChurn,
        SlidingFlush,
        BatchClassify,
        ServeHot,
        ServeColdPublish,
        ParallelChurn,
    )
}
