"""The one file of the benchmark that names symbols of the program under test.

Everything else in this directory talks to ``repro`` through the functions
below, so a later change that deletes a knob or a twin code path (ROADMAP
items 2-3) is absorbed here or nowhere.  Optional API is feature-detected
and the production path -- columnar tuples, block ingest, numpy kernels -- is
always the one selected.  A probe whose entry point has gone raises
:class:`Unavailable`; the caller reports that metric as null with the reason
and carries on.

Imports of ``repro`` are deferred into the functions: importing this module
starts nothing, and a missing layer only fails the probes that need it.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import pickle
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
SOURCE_ROOT = ROOT / "src"
if str(SOURCE_ROOT) not in sys.path:
    sys.path.insert(0, str(SOURCE_ROOT))

#: Event-time span of every generated feed, and the hourly tumbling window.
DAY_SECONDS = 86400
HOUR_SECONDS = 3600
#: Seed of the one synthetic topology all benchmark inputs are drawn on.
TOPOLOGY_SEED = 1


class Unavailable(Exception):
    """An optional entry point of the program no longer exists."""


def require_program() -> None:
    """Exit non-zero, before any result is printed, if ``repro`` is absent."""
    try:
        importlib.import_module("repro")
    except ImportError as error:
        raise SystemExit(f"benchmark: cannot import the program under test: {error}")


def probe(function: Callable) -> Callable:
    """Turn a vanished symbol inside *function* into :class:`Unavailable`."""

    @functools.wraps(function)
    def guarded(*args, **kwargs):
        try:
            return function(*args, **kwargs)
        except (ImportError, AttributeError) as error:
            raise Unavailable(f"{function.__name__}: {error}") from error

    return guarded


# -- feature detection --------------------------------------------------------------------
def _has_field(cls: type, name: str) -> bool:
    return any(field.name == name for field in dataclasses.fields(cls))


def _accepts(function: Callable, name: str) -> bool:
    import inspect

    return name in inspect.signature(function).parameters


def features() -> Dict[str, bool]:
    """Which optional API the checkout still has (recorded in the report)."""
    from repro.core import pipeline
    from repro.stream import engine, sharding

    try:
        matrix = importlib.import_module("repro.core.matrix")
        numpy_kernels = hasattr(matrix, "count_tagging_matrix")
    except ImportError:
        numpy_kernels = False
    return {
        "representation_knob": _has_field(engine.StreamConfig, "representation"),
        "pipeline_representation_knob": _accepts(
            pipeline.InferencePipeline.__init__, "representation"
        ),
        "process_block_new": hasattr(sharding.ShardRouter, "process_block_new"),
        "numpy_kernels": numpy_kernels,
    }


# -- seeded inputs ------------------------------------------------------------------------
def build_internet(scale: str, seed: int):
    """The synthetic Internet of experiment scale *scale*.

    The topology is the same for every seed; *seed* draws the day's traffic
    on it (which routes are missing, which flap, the noise communities).
    Redrawing the topology moved throughput by ~7 % between seeds on its own
    -- most of a 10 % regression bound -- without testing anything a new
    traffic draw does not.
    """
    from repro.datasets.synthetic import SyntheticInternet
    from repro.experiments.context import ExperimentScale

    config = ExperimentScale(scale).synthetic_config(seed=TOPOLOGY_SEED)
    config.archive.seed = seed
    return SyntheticInternet.build(config)


def aggregate_tuples(internet) -> list:
    return internet.tuples_for_aggregate()


def isolario_day_mrt(internet) -> Dict[str, bytes]:
    """One isolario day (RIB dumps + updates) as MRT bytes per collector."""
    archive = internet.archive_for("isolario")
    return archive.day_to_mrt(archive.generate_day(0))


def churn_feed(tuples: Sequence, repeat: int, duration: int = DAY_SECONDS) -> list:
    """*tuples* announced *repeat* times, spread evenly over *duration* seconds."""
    from repro.stream import ScenarioSource

    return list(ScenarioSource(tuples, duration=duration, repeat=repeat))


def describe_events(events: Iterable) -> Iterable[bytes]:
    """One canonical line per event, for the input digest."""
    paths: Dict[object, str] = {}
    comms: Dict[object, str] = {}
    for event in events:
        path = paths.get(event.path)
        if path is None:
            path = paths[event.path] = " ".join(map(str, event.path.asns))
        comm = comms.get(event.communities)
        if comm is None:
            comm = comms[event.communities] = ",".join(sorted(event.communities.to_strings()))
        yield f"{event.timestamp}|{event.peer_asn}|{path}|{comm}\n".encode()


def describe_tuples(tuples: Iterable) -> Iterable[bytes]:
    for item in tuples:
        asns = " ".join(map(str, item.path.asns))
        comm = ",".join(sorted(item.communities.to_strings()))
        yield f"{asns}|{comm}\n".encode()


def memory_source(events: Sequence):
    from repro.stream import MemorySource

    return MemorySource(events)


def mrt_source(blobs: Dict[str, bytes]):
    from repro.stream import MRTReplaySource

    return MRTReplaySource(blobs, order="archive")


# -- engines ------------------------------------------------------------------------------
def _stream_config(*, window: int, shards: int, sliding_horizon: Optional[int], production: bool):
    from repro.stream import StreamConfig, WindowPolicy, WindowSpec

    if sliding_horizon is None:
        spec = WindowSpec(size=window)
    else:
        spec = WindowSpec(size=window, policy=WindowPolicy.SLIDING, horizon=sliding_horizon)
    options = {"window": spec, "shards": shards}
    if production and _has_field(StreamConfig, "representation"):
        options["representation"] = "columnar"
    return StreamConfig(**options)


def stream_engine(
    *,
    window: int = HOUR_SECONDS,
    shards: int = 1,
    sliding_horizon: Optional[int] = None,
    on_window: Optional[Callable] = None,
    production: bool = True,
):
    """An in-process engine on the production path.

    ``production=False`` asks for the object-representation reference engine
    instead, and raises :class:`Unavailable` once that twin has been deleted.
    """
    from repro.stream import StreamConfig, StreamEngine

    if not production and not _has_field(StreamConfig, "representation"):
        raise Unavailable("StreamConfig.representation is gone: no reference engine")
    config = _stream_config(
        window=window, shards=shards, sliding_horizon=sliding_horizon, production=production
    )
    return StreamEngine(config, on_window=on_window)


def parallel_engine(*, window: int, shards: int, workers: int, on_window: Optional[Callable]):
    """The multi-process engine (it ships object tuples over IPC today)."""
    from repro.parallel.stream import ParallelStreamEngine

    config = _stream_config(window=window, shards=shards, sliding_horizon=None, production=False)
    return ParallelStreamEngine(config, workers=workers, on_window=on_window)


def engine_counts(engine) -> Dict[str, float]:
    """Deterministic counters of a drained engine."""
    stats = engine.stats
    sanitation = engine.sanitation_stats()
    loads = engine.router.load_distribution()
    mean_load = sum(loads) / len(loads) if loads else 0.0
    return {
        "events_in": stats.events_in,
        "blocks_in": stats.blocks_in,
        "windows_closed": stats.windows_closed,
        "tuples_evicted": stats.tuples_evicted,
        "late_events": engine.late_events,
        "unique_tuples": engine.unique_tuples,
        "tuples_added": engine.classifier.stats.tuples_added,
        "sanitize_events_in": sanitation.observations_in,
        "sanitize_events_out": sanitation.observations_out,
        "sanitize_dropped": sanitation.dropped_total,
        "load_skew": (max(loads) / mean_load) if mean_load else 0.0,
    }


# -- store, publishing, checkpoints ---------------------------------------------------------
def open_store(path: Path):
    from repro.service import open_store as open_store_url

    return open_store_url(f"sqlite:{path}")


def attach(engine, store) -> object:
    """Persist every window of *engine* into *store*; returns the publisher."""
    from repro.service import attach_store

    return attach_store(engine, store)


def publisher(store):
    """A standalone producer-side publisher (what ``stream --store`` uses)."""
    from repro.service import SnapshotPublisher

    return SnapshotPublisher(store)


def stored_latest(store):
    return store.load_snapshot(store.latest().snapshot_id)


def snapshot_view(snapshot) -> Tuple:
    """The fields two equal snapshots must agree on."""
    return (
        snapshot.window_start,
        snapshot.window_end,
        snapshot.events_total,
        snapshot.unique_tuples,
        snapshot.result.as_code_map(),
        dict(snapshot.changed),
    )


def code_map(result) -> Dict[int, str]:
    return result.as_code_map()


def checkpoint_roundtrip(engine, directory: Path) -> Tuple[float, float, int]:
    """``(save seconds, load seconds, file bytes)`` of one engine checkpoint."""
    from repro.stream import CheckpointManager

    manager = CheckpointManager(directory)
    started = time.perf_counter()
    path = manager.save(engine.state_dict())
    saved = time.perf_counter()
    manager.load()
    loaded = time.perf_counter()
    return saved - started, loaded - saved, Path(path).stat().st_size


# -- batch classification -----------------------------------------------------------------
def _pipeline(production: bool):
    from repro.core.pipeline import InferencePipeline

    if production and _accepts(InferencePipeline.__init__, "representation"):
        return InferencePipeline(representation="columnar")
    return InferencePipeline()


def classify_tuples(tuples: Sequence):
    """The paper's one-shot algorithm on the production path."""
    return _pipeline(production=True).run_from_tuples(tuples).result


def reference_from_tuples(tuples: Sequence):
    """The same classification from the object-representation reference."""
    from repro.core.pipeline import InferencePipeline

    if not _accepts(InferencePipeline.__init__, "representation"):
        raise Unavailable("InferencePipeline.representation is gone: no reference path")
    return _pipeline(production=False).run_from_tuples(tuples).result


def reference_from_observations(events: Iterable):
    """Sanitize + dedup + classify in one batch: the cumulative-ingest oracle."""
    return _pipeline(production=False).run_from_observations(events).result


def reference_from_mrt(blobs: Dict[str, bytes]):
    return _pipeline(production=False).run_from_mrt(blobs).result


def exported_database(result) -> bytes:
    from repro.core.export import ClassificationDatabase

    return ClassificationDatabase.from_result(result).dumps().encode()


# -- serving ------------------------------------------------------------------------------
def start_server(store_path: Path):
    """One server subprocess over *store_path*; ``.address`` and ``.close()``."""
    from repro.service import MultiWorkerServer

    return MultiWorkerServer(str(store_path), workers=1).start()


def socket_free_service(store):
    """Routing + cache + middleware without the socket; ``.handle(target)``."""
    from repro.service import ClassificationService

    return ClassificationService(store)


# -- isolated per-layer replays -------------------------------------------------------------
@probe
def replay_mrt_decode(blobs: Dict[str, bytes]) -> Dict[str, float]:
    """Decode every record of every blob; nothing above the decoder runs."""
    from repro.mrt.decoder import MRTDecodeError, MRTDecoder

    records = errors = 0
    started = time.perf_counter()
    for blob in blobs.values():
        try:
            for _record in MRTDecoder(blob):
                records += 1
        except MRTDecodeError:
            errors += 1
    seconds = time.perf_counter() - started
    return {
        "records": records,
        "errors": errors,
        "seconds": seconds,
        "bytes": sum(len(blob) for blob in blobs.values()),
    }


@probe
def replay_observe(blobs: Dict[str, bytes], block_size: int) -> Tuple[List[list], float]:
    """Decode + build observation blocks, as the replay source does."""
    from repro.collectors.archive import iter_observation_blocks_from_mrt

    started = time.perf_counter()
    blocks = [
        block
        for collector, blob in sorted(blobs.items())
        for block in iter_observation_blocks_from_mrt(blob, collector, block_size)
    ]
    return blocks, time.perf_counter() - started


@probe
def replay_sanitize(blocks: Sequence[Sequence]) -> Tuple[list, float]:
    """``Sanitizer.sanitize_block`` over the same blocks; returns what it kept."""
    from repro.sanitize.filters import Sanitizer

    sanitizer = Sanitizer()
    kept: list = []
    started = time.perf_counter()
    for block in blocks:
        kept.extend(item for item in sanitizer.sanitize_block(block) if item is not None)
    return kept, time.perf_counter() - started


@probe
def replay_intern(items: Sequence) -> Dict[str, float]:
    """Intern every ``(path, comm)`` of *items* into a fresh table."""
    from repro.core.tuples import TupleTable

    table = TupleTable()
    intern = table.intern
    started = time.perf_counter()
    refs = [intern(item.path, item.communities) for item in items]
    seconds = time.perf_counter() - started
    return {
        "seconds": seconds,
        "calls": len(refs),
        "paths": table.path_count,
        "comms": table.comm_count,
        "refs": refs,
        "table": table,
    }


@probe
def replay_classifier_add(table, refs: Sequence) -> Tuple[float, int]:
    """Queue each distinct interned tuple on a fresh incremental classifier."""
    from repro.stream.incremental import make_classifier

    classifier = make_classifier("column", representation="columnar", table=table)
    if not hasattr(classifier, "add_ref"):
        raise Unavailable("incremental classifier has no add_ref")
    distinct = list(dict.fromkeys(refs))
    add = classifier.add_ref
    started = time.perf_counter()
    for ref in distinct:
        add(ref)
    return time.perf_counter() - started, len(distinct)


@probe
def replay_pool(events: Sequence, *, shards: int, workers: int, batch: int) -> Dict[str, object]:
    """Scatter/gather the same blocks through a bare shard process pool.

    IPC bytes are computed by pickling what crosses the pipes (the scatter
    items per worker and the gathered results), not read off the sockets.
    """
    from repro.parallel.pool import ShardProcessPool

    roundtrips: List[float] = []
    ipc_bytes = 0
    with ShardProcessPool(shards, workers) as pool:
        for start in range(0, len(events), batch):
            block = list(enumerate(events[start : start + batch]))
            began = time.perf_counter()
            results = pool.process_batch(block)
            roundtrips.append(time.perf_counter() - began)
            ipc_bytes += len(pickle.dumps(block)) + len(pickle.dumps(results))
    return {"roundtrips": roundtrips, "ipc_bytes": ipc_bytes, "events": len(events)}


@probe
def replay_store_reads(store, asns: Sequence[int]) -> Dict[str, List[float]]:
    """Per-call seconds of the read paths the server leans on."""
    timings: Dict[str, List[float]] = {"as_latest": [], "as_history": [], "load_snapshot": []}
    for asn in asns:
        began = time.perf_counter()
        store.as_latest(asn)
        timings["as_latest"].append(time.perf_counter() - began)
        began = time.perf_counter()
        store.as_history(asn, limit=8)
        timings["as_history"].append(time.perf_counter() - began)
    for meta in store.snapshots()[-8:]:
        began = time.perf_counter()
        store.load_snapshot(meta.snapshot_id)
        timings["load_snapshot"].append(time.perf_counter() - began)
    return timings


#: Modules that look the counting kernels up by bare name, and the kernels.
_KERNEL_MODULES = ("repro.core.column", "repro.stream.incremental")
_KERNELS = {
    "count_tagging_phase_packed": "column.tagging_phase",
    "count_forwarding_phase_packed": "column.forwarding_phase",
    # The object-tuple twins, which the multi-process engine still counts with.
    "count_tagging_phase": "column.tagging_phase",
    "count_forwarding_phase": "column.forwarding_phase",
}


class KernelSpans:
    """Context manager: spans around the column counting kernels.

    The kernels are module-level functions, so the proxy is a wrapper put in
    place of the name in each module that calls them and taken out again on
    exit.  ``groups`` ends up as the largest group list any call counted over.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.groups = 0
        #: Whether any kernel entry point was found to wrap.
        self.available = False
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, span: str, function: Callable) -> Callable:
        traced = self.tracer.wrap(span, function)

        def counted(groups, *args, **kwargs):
            if len(groups) > self.groups:
                self.groups = len(groups)
            return traced(groups, *args, **kwargs)

        return counted

    def __enter__(self) -> "KernelSpans":
        for module_name in _KERNEL_MODULES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            for name, span in _KERNELS.items():
                function = getattr(module, name, None)
                if function is not None:
                    self._saved.append((module, name, function))
                    setattr(module, name, self._wrap(span, function))
        self.available = bool(self._saved)
        return self

    def __exit__(self, *_exc) -> None:
        for module, name, function in self._saved:
            setattr(module, name, function)
        self._saved.clear()
