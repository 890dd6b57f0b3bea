"""The streaming classification engine.

Consumes BGP update events from any :mod:`repro.stream.sources` feed,
shards them across per-partition sanitation workers, folds newly observed
``(path, comm)`` tuples into an incremental classifier, and emits a
:class:`WindowSnapshot` with the up-to-date per-AS classification every time
an event-time window closes.  State is periodically checkpointed so a
restarted engine resumes exactly where it left off.

Invariants the tests pin down:

* **batch equivalence** -- fully draining any feed under the cumulative
  policy yields a classification identical to
  :meth:`repro.core.pipeline.InferencePipeline.run_from_observations` over
  the same events, for any shard count and any event order;
* **checkpoint transparency** -- checkpoint + restore mid-stream and
  continuing produces the same final state as an uninterrupted run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.bgp.announcement import RouteBlock, RouteObservation
from repro.bgp.asn import ASN, ASNRegistry
from repro.bgp.prefix import PrefixAllocation
from repro.core.results import ClassificationResult, diff_code_maps
from repro.core.thresholds import Thresholds
from repro.core.tuples import TupleRef, TupleTable
from repro.sanitize.filters import SanitationStats
from repro.stream.checkpoint import CheckpointManager, refuse_removed_switches
from repro.stream.incremental import ColumnarColumnClassifier, classifier_from_state
from repro.stream.sharding import ShardRouter
from repro.stream.sources import iter_event_blocks
from repro.stream.window import ClosedWindow, WindowClock, WindowPolicy, WindowSpec

#: Default event-block size for block-oriented ingest.  Tuned on the stream
#: benchmark: big enough to amortize per-block dispatch (clock advance, shard
#: partition, absorb-loop setup) into the noise, small enough that a block is
#: cache-friendly and window-cut splits stay cheap.
DEFAULT_INGEST_BLOCK_SIZE = 4096

#: Upper bounds of the events-per-block histogram buckets exported through
#: :meth:`StreamEngine.ingest_stats` (the last bucket is unbounded).
INGEST_BLOCK_BUCKETS: Tuple[int, ...] = (1, 8, 64, 512, 4096, 32768)

#: Window snapshots an engine keeps in memory (``StreamEngine.snapshots``).
MAX_SNAPSHOTS = 64


@dataclass
class StreamConfig:
    """What the ``stream`` command sets: windows, shards, thresholds, checkpoints.

    Sanitation and the column loop are the paper's one procedure and take no
    settings; ``ingest_block_size`` is the only throughput knob.
    """

    window: WindowSpec = field(default_factory=WindowSpec)
    shards: int = 1
    thresholds: Thresholds = field(default_factory=Thresholds)
    #: Auto-checkpoint after this many ingested events (None = only manual).
    checkpoint_every: Optional[int] = None
    #: Events per ingest block when :meth:`StreamEngine.run` drives a source.
    #: Blocks straddling a window cut are split at the cut, so block size
    #: never changes window boundaries or snapshot contents.
    ingest_block_size: int = DEFAULT_INGEST_BLOCK_SIZE

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"need at least one shard, got {self.shards}")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.ingest_block_size < 1:
            raise ValueError(
                f"ingest_block_size must be >= 1, got {self.ingest_block_size}"
            )


@dataclass
class StreamStats:
    """Live counters describing what the engine has done so far."""

    events_in: int = 0
    windows_closed: int = 0
    tuples_evicted: int = 0
    checkpoints_written: int = 0
    #: Ingest blocks absorbed (a per-event ``ingest()`` counts as a 1-block).
    blocks_in: int = 0
    #: Events-per-block histogram, one count per :data:`INGEST_BLOCK_BUCKETS`
    #: bound plus a final overflow bucket.
    block_size_buckets: List[int] = field(
        default_factory=lambda: [0] * (len(INGEST_BLOCK_BUCKETS) + 1)
    )

    def copy(self) -> "StreamStats":
        """An independent copy (the histogram list included)."""
        return replace(self, block_size_buckets=list(self.block_size_buckets))

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for reporting."""
        return {
            "events_in": self.events_in,
            "windows_closed": self.windows_closed,
            "tuples_evicted": self.tuples_evicted,
            "checkpoints_written": self.checkpoints_written,
            "blocks_in": self.blocks_in,
        }


@dataclass
class WindowSnapshot:
    """What the engine emits when a window closes."""

    window_start: int
    window_end: int
    #: Empty windows collapsed into this close (quiet feed).
    skipped_windows: int
    events_total: int
    unique_tuples: int
    result: ClassificationResult
    #: ``{asn: (old_code, new_code)}`` relative to the previous snapshot.
    changed: Dict[ASN, Tuple[str, str]]

    def summary(self) -> Dict[str, int]:
        """Flat summary for logging and the CLI."""
        return {
            "window_start": self.window_start,
            "window_end": self.window_end,
            "events_total": self.events_total,
            "unique_tuples": self.unique_tuples,
            "changed_ases": len(self.changed),
            **self.result.summary(),
        }


#: Key identifying a unique ``(path, comm)`` tuple inside the engine: its
#: interned ref into the engine's shared :class:`TupleTable`.
TupleKey = TupleRef


class StreamEngine:
    """Incremental, windowed, checkpointable community-usage classification."""

    def __init__(
        self,
        config: Optional[StreamConfig] = None,
        *,
        asn_registry: Optional[ASNRegistry] = None,
        prefix_allocation: Optional[PrefixAllocation] = None,
        checkpoints: Optional[CheckpointManager] = None,
        on_window: Optional[Callable[[WindowSnapshot], None]] = None,
    ) -> None:
        self.config = config or StreamConfig()
        self.checkpoints = checkpoints
        self.on_window = on_window
        self.stats = StreamStats()
        self.snapshots: List[WindowSnapshot] = []
        self._asn_registry = asn_registry
        self._prefix_allocation = prefix_allocation
        #: The intern table shared by the shard workers (dedup keys), the
        #: classifier (counting groups) and the retention map.
        self._table = TupleTable()
        self.router = ShardRouter(
            self.config.shards,
            asn_registry=asn_registry,
            prefix_allocation=prefix_allocation,
            table=self._table,
        )
        self.clock = WindowClock(self.config.window)
        self.classifier = ColumnarColumnClassifier(self.config.thresholds, table=self._table)
        self._last_codes: Dict[ASN, str] = {}
        #: Sliding policy only: tuple key -> (last observed event time, shard).
        self._last_seen: Dict[TupleKey, Tuple[int, int]] = {}
        self._events_since_checkpoint = 0
        #: Publish progress recorded in the checkpoint this engine was
        #: restored from: the highest window_end a store-attached publisher
        #: had durably confirmed when the checkpoint was written.  ``None``
        #: for fresh engines or checkpoints written without a publisher.
        self.restored_published_through: Optional[int] = None

    # -- convenience views --------------------------------------------------------------
    @property
    def unique_tuples(self) -> int:
        """Unique ``(path, comm)`` tuples currently folded in."""
        return self.router.unique_tuples

    @property
    def late_events(self) -> int:
        """Events that arrived behind the watermark."""
        return self.clock.late_events

    def sanitation_stats(self) -> SanitationStats:
        """Merged sanitation statistics across all shards."""
        return self.router.sanitation_stats()

    def ingest_stats(self) -> Dict[str, object]:
        """Block-path health counters in plain-data (JSON-safe) form.

        This is what the service layer publishes to the snapshot store and
        renders on ``/metrics``: block totals, the events-per-block
        histogram (bounds in :data:`INGEST_BLOCK_BUCKETS`), and the
        sanitation drop counters by reason.
        """
        sanitation = self.sanitation_stats().as_dict()
        return {
            "blocks_total": self.stats.blocks_in,
            "events_total": self.stats.events_in,
            "events_per_block_bounds": list(INGEST_BLOCK_BUCKETS),
            "events_per_block_buckets": list(self.stats.block_size_buckets),
            "dropped": {
                name[len("dropped_") :]: value
                for name, value in sanitation.items()
                if name.startswith("dropped_")
            },
        }

    # -- ingestion ----------------------------------------------------------------------
    def ingest(self, observation: RouteObservation) -> None:
        """Feed one update event into the engine (a one-event block).

        The window clock advances first, so an event whose timestamp crosses
        a window boundary closes (and flushes) that window before the event
        itself is counted into the next one.  This is a thin shim over
        :meth:`ingest_block` kept for API compatibility; feeds that can
        batch should hand the engine whole blocks instead.
        """
        self.ingest_block((observation,))

    def ingest_block(self, events: Sequence[RouteObservation]) -> None:
        """Feed one block of update events into the engine.

        The whole block advances the window clock in a single pass; when a
        block straddles one or more window cuts it is split at each cut —
        events up to the crossing event are absorbed, the window flushes,
        then ingestion continues — so snapshots (and therefore downstream
        publishes) are byte-identical to per-event ingest regardless of
        block size.  Each contiguous span between cuts takes one shard
        partition pass through the router.  Anything but a
        :class:`~repro.bgp.announcement.RouteBlock` is lowered to one here, once.
        """
        count = len(events)
        if count == 0:
            return
        events = RouteBlock.from_observations(events)
        self._note_block(count)
        if self.checkpoints is not None and self.config.checkpoint_every is not None:
            # Chunk at checkpoint boundaries BEFORE anything sees the block:
            # a mid-block auto checkpoint must capture the clock (watermark,
            # late counts, pending windows) and the shard workers (dedup
            # sets, sanitation stats) covering exactly the events before it,
            # byte-identical to per-event ingest.  Advancing the clock over
            # the whole block first would leak later events' watermark moves
            # into the checkpoint.
            every = self.config.checkpoint_every
            start = 0
            while start < count:
                stop = min(count, start + every - self._events_since_checkpoint)
                if stop <= start:
                    # The counter also runs while no manager is attached, so
                    # one attached mid-stream can find it past the threshold;
                    # absorb the remainder in one span rather than spin.
                    stop = count
                self._ingest_span(
                    events if stop - start == count else events[start:stop]
                )
                start = stop
                if self._events_since_checkpoint >= every:
                    self._auto_checkpoint()
            return
        self._ingest_span(events)

    def _ingest_span(self, events: RouteBlock) -> None:
        """Advance the clock over one span, flushing windows at each cut."""
        closes = self.clock.advance_block(events.timestamps)
        if not closes:
            self._absorb_span(events)
            return
        start = 0
        for position, closed in closes:
            if position > start:
                self._absorb_span(events[start:position])
            self._flush(closed)
            start = position
        self._absorb_span(events[start:] if start else events)

    def _note_block(self, count: int) -> None:
        """Record one ingested block in the stats histogram."""
        stats = self.stats
        stats.blocks_in += 1
        bucket = 0
        for bound in INGEST_BLOCK_BUCKETS:
            if count <= bound:
                break
            bucket += 1
        stats.block_size_buckets[bucket] += 1

    def _absorb_span(self, span: RouteBlock) -> None:
        """Route one span through the shards and fold in what comes back.

        The shards hand back the newly seen tuples, which is all a
        cumulative window needs.  Sliding windows also ask for every kept
        event's key, to refresh its retention timestamp.
        """
        kept: Optional[List[Tuple[int, int, TupleKey]]] = None
        if self.config.window.policy is WindowPolicy.SLIDING:
            kept = []
        news = self._route(span, kept)
        if kept:
            last_seen = self._last_seen
            timestamps = span.timestamps
            for index, shard_id, key in kept:
                timestamp = timestamps[index]
                previous = last_seen.get(key)
                # A late out-of-order duplicate must not rewind retention.
                if previous is None or timestamp > previous[0]:
                    last_seen[key] = (timestamp, shard_id)
        self.classifier.add_refs([key for _, key in news])
        self.stats.events_in += len(span)
        self._events_since_checkpoint += len(span)

    def _route(
        self,
        span: RouteBlock,
        kept: Optional[List[Tuple[int, int, TupleKey]]],
    ) -> List[Tuple[int, TupleKey]]:
        """Sanitize + dedup one span wherever the shard state lives."""
        return self.router.process_block(span, kept)

    def _auto_checkpoint(self) -> None:
        """Periodic checkpoint trigger (overridable by execution layers)."""
        self.checkpoint()

    def run(
        self, source: Iterable[RouteObservation], *, finish: bool = True
    ) -> ClassificationResult:
        """Drain *source* through the engine block by block.

        Sources conforming to :class:`~repro.stream.sources.BlockSource`
        yield their own blocks; plain iterables are chunked.  Block size
        comes from :attr:`StreamConfig.ingest_block_size` and never changes
        the result (window cuts split blocks; see :meth:`ingest_block`).
        """
        for block in iter_event_blocks(source, self.config.ingest_block_size):
            self.ingest_block(block)
        if finish:
            return self.finish()
        return self.result()

    def finish(self) -> ClassificationResult:
        """Close the in-progress window and return the final classification."""
        closed = self.clock.close_current()
        if closed is None:
            return self.classifier.update()
        return self._flush(closed)

    def result(self) -> ClassificationResult:
        """The classification as of the last window flush."""
        return self.classifier.result()

    # -- window handling ----------------------------------------------------------------
    def _evict_expired(self, cutoff: int) -> None:
        """Sliding policy: drop tuples last observed before *cutoff*."""
        expired = [key for key, (seen, _) in self._last_seen.items() if seen < cutoff]
        if not expired:
            return
        by_shard: Dict[int, List[TupleKey]] = {}
        for key in expired:
            _, shard_id = self._last_seen.pop(key)
            by_shard.setdefault(shard_id, []).append(key)
        self._router_evict(by_shard)
        self.classifier.evict_refs(expired)
        self.stats.tuples_evicted += len(expired)

    def _router_evict(self, by_shard: Dict[int, List[TupleKey]]) -> None:
        """Forget expired keys wherever the shard dedup state lives."""
        self.router.evict(by_shard)

    def _flush(self, closed: ClosedWindow) -> ClassificationResult:
        """Close one window: evict, reclassify, snapshot, notify; the result it emitted."""
        if self.config.window.policy is WindowPolicy.SLIDING:
            self._evict_expired(closed.end - self.config.window.effective_horizon)
        result = self.classifier.update()
        codes = result.as_code_map()
        changed = diff_code_maps(self._last_codes, codes)
        self._last_codes = codes
        snapshot = WindowSnapshot(
            window_start=closed.start,
            window_end=closed.end,
            skipped_windows=closed.skipped,
            events_total=self.stats.events_in,
            unique_tuples=self.unique_tuples,
            result=result,
            changed=changed,
        )
        self.snapshots.append(snapshot)
        if len(self.snapshots) > MAX_SNAPSHOTS:
            del self.snapshots[: len(self.snapshots) - MAX_SNAPSHOTS]
        self.stats.windows_closed += 1
        if self.on_window is not None:
            self.on_window(snapshot)
        return result

    # -- checkpointing ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Plain-data snapshot of the complete engine state."""
        return {
            "config": self.config,
            "asn_registry": self._asn_registry,
            "prefix_allocation": self._prefix_allocation,
            # The shared intern table the classifier state and the
            # dedup/retention keys refer into.
            "table": self._table.state_dict(),
            "router": self.router.state_dict(),
            "clock": self.clock.state_dict(),
            "classifier": self.classifier.state_dict(),
            # A copy, like every other entry: a snapshot taken mid-stream
            # must not move with the live counters.
            "stats": self.stats.copy(),
            "last_codes": dict(self._last_codes),
            "last_seen": dict(self._last_seen),
            # Publish progress rides along when a store publisher is the
            # installed on_window callback (duck-typed: the stream layer
            # does not import repro.service).  A resumed run can then tell
            # how far ahead of this checkpoint the store already is.
            "published_through": getattr(self.on_window, "published_through", None),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore the engine in place from :meth:`state_dict` output.

        The config is rebuilt from this version's fields: a format-3
        checkpoint written while ``StreamConfig`` still carried the method
        switches restores when they hold their defaults (its snapshot cap is
        now :data:`MAX_SNAPSHOTS`), and is a :class:`CheckpointError` otherwise.
        """
        config = state["config"]
        refuse_removed_switches(vars(config))
        self.config = StreamConfig(
            **{spec.name: getattr(config, spec.name) for spec in fields(StreamConfig)}
        )
        # Sanitation context must survive a restore, or a resumed engine
        # would filter differently than the one that wrote the checkpoint.
        self._asn_registry = state.get("asn_registry")
        self._prefix_allocation = state.get("prefix_allocation")
        # The table loads in place *first*: router dedup keys and the
        # classifier state restored below refer into it, and every holder
        # (workers, classifier) shares this one object.
        self._table.load_state(state["table"])
        for worker in self.router.workers:
            worker.sanitizer.asn_registry = self._asn_registry
            worker.sanitizer.prefix_allocation = self._prefix_allocation
        self.router.load_state_dict(state["router"])
        self.clock = WindowClock.from_state(state["clock"])
        self.classifier = classifier_from_state(state["classifier"], self._table)
        self.stats = state["stats"].copy()
        self._last_codes = dict(state["last_codes"])
        self._last_seen = dict(state["last_seen"])
        self._events_since_checkpoint = 0
        self.restored_published_through = state.get("published_through")

    def checkpoint(self) -> Optional[os.PathLike]:
        """Persist the current state through the checkpoint manager."""
        if self.checkpoints is None:
            return None
        path = self.checkpoints.save(self.state_dict())
        self.stats.checkpoints_written += 1
        self._events_since_checkpoint = 0
        return path

    @classmethod
    def restore(
        cls,
        checkpoints: Union[CheckpointManager, os.PathLike],
        *,
        on_window: Optional[Callable[[WindowSnapshot], None]] = None,
    ) -> "StreamEngine":
        """Rebuild an engine from the latest checkpoint (or a directory)."""
        manager = (
            checkpoints
            if isinstance(checkpoints, CheckpointManager)
            else CheckpointManager(checkpoints)
        )
        state = manager.load()
        engine = cls(state["config"], checkpoints=manager, on_window=on_window)
        engine.load_state_dict(state)
        return engine
