"""Multi-process execution of the streaming engine.

:class:`ParallelStreamEngine` keeps the windowing, classification, and
checkpoint logic of :class:`~repro.stream.engine.StreamEngine` in the main
process and moves only the per-shard sanitation + dedup state into a
:class:`~repro.parallel.pool.ShardProcessPool`.  Events are read in blocks
(one scatter/gather round-trip per block, one block pass per shard inside
each worker process); when an event's timestamp crosses a window boundary
the block is split and everything before the crossing event is drained
*before* the window flushes, so every window snapshot — and the fully
drained final classification — is identical to the synchronous engine's,
event for event.

The pool's processes cannot share the engine's intern table, so they
deduplicate on sanitized ``(path, comm)`` pairs and the translation happens
at the process boundary only: gathered keys are interned into the parent's
:class:`~repro.core.tuples.TupleTable` before they are absorbed, and refs
turn back into pairs on the way out (eviction, state hand-off).

The one intentional divergence: ``checkpoint_every`` auto-checkpoints are
deferred to the next batch boundary, where the pool state and the classifier
state are mutually consistent.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.bgp.announcement import RouteObservation
from repro.core.results import ClassificationResult
from repro.sanitize.filters import SanitationStats
from repro.stream.engine import StreamConfig, StreamEngine, TupleKey
from repro.stream.sources import iter_event_blocks
from repro.parallel.pool import ShardProcessPool


class ParallelStreamEngine(StreamEngine):
    """A :class:`StreamEngine` whose shard workers live in other processes."""

    def __init__(
        self,
        config: Optional[StreamConfig] = None,
        *,
        workers: int = 2,
        **kwargs,
    ) -> None:
        super().__init__(config, **kwargs)
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.workers = workers
        self._pool: Optional[ShardProcessPool] = None
        self._checkpoint_pending = False

    # -- driving ------------------------------------------------------------------------
    def ingest(self, observation: RouteObservation) -> None:
        """Single-event ingestion is owned by the worker fleet; use :meth:`run`."""
        raise NotImplementedError(
            "ParallelStreamEngine processes events in batches; drive it with run()"
        )

    def run(
        self, source, *, finish: bool = True
    ) -> ClassificationResult:
        """Drain *source* through the worker fleet; returns the final result."""
        pool = ShardProcessPool(
            self.config.shards,
            self.workers,
            asn_registry=self._asn_registry,
            prefix_allocation=self._prefix_allocation,
            sanitation=self.config.sanitation,
        )
        self._pool = pool
        try:
            # Hand any restored shard state to the processes.
            pool.load_state_dicts(
                [
                    {**state, "seen": set(self._pairs(state["seen"]))}
                    for state in (worker.state_dict() for worker in self.router.workers)
                ]
            )
            # One scatter/gather round-trip per event block, sized by the same
            # ``config.ingest_block_size`` the synchronous engine reads.  The
            # clock advances block-at-a-time exactly like that engine; a
            # window cut splits the block so everything before the crossing
            # event is drained (and flushed) first.
            for block in iter_event_blocks(source, self.config.ingest_block_size):
                self._note_block(len(block))
                closes = self.clock.advance_block(
                    [event.timestamp for event in block]
                )
                start = 0
                for position, closed in closes:
                    if position > start:
                        self._drain(block[start:position])
                    self._flush(closed)
                    start = position
                self._drain(block[start:] if start else block)
            # Sync *after* the final flush: its sliding eviction reaches the
            # pool only, and the mirror is what checkpoints persist.
            result = self.finish() if finish else self.result()
            self._sync_router_state()
            return result
        finally:
            self._pool = None
            pool.close()

    def _drain(self, batch: List[RouteObservation]) -> None:
        """Scatter one batch to the fleet and absorb the gathered outcomes."""
        if not batch:
            return
        results = self._pool.process_batch(list(enumerate(batch)))
        intern = self._table.intern
        for seq, shard_id, outcome in results:
            if outcome is not None:
                key = intern(*outcome[0])
                outcome = (key, None if outcome[1] is None else key)
            self._absorb(batch[seq].timestamp, shard_id, outcome)
        if self._checkpoint_pending:
            self._checkpoint_pending = False
            self.checkpoint()

    # -- state plumbing -----------------------------------------------------------------
    def _pairs(self, refs: Iterable[TupleKey]) -> List[Tuple]:
        """The ``(path, comm)`` pairs behind interned *refs* (the pool's keys)."""
        path_of, comm_of = self._table.path_of, self._table.comm_of
        return [(path_of(path_id), comm_of(comm_id)) for path_id, comm_id in refs]

    def _sync_router_state(self) -> None:
        """Mirror the fleet's shard state into the in-process router."""
        intern = self._table.intern
        for worker, state in zip(self.router.workers, self._pool.state_dicts()):
            state["seen"] = {intern(path, comm) for path, comm in state["seen"]}
            worker.load_state_dict(state)

    def _router_evict(self, by_shard: Dict[int, List[TupleKey]]) -> None:
        if self._pool is not None:
            self._pool.evict(
                {shard_id: self._pairs(keys) for shard_id, keys in by_shard.items()}
            )
        else:
            super()._router_evict(by_shard)

    def _auto_checkpoint(self) -> None:
        # Mid-batch the pool has already sanitized events the classifier has
        # not absorbed yet; defer to the batch boundary where both agree.
        self._checkpoint_pending = True

    def checkpoint(self):
        """Persist the engine state (pulls shard state off the fleet first)."""
        if self._pool is not None:
            self._sync_router_state()
        return super().checkpoint()

    # -- views --------------------------------------------------------------------------
    @property
    def unique_tuples(self) -> int:
        """Unique ``(path, comm)`` tuples currently folded in."""
        if self._pool is not None:
            return self._pool.unique_tuples
        return super().unique_tuples

    def sanitation_stats(self) -> SanitationStats:
        """Merged sanitation statistics across all shards."""
        if self._pool is not None:
            return self._pool.sanitation_stats()
        return super().sanitation_stats()
