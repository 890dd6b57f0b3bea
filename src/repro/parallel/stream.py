"""Multi-process execution of the streaming engine.

:class:`ParallelStreamEngine` is :class:`~repro.stream.engine.StreamEngine`
with the per-shard sanitation + dedup state held by a
:class:`~repro.parallel.pool.ShardProcessPool` for the duration of
:meth:`~ParallelStreamEngine.run`.  Everything else — block slicing at
checkpoint boundaries and window cuts, the clock, flushing, classification —
is the inherited code, so window snapshots, auto-checkpoint positions and
the drained final classification equal the synchronous engine's, event for
event.  Each span the base engine routes costs one scatter/gather
round-trip.

The pool's processes cannot share the engine's intern table, so they
deduplicate on sanitized ``(path, comm)`` pairs and the translation happens
at the process boundary only: gathered pairs are interned into the parent's
:class:`~repro.core.tuples.TupleTable` on the way in, and refs turn back
into pairs on the way out (eviction, state hand-off).
"""

from __future__ import annotations

from contextlib import suppress
from typing import Dict, Iterable, List, Optional, Tuple

from repro.bgp.announcement import RouteBlock, RouteObservation
from repro.core.results import ClassificationResult
from repro.sanitize.filters import SanitationStats
from repro.stream.engine import StreamConfig, StreamEngine, TupleKey
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

    # -- driving ------------------------------------------------------------------------
    def run(
        self, source: Iterable[RouteObservation], *, finish: bool = True
    ) -> ClassificationResult:
        """Drain *source* with the shard state on the worker fleet."""
        pool = ShardProcessPool(
            self.config.shards,
            self.workers,
            asn_registry=self._asn_registry,
            prefix_allocation=self._prefix_allocation,
        )
        self._pool = pool
        try:
            # Hand the router's shard state (restored, or left by ingest
            # calls made outside run()) to the processes.
            pool.load_state_dicts(
                [
                    {**state, "seen": set(self._pairs(state["seen"]))}
                    for state in (worker.state_dict() for worker in self.router.workers)
                ]
            )
            try:
                result = super().run(source, finish=finish)
            except Exception:
                # The classifier keeps what it absorbed before the failure
                # (a corrupt record, a dropped feed), so the mirror must too:
                # a checkpoint pairing it with the pre-run dedup sets counts
                # every absorbed tuple again on resume.  A fleet that no
                # longer answers has nothing to pull; what it raised stands.
                with suppress(Exception):
                    self._sync_router_state()
                raise
            # Sync *after* the final flush: its sliding eviction reaches the
            # pool only, and the mirror is what checkpoints persist.
            self._sync_router_state()
            return result
        finally:
            self._pool = None
            pool.close()

    def _route(
        self,
        span: RouteBlock,
        kept: Optional[List[Tuple[int, int, TupleKey]]],
    ) -> List[Tuple[int, TupleKey]]:
        if self._pool is None:
            return super()._route(span, kept)
        intern = self._table.intern
        gathered: List[Tuple[int, int, Tuple]] = []
        news = self._pool.process_batch(
            list(enumerate(span)), None if kept is None else gathered
        )
        if kept is not None:
            kept.extend([(seq, shard_id, intern(*pair)) for seq, shard_id, pair in gathered])
        return [(seq, intern(*pair)) for seq, _shard, pair in news]

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
