"""Partitioning of the event stream across per-AS-partition workers.

Events are routed by their collector-peer AS: every path starting at the
same peer lands on the same shard, so each shard's sanitizer + dedup set
owns a disjoint slice of the ``(path, comm)`` tuple space and never has to
coordinate with its siblings.  Because the incremental classifiers are
order- and partition-independent (phase contributions are commutative sums),
any shard count produces the identical classification — sharding is purely a
throughput/memory-layout decision, which the tests pin down by comparing a
1-shard and an 8-shard run.

A shard is driven a block at a time and hands back one thing: the
``(index, key)`` of the tuples **new** to it, in event order
(:meth:`ShardWorker.process_block`, merged across shards by
:meth:`ShardRouter.process_block`).  Callers that also need every surviving
observation's key — the engine's sliding-window retention map — pass a
``kept`` list to fill.  The process pool speaks the same contract over pipes.
The sanitize → dedup loop itself is
:meth:`~repro.sanitize.filters.Sanitizer.dedup_block`, the one batch
``classify`` runs too; a worker adds the shard's dedup set to it.

Workers are plain objects; the engine drives them synchronously, and
:class:`~repro.parallel.pool.ShardProcessPool` hosts the same class in
other processes, which is why their full state is checkpointable
independently.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.bgp.announcement import RouteBlock
from repro.bgp.asn import ASN, ASNRegistry
from repro.bgp.prefix import PrefixAllocation
from repro.core.tuples import TupleTable
from repro.sanitize.filters import SanitationStats, Sanitizer

#: Knuth's multiplicative hash constant; peer ASNs are often assigned in
#: dense ranges, so a plain modulo would skew the shard load badly.
_HASH_MULTIPLIER = 2654435761


def shard_of(peer_asn: ASN, shards: int) -> int:
    """Deterministic shard index of *peer_asn* (stable across processes)."""
    return ((peer_asn * _HASH_MULTIPLIER) & 0xFFFFFFFF) % shards


class ShardWorker:
    """One partition worker: the dedup set of one slice of the tuple space.

    Sanitation and dedup are its :class:`~repro.sanitize.filters.Sanitizer`'s
    block loop (which owns the outcome memo); the worker holds the dedup set,
    the event count and the checkpoint state.  The dedup key of a sanitized
    tuple is its ``(path_id, comm_id)`` ref into the engine's shared
    :class:`~repro.core.tuples.TupleTable`.  Without a table -- the process
    pool's workers live in other address spaces -- it is the sanitized
    ``(path, comm)`` pair, which the parent engine interns.
    """

    def __init__(
        self,
        shard_id: int,
        *,
        asn_registry: Optional[ASNRegistry] = None,
        prefix_allocation: Optional[PrefixAllocation] = None,
        table: Optional[TupleTable] = None,
    ) -> None:
        self.shard_id = shard_id
        self.sanitizer = Sanitizer(asn_registry=asn_registry, prefix_allocation=prefix_allocation)
        #: Dedup keys of the tuples this shard currently tracks.
        self._seen: Set[Tuple] = set()
        self.events_processed = 0
        self.table = table

    def process_block(
        self,
        block: RouteBlock,
        kept: Optional[List[Tuple[int, Tuple]]] = None,
        indices: Optional[Sequence[int]] = None,
    ) -> List[Tuple[int, Tuple]]:
        """Sanitize and dedup the shard-local routes of one block.

        *indices* selects the positions of *block* that are this shard's, all
        of them by default.  Returns ``(index, key)`` for the tuples new to
        this shard, in input order; *kept*, when a list, also receives
        ``(index, key)`` for every surviving route (what sliding-window
        retention needs).  See :meth:`Sanitizer.dedup_block`.
        """
        key = None if self.table is None else self.table.intern
        news = self.sanitizer.dedup_block(block, self._seen, kept, indices, key)
        self.events_processed += len(block) if indices is None else len(indices)
        return news

    def evict(self, keys: Iterable[Tuple]) -> int:
        """Forget expired tuple keys so they may re-enter later."""
        before = len(self._seen)
        self._seen.difference_update(keys)
        return before - len(self._seen)

    @property
    def unique_tuples(self) -> int:
        """Number of unique tuples this shard currently tracks."""
        return len(self._seen)

    # -- checkpointing ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Plain-data snapshot of the worker."""
        return {
            "shard_id": self.shard_id,
            # Copies: a snapshot must not move with the live worker.
            "seen": set(self._seen),
            "sanitation_stats": replace(self.sanitizer.stats),
            "events_processed": self.events_processed,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore the worker from :meth:`state_dict` output."""
        self._seen = set(state["seen"])
        self.sanitizer.stats = replace(state["sanitation_stats"])
        self.events_processed = state["events_processed"]
        # Memoised refs may point at ids interned after the checkpoint was
        # written; a restore rewinds the shared table, so drop them.
        self.sanitizer.clear_memo()


class ShardRouter:
    """Routes observations to shard workers and aggregates their stats."""

    def __init__(
        self,
        shards: int = 1,
        *,
        asn_registry: Optional[ASNRegistry] = None,
        prefix_allocation: Optional[PrefixAllocation] = None,
        table: Optional[TupleTable] = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        self.workers: List[ShardWorker] = [
            ShardWorker(
                shard_id,
                asn_registry=asn_registry,
                prefix_allocation=prefix_allocation,
                table=table,
            )
            for shard_id in range(shards)
        ]

    def __len__(self) -> int:
        return len(self.workers)

    def process_block(
        self,
        block: RouteBlock,
        kept: Optional[List[Tuple[int, int, Tuple]]] = None,
    ) -> List[Tuple[int, Tuple]]:
        """Partition one block across the shards; return its new tuples.

        Returns ``(index, key)`` for every tuple new to its shard, in event
        order, exactly as if each route had been handed to its shard's
        worker on its own.  The order is observable: the classifiers'
        checkpoint state pickles their pending-tuple queues.  When *kept* is
        a list it receives ``(index, shard_id, key)`` for every route that
        survived sanitation, also in event order.  Block indices are unique,
        so neither sort ever compares keys.
        """
        shard_count = len(self.workers)
        # One sweep computing every shard assignment of the block up front, so
        # each worker sees one pass over its positions (a lone shard: all).
        by_shard: List[Optional[List[int]]] = [None]
        if shard_count > 1:
            by_shard = [[] for _ in range(shard_count)]
            for index, peer_asn in enumerate(block.peer_asns):
                by_shard[((peer_asn * _HASH_MULTIPLIER) & 0xFFFFFFFF) % shard_count].append(index)
        news: List[Tuple[int, Tuple]] = []
        merged: List[Tuple[int, int, Tuple]] = []
        for worker, indices in zip(self.workers, by_shard):
            if indices == []:
                continue
            shard_kept: List[Tuple[int, Tuple]] = []
            news.extend(worker.process_block(block, None if kept is None else shard_kept, indices))
            merged.extend([(index, worker.shard_id, key) for index, key in shard_kept])
        news.sort()
        if kept is not None:
            merged.sort()
            kept.extend(merged)
        return news

    def evict(self, keys_by_shard: Dict[int, List[Tuple]]) -> int:
        """Evict expired tuple keys, pre-grouped by shard index."""
        removed = 0
        for shard_id, keys in keys_by_shard.items():
            removed += self.workers[shard_id].evict(keys)
        return removed

    @property
    def unique_tuples(self) -> int:
        """Unique tuples across all shards (partitions are disjoint)."""
        return sum(worker.unique_tuples for worker in self.workers)

    @property
    def events_processed(self) -> int:
        """Events processed across all shards."""
        return sum(worker.events_processed for worker in self.workers)

    def sanitation_stats(self) -> SanitationStats:
        """Merged sanitation statistics across all shards."""
        merged = SanitationStats()
        for worker in self.workers:
            stats = worker.sanitizer.stats
            for key, value in stats.as_dict().items():
                setattr(merged, key, getattr(merged, key) + value)
        return merged

    def load_distribution(self) -> List[int]:
        """Events per shard (balance diagnostics)."""
        return [worker.events_processed for worker in self.workers]

    # -- checkpointing ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Plain-data snapshot of every worker."""
        return {"workers": [worker.state_dict() for worker in self.workers]}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore all workers from :meth:`state_dict` output."""
        worker_states = state["workers"]
        if len(worker_states) != len(self.workers):
            raise ValueError(
                f"checkpoint has {len(worker_states)} shards, engine has {len(self.workers)}"
            )
        for worker, worker_state in zip(self.workers, worker_states):
            worker.load_state_dict(worker_state)
