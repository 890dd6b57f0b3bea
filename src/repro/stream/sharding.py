"""Partitioning of the event stream across per-AS-partition workers.

Events are routed by their collector-peer AS: every path starting at the
same peer lands on the same shard, so each shard's sanitizer + deduper pair
owns a disjoint slice of the ``(path, comm)`` tuple space and never has to
coordinate with its siblings.  Because the incremental classifiers are
order- and partition-independent (phase contributions are commutative sums),
any shard count produces the identical classification — sharding is purely a
throughput/memory-layout decision, which the tests pin down by comparing a
1-shard and an 8-shard run.

Workers are plain objects; the engine drives them synchronously.  A
multi-process deployment would place each :class:`ShardWorker` behind a
queue, which is why their full state is checkpointable independently.
"""

from __future__ import annotations

import operator
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bgp.announcement import RouteObservation
from repro.bgp.asn import ASN, ASNRegistry
from repro.bgp.prefix import PrefixAllocation
from repro.core.tuples import TupleTable
from repro.sanitize.filters import SanitationConfig, SanitationStats, Sanitizer, TupleDeduper

#: Knuth's multiplicative hash constant; peer ASNs are often assigned in
#: dense ranges, so a plain modulo would skew the shard load badly.
_HASH_MULTIPLIER = 2654435761

#: SanitationStats counter fields captured in memo deltas.  The in/out
#: totals are excluded: they change on *every* observation (in always, out
#: when kept), so the workers account for them arithmetically per memo hit
#: instead of replaying two recorded increments each time.
_STAT_FIELDS = tuple(
    name
    for name in SanitationStats().as_dict()
    if name not in ("observations_in", "observations_out")
)

#: One C-level call snapshotting every stat counter at once.
_STAT_SNAPSHOT = operator.attrgetter(*_STAT_FIELDS)

#: Per-observation result of :meth:`ShardWorker.process_block`: ``None`` when
#: the observation was dropped, else ``(key, new)`` where ``new`` is the key
#: again if the tuple is new to its shard and ``None`` for a duplicate.  The
#: key comes back for duplicates too so the engine can refresh
#: sliding-window retention timestamps.
Outcome = Optional[Tuple[Tuple, Optional[Tuple]]]


def shard_of(peer_asn: ASN, shards: int) -> int:
    """Deterministic shard index of *peer_asn* (stable across processes)."""
    return ((peer_asn * _HASH_MULTIPLIER) & 0xFFFFFFFF) % shards


class ShardWorker:
    """One partition worker: sanitation plus tuple deduplication.

    The dedup key of a sanitized tuple is its ``(path_id, comm_id)`` ref
    into the engine's shared :class:`~repro.core.tuples.TupleTable`.  The
    process pool's workers live in other address spaces and get no table:
    they key on the sanitized ``(path, comm)`` pair and the parent engine
    interns what they return.  The sanitation outcome is memoised per
    distinct ``(path, comm, peer)`` input — update streams re-announce the
    same tuples constantly, and sanitation is a pure function of those
    fields when no mutable allocation context (ASN registry / prefix
    allocation, which may change mid-stream by design) is attached.  Memo
    hits replay the recorded per-stat increments, so the sanitation
    statistics stay event-for-event identical to the unmemoised path.

    :meth:`process_block` is the engine's hot path: one call sanitizes and
    dedupes a whole block of shard-local observations with the memo lookup
    inlined, amortizing the per-event dispatch that dominates event-at-a-time
    ingest.
    """

    def __init__(
        self,
        shard_id: int,
        *,
        asn_registry: Optional[ASNRegistry] = None,
        prefix_allocation: Optional[PrefixAllocation] = None,
        sanitation: Optional[SanitationConfig] = None,
        table: Optional[TupleTable] = None,
    ) -> None:
        self.shard_id = shard_id
        self.sanitizer = Sanitizer(
            asn_registry=asn_registry,
            prefix_allocation=prefix_allocation,
            config=sanitation,
        )
        self.deduper = TupleDeduper()
        self.events_processed = 0
        self.table = table
        #: Sanitation memo: input key -> ``[dedup_key, stat_deltas,
        #: dup_outcome, pending_hits]``.  ``dedup_key`` is ``None`` when the
        #: input is dropped; ``stat_deltas`` are the per-stat
        #: increments to replay on every hit; ``dup_outcome`` is the
        #: preallocated ``(key, None)`` duplicate result; ``pending_hits``
        #: buffers hit counts within one :meth:`process_block` call so the
        #: replay happens once per block instead of once per event.  Bounded
        #: by the number of distinct inputs, like the dedup set itself.
        self._memo: Dict[Tuple, List] = {}

    def process_block(self, observations: Sequence[RouteObservation]) -> List[Outcome]:
        """Sanitize a block of shard-local observations in one pass.

        Returns one :data:`Outcome` per input, in input order.  The
        memo lookup and dedup are inlined into a single loop with hoisted
        attribute lookups, duplicate outcomes reuse the memo's preallocated
        tuple, and memo-hit stat replays are buffered per entry and applied
        once at the end of the block — this is where block ingest sheds the
        per-event dispatch cost.  The buffered replay is observationally
        identical to per-event replay: stats are only read between blocks,
        never inside one.
        """
        sanitizer = self.sanitizer
        memo = self._memo
        memo_get = memo.get
        seen = self.deduper._seen
        seen_add = seen.add
        # The registry / allocation objects are mutable mid-stream by design
        # (their lookups are deliberately uncached); memoising is only sound
        # without them.
        memoised = sanitizer.asn_registry is None and sanitizer.prefix_allocation is None
        out: List[Outcome] = []
        append = out.append
        if memoised:
            memo_entry = self._memo_entry
            touched: List[List] = []
            touched_append = touched.append
            hit_in = 0
            hit_out = 0
            for observation in observations:
                path = observation.path
                memo_key = (
                    path,
                    observation.communities,
                    observation.peer_asn,
                    path.has_as_set,
                )
                entry = memo_get(memo_key)
                if entry is None:
                    entry = memo[memo_key] = memo_entry(observation)
                    key = entry[0]
                else:
                    deltas = entry[1]
                    if deltas:
                        hits = entry[3]
                        if hits == 0:
                            touched_append(entry)
                        entry[3] = hits + 1
                    key = entry[0]
                    hit_in += 1
                    if key is not None:
                        hit_out += 1
                if key is None:
                    append(None)
                elif key in seen:
                    append(entry[2])
                else:
                    seen_add(key)
                    append((key, key))
            stats = sanitizer.stats
            stats.observations_in += hit_in
            stats.observations_out += hit_out
            if touched:
                for entry in touched:
                    hits = entry[3]
                    entry[3] = 0
                    for name, increment in entry[1]:
                        setattr(stats, name, getattr(stats, name) + increment * hits)
        else:
            recorded = self._sanitize_recorded
            for observation in observations:
                key = recorded(observation)[0]
                if key is None:
                    append(None)
                elif key in seen:
                    append((key, None))
                else:
                    seen_add(key)
                    append((key, key))
        self.events_processed += len(observations)
        return out

    def process_block_new(
        self, observations: Sequence[RouteObservation]
    ) -> List[Tuple[int, Tuple]]:
        """Sanitize a block, returning only the newly seen tuples.

        Returns ``(local_index, key)`` pairs in input order — the dedup key
        doubles as the new tuple handed to the classifier.  Dropped and
        duplicate observations produce no output at all, which is exactly
        what cumulative-window ingest needs: it lets the engine skip the
        per-event outcome list, the router's scatter pass, and the per-event
        absorb loop that :meth:`process_block` implies.  All side effects
        (dedup set, sanitation stats, event counters) are identical to
        :meth:`process_block`.
        """
        sanitizer = self.sanitizer
        memo = self._memo
        memo_get = memo.get
        seen = self.deduper._seen
        seen_add = seen.add
        news: List[Tuple[int, Tuple]] = []
        append = news.append
        if sanitizer.asn_registry is None and sanitizer.prefix_allocation is None:
            memo_entry = self._memo_entry
            touched: List[List] = []
            touched_append = touched.append
            hit_in = 0
            hit_out = 0
            index = -1
            for observation in observations:
                index += 1
                path = observation.path
                memo_key = (
                    path,
                    observation.communities,
                    observation.peer_asn,
                    path.has_as_set,
                )
                entry = memo_get(memo_key)
                if entry is None:
                    entry = memo[memo_key] = memo_entry(observation)
                    key = entry[0]
                else:
                    deltas = entry[1]
                    if deltas:
                        hits = entry[3]
                        if hits == 0:
                            touched_append(entry)
                        entry[3] = hits + 1
                    key = entry[0]
                    if key is None:
                        hit_in += 1
                        continue
                    hit_in += 1
                    hit_out += 1
                    if key not in seen:
                        seen_add(key)
                        append((index, key))
                    continue
                if key is not None and key not in seen:
                    seen_add(key)
                    append((index, key))
            stats = sanitizer.stats
            stats.observations_in += hit_in
            stats.observations_out += hit_out
            if touched:
                for entry in touched:
                    hits = entry[3]
                    entry[3] = 0
                    for name, increment in entry[1]:
                        setattr(stats, name, getattr(stats, name) + increment * hits)
        else:
            recorded = self._sanitize_recorded
            index = -1
            for observation in observations:
                index += 1
                key = recorded(observation)[0]
                if key is not None and key not in seen:
                    seen_add(key)
                    append((index, key))
        self.events_processed += len(observations)
        return news

    def _memo_entry(self, observation: RouteObservation) -> List:
        """Build one sanitation-memo entry (see the ``_memo`` field docs)."""
        key, deltas = self._sanitize_recorded(observation)
        return [key, deltas, None if key is None else (key, None), 0]

    def _sanitize_recorded(
        self, observation: RouteObservation
    ) -> Tuple[Optional[Tuple], Tuple[Tuple[str, int], ...]]:
        """Run full sanitation once; capture the stat increments it made.

        Returns the shard dedup key — the interned ref, or the sanitized
        ``(path, comm)`` pair when the worker has no table — or ``None``
        when the observation was dropped.
        """
        stats = self.sanitizer.stats
        before = _STAT_SNAPSHOT(stats)
        sanitized = self.sanitizer.sanitize_observation(observation)
        after = _STAT_SNAPSHOT(stats)
        changed: List[Tuple[str, int]] = []
        for name, now, previous in zip(_STAT_FIELDS, after, before):
            if now != previous:
                changed.append((name, now - previous))
        deltas = tuple(changed)
        if sanitized is None:
            return None, deltas
        if self.table is not None:
            return self.table.intern(sanitized.path, sanitized.communities), deltas
        return (sanitized.path, sanitized.communities), deltas

    def evict(self, keys: Iterable[Tuple]) -> int:
        """Forget expired tuple keys so they may re-enter later."""
        return self.deduper.discard(keys)

    @property
    def unique_tuples(self) -> int:
        """Number of unique tuples this shard currently tracks."""
        return len(self.deduper)

    # -- checkpointing ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Plain-data snapshot of the worker."""
        return {
            "shard_id": self.shard_id,
            "seen": set(self.deduper.state_dict()),
            "sanitation_stats": self.sanitizer.stats,
            "events_processed": self.events_processed,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore the worker from :meth:`state_dict` output."""
        self.deduper = TupleDeduper.from_state(set(state["seen"]))
        self.sanitizer.stats = state["sanitation_stats"]
        self.events_processed = state["events_processed"]
        # Memoised refs may point at ids interned after the checkpoint was
        # written; a restore rewinds the shared table, so drop them.
        self._memo.clear()


class ShardRouter:
    """Routes observations to shard workers and aggregates their stats."""

    def __init__(
        self,
        shards: int = 1,
        *,
        asn_registry: Optional[ASNRegistry] = None,
        prefix_allocation: Optional[PrefixAllocation] = None,
        sanitation: Optional[SanitationConfig] = None,
        table: Optional[TupleTable] = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        self.workers: List[ShardWorker] = [
            ShardWorker(
                shard_id,
                asn_registry=asn_registry,
                prefix_allocation=prefix_allocation,
                sanitation=sanitation,
                table=table,
            )
            for shard_id in range(shards)
        ]

    def __len__(self) -> int:
        return len(self.workers)

    def _partition(
        self, observations: Sequence[RouteObservation]
    ) -> List[Tuple[ShardWorker, List[int], List[RouteObservation]]]:
        """One sweep computing every shard assignment of a block up front.

        Returns ``(worker, block indices, shard-local observations)`` per
        shard that received anything, so each worker sees one contiguous
        sub-block instead of interleaved per-event calls.
        """
        shard_count = len(self.workers)
        multiplier = _HASH_MULTIPLIER
        grouped: List[Optional[Tuple[ShardWorker, List[int], List[RouteObservation]]]]
        grouped = [None] * shard_count
        for index, observation in enumerate(observations):
            shard_id = ((observation.peer_asn * multiplier) & 0xFFFFFFFF) % shard_count
            group = grouped[shard_id]
            if group is None:
                group = grouped[shard_id] = (self.workers[shard_id], [], [])
            group[1].append(index)
            group[2].append(observation)
        return [group for group in grouped if group is not None]

    def process_block(self, observations: Sequence[RouteObservation]) -> List[Outcome]:
        """Partition one block across shards and process it in one pass.

        Outcomes come back in input order, exactly as if each observation had
        been routed to its shard's worker on its own.
        """
        if len(self.workers) == 1:
            return self.workers[0].process_block(observations)
        out: List[Outcome] = [None] * len(observations)
        for worker, indices, shard_observations in self._partition(observations):
            for index, outcome in zip(indices, worker.process_block(shard_observations)):
                out[index] = outcome
        return out

    def process_block_new(
        self, observations: Sequence[RouteObservation]
    ) -> List[Tuple]:
        """Partition a block and return only its newly seen tuples, in event order.

        The classifiers' checkpoint state pickles their pending-tuple queues,
        so the order new tuples reach the classifier is observable; merging
        each shard's ``(local_index, key)`` pairs back through the partition's
        global indices keeps it identical to per-event routing.  Global
        indices are unique, so the sort never compares keys.
        """
        if len(self.workers) == 1:
            return [key for _, key in self.workers[0].process_block_new(observations)]
        merged: List[Tuple[int, Tuple]] = []
        for worker, indices, shard_observations in self._partition(observations):
            for local_index, key in worker.process_block_new(shard_observations):
                merged.append((indices[local_index], key))
        merged.sort()
        return [key for _, key in merged]

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
