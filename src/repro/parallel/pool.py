"""Shard-affine sanitation worker processes.

The sanitation + deduplication stage is stateful per shard (every shard owns
the dedup set of its slice of the tuple space), so it cannot run on an
anonymous task pool: the same shard must always be served by the same
process.  :class:`ShardProcessPool` therefore starts a fixed set of worker
processes, assigns every shard to exactly one of them (``shard_id % workers``),
and speaks a small scatter/gather protocol over pipes:

* ``process`` -- sanitize + dedup a batch of ``(seq, shard, observation)``
  items and return ``(seq, shard, pair)`` for the newly seen tuples only (on
  request also for every kept item), plus refreshed shard gauges;
* ``evict`` -- forget expired tuple keys (sliding windows);
* ``state`` / ``load_state`` -- full per-shard checkpoint state, so the
  in-process :class:`~repro.stream.sharding.ShardRouter` and the process pool
  can hand their state to each other;
* ``stats`` -- per-shard sanitation statistics.

Routing uses the same :func:`~repro.stream.sharding.shard_of` hash as the
synchronous engine, so any ``(shards, workers)`` combination yields exactly
the partitioning — and hence exactly the classification — of a serial run.
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bgp.announcement import RouteBlock, RouteObservation
from repro.bgp.asn import ASNRegistry
from repro.bgp.prefix import PrefixAllocation
from repro.sanitize.filters import SanitationStats
from repro.stream.sharding import ShardWorker, shard_of

#: One scatter item: global sequence number, owning shard, observation.
WorkItem = Tuple[int, int, RouteObservation]

#: One gather item: sequence number, owning shard, and the sanitized
#: ``(path, comm)`` pair the shard worker keys on (no shared table).
WorkResult = Tuple[int, int, Tuple]


def _gauges(workers: Dict[int, ShardWorker]) -> Dict[int, int]:
    """Unique tuples per owned shard (piggybacked on every mutating reply)."""
    return {shard_id: worker.unique_tuples for shard_id, worker in workers.items()}


def _worker_loop(conn, shard_ids, asn_registry, prefix_allocation) -> None:
    """Entry point of one worker process (owns one or more shards)."""
    workers: Dict[int, ShardWorker] = {
        shard_id: ShardWorker(
            shard_id, asn_registry=asn_registry, prefix_allocation=prefix_allocation
        )
        for shard_id in shard_ids
    }
    try:
        while True:
            message = conn.recv()
            command = message[0]
            if command == "process":
                # One block pass per owned shard, same contract as the
                # in-process router: new tuples back, kept ones on request.
                want_kept = message[2]
                by_shard: Dict[int, Tuple[List[int], List[RouteObservation]]] = {}
                for seq, shard_id, observation in message[1]:
                    group = by_shard.get(shard_id)
                    if group is None:
                        group = by_shard[shard_id] = ([], [])
                    group[0].append(seq)
                    group[1].append(observation)
                news: List[WorkResult] = []
                kept: List[WorkResult] = []
                for shard_id, (seqs, observations) in by_shard.items():
                    shard_kept: List[Tuple[int, Tuple]] = []
                    block = RouteBlock.from_observations(observations)
                    for local, pair in workers[shard_id].process_block(
                        block, shard_kept if want_kept else None
                    ):
                        news.append((seqs[local], shard_id, pair))
                    kept.extend([(seqs[local], shard_id, pair) for local, pair in shard_kept])
                conn.send(("results", news, kept, _gauges(workers)))
            elif command == "evict":
                removed = 0
                for shard_id, keys in message[1].items():
                    removed += workers[shard_id].evict(keys)
                conn.send(("evicted", removed, _gauges(workers)))
            elif command == "state":
                conn.send(
                    ("state", {shard_id: w.state_dict() for shard_id, w in workers.items()})
                )
            elif command == "load_state":
                for shard_id, state in message[1].items():
                    workers[shard_id].load_state_dict(state)
                conn.send(("ok",))
            elif command == "stats":
                conn.send(
                    ("stats", {shard_id: w.sanitizer.stats for shard_id, w in workers.items()})
                )
            elif command == "close":
                conn.send(("closed",))
                return
            else:  # pragma: no cover - protocol misuse
                conn.send(("error", f"unknown command {command!r}"))
    except EOFError:  # pragma: no cover - parent died; exit quietly
        return
    except Exception as exc:  # surface worker failures to the parent
        conn.send(("error", f"{type(exc).__name__}: {exc}"))


class ShardProcessPool:
    """A fixed fleet of processes hosting the per-shard sanitation state."""

    def __init__(
        self,
        shards: int,
        workers: int,
        *,
        asn_registry: Optional[ASNRegistry] = None,
        prefix_allocation: Optional[PrefixAllocation] = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.shards = shards
        self.workers = min(workers, shards)
        ctx = multiprocessing.get_context()
        self._conns = []
        self._procs = []
        for worker_id in range(self.workers):
            shard_ids = list(range(worker_id, shards, self.workers))
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_loop,
                args=(child_conn, shard_ids, asn_registry, prefix_allocation),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        #: Latest known unique-tuple count per shard.
        self.gauges: Dict[int, int] = {shard_id: 0 for shard_id in range(shards)}

    # -- routing ------------------------------------------------------------------------
    def shard_for(self, observation: RouteObservation) -> int:
        """The shard owning *observation*'s partition."""
        if self.shards == 1:
            return 0
        return shard_of(observation.peer_asn, self.shards)

    def _worker_of(self, shard_id: int) -> int:
        return shard_id % self.workers

    def _recv(self, worker_id: int):
        reply = self._conns[worker_id].recv()
        if reply[0] == "error":
            raise RuntimeError(f"shard worker {worker_id} failed: {reply[1]}")
        return reply

    def _broadcast(self, message: Tuple) -> List:
        for conn in self._conns:
            conn.send(message)
        return [self._recv(worker_id) for worker_id in range(self.workers)]

    # -- scatter / gather -----------------------------------------------------------------
    def process_batch(
        self,
        batch: Sequence[Tuple[int, RouteObservation]],
        kept: Optional[List[WorkResult]] = None,
    ) -> List[WorkResult]:
        """Sanitize one batch on the worker fleet; new tuples in sequence order.

        *batch* holds ``(seq, observation)`` items with distinct ``seq``.
        Returned are the ``(seq, shard_id, pair)`` of the tuples new to their
        shard, sorted by ``seq`` (distinct, so the sort never compares
        pairs): concatenating batches reproduces the first-appearance order
        of a serial run.  When *kept* is a list it is extended with the same
        triple for every item that survived sanitation, also by ``seq``.
        """
        by_worker: Dict[int, List[WorkItem]] = {}
        for seq, observation in batch:
            shard_id = self.shard_for(observation)
            by_worker.setdefault(self._worker_of(shard_id), []).append(
                (seq, shard_id, observation)
            )
        for worker_id, items in by_worker.items():
            self._conns[worker_id].send(("process", items, kept is not None))
        news: List[WorkResult] = []
        gathered: List[WorkResult] = []
        for worker_id in by_worker:
            reply = self._recv(worker_id)
            news.extend(reply[1])
            gathered.extend(reply[2])
            self.gauges.update(reply[3])
        news.sort()
        if kept is not None:
            gathered.sort()
            kept.extend(gathered)
        return news

    def evict(self, keys_by_shard: Dict[int, List[Tuple]]) -> int:
        """Evict expired tuple keys, pre-grouped by shard index."""
        by_worker: Dict[int, Dict[int, List[Tuple]]] = {}
        for shard_id, keys in keys_by_shard.items():
            by_worker.setdefault(self._worker_of(shard_id), {})[shard_id] = keys
        for worker_id, shard_keys in by_worker.items():
            self._conns[worker_id].send(("evict", shard_keys))
        removed = 0
        for worker_id in by_worker:
            reply = self._recv(worker_id)
            removed += reply[1]
            self.gauges.update(reply[2])
        return removed

    # -- aggregate views ------------------------------------------------------------------
    @property
    def unique_tuples(self) -> int:
        """Unique tuples across all shards, as of the last gather."""
        return sum(self.gauges.values())

    def sanitation_stats(self) -> SanitationStats:
        """Merged sanitation statistics across all shards (synchronous)."""
        merged = SanitationStats()
        for reply in self._broadcast(("stats",)):
            for stats in reply[1].values():
                for key, value in stats.as_dict().items():
                    setattr(merged, key, getattr(merged, key) + value)
        return merged

    # -- state hand-off -------------------------------------------------------------------
    def state_dicts(self) -> List[Dict[str, object]]:
        """Per-shard worker states in shard order (for checkpointing)."""
        states: Dict[int, Dict[str, object]] = {}
        for reply in self._broadcast(("state",)):
            states.update(reply[1])
        return [states[shard_id] for shard_id in range(self.shards)]

    def load_state_dicts(self, states: Sequence[Dict[str, object]]) -> None:
        """Push per-shard worker states (shard order) into the processes."""
        if len(states) != self.shards:
            raise ValueError(f"got {len(states)} shard states for {self.shards} shards")
        by_worker: Dict[int, Dict[int, Dict[str, object]]] = {}
        for shard_id, state in enumerate(states):
            by_worker.setdefault(self._worker_of(shard_id), {})[shard_id] = state
        for worker_id, shard_states in by_worker.items():
            self._conns[worker_id].send(("load_state", shard_states))
        for worker_id in by_worker:
            self._recv(worker_id)
        for shard_id, state in enumerate(states):
            self.gauges[shard_id] = len(state["seen"])

    # -- lifecycle ------------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker fleet down (idempotent)."""
        for conn, proc in zip(self._conns, self._procs):
            if proc.is_alive():
                try:
                    conn.send(("close",))
                    conn.recv()
                except (BrokenPipeError, EOFError, OSError):  # pragma: no cover
                    pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()

    def __enter__(self) -> "ShardProcessPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
