"""The sanitation pipeline itself.

:class:`Sanitizer` turns raw decoded collector data (RIB entries and update
messages) into the deduplicated list of ``(path, comm)`` tuples that the
inference algorithm consumes, applying the filtering and transformation steps
of Section 4.1 and recording statistics about what was dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.bgp.announcement import PathCommTuple, RouteObservation, iter_blocks
from repro.bgp.asn import ASN, ASNRegistry, is_public_asn
from repro.bgp.path import ASPath
from repro.bgp.prefix import PrefixAllocation


@dataclass
class SanitationConfig:
    """Switches for the individual sanitation steps.

    All steps default to the paper's behaviour; tests and ablations can turn
    individual steps off to measure their effect.
    """

    drop_unallocated_prefixes: bool = True
    drop_unallocated_asns: bool = True
    drop_as_sets: bool = True
    drop_loops: bool = True
    prepend_peer_asn: bool = True
    collapse_prepending: bool = True
    max_path_length: Optional[int] = None


#: Path-level counters a memo hit replays in place of :meth:`Sanitizer.sanitize_path`.
_PATH_STAT_FIELDS: Tuple[str, ...] = (
    "dropped_as_set",
    "dropped_empty_path",
    "peer_prepended",
    "prepending_collapsed",
    "dropped_loop",
    "dropped_unallocated_asn",
    "dropped_too_long",
)
#: Observations decoded and sanitized per block by the batch path (purely a
#: throughput constant, never changes the output).
SANITIZE_BLOCK_SIZE = 4096
#: One C-level call snapshotting all of them at once.
_PATH_STATS = attrgetter(*_PATH_STAT_FIELDS)
#: The counters one :meth:`Sanitizer.sanitize_path` call moved: ``(name, increment)`` pairs.
StatDeltas = Tuple[Tuple[str, int], ...]


@dataclass
class SanitationStats:
    """Counters describing what the sanitizer did."""

    observations_in: int = 0
    observations_out: int = 0
    dropped_unallocated_prefix: int = 0
    dropped_unallocated_asn: int = 0
    dropped_as_set: int = 0
    dropped_loop: int = 0
    dropped_too_long: int = 0
    dropped_empty_path: int = 0
    peer_prepended: int = 0
    prepending_collapsed: int = 0

    @property
    def dropped_total(self) -> int:
        """Number of observations removed by any filter."""
        return self.observations_in - self.observations_out

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for reporting."""
        return {
            "observations_in": self.observations_in,
            "observations_out": self.observations_out,
            "dropped_unallocated_prefix": self.dropped_unallocated_prefix,
            "dropped_unallocated_asn": self.dropped_unallocated_asn,
            "dropped_as_set": self.dropped_as_set,
            "dropped_loop": self.dropped_loop,
            "dropped_too_long": self.dropped_too_long,
            "dropped_empty_path": self.dropped_empty_path,
            "peer_prepended": self.peer_prepended,
            "prepending_collapsed": self.prepending_collapsed,
        }


class Sanitizer:
    """Applies the Section 4.1 sanitation steps to route observations."""

    def __init__(
        self,
        *,
        asn_registry: Optional[ASNRegistry] = None,
        prefix_allocation: Optional[PrefixAllocation] = None,
        config: Optional[SanitationConfig] = None,
    ) -> None:
        self.asn_registry = asn_registry
        self.prefix_allocation = prefix_allocation
        self.config = config or SanitationConfig()
        self.stats = SanitationStats()
        # Memo for the pure is_public_asn predicate; paths repeat heavily in
        # update streams, and registry allocation (which can change) is
        # deliberately NOT cached.
        self._public_asn_cache: Dict[ASN, bool] = {}

    # -- single-observation path --------------------------------------------
    def sanitize_path(self, path: ASPath, peer_asn: Optional[ASN] = None) -> Optional[ASPath]:
        """Sanitize one AS path; return ``None`` if it must be dropped."""
        config = self.config
        if config.drop_as_sets and path.has_as_set:
            self.stats.dropped_as_set += 1
            return None
        if len(path) == 0:
            self.stats.dropped_empty_path += 1
            return None

        if config.prepend_peer_asn and peer_asn is not None and path.peer != peer_asn:
            path = path.prepend_peer(peer_asn)
            self.stats.peer_prepended += 1

        if config.collapse_prepending and path.has_prepending:
            path = path.collapse_prepending()
            self.stats.prepending_collapsed += 1

        if config.drop_loops and path.has_loop:
            self.stats.dropped_loop += 1
            return None

        if config.drop_unallocated_asns:
            cache = self._public_asn_cache
            registry = self.asn_registry
            for asn in path:
                public = cache.get(asn)
                if public is None:
                    public = cache[asn] = is_public_asn(asn)
                if not public or (registry is not None and not registry.is_allocated(asn)):
                    self.stats.dropped_unallocated_asn += 1
                    return None

        if config.max_path_length is not None and len(path) > config.max_path_length:
            self.stats.dropped_too_long += 1
            return None
        return path

    def sanitize_path_recorded(
        self, path: ASPath, peer_asn: Optional[ASN]
    ) -> Tuple[Optional[ASPath], StatDeltas]:
        """:meth:`sanitize_path`, plus the stat increments it made.

        What a memoising caller stores per distinct input; :meth:`replay` on
        every hit keeps the counters identical to unmemoised sanitation.
        """
        before = _PATH_STATS(self.stats)
        sanitized = self.sanitize_path(path, peer_asn)
        after = _PATH_STATS(self.stats)
        if after == before:  # kept unchanged, the common case
            return sanitized, ()
        return sanitized, tuple(
            (name, now - previous)
            for name, now, previous in zip(_PATH_STAT_FIELDS, after, before)
            if now != previous
        )

    def replay(self, deltas: StatDeltas, hits: int = 1) -> None:
        """Count *hits* more events with the recorded outcome *deltas*."""
        stats = self.stats
        for name, increment in deltas:
            setattr(stats, name, getattr(stats, name) + increment * hits)

    def sanitize_observation(self, observation: RouteObservation) -> Optional[RouteObservation]:
        """Sanitize one observation; return ``None`` if it must be dropped."""
        self.stats.observations_in += 1
        if (
            self.config.drop_unallocated_prefixes
            and self.prefix_allocation is not None
            and not self.prefix_allocation.is_allocated(observation.prefix)
        ):
            self.stats.dropped_unallocated_prefix += 1
            return None

        path = self.sanitize_path(observation.path, observation.peer_asn)
        if path is None:
            return None

        self.stats.observations_out += 1
        if path is observation.path:
            return observation
        return RouteObservation(
            collector=observation.collector,
            peer_asn=observation.peer_asn,
            prefix=observation.prefix,
            path=path,
            communities=observation.communities,
            timestamp=observation.timestamp,
            from_rib=observation.from_rib,
        )

    # -- block path -----------------------------------------------------------
    def sanitize_block(
        self, observations: Sequence[RouteObservation]
    ) -> List[Optional[RouteObservation]]:
        """Sanitize one decoded block; return a mask-aligned result list.

        The returned list has one entry per input observation — the sanitized
        observation, or ``None`` where a filter dropped it — so callers can
        keep block positions (timestamps, shard assignments) aligned.  Within
        the block, path sanitation is memoized per distinct path and peer
        (:meth:`sanitize_path_recorded`, replayed on each hit), so the
        counters stay event-for-event identical to the per-observation path.
        The memo lives only for this call: registries and allocations cannot
        mutate mid-call, so hits are always consistent, and nothing goes
        stale across calls.  (The streaming engine's memoised loop is
        :meth:`repro.stream.sharding.ShardWorker.process_block`.)
        """
        stats = self.stats
        allocation = self.prefix_allocation
        check_prefix = self.config.drop_unallocated_prefixes
        memo: Dict[Tuple[ASPath, Optional[ASN], bool], Tuple[Optional[ASPath], StatDeltas]] = {}
        out: List[Optional[RouteObservation]] = []
        append = out.append
        for observation in observations:
            stats.observations_in += 1
            if (
                check_prefix
                and allocation is not None
                and not allocation.is_allocated(observation.prefix)
            ):
                stats.dropped_unallocated_prefix += 1
                append(None)
                continue
            # ``==`` on paths ignores the wire segments; an AS_SET does not.
            key = (observation.path, observation.peer_asn, observation.path.has_as_set)
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = self.sanitize_path_recorded(key[0], key[1])
            elif hit[1]:
                self.replay(hit[1])
            path = hit[0]
            if path is None:
                append(None)
                continue
            stats.observations_out += 1
            if path is observation.path:
                append(observation)
            else:
                append(
                    RouteObservation(
                        collector=observation.collector,
                        peer_asn=observation.peer_asn,
                        prefix=observation.prefix,
                        path=path,
                        communities=observation.communities,
                        timestamp=observation.timestamp,
                        from_rib=observation.from_rib,
                    )
                )
        return out

    def iter_unique_tuples_blocked(
        self,
        observations: Iterable[RouteObservation],
        block_size: int,
        deduper: Optional["TupleDeduper"] = None,
    ) -> Iterator[PathCommTuple]:
        """Blocked variant of :meth:`iter_unique_tuples`.

        Buffers *observations* into blocks of *block_size* and runs
        :meth:`sanitize_block` over each, amortizing per-event dispatch while
        yielding exactly the same unique tuples in the same order.
        """
        deduper = deduper if deduper is not None else TupleDeduper()
        for block in iter_blocks(observations, block_size):
            for sanitized in self.sanitize_block(block):
                if sanitized is not None:
                    unique = deduper.add(sanitized)
                    if unique is not None:
                        yield unique

    # -- bulk paths -----------------------------------------------------------
    def sanitize_observations(
        self, observations: Iterable[RouteObservation]
    ) -> Iterator[RouteObservation]:
        """Yield the sanitized subset of *observations*."""
        for observation in observations:
            sanitized = self.sanitize_observation(observation)
            if sanitized is not None:
                yield sanitized

    def iter_unique_tuples(
        self,
        observations: Iterable[RouteObservation],
        deduper: Optional["TupleDeduper"] = None,
    ) -> Iterator[PathCommTuple]:
        """Lazily sanitize and deduplicate into unique ``(path, comm)`` tuples.

        This is the streaming fast path: observations are pulled one at a
        time, so arbitrarily large inputs flow through in constant memory
        (modulo the dedup set).  Passing a shared :class:`TupleDeduper` lets
        several calls (e.g. successive stream batches) share dedup state.
        """
        deduper = deduper if deduper is not None else TupleDeduper()
        for observation in self.sanitize_observations(observations):
            unique = deduper.add(observation)
            if unique is not None:
                yield unique

    def to_unique_tuples(self, observations: Iterable[RouteObservation]) -> List[PathCommTuple]:
        """Sanitize and deduplicate into unique ``(path, comm)`` tuples."""
        return list(self.iter_unique_tuples(observations))


class TupleDeduper:
    """Stateful first-appearance deduplication of ``(path, comm)`` pairs.

    The batch sanitizer's dedup state; passing one deduper to several
    :meth:`Sanitizer.iter_unique_tuples` calls shares it across them.  (The
    streaming engine's shard workers own plain sets of interned ids instead.)
    """

    __slots__ = ("_seen",)

    def __init__(self) -> None:
        self._seen: Set[Tuple] = set()

    def __len__(self) -> int:
        return len(self._seen)

    def add(self, observation: RouteObservation) -> Optional[PathCommTuple]:
        """Return the observation's tuple if unseen so far, else ``None``."""
        key = (observation.path, observation.communities)
        if key in self._seen:
            return None
        self._seen.add(key)
        return PathCommTuple(observation.path, observation.communities)
