"""The sanitation pipeline itself.

:class:`Sanitizer` turns decoded collector routes into the deduplicated
``(path, comm)`` tuples that the inference algorithm consumes, applying the
filtering and transformation steps of Section 4.1 and recording statistics
about what was dropped.  Sanitation and dedup are one loop,
:meth:`Sanitizer.dedup_block`, over the columns of a
:class:`~repro.bgp.announcement.RouteBlock`: batch ``classify``
(:class:`~repro.core.pipeline.InferencePipeline`) and every shard of the
streaming engine (:class:`~repro.stream.sharding.ShardWorker`) run it, and a
route whose outcome is memoised costs one lookup and no object.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.bgp.announcement import RouteBlock, RouteObservation
from repro.bgp.asn import ASN, ASNRegistry, is_public_asn
from repro.bgp.community import CommunitySet
from repro.bgp.path import ASPath
from repro.bgp.prefix import PrefixAllocation


#: Path-level counters a memo hit replays in place of :meth:`Sanitizer.sanitize_path`.
_PATH_STAT_FIELDS: Tuple[str, ...] = (
    "dropped_as_set",
    "dropped_empty_path",
    "peer_prepended",
    "prepending_collapsed",
    "dropped_loop",
    "dropped_unallocated_asn",
)
#: Routes decoded and sanitized per block by the batch path (purely a
#: throughput constant, never changes the output).
SANITIZE_BLOCK_SIZE = 4096
#: Distinct ``(path, comm, peer)`` inputs a sanitizer's memo holds before it
#: starts over (the decoder's ``ATTRIBUTE_MEMO_CAP`` twin): it memoises drops
#: too, so a flap storm of garbage would grow it for ever.
SHARD_MEMO_CAP = 65536
#: One C-level call snapshotting all of them at once.
_PATH_STATS = attrgetter(*_PATH_STAT_FIELDS)
#: The counters one :meth:`Sanitizer.sanitize_path` call moved: ``(name, increment)`` pairs.
StatDeltas = Tuple[Tuple[str, int], ...]
#: Maps a sanitized ``(path, comm)`` to its dedup key: a table's ``intern``.
DedupKey = Callable[[ASPath, CommunitySet], Tuple]


@dataclass
class SanitationStats:
    """Counters describing what the sanitizer did."""

    observations_in: int = 0
    observations_out: int = 0
    dropped_unallocated_prefix: int = 0
    dropped_unallocated_asn: int = 0
    dropped_as_set: int = 0
    dropped_loop: int = 0
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
            "dropped_empty_path": self.dropped_empty_path,
            "peer_prepended": self.peer_prepended,
            "prepending_collapsed": self.prepending_collapsed,
        }


class Sanitizer:
    """Applies the Section 4.1 sanitation steps to route observations.

    The steps are one fixed procedure, in this order: drop unallocated
    prefixes, drop paths with an AS_SET, prepend a missing peer AS, collapse
    prepending, drop loops, and drop private or unallocated ASNs.  Nothing
    turns a step off.
    """

    def __init__(
        self,
        *,
        asn_registry: Optional[ASNRegistry] = None,
        prefix_allocation: Optional[PrefixAllocation] = None,
    ) -> None:
        self.asn_registry = asn_registry
        self.prefix_allocation = prefix_allocation
        self.stats = SanitationStats()
        # Memo for the pure is_public_asn predicate; paths repeat heavily in
        # update streams, and registry allocation (which can change) is
        # deliberately NOT cached.
        self._public_asn_cache: Dict[ASN, bool] = {}
        #: :meth:`dedup_block`'s outcome memo: input ``(path, comm, peer,
        #: has_as_set)`` -> ``[dedup_key, stat_deltas, pending_hits]``, the
        #: key ``None`` for a dropped input.
        self._memo: Dict[Tuple, List] = {}

    # -- one path -----------------------------------------------------------
    def sanitize_path(self, path: ASPath, peer_asn: Optional[ASN] = None) -> Optional[ASPath]:
        """Sanitize one AS path; return ``None`` if it must be dropped."""
        if path.has_as_set:
            self.stats.dropped_as_set += 1
            return None
        if len(path) == 0:
            self.stats.dropped_empty_path += 1
            return None

        if peer_asn is not None and path.peer != peer_asn:
            path = path.prepend_peer(peer_asn)
            self.stats.peer_prepended += 1

        if path.has_prepending:
            path = path.collapse_prepending()
            self.stats.prepending_collapsed += 1

        if path.has_loop:
            self.stats.dropped_loop += 1
            return None

        cache = self._public_asn_cache
        registry = self.asn_registry
        for asn in path:
            public = cache.get(asn)
            if public is None:
                public = cache[asn] = is_public_asn(asn)
            if not public or (registry is not None and not registry.is_allocated(asn)):
                self.stats.dropped_unallocated_asn += 1
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

    def clear_memo(self) -> None:
        """Forget every memoised outcome (their dedup keys may be stale)."""
        self._memo.clear()

    # -- the block loop -------------------------------------------------------
    def dedup_block(
        self,
        block: RouteBlock,
        seen: Set[Tuple],
        kept: Optional[List[Tuple[int, Tuple]]] = None,
        indices: Optional[Sequence[int]] = None,
        key: Optional[DedupKey] = None,
    ) -> List[Tuple[int, Tuple]]:
        """Sanitize the routes of one block and dedup the survivors into *seen*.

        *indices* selects the positions of *block* to take, all of them by
        default.  Returns ``(index, dedup_key)`` for the tuples not yet in
        *seen*, in input order, and adds them to it; dropped and duplicate
        routes produce nothing.  When *kept* is a list it also receives
        ``(index, dedup_key)`` for every route that survived sanitation, new
        or duplicate.  The dedup key of a sanitized route is
        ``key(path, communities)`` -- a :class:`~repro.core.tuples.TupleTable`'s
        ``intern`` -- or by default the ``(path, communities)`` pair itself.

        The outcome is memoised per distinct ``(path, comm, peer)`` input, and
        each hit replays the recorded stat increments, so the counters stay
        event-for-event identical to sanitizing every route on its own.  With
        no ASN registry and no prefix allocation attached, sanitation is a
        pure function of those fields and the memo lives across calls (cleared
        at :data:`SHARD_MEMO_CAP`); with either attached -- both may change
        between blocks by design -- it lives for this call only, and the
        allocation is asked about every route before the memo.  The memo
        holds *key*'s keys, so a sanitizer serves one key function.  Hit
        replays are buffered per entry and applied once at the end of the
        block; stats are only read between blocks, never inside one.
        """
        if indices is None:
            indices = range(len(block))
            columns = zip(indices, block.peer_asns, block.paths, block.communities)
        else:
            columns = zip(
                indices,
                map(block.peer_asns.__getitem__, indices),
                map(block.paths.__getitem__, indices),
                map(block.communities.__getitem__, indices),
            )
        stats = self.stats
        allocation = self.prefix_allocation
        memo = self._memo if self.asn_registry is None and self.prefix_allocation is None else {}
        memo_get = memo.get
        sanitize = self.sanitize_path_recorded
        dedup_key = _pair if key is None else key
        seen_add = seen.add
        news: List[Tuple[int, Tuple]] = []
        append = news.append
        keep = None if kept is None else kept.append
        touched: List[List] = []
        touched_append = touched.append
        kept_out = 0
        for index, peer_asn, path, communities in columns:
            if allocation is not None and not allocation.is_allocated(block.prefix(index)):
                stats.dropped_unallocated_prefix += 1
                continue
            memo_key = (path, communities, peer_asn, path.has_as_set)
            entry = memo_get(memo_key)
            if entry is None:
                sanitized, deltas = sanitize(path, peer_asn)
                entry = [None if sanitized is None else dedup_key(sanitized, communities), deltas, 0]
                if len(memo) >= SHARD_MEMO_CAP:
                    memo.clear()
                memo[memo_key] = entry
            elif entry[1]:
                hits = entry[2]
                if hits == 0:
                    touched_append(entry)
                entry[2] = hits + 1
            found = entry[0]
            if found is None:
                continue
            kept_out += 1
            if keep is not None:
                keep((index, found))
            if found not in seen:
                seen_add(found)
                append((index, found))
        stats.observations_in += len(indices)
        stats.observations_out += kept_out
        for entry in touched:
            self.replay(entry[1], entry[2])
            entry[2] = 0
        return news

    def sanitize_block(
        self, observations: Sequence[RouteObservation]
    ) -> List[Optional[RouteObservation]]:
        """:meth:`dedup_block` over *observations* as a mask-aligned list.

        One entry per input observation: the sanitized observation, or
        ``None`` where a filter dropped it.
        """
        block = RouteBlock.from_observations(observations)
        kept: List[Tuple[int, Tuple]] = []
        self.dedup_block(block, set(), kept)
        out: List[Optional[RouteObservation]] = [None] * len(block)
        for index, (path, _communities) in kept:
            observation = block[index]
            out[index] = observation if path is observation.path else replace(observation, path=path)
        return out


def _pair(path: ASPath, communities: CommunitySet) -> Tuple[ASPath, CommunitySet]:
    return path, communities
