"""Pluggable BGP update event sources for the streaming engine.

An event source is simply an iterable of
:class:`~repro.bgp.announcement.RouteObservation`; the engine pulls events
a block at a time (:class:`BlockSource`), so sources can (and should) be lazy.
Three families ship with the engine, mirroring how a deployment would be fed:

* :class:`MRTReplaySource` -- replays recorded MRT update/RIB archives
  through the lazy decoder in :mod:`repro.collectors.archive` as the route
  blocks it fills; this is the BGPStream-style backfill path and the one the
  equivalence tests use;
* :class:`ScenarioSource` -- turns the synthetic ground-truth scenarios of
  :mod:`repro.usage` into a timed feed (load generation, benchmarks);
* :class:`MemorySource` -- an in-memory buffer for tests and for bridging a
  live feed (e.g. a RIS-Live websocket consumer) into the engine.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import (
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

from repro.bgp.announcement import PathCommTuple, RouteObservation, iter_blocks
from repro.bgp.prefix import Prefix
from repro.collectors.archive import DEFAULT_EPOCH, iter_route_blocks_from_mrt, read_mrt_files
from repro.sanitize.filters import SANITIZE_BLOCK_SIZE


@runtime_checkable
class BlockSource(Protocol):
    """An event source that can also hand out whole event blocks.

    ``iter_blocks(size)`` must yield the exact events of ``__iter__`` in the
    exact same order, grouped into sequences of at most *size* (lists or
    :class:`~repro.bgp.announcement.RouteBlock` columns; blocks may come up
    short, e.g. at collector boundaries).  The engine prefers this path —
    one block flows through decode, sanitation, and sharding as a unit — and
    falls back to chunking ``__iter__`` for plain iterables via
    :func:`iter_event_blocks`.
    """

    def __iter__(self) -> Iterator[RouteObservation]: ...

    def iter_blocks(self, size: int) -> Iterator[Sequence[RouteObservation]]: ...


def iter_event_blocks(
    source: Iterable[RouteObservation], size: int
) -> Iterator[Sequence[RouteObservation]]:
    """Drive any event source as a block stream.

    Sources conforming to :class:`BlockSource` yield their own blocks (lazy
    decode, slice fast paths); any other iterable is chunked.  Either way the
    concatenated blocks replay ``iter(source)`` exactly.
    """
    if size < 1:
        raise ValueError(f"block size must be >= 1, got {size}")
    own_blocks = getattr(source, "iter_blocks", None)
    if own_blocks is not None:
        return own_blocks(size)
    return iter_blocks(source, size)


class MemorySource:
    """An in-memory event buffer.

    Tests push hand-crafted observations; a live-feed bridge would push
    decoded updates from a websocket.  Iteration drains lazily over the
    current buffer contents.
    """

    def __init__(self, events: Optional[Iterable[RouteObservation]] = None) -> None:
        self._events: List[RouteObservation] = list(events) if events is not None else []

    def push(self, event: RouteObservation) -> None:
        """Append one event to the buffer."""
        self._events.append(event)

    def extend(self, events: Iterable[RouteObservation]) -> None:
        """Append many events to the buffer."""
        self._events.extend(events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[RouteObservation]:
        return iter(self._events)

    def iter_blocks(self, size: int) -> Iterator[List[RouteObservation]]:
        """Yield the buffer as list slices (the zero-copy block fast path)."""
        if size < 1:
            raise ValueError(f"block size must be >= 1, got {size}")
        events = self._events
        for start in range(0, len(events), size):
            yield events[start : start + size]


class MRTReplaySource:
    """Replays per-collector MRT blobs as an event stream.

    Decoding is lazy per collector.  ``order`` selects how the per-collector
    streams are interleaved:

    * ``"archive"`` (default) -- one collector after the other, collectors in
      sorted-name order, each in stored record order; constant memory,
      matches how archives are processed in batch;
    * ``"time"`` -- a deterministic interleaved merge sorted by
      ``(timestamp, collector name)`` with equal keys keeping their stored
      record order; this materialises all observations once and is meant for
      demos and window-boundary tests, not for production replays of huge
      archives.

    Both orders are fully determined by the blob *contents* — never by the
    mapping's insertion order — so block iteration (:meth:`iter_blocks`) can
    never reorder events relative to the event iterator.
    """

    def __init__(self, blobs: Mapping[str, bytes], *, order: str = "archive") -> None:
        if order not in ("archive", "time"):
            raise ValueError(f"unknown replay order {order!r}")
        self.blobs = dict(sorted(blobs.items()))
        self.order = order

    @classmethod
    def from_files(
        cls, paths: Sequence[Union[str, Path]], *, order: str = "archive"
    ) -> "MRTReplaySource":
        """Build a replay source from MRT files on disk (one per collector)."""
        return cls(read_mrt_files(paths), order=order)

    def _merged_by_time(self) -> List[RouteObservation]:
        blocks = iter_route_blocks_from_mrt(self.blobs, SANITIZE_BLOCK_SIZE)
        merged = list(chain.from_iterable(blocks))
        # Stable sort on (timestamp, collector): ties across collectors break
        # on the collector name, ties within one collector keep record order.
        merged.sort(key=lambda observation: (observation.timestamp, observation.collector))
        return merged

    def __iter__(self) -> Iterator[RouteObservation]:
        if self.order == "time":
            return iter(self._merged_by_time())
        return chain.from_iterable(self.iter_blocks(SANITIZE_BLOCK_SIZE))

    def iter_blocks(self, size: int) -> Iterator[Sequence[RouteObservation]]:
        """Yield event blocks in exactly the event-iterator order.

        ``"archive"`` order hands out the decoder's route blocks, lazily and
        per collector (blocks never span collectors, so the tail block of
        each archive may be short); ``"time"`` order chunks the same
        materialised merge that ``__iter__`` replays.
        """
        if size < 1:
            raise ValueError(f"block size must be >= 1, got {size}")
        if self.order == "time":
            merged = self._merged_by_time()
            return (merged[start : start + size] for start in range(0, len(merged), size))
        return iter_route_blocks_from_mrt(self.blobs, size)


def _prefix_for_origin(origin: int) -> Prefix:
    """A deterministic per-origin /24 used by synthetic feeds."""
    network = (20 << 24) | ((origin % 65536) << 8)
    return Prefix.ipv4(network, 24)


class ScenarioSource:
    """Turns ground-truth scenario tuples into a timed update feed.

    Every ``(path, comm)`` tuple becomes one announcement whose timestamp is
    spread evenly across ``duration`` seconds starting at ``start``; with
    ``repeat > 1`` the whole tuple set is re-announced that many times
    (steady-state churn: all repeats deduplicate into the same tuples, which
    is exactly what a stable Internet looks like to the classifier).
    """

    def __init__(
        self,
        tuples: Sequence[PathCommTuple],
        *,
        collector: str = "scenario",
        start: int = DEFAULT_EPOCH,
        duration: int = 86400,
        repeat: int = 1,
    ) -> None:
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if repeat < 1:
            raise ValueError(f"repeat must be >= 1, got {repeat}")
        self.tuples = tuples
        self.collector = collector
        self.start = start
        self.duration = duration
        self.repeat = repeat

    def __len__(self) -> int:
        return len(self.tuples) * self.repeat

    def __iter__(self) -> Iterator[RouteObservation]:
        total = len(self)
        if total == 0:
            return
        index = 0
        for _round in range(self.repeat):
            for item in self.tuples:
                timestamp = self.start + (index * self.duration) // total
                index += 1
                yield RouteObservation(
                    collector=self.collector,
                    peer_asn=item.peer,
                    prefix=_prefix_for_origin(item.origin),
                    path=item.path,
                    communities=item.communities,
                    timestamp=timestamp,
                    from_rib=False,
                )

    def iter_blocks(self, size: int) -> Iterator[List[RouteObservation]]:
        """Generate the timed feed in blocks of up to *size*."""
        return iter_blocks(self, size)
