"""Route observations and ``(path, comm)`` tuples.

The analytic unit of the paper is the tuple ``(path, comm)`` — an AS path
together with the community set the collector peer exported
(``output(A_1)``), see Section 4.  :class:`RouteObservation` carries the full
provenance (collector, peer, prefix, timestamp) needed for the dataset
statistics in Table 1; :class:`PathCommTuple` is the deduplicated form fed to
the inference algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Set, Tuple, TypeVar

from repro.bgp.asn import ASN
from repro.bgp.community import CommunitySet
from repro.bgp.path import ASPath
from repro.bgp.prefix import Prefix

_Item = TypeVar("_Item")


@dataclass(frozen=True)
class PathCommTuple:
    """A unique ``(path, comm)`` pair — the input unit of the inference.

    ``comm`` is the community set output of the collector peer ``A_1``
    (the paper writes ``C, A_1, ..., A_n | output(A_1)``).
    """

    path: ASPath
    communities: CommunitySet = field(default_factory=CommunitySet.empty)

    @property
    def peer(self) -> ASN:
        """The collector peer AS (``A_1``)."""
        return self.path.peer

    @property
    def origin(self) -> ASN:
        """The origin AS (``A_n``)."""
        return self.path.origin

    def __len__(self) -> int:
        return len(self.path)

    def __iter__(self):
        return iter((self.path, self.communities))


@dataclass(frozen=True)
class RouteObservation:
    """A single observation of a route at a collector.

    One RIB entry or one announced prefix of an update message maps to one
    observation.  Observations keep enough provenance to compute the Table 1
    dataset statistics and to bin data by day (Figures 3 and 4).
    """

    collector: str
    peer_asn: ASN
    prefix: Prefix
    path: ASPath
    communities: CommunitySet = field(default_factory=CommunitySet.empty)
    timestamp: int = 0
    from_rib: bool = False

    def to_tuple(self) -> PathCommTuple:
        """Project the observation onto its ``(path, comm)`` pair."""
        return PathCommTuple(self.path, self.communities)


def unique_tuples(observations: Iterable[RouteObservation]) -> List[PathCommTuple]:
    """Deduplicate observations into unique ``(path, comm)`` tuples.

    The order of first appearance is preserved so downstream processing is
    deterministic.
    """
    seen: Set[Tuple[ASPath, CommunitySet]] = set()
    result: List[PathCommTuple] = []
    for obs in observations:
        key = (obs.path, obs.communities)
        if key in seen:
            continue
        seen.add(key)
        result.append(PathCommTuple(obs.path, obs.communities))
    return result


def iter_blocks(items: Iterable[_Item], size: int) -> Iterator[List[_Item]]:
    """Group *items* into consecutive lists of at most *size*, in order.

    The one chunker behind every block-oriented stage (MRT observation
    blocks, blocked sanitation, the engine's fallback for plain iterables,
    pool batches).  Lazy: one block is materialised at a time, and the final
    block may be short.
    """
    if size < 1:
        raise ValueError(f"block size must be >= 1, got {size}")
    block: List[_Item] = []
    append = block.append
    for item in items:
        append(item)
        if len(block) >= size:
            yield block
            block = []
            append = block.append
    if block:
        yield block
