"""Route observations and ``(path, comm)`` tuples.

The analytic unit of the paper is the tuple ``(path, comm)`` — an AS path
together with the community set the collector peer exported
(``output(A_1)``), see Section 4.  :class:`RouteObservation` carries the full
provenance (collector, peer, prefix, timestamp) needed for the dataset
statistics in Table 1; :class:`RouteBlock` is a run of observations held as
parallel columns (what the MRT decoder fills and the streaming engine reads);
:class:`PathCommTuple` is the deduplicated form fed to the inference
algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Iterator, List, Sequence, TypeVar, Union, overload

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


#: The columns of a :class:`RouteBlock`, one list each.
_COLUMNS = ("timestamps", "peer_asns", "paths", "communities",
            "from_rib", "afis", "prefix_lengths", "networks")


class RouteBlock(Sequence[RouteObservation]):
    """Consecutive route observations as parallel columns of plain values.

    The MRT decoder fills one per block of announced routes; the streaming
    engine reads its clock off ``timestamps`` and sanitizes and deduplicates
    straight off ``peer_asns`` / ``paths`` / ``communities``, so a route it
    already knows never becomes an object.  The NLRI stays as its checked
    wire values (family, bit length, network bytes -- copies, never views of
    the decoder's input) until :meth:`prefix` is asked.  To everyone else a
    block is a ``Sequence[RouteObservation]``: ``block[i]`` and iteration
    build observations on the way out, ``block[a:b]`` is a block.  Given
    *observations*, it is that sequence lowered to the four columns the
    engine reads, the sequence itself kept as the view.
    """

    def __init__(self, collector: str = "", observations: Sequence[RouteObservation] = ()) -> None:
        self.collector = collector
        self._observations = observations
        self.timestamps: List[int] = [observation.timestamp for observation in observations]
        self.peer_asns: List[ASN] = [observation.peer_asn for observation in observations]
        self.paths: List[ASPath] = [observation.path for observation in observations]
        self.communities: List[CommunitySet] = [item.communities for item in observations]
        self.from_rib: List[bool] = []
        self.afis: List[int] = []
        self.prefix_lengths: List[int] = []
        self.networks: List[bytes] = []

    @classmethod
    def from_observations(cls, observations: Sequence[RouteObservation]) -> "RouteBlock":
        """*observations* lowered to columns; a block is its own lowering."""
        return observations if isinstance(observations, RouteBlock) else cls("", observations)

    @classmethod
    def from_rows(cls, collector: str, rows: Sequence[tuple]) -> "RouteBlock":
        """A block of *rows*, one tuple of the eight column values per route."""
        block = cls(collector)
        for name, column in zip(_COLUMNS, zip(*rows)):
            setattr(block, name, list(column))
        return block

    def prefix(self, index: int) -> Prefix:
        """The announced prefix of the route at *index*."""
        if self._observations:
            return self._observations[index].prefix
        return Prefix.from_nlri(self.afis[index], self.prefix_lengths[index], self.networks[index])

    def __len__(self) -> int:
        return len(self.timestamps)

    @overload
    def __getitem__(self, index: int) -> RouteObservation: ...
    @overload
    def __getitem__(self, index: slice) -> "RouteBlock": ...
    def __getitem__(self, index: Union[int, slice]) -> Union[RouteObservation, "RouteBlock"]:
        if isinstance(index, slice):
            block = RouteBlock(self.collector)
            block._observations = self._observations[index]
            for name in _COLUMNS:
                setattr(block, name, getattr(self, name)[index])
            return block
        if self._observations:
            return self._observations[index]
        return RouteObservation(
            self.collector, self.peer_asns[index], self.prefix(index), self.paths[index],
            self.communities[index], self.timestamps[index], self.from_rib[index],
        )

    def __iter__(self) -> Iterator[RouteObservation]:
        if self._observations:
            return iter(self._observations)
        prefixes = map(Prefix.from_nlri, self.afis, self.prefix_lengths, self.networks)
        return map(RouteObservation, repeat(self.collector), self.peer_asns, prefixes,
                   self.paths, self.communities, self.timestamps, self.from_rib)


def iter_blocks(items: Iterable[_Item], size: int) -> Iterator[List[_Item]]:
    """Group *items* into consecutive lists of at most *size*, in order.

    The one chunker behind every block-oriented stage (MRT observation
    blocks, the batch pipeline's observation input, the engine's fallback
    for plain iterables, pool batches).  Lazy: one block is materialised at
    a time, and the final block may be short.
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
