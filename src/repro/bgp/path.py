"""AS paths.

An AS path ``p`` is a sequence of ASNs ``A_1, A_2, ..., A_n`` where ``A_1``
is the collector peer and ``A_n`` the origin (Section 3.1).  On the wire an
AS path consists of *segments* (AS_SEQUENCE / AS_SET); the analysis operates
on the flattened sequence after sanitation removed AS_SETs and collapsed
prepending (Section 4.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.bgp.asn import ASN


class SegmentType(enum.IntEnum):
    """AS path segment types (RFC 4271 / RFC 5065)."""

    AS_SET = 1
    AS_SEQUENCE = 2
    AS_CONFED_SEQUENCE = 3
    AS_CONFED_SET = 4


@dataclass(frozen=True)
class PathSegment:
    """A single AS path segment as encoded on the wire."""

    segment_type: SegmentType
    asns: Tuple[ASN, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.segment_type, SegmentType):
            object.__setattr__(self, "segment_type", SegmentType(self.segment_type))
        if not isinstance(self.asns, tuple):
            object.__setattr__(self, "asns", tuple(self.asns))

    @property
    def is_set(self) -> bool:
        """``True`` for AS_SET / AS_CONFED_SET segments."""
        return self.segment_type in (SegmentType.AS_SET, SegmentType.AS_CONFED_SET)

    def __len__(self) -> int:
        return len(self.asns)


class ASPath:
    """An AS path as observed at a route collector.

    The canonical representation used by the library is a tuple of ASNs in
    collector-peer-first order: ``path[0]`` is :attr:`peer` (``A_1``) and
    ``path[-1]`` is :attr:`origin` (``A_n``).  Construction from raw wire
    segments is supported via :meth:`from_segments`.
    """

    __slots__ = ("_asns", "_segments", "_hash", "_has_set")

    # Filled on first use, not in ``__init__`` (see ``__hash__``).
    _hash: int
    _has_set: bool

    def __init__(self, asns: Iterable[ASN], segments: Optional[Sequence[PathSegment]] = None) -> None:
        self._asns: Tuple[ASN, ...] = tuple(asns)
        if not self._asns and segments is None:
            raise ValueError("AS path must contain at least one ASN")
        self._segments: Optional[Tuple[PathSegment, ...]] = (
            tuple(segments) if segments is not None else None
        )

    # -- construction ------------------------------------------------------
    @classmethod
    def from_segments(cls, segments: Sequence[PathSegment]) -> "ASPath":
        """Build a path from wire segments, flattening AS_SEQUENCEs.

        ASNs inside AS_SET segments are preserved in the segment list but are
        *not* part of the flattened ASN sequence; sanitation later decides
        whether to drop the whole path (the paper removes AS_SETs).  A path
        that is one non-empty AS_SEQUENCE keeps no segment objects:
        :attr:`segments` synthesises exactly that one.
        """
        if (
            len(segments) == 1
            and segments[0].segment_type is SegmentType.AS_SEQUENCE
            and segments[0].asns
        ):
            return cls(segments[0].asns)
        flat: List[ASN] = []
        has_set = False
        for segment in segments:
            if segment.is_set:
                has_set = True
            else:
                flat.extend(segment.asns)
        path = cls(flat, segments=segments)
        path._has_set = has_set
        return path

    @classmethod
    def from_string(cls, text: str) -> "ASPath":
        """Parse a space-separated AS path string, e.g. ``"3356 1299 64512"``.

        AS_SET members may be written in braces (``{65000,65001}``) and are
        recorded as an AS_SET segment.
        """
        segments: List[PathSegment] = []
        sequence: List[ASN] = []
        for token in text.split():
            if token.startswith("{"):
                if sequence:
                    segments.append(PathSegment(SegmentType.AS_SEQUENCE, tuple(sequence)))
                    sequence = []
                members = tuple(int(t) for t in token.strip("{}").split(",") if t)
                segments.append(PathSegment(SegmentType.AS_SET, members))
            else:
                sequence.append(int(token))
        if sequence:
            segments.append(PathSegment(SegmentType.AS_SEQUENCE, tuple(sequence)))
        return cls.from_segments(segments)

    # -- sequence protocol ---------------------------------------------------
    def __iter__(self) -> Iterator[ASN]:
        return iter(self._asns)

    def __len__(self) -> int:
        return len(self._asns)

    def __getitem__(self, index):
        return self._asns[index]

    def __contains__(self, asn: object) -> bool:
        return asn in self._asns

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ASPath):
            return self._asns == other._asns
        if isinstance(other, tuple):
            return self._asns == other
        return NotImplemented

    def __hash__(self) -> int:
        # Paths are dict/set keys all over the hot path (dedup, interning,
        # retention maps); cache the hash on first use.  The guard instead of
        # an ``__init__`` assignment keeps instances from old pickles (which
        # predate the ``_hash`` slot) working.
        try:
            return self._hash
        except AttributeError:
            value = hash(self._asns)
            self._hash = value
            return value

    def __reduce__(self):
        # Compact pickle: positional constructor args instead of a per-slot
        # state dict.  Matters when tuples are shipped between processes.
        if self._segments is None:
            return (ASPath, (self._asns,))
        return (ASPath, (self._asns, self._segments))

    def __repr__(self) -> str:
        return f"ASPath({' '.join(str(a) for a in self._asns)})"

    def __str__(self) -> str:
        return " ".join(str(a) for a in self._asns)

    # -- accessors -----------------------------------------------------------
    @property
    def asns(self) -> Tuple[ASN, ...]:
        """The flattened ASN sequence, collector peer first."""
        return self._asns

    @property
    def segments(self) -> Tuple[PathSegment, ...]:
        """The wire segments (synthesised if the path was built from ASNs)."""
        if self._segments is not None:
            return self._segments
        return (PathSegment(SegmentType.AS_SEQUENCE, self._asns),)

    @property
    def peer(self) -> ASN:
        """``A_1`` — the collector peer AS."""
        return self._asns[0]

    @property
    def origin(self) -> ASN:
        """``A_n`` — the AS that originated the announcement."""
        return self._asns[-1]

    @property
    def has_as_set(self) -> bool:
        """``True`` if any wire segment is an AS_SET."""
        if self._segments is None:
            return False
        # Sanitation and the shard memo key read this per event.  Settled by
        # ``from_segments`` on its one walk over the segments; the guard (as
        # for ``_hash``) covers instances ``__reduce__`` / old pickles rebuilt
        # through ``__init__``.
        try:
            return self._has_set
        except AttributeError:
            value = self._has_set = any(s.is_set for s in self._segments)
            return value

    @property
    def has_prepending(self) -> bool:
        """``True`` if the same ASN appears in immediate succession."""
        asns = self._asns
        # All-distinct paths (the common case) are settled by one C-level
        # set build instead of a Python walk over the elements.
        if len(set(asns)) == len(asns):
            return False
        for i in range(1, len(asns)):
            if asns[i] == asns[i - 1]:
                return True
        return False

    @property
    def has_loop(self) -> bool:
        """``True`` if an ASN re-appears non-consecutively (a path loop)."""
        asns = self._asns
        if len(set(asns)) == len(asns):
            return False
        seen: Set[ASN] = set()
        previous: Optional[ASN] = None
        for asn in asns:
            if asn == previous:
                previous = asn
                continue
            if asn in seen:
                return True
            seen.add(asn)
            previous = asn
        return False

    def unique_asns(self) -> Set[ASN]:
        """The set of distinct ASNs on the path."""
        return set(self._asns)

    # -- paper terminology ---------------------------------------------------
    def index_of(self, asn: ASN) -> int:
        """1-based path index of *asn* (the paper's ``x`` in ``A_x``)."""
        return self._asns.index(asn) + 1

    def upstream_of(self, index: int) -> Tuple[ASN, ...]:
        """All ASes ``A_i`` with ``i < index`` (closer to the collector)."""
        if not 1 <= index <= len(self._asns):
            raise IndexError(f"path index {index} out of range")
        return self._asns[: index - 1]

    def downstream_of(self, index: int) -> Tuple[ASN, ...]:
        """All ASes ``A_j`` with ``j > index`` (closer to the origin)."""
        if not 1 <= index <= len(self._asns):
            raise IndexError(f"path index {index} out of range")
        return self._asns[index:]

    def at(self, index: int) -> ASN:
        """The AS at 1-based path *index* (``A_index``)."""
        if not 1 <= index <= len(self._asns):
            raise IndexError(f"path index {index} out of range")
        return self._asns[index - 1]

    # -- transformations -----------------------------------------------------
    def collapse_prepending(self) -> "ASPath":
        """Return a path with identical ASNs in succession collapsed."""
        if not self.has_prepending:
            return self
        collapsed: List[ASN] = []
        for asn in self._asns:
            if not collapsed or collapsed[-1] != asn:
                collapsed.append(asn)
        return ASPath(collapsed)

    def prepend_peer(self, peer_asn: ASN) -> "ASPath":
        """Return a path with *peer_asn* prepended if ``A_1`` differs from it.

        Mirrors the sanitation step that re-inserts IXP route servers which do
        not add themselves to the AS path (Section 4.1).
        """
        if self._asns and self._asns[0] == peer_asn:
            return self
        return ASPath((peer_asn,) + self._asns)

    def without_as_sets(self) -> Optional["ASPath"]:
        """Return the path if it carries no AS_SET, else ``None``."""
        return None if self.has_as_set else self
