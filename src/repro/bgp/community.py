"""BGP community values.

Implements the two community flavours the paper analyses:

* **regular communities** (RFC 1997): 32-bit values written ``alpha:beta``
  where by convention ``alpha`` (the *upper field*) is the 16-bit ASN of the
  AS that defines the value;
* **large communities** (RFC 8092): 96-bit values written
  ``alpha:beta:gamma`` where ``alpha`` (the Global Administrator, called the
  upper field throughout the paper) is a 32-bit ASN.

Both flavours expose a uniform ``upper`` property so the inference algorithm
can treat them identically (Section 3.2: "we refer to alpha in both community
variants as the upper field").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, List, Optional, Union

from repro.bgp.asn import ASN, MAX_ASN_16BIT, MAX_ASN_32BIT


class WellKnownCommunity(enum.IntEnum):
    """Well-known regular communities (RFC 1997, RFC 3765, RFC 7999)."""

    GRACEFUL_SHUTDOWN = 0xFFFF0000
    ACCEPT_OWN = 0xFFFF0001
    BLACKHOLE = 0xFFFF029A
    NO_EXPORT = 0xFFFFFF01
    NO_ADVERTISE = 0xFFFFFF02
    NO_EXPORT_SUBCONFED = 0xFFFFFF03
    NO_PEER = 0xFFFFFF04

    @classmethod
    def is_well_known(cls, value: int) -> bool:
        """Return ``True`` if *value* lives in the well-known 0xFFFF range."""
        return (value >> 16) == 0xFFFF


@dataclass(frozen=True, order=True)
class Community:
    """A regular (RFC 1997) BGP community ``upper:lower``."""

    upper: int
    lower: int

    def __post_init__(self) -> None:
        if not 0 <= self.upper <= MAX_ASN_16BIT:
            raise ValueError(f"regular community upper field out of range: {self.upper}")
        if not 0 <= self.lower <= 0xFFFF:
            raise ValueError(f"regular community lower field out of range: {self.lower}")

    @property
    def value(self) -> int:
        """The packed 32-bit wire value."""
        return (self.upper << 16) | self.lower

    @property
    def is_well_known(self) -> bool:
        """``True`` if this community is in the reserved well-known range."""
        return WellKnownCommunity.is_well_known(self.value)

    @property
    def is_large(self) -> bool:
        return False

    def __reduce__(self):
        # Compact pickle: two ints instead of an instance-dict payload.
        return (Community, (self.upper, self.lower))

    def __str__(self) -> str:
        return f"{self.upper}:{self.lower}"

    @classmethod
    def from_value(cls, value: int) -> "Community":
        """Build a community from its packed 32-bit wire value."""
        if not 0 <= value <= 0xFFFFFFFF:
            raise ValueError("community value out of range")
        return cls(value >> 16, value & 0xFFFF)

    @classmethod
    def from_string(cls, text: str) -> "Community":
        """Parse ``"upper:lower"``."""
        upper_s, _, lower_s = text.partition(":")
        if not lower_s:
            raise ValueError(f"not a regular community: {text!r}")
        return cls(int(upper_s), int(lower_s))


@dataclass(frozen=True, order=True)
class LargeCommunity:
    """A large (RFC 8092) BGP community ``upper:data1:data2``."""

    upper: int
    data1: int
    data2: int

    def __post_init__(self) -> None:
        for name, value in (("upper", self.upper), ("data1", self.data1), ("data2", self.data2)):
            if not 0 <= value <= MAX_ASN_32BIT:
                raise ValueError(f"large community {name} field out of range: {value}")

    @property
    def is_well_known(self) -> bool:
        return False

    @property
    def is_large(self) -> bool:
        return True

    def __reduce__(self):
        return (LargeCommunity, (self.upper, self.data1, self.data2))

    def __str__(self) -> str:
        return f"{self.upper}:{self.data1}:{self.data2}"

    @classmethod
    def from_string(cls, text: str) -> "LargeCommunity":
        """Parse ``"upper:data1:data2"``."""
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"not a large community: {text!r}")
        return cls(int(parts[0]), int(parts[1]), int(parts[2]))


#: Either community flavour.
AnyCommunity = Union[Community, LargeCommunity]


def parse_community(text: str) -> AnyCommunity:
    """Parse either a regular (``a:b``) or large (``a:b:c``) community."""
    if text.count(":") == 2:
        return LargeCommunity.from_string(text)
    return Community.from_string(text)


def make_community(upper: ASN, lower: int = 0, *, large: Optional[bool] = None) -> AnyCommunity:
    """Build a community whose upper field is *upper*.

    When *large* is ``None`` the flavour is chosen automatically: a regular
    community when the ASN fits in 16 bits, a large community otherwise.
    This mirrors how operators must use large communities to encode 32-bit
    ASNs (Section 3.2).
    """
    if large is None:
        large = upper > MAX_ASN_16BIT
    if large:
        return LargeCommunity(upper, lower & MAX_ASN_32BIT, 0)
    return Community(upper, lower & 0xFFFF)


class CommunitySet:
    """An immutable set of communities attached to an announcement.

    The community attribute is a set for the purposes of the paper's model:
    the inference algorithm only asks whether a community with a given upper
    field is present (``A_x:* in output(A_1)``).
    """

    __slots__ = ("_items", "_hash", "_uppers")

    # Filled on first use, not in ``__init__`` (see ``__hash__``).
    _hash: int
    _uppers: FrozenSet[int]

    def __init__(self, items: Iterable[AnyCommunity] = ()) -> None:
        self._items: FrozenSet[AnyCommunity] = frozenset(items)

    # -- set-like protocol -------------------------------------------------
    def __iter__(self) -> Iterator[AnyCommunity]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: object) -> bool:
        return item in self._items

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CommunitySet):
            return self._items == other._items
        if isinstance(other, (set, frozenset)):
            return self._items == frozenset(other)
        return NotImplemented

    def __hash__(self) -> int:
        # Community sets are dict/set keys on the hot path; cache the hash.
        # The guard keeps instances from pickles predating the slot working.
        try:
            return self._hash
        except AttributeError:
            value = hash(self._items)
            self._hash = value
            return value

    def __reduce__(self):
        # Compact pickle: a plain tuple of (already compact) communities.
        return (CommunitySet, (tuple(self._items),))

    def __bool__(self) -> bool:
        return bool(self._items)

    def __repr__(self) -> str:
        if not self._items:
            return "CommunitySet()"
        listing = ", ".join(sorted(str(c) for c in self._items))
        return f"CommunitySet({{{listing}}})"

    # -- construction ------------------------------------------------------
    @classmethod
    def empty(cls) -> "CommunitySet":
        """The empty community set (a silent-and-cleaner output)."""
        return _EMPTY

    @classmethod
    def from_strings(cls, texts: Iterable[str]) -> "CommunitySet":
        """Parse a community set from textual values."""
        return cls(parse_community(t) for t in texts)

    def union(self, other: Iterable[AnyCommunity]) -> "CommunitySet":
        """Return a new set containing communities from both operands."""
        other_items = other._items if isinstance(other, CommunitySet) else frozenset(other)
        if not other_items:
            return self
        if not self._items:
            return other if isinstance(other, CommunitySet) else CommunitySet(other_items)
        return CommunitySet(self._items | other_items)

    def __or__(self, other: Iterable[AnyCommunity]) -> "CommunitySet":
        return self.union(other)

    def add(self, item: AnyCommunity) -> "CommunitySet":
        """Return a new set with *item* added."""
        if item in self._items:
            return self
        return CommunitySet(self._items | {item})

    def difference(self, other: Iterable[AnyCommunity]) -> "CommunitySet":
        """Return a new set without the communities in *other*."""
        other_items = other._items if isinstance(other, CommunitySet) else frozenset(other)
        return CommunitySet(self._items - other_items)

    # -- queries used by the inference algorithm ---------------------------
    def upper_fields(self) -> FrozenSet[int]:
        """The set of distinct upper fields present in this community set.

        Cached: tuple preparation asks for this once per unique tuple, and
        community sets are shared across many tuples.  The guard keeps
        instances from pickles predating the slot working.
        """
        try:
            return self._uppers
        except AttributeError:
            value = frozenset(c.upper for c in self._items)
            self._uppers = value
            return value

    def has_upper(self, asn: ASN) -> bool:
        """``True`` if any community has *asn* in its upper field.

        This is the ``A:*  in  output(A_1)`` test from Section 5.3.
        """
        return any(c.upper == asn for c in self._items)

    def with_upper(self, asn: ASN) -> "CommunitySet":
        """Return the subset of communities whose upper field equals *asn*."""
        return CommunitySet(c for c in self._items if c.upper == asn)

    def regular(self) -> "CommunitySet":
        """Return only the regular (RFC 1997) communities."""
        return CommunitySet(c for c in self._items if not c.is_large)

    def large(self) -> "CommunitySet":
        """Return only the large (RFC 8092) communities."""
        return CommunitySet(c for c in self._items if c.is_large)

    def sorted(self) -> List[AnyCommunity]:
        """Deterministically ordered list of the communities."""
        return sorted(self._items, key=lambda c: (c.is_large, str(c)))

    def to_strings(self) -> List[str]:
        """Textual representation of every community, sorted."""
        return [str(c) for c in self.sorted()]


_EMPTY = CommunitySet()
