"""IP prefixes and prefix allocation.

The sanitation step of the paper removes "routing information that includes
unallocated prefixes" (Section 4.1).  This module provides a light-weight
prefix type built on :mod:`ipaddress` plus :class:`PrefixAllocation`, a
synthetic stand-in for RIR delegation data that answers "is this prefix
covered by an allocated block?".
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple, Union

from repro.bgp.prefixtrie import PrefixTrie

IPNetwork = Union[ipaddress.IPv4Network, ipaddress.IPv6Network]


@dataclass(frozen=True, order=True)
class Prefix:
    """An IP prefix, e.g. ``203.0.113.0/24`` or ``2001:db8::/32``.

    Stored in a normalised integer form so it can be hashed, ordered, and
    encoded to MRT without re-parsing strings.
    """

    network: int
    length: int
    afi: int = 1  # 1 = IPv4, 2 = IPv6 (MRT address family identifiers)

    MAX_LENGTH_V4 = 32
    MAX_LENGTH_V6 = 128

    def __post_init__(self) -> None:
        max_len = self.MAX_LENGTH_V4 if self.afi == 1 else self.MAX_LENGTH_V6
        if self.afi not in (1, 2):
            raise ValueError(f"invalid AFI {self.afi}")
        if not 0 <= self.length <= max_len:
            raise ValueError(f"invalid prefix length {self.length} for AFI {self.afi}")
        max_net = (1 << (32 if self.afi == 1 else 128)) - 1
        if not 0 <= self.network <= max_net:
            raise ValueError("network address out of range")

    @property
    def max_length(self) -> int:
        """Maximum prefix length for this address family."""
        return self.MAX_LENGTH_V4 if self.afi == 1 else self.MAX_LENGTH_V6

    @property
    def is_ipv4(self) -> bool:
        return self.afi == 1

    @property
    def is_ipv6(self) -> bool:
        return self.afi == 2

    def to_network(self) -> IPNetwork:
        """Return the :mod:`ipaddress` network object for this prefix."""
        if self.is_ipv4:
            return ipaddress.IPv4Network((self.network, self.length))
        return ipaddress.IPv6Network((self.network, self.length))

    def covers(self, other: "Prefix") -> bool:
        """Return ``True`` if *other* is equal to or more specific than us."""
        if self.afi != other.afi or other.length < self.length:
            return False
        shift = self.max_length - self.length
        return (self.network >> shift) == (other.network >> shift)

    def __str__(self) -> str:
        return str(self.to_network())

    @classmethod
    def from_nlri(cls, afi: int, length: int, network: bytes) -> "Prefix":
        """Build a prefix from wire NLRI: *length* bits in ``ceil(length / 8)`` bytes.

        The last byte's bits past the length need not be zero on the wire (RFC
        4271 section 4.3): shifted out, or equal prefixes compare unequal.
        """
        value = int.from_bytes(network, "big") >> (8 * len(network) - length)
        return cls(value << ((32 if afi == 1 else 128) - length), length, afi)

    @classmethod
    def from_string(cls, text: str) -> "Prefix":
        """Parse a textual prefix such as ``"10.0.0.0/8"``."""
        network = ipaddress.ip_network(text, strict=True)
        afi = 1 if network.version == 4 else 2
        return cls(int(network.network_address), network.prefixlen, afi)

    @classmethod
    def ipv4(cls, network: int, length: int) -> "Prefix":
        """Construct an IPv4 prefix from integer network and length."""
        return cls(network, length, afi=1)

    @classmethod
    def ipv6(cls, network: int, length: int) -> "Prefix":
        """Construct an IPv6 prefix from integer network and length."""
        return cls(network, length, afi=2)


def parse_prefix(text: str) -> Prefix:
    """Convenience wrapper around :meth:`Prefix.from_string`."""
    return Prefix.from_string(text)


#: Well-known special-use IPv4 blocks that must never appear in the DFZ.
_SPECIAL_USE_V4: Tuple[str, ...] = (
    "0.0.0.0/8",
    "10.0.0.0/8",
    "100.64.0.0/10",
    "127.0.0.0/8",
    "169.254.0.0/16",
    "172.16.0.0/12",
    "192.0.2.0/24",
    "192.168.0.0/16",
    "198.18.0.0/15",
    "198.51.100.0/24",
    "203.0.113.0/24",
    "224.0.0.0/4",
    "240.0.0.0/4",
)


#: The special-use blocks, parsed once into a covering-lookup trie.  The old
#: implementation re-parsed all 13 block strings on every call — and this
#: predicate runs for every observation that reaches the sanitizer.
_SPECIAL_USE_TRIE = PrefixTrie(Prefix.from_string(block) for block in _SPECIAL_USE_V4)


def is_special_use(prefix: Prefix) -> bool:
    """Return ``True`` for martian / special-use prefixes (IPv4 only)."""
    return prefix.is_ipv4 and _SPECIAL_USE_TRIE.has_covering(prefix)


@dataclass
class PrefixAllocation:
    """Synthetic prefix allocation registry.

    Allocated address space is modelled as a set of covering blocks; a prefix
    is considered allocated when it is equal to or more specific than one of
    the registered blocks and is not special-use space.
    """

    blocks: List[Prefix] = field(default_factory=list)
    _by_afi: Dict[int, List[Prefix]] = field(default_factory=dict, repr=False)
    _trie: PrefixTrie = field(default_factory=PrefixTrie, repr=False)

    def register(self, block: Prefix) -> None:
        """Register an allocated covering block."""
        self.blocks.append(block)
        self._by_afi.setdefault(block.afi, []).append(block)
        self._lookup_trie().insert(block)

    def register_many(self, blocks: Iterable[Prefix]) -> None:
        """Register several allocated blocks."""
        for block in blocks:
            self.register(block)

    def _lookup_trie(self) -> PrefixTrie:
        """The covering-lookup trie (rebuilt lazily for pre-trie pickles)."""
        trie = getattr(self, "_trie", None)
        if trie is None:
            trie = self._trie = PrefixTrie(self.blocks)
        return trie

    def is_allocated(self, prefix: Prefix) -> bool:
        """Return ``True`` if *prefix* falls inside an allocated block.

        One O(prefix-length) trie walk instead of a scan over every
        registered block (``default_internet`` alone registers ~220).
        """
        return not is_special_use(prefix) and self._lookup_trie().has_covering(prefix)

    def __contains__(self, prefix: object) -> bool:
        return isinstance(prefix, Prefix) and self.is_allocated(prefix)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[Prefix]:
        return iter(self.blocks)

    @classmethod
    def default_internet(cls) -> "PrefixAllocation":
        """Registry approximating globally allocated unicast space.

        Registers the large historical /8-equivalents that cover the synthetic
        prefixes generated by :mod:`repro.topology.generator` plus a generic
        IPv6 global-unicast block.
        """
        allocation = cls()
        for first_octet in range(1, 224):
            block = Prefix.ipv4(first_octet << 24, 8)
            if not is_special_use(block):
                allocation.register(block)
        allocation.register(Prefix.from_string("2000::/3"))
        return allocation


@dataclass
class PrefixGenerator:
    """Deterministic generator of distinct routable IPv4 prefixes.

    Used by the topology generator to hand each origin AS one or more unique
    /24-ish prefixes out of allocated space, skipping special-use blocks.
    """

    next_index: int = 0

    #: First octets that are safe to hand out (public unicast, not special).
    _SAFE_FIRST_OCTETS: Tuple[int, ...] = tuple(
        o for o in range(1, 224) if o not in (0, 10, 100, 127, 169, 172, 192, 198, 203)
    )

    def next_prefix(self, length: int = 24) -> Prefix:
        """Return the next unused prefix of the requested *length*."""
        if not 8 <= length <= 32:
            raise ValueError("prefix length must be between 8 and 32")
        slots_per_octet = 1 << (length - 8)
        octet_idx, slot = divmod(self.next_index, slots_per_octet)
        if octet_idx >= len(self._SAFE_FIRST_OCTETS):
            raise RuntimeError("prefix space exhausted for this generator")
        first_octet = self._SAFE_FIRST_OCTETS[octet_idx]
        network = (first_octet << 24) | (slot << (32 - length))
        self.next_index += 1
        return Prefix.ipv4(network, length)

    def take(self, count: int, length: int = 24) -> List[Prefix]:
        """Return *count* fresh prefixes."""
        return [self.next_prefix(length) for _ in range(count)]
