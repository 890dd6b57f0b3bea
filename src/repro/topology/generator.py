"""Internet-like AS topology generation.

Builds a hierarchical AS-level graph that mimics the structural properties
the paper's datasets exhibit (Table 1): a small clique of tier-1 providers, a
few thousand transit networks, a large majority (~83%) of stub/leaf ASes, a
substantial share of 32-bit ASNs, and collector peers that are mostly larger
networks.  The generator also hands out prefixes and populates the ASN and
prefix allocation registries used by the sanitation step.

The default sizes are scaled down from the Internet's ~73k ASes so the full
pipeline runs comfortably in CI; every size is configurable through
:class:`TopologyConfig` and the benchmark harness exercises larger instances.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.bgp.asn import ASN, ASNRegistry, MAX_ASN_16BIT
from repro.bgp.prefix import Prefix, PrefixAllocation, PrefixGenerator
from repro.topology.relationships import ASRelationships


class ASTier(enum.Enum):
    """Coarse AS size classes used by the generator."""

    TIER1 = "tier1"
    LARGE_TRANSIT = "large_transit"
    MID_TRANSIT = "mid_transit"
    SMALL_TRANSIT = "small_transit"
    STUB = "stub"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Ordering of tiers from the core outwards (used when picking providers).
_TIER_ORDER: Tuple[ASTier, ...] = (
    ASTier.TIER1,
    ASTier.LARGE_TRANSIT,
    ASTier.MID_TRANSIT,
    ASTier.SMALL_TRANSIT,
    ASTier.STUB,
)


@dataclass(frozen=True)
class ASInfo:
    """Static information about one generated AS."""

    asn: ASN
    tier: ASTier
    prefixes: Tuple[Prefix, ...] = ()

    @property
    def is_32bit(self) -> bool:
        """``True`` if the ASN does not fit in 16 bits."""
        return self.asn > MAX_ASN_16BIT


@dataclass
class TopologyConfig:
    """Sizing and randomness knobs for the topology generator.

    The defaults produce roughly 2,000 ASes with an Internet-like tier mix
    (~83% stubs) in well under a second; `scaled` builds proportionally
    larger instances.
    """

    seed: int = 1
    n_tier1: int = 12
    n_large_transit: int = 40
    n_mid_transit: int = 120
    n_small_transit: int = 180
    n_stub: int = 1650
    #: Probability that two large-transit ASes peer with each other.
    p_large_peering: float = 0.25
    #: Probability that two mid-transit ASes peer with each other.
    p_mid_peering: float = 0.02
    #: Probability that a small-transit AS peers with another small/mid AS.
    p_small_peering: float = 0.01
    #: Share of ASes that receive a 32-bit ASN (biased towards stubs).
    share_32bit: float = 0.43
    #: Stub multihoming: probability of having a second (third) provider.
    p_stub_second_provider: float = 0.35
    p_stub_third_provider: float = 0.08
    #: Prefixes originated per AS by tier.
    prefixes_per_stub: Tuple[int, int] = (1, 3)
    prefixes_per_transit: Tuple[int, int] = (2, 6)
    #: First ASN handed out (purely cosmetic).
    first_asn: int = 3000

    @classmethod
    def scaled(cls, factor: float, *, seed: int = 1) -> "TopologyConfig":
        """A configuration scaled by *factor* relative to the defaults."""
        base = cls(seed=seed)
        return cls(
            seed=seed,
            n_tier1=max(4, int(base.n_tier1 * min(factor, 2.0))),
            n_large_transit=max(6, int(base.n_large_transit * factor)),
            n_mid_transit=max(10, int(base.n_mid_transit * factor)),
            n_small_transit=max(10, int(base.n_small_transit * factor)),
            n_stub=max(50, int(base.n_stub * factor)),
        )

    @property
    def total_ases(self) -> int:
        """Total number of ASes the configuration will generate."""
        return (
            self.n_tier1
            + self.n_large_transit
            + self.n_mid_transit
            + self.n_small_transit
            + self.n_stub
        )


@dataclass
class Topology:
    """A generated AS-level topology plus its registries."""

    ases: Dict[ASN, ASInfo]
    relationships: ASRelationships
    asn_registry: ASNRegistry
    prefix_allocation: PrefixAllocation
    config: TopologyConfig

    # -- convenience accessors -------------------------------------------------
    def __len__(self) -> int:
        return len(self.ases)

    def __contains__(self, asn: object) -> bool:
        return asn in self.ases

    def asns(self) -> List[ASN]:
        """All ASNs, sorted for determinism."""
        return sorted(self.ases)

    def by_tier(self, tier: ASTier) -> List[ASN]:
        """All ASNs of the given *tier*, sorted."""
        return sorted(asn for asn, info in self.ases.items() if info.tier == tier)

    def transit_asns(self) -> List[ASN]:
        """ASes that have at least one customer."""
        return sorted(asn for asn in self.ases if self.relationships.customers_of(asn))

    def leaf_asns(self) -> List[ASN]:
        """ASes without customers (the AS-level periphery)."""
        return sorted(asn for asn in self.ases if not self.relationships.customers_of(asn))

    def prefixes_of(self, asn: ASN) -> Tuple[Prefix, ...]:
        """The prefixes originated by *asn*."""
        return self.ases[asn].prefixes

    def count_32bit(self) -> int:
        """Number of ASes with 32-bit-only ASNs (Table 1 row)."""
        return sum(1 for info in self.ases.values() if info.is_32bit)

    def select_collector_peers(
        self, count: int, *, seed: int = 7, leaf_share: float = 0.08
    ) -> List[ASN]:
        """Choose *count* ASes to act as collector peers.

        Collector peers in the wild are predominantly transit networks and
        IXP-connected providers; a small share are stubs.  Selection is
        deterministic for a given seed.
        """
        rng = random.Random(seed)
        transit = self.transit_asns()
        leaves = self.leaf_asns()
        n_leaf = min(len(leaves), int(count * leaf_share))
        n_transit = min(len(transit), count - n_leaf)
        # Weight transit choice towards the core: tier-1 and large transit first.
        weighted: List[ASN] = []
        for asn in transit:
            tier = self.ases[asn].tier
            weight = {
                ASTier.TIER1: 12,
                ASTier.LARGE_TRANSIT: 8,
                ASTier.MID_TRANSIT: 4,
                ASTier.SMALL_TRANSIT: 2,
                ASTier.STUB: 1,
            }[tier]
            weighted.extend([asn] * weight)
        peers: Set[ASN] = set()
        while len(peers) < n_transit and weighted:
            peers.add(rng.choice(weighted))
        peers.update(rng.sample(leaves, n_leaf) if leaves else [])
        return sorted(peers)

    def grow(self, n_new_stubs: int, *, seed: int = 99) -> "Topology":
        """Return a copy of the topology with *n_new_stubs* additional stubs.

        Used by the longitudinal experiment (Figure 4) to model gradual
        Internet growth between snapshots while keeping the existing ASes and
        their behaviour untouched.
        """
        generator = InternetTopologyGenerator(self.config)
        return generator.grow(self, n_new_stubs, seed=seed)


class InternetTopologyGenerator:
    """Generates :class:`Topology` instances from a :class:`TopologyConfig`."""

    def __init__(self, config: Optional[TopologyConfig] = None) -> None:
        self.config = config or TopologyConfig()

    # -- public API --------------------------------------------------------------
    def generate(self) -> Topology:
        """Generate a fresh topology."""
        config = self.config
        rng = random.Random(config.seed)
        prefix_generator = PrefixGenerator()

        asns_by_tier = self._assign_asns(rng)
        relationships = ASRelationships()
        ases: Dict[ASN, ASInfo] = {}

        tier1 = asns_by_tier[ASTier.TIER1]
        large = asns_by_tier[ASTier.LARGE_TRANSIT]
        mid = asns_by_tier[ASTier.MID_TRANSIT]
        small = asns_by_tier[ASTier.SMALL_TRANSIT]
        stubs = asns_by_tier[ASTier.STUB]

        # Tier-1 clique: full mesh of peer links.
        for i, a in enumerate(tier1):
            for b in tier1[i + 1 :]:
                relationships.add_p2p(a, b)

        # Large transit: 2-3 tier-1 providers, dense peering among themselves.
        for asn in large:
            for provider in rng.sample(tier1, k=min(len(tier1), rng.randint(2, 3))):
                relationships.add_p2c(provider, asn)
        for i, a in enumerate(large):
            for b in large[i + 1 :]:
                if rng.random() < config.p_large_peering:
                    relationships.add_p2p(a, b)

        # Mid transit: providers from large transit (sometimes tier-1), sparse peering.
        for asn in mid:
            provider_pool = large if rng.random() < 0.85 else tier1
            for provider in rng.sample(provider_pool, k=min(len(provider_pool), rng.randint(1, 3))):
                relationships.add_p2c(provider, asn)
        for i, a in enumerate(mid):
            for b in mid[i + 1 :]:
                if rng.random() < config.p_mid_peering:
                    relationships.add_p2p(a, b)

        # Small transit: providers from mid or large transit, occasional peering.
        for asn in small:
            provider_pool = mid if rng.random() < 0.6 else large
            for provider in rng.sample(provider_pool, k=min(len(provider_pool), rng.randint(1, 2))):
                relationships.add_p2c(provider, asn)
            if rng.random() < config.p_small_peering and len(small) > 1:
                peer = rng.choice(small)
                if peer != asn:
                    relationships.add_p2p(asn, peer)

        # Stubs: providers drawn from every transit tier.  Weighting the pool
        # towards mid and large transit keeps the AS-level graph flat (real
        # collector-observed paths average roughly four hops), while still
        # leaving room for deeper small-transit chains.
        stub_provider_pool = small + mid * 2 + large * 2
        for asn in stubs:
            providers = {rng.choice(stub_provider_pool)}
            if rng.random() < config.p_stub_second_provider:
                providers.add(rng.choice(stub_provider_pool))
            if rng.random() < config.p_stub_third_provider:
                providers.add(rng.choice(large if large else stub_provider_pool))
            for provider in providers:
                if provider != asn:
                    relationships.add_p2c(provider, asn)

        # Prefixes and AS info.
        for tier, tier_asns in asns_by_tier.items():
            for asn in tier_asns:
                lo, hi = (
                    self.config.prefixes_per_stub
                    if tier == ASTier.STUB
                    else self.config.prefixes_per_transit
                )
                prefixes = tuple(prefix_generator.take(rng.randint(lo, hi)))
                ases[asn] = ASInfo(asn=asn, tier=tier, prefixes=prefixes)

        asn_registry = ASNRegistry.from_asns(ases)
        prefix_allocation = PrefixAllocation.default_internet()
        return Topology(
            ases=ases,
            relationships=relationships,
            asn_registry=asn_registry,
            prefix_allocation=prefix_allocation,
            config=config,
        )

    def grow(self, topology: Topology, n_new_stubs: int, *, seed: int = 99) -> Topology:
        """Add *n_new_stubs* new stub ASes to an existing topology."""
        rng = random.Random(seed)
        prefix_generator = PrefixGenerator(next_index=sum(len(i.prefixes) for i in topology.ases.values()))
        max_asn = max(topology.ases)
        provider_pool = [
            asn
            for asn in topology.asns()
            if topology.ases[asn].tier in (ASTier.SMALL_TRANSIT, ASTier.MID_TRANSIT)
        ]
        new_ases = dict(topology.ases)
        relationships = topology.relationships  # shared on purpose: growth is additive
        registry = topology.asn_registry
        next_asn = max_asn + 1
        for offset in range(n_new_stubs):
            asn = next_asn + offset
            if rng.random() < self.config.share_32bit:
                asn += 4_200_000  # push into 32-bit space while staying public
            while asn in new_ases:
                asn += 1
            providers = {rng.choice(provider_pool)}
            if rng.random() < self.config.p_stub_second_provider:
                providers.add(rng.choice(provider_pool))
            for provider in providers:
                relationships.add_p2c(provider, asn)
            prefixes = tuple(prefix_generator.take(rng.randint(*self.config.prefixes_per_stub)))
            new_ases[asn] = ASInfo(asn=asn, tier=ASTier.STUB, prefixes=prefixes)
            registry.allocate(asn)
        return Topology(
            ases=new_ases,
            relationships=relationships,
            asn_registry=registry,
            prefix_allocation=topology.prefix_allocation,
            config=topology.config,
        )

    # -- internals ------------------------------------------------------------------
    def _assign_asns(self, rng: random.Random) -> Dict[ASTier, List[ASN]]:
        """Hand out ASNs per tier; a configurable share are 32-bit ASNs."""
        config = self.config
        sizes = {
            ASTier.TIER1: config.n_tier1,
            ASTier.LARGE_TRANSIT: config.n_large_transit,
            ASTier.MID_TRANSIT: config.n_mid_transit,
            ASTier.SMALL_TRANSIT: config.n_small_transit,
            ASTier.STUB: config.n_stub,
        }
        result: Dict[ASTier, List[ASN]] = {tier: [] for tier in _TIER_ORDER}
        next_16bit = config.first_asn
        next_32bit = 200_000  # comfortably beyond the 16-bit space, public
        # 32-bit ASNs are overwhelmingly held by newer, smaller networks:
        # core tiers always get 16-bit ASNs, the 32-bit share is spread over
        # small transit and stub ASes.
        eligible_32bit = sizes[ASTier.SMALL_TRANSIT] + sizes[ASTier.STUB]
        want_32bit = int(config.share_32bit * config.total_ases)
        p_32bit = min(1.0, want_32bit / eligible_32bit) if eligible_32bit else 0.0
        for tier in _TIER_ORDER:
            for _ in range(sizes[tier]):
                use_32bit = tier in (ASTier.SMALL_TRANSIT, ASTier.STUB) and rng.random() < p_32bit
                if use_32bit:
                    result[tier].append(next_32bit)
                    next_32bit += 1
                else:
                    result[tier].append(next_16bit)
                    next_16bit += 1
        return result
