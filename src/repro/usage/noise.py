"""Noise injection (paper Section 6.1).

The ``random+noise`` scenario stresses the inference with two ambiguity
sources that occur in real data:

1. **action communities** -- an AS attaches a community whose upper field is
   the ASN of its *upstream neighbour* (e.g. a customer asking its provider
   to blackhole or prepend), so the community looks as if the neighbour had
   tagged it;
2. **originator-named communities** -- a community whose upper field is the
   ASN of the *origin* of the path appears even though the origin's own tags
   may have been cleaned, which stresses the forwarding inference.

Following the paper, roughly 50% of ASes are noise-capable and each noise
source fires with 5% probability per ``(path, comm)`` tuple, so an affected
AS exhibits inconsistent behaviour.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, Set

from repro.bgp.asn import ASN
from repro.bgp.community import CommunitySet, make_community
from repro.bgp.path import ASPath


@dataclass
class NoiseConfig:
    """Parameters of the two Section 6.1 noise sources."""

    #: Share of ASes that may emit noise at all.
    share_of_ases: float = 0.5
    #: Per-tuple probability that a noise-capable AS adds an action community.
    p_action_community: float = 0.05
    #: Per-tuple probability that an originator-named community is added.
    p_origin_community: float = 0.05
    #: Lower field used for injected communities (value is irrelevant).
    lower_value: int = 666
    seed: int = 0

    @property
    def enabled(self) -> bool:
        """``True`` when any noise can be generated at all."""
        return self.share_of_ases > 0 and (
            self.p_action_community > 0 or self.p_origin_community > 0
        )


class NoiseInjector:
    """Draws the per-path noise additions for a ground-truth scenario."""

    def __init__(self, config: NoiseConfig, asns: Iterable[ASN]) -> None:
        self.config = config
        rng = random.Random(config.seed)
        ordered = sorted(asns)
        n_noisy = int(len(ordered) * config.share_of_ases)
        self.noisy_ases: Set[ASN] = set(rng.sample(ordered, n_noisy)) if n_noisy else set()
        self._rng = random.Random(config.seed + 1)

    def extra_for_path(self, path: ASPath) -> Dict[int, CommunitySet]:
        """Noise communities to inject, keyed by 1-based path index.

        The returned mapping feeds
        :meth:`repro.usage.propagation.CommunityPropagator.output_with_extra`.
        """
        if not self.config.enabled:
            return {}
        extra: Dict[int, CommunitySet] = {}
        asns = path.asns
        origin = path.origin
        for index in range(2, len(asns) + 1):  # A_2 .. A_n have an upstream neighbour
            asn = asns[index - 1]
            if asn not in self.noisy_ases:
                continue
            additions = []
            if self._rng.random() < self.config.p_action_community:
                upstream = asns[index - 2]
                additions.append(make_community(upstream, self.config.lower_value))
            if self._rng.random() < self.config.p_origin_community and asn != origin:
                additions.append(make_community(origin, self.config.lower_value))
            if additions:
                extra[index] = CommunitySet(additions)
        return extra
