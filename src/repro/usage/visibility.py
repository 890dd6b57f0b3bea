"""Ground-truth visibility analysis (paper Sections 5.1.2, 5.1.3, 6.4).

When generating ground-truth scenarios we know not only each AS's role but
also whether that role can possibly be observed at the collectors:

* an AS's behaviour is **hidden** when, on every path it appears in, some AS
  between it and the collector is a cleaner (its ``output`` never reaches a
  collector unmodified);
* the forwarding behaviour of an AS is additionally unobservable when no
  path offers a *downstream tagger* reachable through forward ASes;
* **leaf** ASes never forward other ASes' announcements, so they have no
  forwarding behaviour at all.

The confusion matrices of Tables 5 and 6 report hidden and leaf rows
separately; :class:`VisibilityAnalysis` computes exactly those sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Set

from repro.bgp.asn import ASN
from repro.bgp.path import ASPath
from repro.usage.roles import RoleAssignment


@dataclass
class VisibilityAnalysis:
    """Which ASes' ground-truth behaviour is observable at the collectors."""

    #: Every AS that occurs on at least one path.
    all_ases: Set[ASN] = field(default_factory=set)
    #: ASes that never appear at a non-origin position (no downstream ASes).
    leaf_ases: Set[ASN] = field(default_factory=set)
    #: ASes whose tagging behaviour is observable on at least one path.
    tagging_visible: Set[ASN] = field(default_factory=set)
    #: ASes whose forwarding behaviour is observable on at least one path.
    forwarding_visible: Set[ASN] = field(default_factory=set)
    #: ASes that appear as collector peers (``A_1``) on at least one path.
    collector_peers: Set[ASN] = field(default_factory=set)

    @property
    def tagging_hidden(self) -> Set[ASN]:
        """ASes whose tagging behaviour can never be observed."""
        return self.all_ases - self.tagging_visible

    @classmethod
    def from_paths(cls, paths: Iterable[ASPath], roles: RoleAssignment) -> "VisibilityAnalysis":
        """Analyse visibility of ground-truth roles over a path substrate.

        Visibility follows the same logic the inference conditions encode,
        but evaluated against the *true* roles: the tagging behaviour of
        ``A_x`` is visible when every upstream AS is a forward AS; its
        forwarding behaviour additionally needs a downstream tagger reachable
        through forward ASes.
        """
        analysis = cls()
        transit: Set[ASN] = set()

        for path in paths:
            asns = path.asns
            n = len(asns)
            analysis.all_ases.update(asns)
            analysis.collector_peers.add(asns[0])
            if n >= 2:
                transit.update(asns[:-1])

            # g[i] (1-based): a tagger exists at some t >= i reachable from i
            # through forward ASes only (paper Cond2 evaluated on true roles).
            reach_tagger = [False] * (n + 2)
            for i in range(n, 0, -1):
                role = roles.get(asns[i - 1])
                if role is None:
                    continue
                reach_tagger[i] = role.is_tagger or (role.is_forward and reach_tagger[i + 1])

            upstream_all_forward = True
            for x in range(1, n + 1):
                asn = asns[x - 1]
                if upstream_all_forward:
                    analysis.tagging_visible.add(asn)
                    if x < n and reach_tagger[x + 1]:
                        analysis.forwarding_visible.add(asn)
                role = roles.get(asn)
                if role is None or not role.is_forward:
                    upstream_all_forward = False
                    # ASes further down the path are hidden on this path.
                    if not upstream_all_forward and x < n:
                        # No need to keep scanning for visibility, but we still
                        # account the remaining ASes as present on the path.
                        analysis.all_ases.update(asns[x:])
                        break

        analysis.leaf_ases = analysis.all_ases - transit
        # Leaf ASes cannot have observable forwarding behaviour.
        analysis.forwarding_visible -= analysis.leaf_ases
        return analysis
