"""The synthetic Internet used in place of the May 2021 collector data.

Bundles every substrate needed by the Section 7 style analyses: an
Internet-like topology, the four collector projects, valley-free routes from
every collector peer, a realistic community-usage role model, and the
propagation machinery that turns those ingredients into per-day collector
archives and ``(path, comm)`` tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.bgp.announcement import PathCommTuple, RouteObservation
from repro.bgp.asn import ASN
from repro.bgp.path import ASPath
from repro.collectors.archive import ArchiveConfig, CollectorArchive
from repro.collectors.collector import CollectorProject
from repro.collectors.projects import DEFAULT_PROJECT_NAMES, build_default_projects
from repro.topology.cone import CustomerCones
from repro.topology.generator import InternetTopologyGenerator, Topology, TopologyConfig
from repro.topology.routing import RoutingEngine, ValleyFreePath
from repro.usage.propagation import CommunityPropagator, TaggerCommunityPlan
from repro.usage.roles import RoleAssignment
from repro.usage.scenarios import assign_realistic_roles

#: The aggregate of RIPE, RouteViews, and Isolario (the paper's d_May21).
AGGREGATE_NAME = "dMay21"
AGGREGATE_PROJECTS: Tuple[str, ...] = ("ripe", "routeviews", "isolario")


@dataclass
class SyntheticConfig:
    """Scale and seeding of the synthetic Internet."""

    topology: TopologyConfig = field(default_factory=TopologyConfig)
    #: Fraction of ASes that peer with the RIPE-like project (others scale off it).
    peer_fraction: float = 0.05
    archive: ArchiveConfig = field(default_factory=ArchiveConfig)
    roles_seed: int = 11
    projects_seed: int = 7

    @classmethod
    def small(cls, *, seed: int = 1) -> "SyntheticConfig":
        """A small configuration for unit and integration tests."""
        return cls(topology=TopologyConfig.scaled(0.25, seed=seed), peer_fraction=0.08)

    @classmethod
    def default(cls, *, seed: int = 1) -> "SyntheticConfig":
        """The default experiment scale (≈2,000 ASes, ≈100 collector peers)."""
        return cls(topology=TopologyConfig(seed=seed), peer_fraction=0.05)

    @classmethod
    def large(cls, *, seed: int = 1) -> "SyntheticConfig":
        """A larger configuration exercised by the benchmark harness."""
        return cls(topology=TopologyConfig.scaled(2.5, seed=seed), peer_fraction=0.04)


@dataclass
class SyntheticInternet:
    """Everything the Section 7 experiments need, built once and reused."""

    config: SyntheticConfig
    topology: Topology
    projects: Dict[str, CollectorProject]
    roles: RoleAssignment
    propagator: CommunityPropagator
    paths_by_peer: Dict[ASN, Dict[ASN, ValleyFreePath]]

    # -- construction -----------------------------------------------------------------
    @classmethod
    def build(cls, config: Optional[SyntheticConfig] = None) -> "SyntheticInternet":
        """Generate the full synthetic Internet from a configuration."""
        config = config or SyntheticConfig.default()
        topology = InternetTopologyGenerator(config.topology).generate()
        projects = build_default_projects(
            topology, seed=config.projects_seed, peer_fraction=config.peer_fraction
        )
        all_peers = sorted({asn for project in projects.values() for asn in project.peer_asns()})
        engine = RoutingEngine(topology)
        paths_by_peer = engine.best_paths(all_peers)
        roles = assign_realistic_roles(topology, seed=config.roles_seed)
        propagator = CommunityPropagator(
            roles,
            relationships=topology.relationships,
            plan=TaggerCommunityPlan(seed=config.roles_seed),
        )
        return cls(
            config=config,
            topology=topology,
            projects=projects,
            roles=roles,
            propagator=propagator,
            paths_by_peer=paths_by_peer,
        )

    # -- accessors ----------------------------------------------------------------------
    def collector_peers(self, project_names: Optional[Sequence[str]] = None) -> List[ASN]:
        """The distinct collector peers of the given projects (default: all)."""
        names = project_names or list(self.projects)
        peers: Set[ASN] = set()
        for name in names:
            peers.update(self.projects[name].peer_asns())
        return sorted(peers)

    def project_names(self, include_pch: bool = True) -> List[str]:
        """Project names in the paper's reporting order."""
        names = [name for name in DEFAULT_PROJECT_NAMES if name in self.projects]
        if not include_pch:
            names = [name for name in names if name != "pch"]
        return names

    def cones(self) -> CustomerCones:
        """Customer cones over the topology (Figure 6)."""
        return CustomerCones(self.topology.relationships, self.topology.asns())

    # -- (path, comm) tuples -----------------------------------------------------------------
    def paths_for_peers(self, peers: Iterable[ASN]) -> List[ASPath]:
        """Every best path observed by the given peers."""
        paths: List[ASPath] = []
        for peer in peers:
            per_origin = self.paths_by_peer.get(peer, {})
            paths.extend(route.path for route in per_origin.values())
        return paths

    def tuples_for_project(self, name: str) -> List[PathCommTuple]:
        """Unique ``(path, comm)`` tuples of one collector project."""
        return self.tuples_for_peers(self.projects[name].peer_asns())

    def tuples_for_aggregate(self) -> List[PathCommTuple]:
        """Unique tuples of the aggregated RIPE+RouteViews+Isolario dataset."""
        return self.tuples_for_peers(self.collector_peers(list(AGGREGATE_PROJECTS)))

    def tuples_for_peers(self, peers: Iterable[ASN]) -> List[PathCommTuple]:
        """Unique tuples observed by an arbitrary peer set."""
        seen: Set[Tuple[ASPath, object]] = set()
        result: List[PathCommTuple] = []
        for peer in sorted(set(peers)):
            per_origin = self.paths_by_peer.get(peer, {})
            for route in per_origin.values():
                communities = self.propagator.output(route.path)
                key = (route.path, communities)
                if key in seen:
                    continue
                seen.add(key)
                result.append(PathCommTuple(route.path, communities))
        return result

    # -- per-day archives -----------------------------------------------------------------------
    def archive_for(self, project_name: str, *, config: Optional[ArchiveConfig] = None) -> CollectorArchive:
        """A :class:`CollectorArchive` generator for one project."""
        return CollectorArchive(
            self.topology,
            self.projects[project_name],
            self.paths_by_peer,
            self.propagator,
            config=config or self.config.archive,
        )

    def observations_for_day(self, project_names: Sequence[str], day: int = 0) -> List[RouteObservation]:
        """All observations of the given projects for one day."""
        observations: List[RouteObservation] = []
        for name in project_names:
            observations.extend(self.archive_for(name).generate_day(day).observations)
        return observations
