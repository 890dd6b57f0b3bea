"""Shared fixtures.

Expensive substrates (topology, routing, scenario datasets, the tiny
synthetic Internet) are built once per session and shared across test
modules; tests must treat them as read-only.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.column import ColumnInference
from repro.datasets.synthetic import SyntheticConfig, SyntheticInternet
from repro.topology.generator import InternetTopologyGenerator, TopologyConfig
from repro.topology.routing import RoutingEngine
from repro.usage.scenarios import ScenarioBuilder, ScenarioName


@pytest.fixture(scope="session")
def input_digest():
    """``tuples -> (count, sha256 prefix)``, what the golden tests check first
    so a generator change is told apart from a counting change.  Same line
    format as benchmarks/e2e ``describe_tuples``."""

    def digest_of(tuples):
        digest = hashlib.sha256()
        for item in tuples:
            asns = " ".join(map(str, item.path.asns))
            communities = ",".join(sorted(item.communities.to_strings()))
            digest.update(f"{asns}|{communities}\n".encode())
        return len(tuples), digest.hexdigest()[:16]

    return digest_of


@pytest.fixture(scope="session")
def small_topology_config() -> TopologyConfig:
    """A ~500-AS topology configuration used throughout the unit tests."""
    return TopologyConfig(
        seed=42,
        n_tier1=6,
        n_large_transit=15,
        n_mid_transit=40,
        n_small_transit=50,
        n_stub=400,
    )


@pytest.fixture(scope="session")
def topology(small_topology_config):
    """A small generated topology (read-only)."""
    return InternetTopologyGenerator(small_topology_config).generate()


@pytest.fixture(scope="session")
def collector_peers(topology):
    """Collector peers selected from the small topology."""
    return topology.select_collector_peers(60, seed=5)


@pytest.fixture(scope="session")
def paths_by_peer(topology, collector_peers):
    """Best valley-free paths from every collector peer (read-only)."""
    return RoutingEngine(topology).best_paths(collector_peers)


@pytest.fixture(scope="session")
def path_substrate(paths_by_peer):
    """The flat list of AS paths used as scenario substrate."""
    return [route.path for per_origin in paths_by_peer.values() for route in per_origin.values()]


@pytest.fixture(scope="session")
def scenario_builder(path_substrate, topology):
    """A scenario builder over the shared path substrate."""
    return ScenarioBuilder(path_substrate, relationships=topology.relationships, seed=7)


@pytest.fixture(scope="session")
def random_dataset(scenario_builder):
    """The random scenario dataset (consistent roles, uniform mix)."""
    return scenario_builder.build(ScenarioName.RANDOM, seed=7)


@pytest.fixture(scope="session")
def random_classification(random_dataset):
    """Column-based classification of the random scenario."""
    return ColumnInference().run(random_dataset.tuples)


@pytest.fixture(scope="session")
def alltf_dataset(scenario_builder):
    """The alltf scenario dataset (every AS tagger-forward)."""
    return scenario_builder.build(ScenarioName.ALLTF, seed=7)


@pytest.fixture(scope="session")
def tiny_internet():
    """A tiny synthetic Internet for collector / dataset / experiment tests."""
    config = SyntheticConfig.small(seed=3)
    config.peer_fraction = 0.10
    return SyntheticInternet.build(config)
