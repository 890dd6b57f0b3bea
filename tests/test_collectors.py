"""Tests for the collector simulation (projects, archives, MRT round trips)."""

import pytest

from repro.bgp.messages import BGPUpdate, PathAttributes
from repro.bgp.path import ASPath
from repro.bgp.prefix import parse_prefix
from repro.collectors.archive import ArchiveConfig, observations_from_mrt, read_mrt_files
from repro.collectors.collector import Collector, CollectorProject, merge_peer_sets
from repro.collectors.projects import DEFAULT_PROJECT_NAMES, build_default_projects
from repro.core.pipeline import InferencePipeline
from repro.mrt.encoder import MRTEncoder


class TestCollectorModel:
    def test_collector_membership(self):
        collector = Collector(name="rrc00", project="ripe", peer_asns=(10, 20))
        assert 10 in collector
        assert len(collector) == 2

    def test_project_rejects_foreign_collector(self):
        project = CollectorProject(name="ripe")
        with pytest.raises(ValueError):
            project.add_collector(Collector(name="x", project="routeviews", peer_asns=(1,)))

    def test_project_peer_union(self):
        project = CollectorProject(name="ripe")
        project.add_collector(Collector(name="a", project="ripe", peer_asns=(1, 2)))
        project.add_collector(Collector(name="b", project="ripe", peer_asns=(2, 3)))
        assert project.peer_asns() == {1, 2, 3}
        assert project.collector_names() == ["a", "b"]

    def test_merge_peer_sets(self):
        a = CollectorProject(name="a")
        a.add_collector(Collector(name="a0", project="a", peer_asns=(1,)))
        b = CollectorProject(name="b")
        b.add_collector(Collector(name="b0", project="b", peer_asns=(2,)))
        assert merge_peer_sets([a, b]) == {1, 2}


class TestDefaultProjects:
    def test_all_four_projects_built(self, topology):
        projects = build_default_projects(topology, seed=1)
        assert set(projects) == set(DEFAULT_PROJECT_NAMES)

    def test_pch_has_most_peers_but_no_ribs(self, topology):
        projects = build_default_projects(topology, seed=1)
        assert not projects["pch"].provides_ribs
        assert projects["ripe"].provides_ribs
        assert len(projects["pch"].peer_asns()) > len(projects["isolario"].peer_asns())

    def test_peers_are_topology_members(self, topology):
        projects = build_default_projects(topology, seed=1)
        for project in projects.values():
            assert project.peer_asns() <= set(topology.ases)


class TestArchives:
    @pytest.fixture()
    def ripe_archive(self, tiny_internet):
        config = ArchiveConfig(rib_snapshots_per_day=1, update_share=0.2, seed=5)
        return tiny_internet.archive_for("ripe", config=config)

    def test_day_archive_counts(self, ripe_archive):
        day = ripe_archive.generate_day(0)
        assert day.rib_entry_count > 0
        assert day.update_message_count > 0
        assert day.total_entries == day.rib_entry_count + day.update_message_count
        assert day.observations

    def test_observations_reference_project_collectors(self, ripe_archive, tiny_internet):
        day = ripe_archive.generate_day(0)
        collector_names = set(tiny_internet.projects["ripe"].collector_names())
        assert {obs.collector for obs in day.observations} <= collector_names

    def test_day_generation_is_deterministic(self, ripe_archive):
        a = ripe_archive.generate_day(1)
        b = ripe_archive.generate_day(1)
        assert a.rib_entry_count == b.rib_entry_count
        assert len(a.observations) == len(b.observations)

    def test_churn_makes_days_differ(self, ripe_archive):
        day0 = ripe_archive.generate_day(0)
        day1 = ripe_archive.generate_day(1)
        paths0 = {(o.peer_asn, o.path) for o in day0.observations}
        paths1 = {(o.peer_asn, o.path) for o in day1.observations}
        assert paths0 != paths1
        # ...but the overwhelming majority of routes are stable day to day.
        overlap = len(paths0 & paths1) / len(paths0)
        assert overlap > 0.9

    def test_pch_archive_has_no_rib_entries(self, tiny_internet):
        archive = tiny_internet.archive_for("pch", config=ArchiveConfig(seed=5))
        day = archive.generate_day(0)
        assert day.rib_entry_count == 0
        assert all(not obs.from_rib for obs in day.observations)

    def test_mrt_round_trip_preserves_observations(self, tiny_internet):
        config = ArchiveConfig(rib_snapshots_per_day=1, update_share=0.1, seed=5)
        archive = tiny_internet.archive_for("isolario", config=config)
        day = archive.generate_day(0)
        blobs = archive.day_to_mrt(day)
        decoded = []
        for collector, blob in blobs.items():
            decoded.extend(observations_from_mrt(blob, collector))
        assert len(decoded) == len(day.observations)
        original = {(o.peer_asn, o.path, o.communities, o.prefix) for o in day.observations}
        round_tripped = {(o.peer_asn, o.path, o.communities, o.prefix) for o in decoded}
        assert original == round_tripped

    def test_mrt_updates_yield_one_observation_per_announced_prefix(self):
        """A withdrawal-only update carries no path and yields nothing; a RIB
        entry comes back flagged ``from_rib``."""
        attributes = PathAttributes(as_path=ASPath([10, 20]))
        prefixes = (parse_prefix("8.8.8.0/24"), parse_prefix("9.9.9.0/24"))
        encoder = MRTEncoder()
        encoder.write_peer_index_table([10], timestamp=0)
        encoder.write_rib_entry(prefixes[0], [(10, 0, attributes)], sequence=0, timestamp=0)
        encoder.write_update(
            BGPUpdate(peer_asn=10, timestamp=1, announced=prefixes, attributes=attributes)
        )
        encoder.write_update(BGPUpdate(peer_asn=10, timestamp=2, withdrawn=prefixes[:1]))
        observations = observations_from_mrt(encoder.getvalue(), "rrc00")
        assert [(o.from_rib, o.prefix, o.timestamp) for o in observations] == [
            (True, prefixes[0], 0),
            (False, prefixes[0], 1),
            (False, prefixes[1], 1),
        ]
        assert all(o.peer_asn == 10 and o.path == attributes.as_path for o in observations)

    def test_mrt_blobs_feed_the_pipeline(self, tiny_internet):
        config = ArchiveConfig(rib_snapshots_per_day=1, update_share=0.0, seed=5)
        archive = tiny_internet.archive_for("isolario", config=config)
        blobs = archive.day_to_mrt(archive.generate_day(0))
        pipeline = InferencePipeline(
            asn_registry=tiny_internet.topology.asn_registry,
            prefix_allocation=tiny_internet.topology.prefix_allocation,
        )
        outcome = pipeline.run_from_mrt(blobs)
        assert outcome.unique_tuples > 0
        assert outcome.result.summary()["tagger"] > 0

    def test_read_mrt_files_labels_never_collide(self, tmp_path):
        """Basename when unique among the inputs, else the path as given."""
        paths = {}
        for name in ("rrc00/updates.mrt", "rrc01/updates.mrt", "rrc01/bview.mrt"):
            paths[name] = tmp_path / name
            paths[name].parent.mkdir(exist_ok=True)
            paths[name].write_bytes(name.encode())
        given = [str(path) for path in paths.values()]
        blobs = read_mrt_files(given + given[:1])  # the same path twice is one file
        assert blobs == {
            given[0]: b"rrc00/updates.mrt",
            given[1]: b"rrc01/updates.mrt",
            "bview.mrt": b"rrc01/bview.mrt",
        }
        assert list(blobs) == [given[0], given[1], "bview.mrt"]  # argument order
