"""Leader failover: the durable epoch fence and ``promote()``.

Pins the failover contract of ``repro.service.replication`` on every backend
flavour (SQLite, memory, tiered):

* the leader epoch is durable store meta: starts at 0, bumps monotonically,
  survives reopen (SQLite), and shows up in ``stats()``;
* appends stamped with a stale epoch raise :class:`FencedWriterError` and
  land nothing -- *before* dedup can report success, so a deposed writer
  never mistakes an idempotent no-op for acceptance;
* ``epoch=None`` opts out (pre-failover callers keep working);
* a :class:`SnapshotPublisher` captures the epoch at attach time and is
  fenced by a promotion that happens mid-run;
* the kill-leader -> ``promote()`` -> fenced-old-writer round trip: a
  follower promoted away from a dead leader accepts new writes, while the
  stale syncer still pulling the old leader's pages is fenced instead of
  clobbering the promoted history.
"""

from __future__ import annotations

import pytest

from repro.service import (
    ClassificationServer,
    FencedWriterError,
    PromotionReport,
    ReplicaSyncer,
    ServiceClient,
    SnapshotPublisher,
    SnapshotStore,
    open_store,
    promote,
)
from repro.service.backends.base import require_current_epoch
from tests.test_backends import build_snapshots


@pytest.fixture(params=["sqlite", "memory", "tiered"])
def make_store(request, tmp_path):
    """A factory of fresh follower-store flavours (closed by the caller)."""
    opened = []

    def make(name="store"):
        if request.param == "sqlite":
            backend = open_store(tmp_path / f"{name}.db")
        elif request.param == "memory":
            backend = open_store("memory:")
        else:
            backend = open_store("memory:", archive_dir=tmp_path / f"{name}-cold")
        opened.append(backend)
        return backend

    yield make
    for backend in opened:
        try:
            backend.close()
        except Exception:
            pass


class TestEpochFence:
    def test_require_current_epoch(self):
        require_current_epoch(None, 5)  # opted out
        require_current_epoch(5, 5)
        require_current_epoch(6, 5)  # a newer writer is never fenced
        with pytest.raises(FencedWriterError, match="deposed by a promotion"):
            require_current_epoch(4, 5)

    def test_stale_epoch_appends_are_fenced(self, make_store):
        store = make_store()
        first, second, third = build_snapshots(3)
        store.append_snapshot(first)  # epoch=None: unfenced legacy writer
        store.append_snapshot(second, epoch=0)
        assert store.bump_leader_epoch() == 1
        with pytest.raises(FencedWriterError):
            store.append_snapshot(third, epoch=0)
        assert len(store) == 2  # the fenced write landed nothing
        store.append_snapshot(third, epoch=1)
        assert len(store) == 3
        assert store.stats()["leader_epoch"] == 1

    def test_fence_beats_dedup(self, make_store):
        """A deposed writer re-offering a held window sees the fence, not a
        successful dedup: acceptance must not be simulated."""
        store = make_store()
        snapshot = build_snapshots(1)[0]
        store.append_snapshot(snapshot, epoch=0)
        store.bump_leader_epoch()
        with pytest.raises(FencedWriterError):
            store.append_snapshot(snapshot, kind="window", if_absent=True, epoch=0)

    def test_epoch_survives_reopen(self, tmp_path):
        path = tmp_path / "durable.db"
        with SnapshotStore(path) as store:
            store.bump_leader_epoch()
            store.bump_leader_epoch()
        with SnapshotStore(path) as store:
            assert store.leader_epoch() == 2

    def test_publisher_is_fenced_by_mid_run_promotion(self, make_store):
        store = make_store()
        first, second = build_snapshots(2)
        publisher = SnapshotPublisher(store)
        publisher(first)
        assert publisher.published == 1
        store.bump_leader_epoch()  # someone else was promoted
        with pytest.raises(FencedWriterError):
            publisher(second)
        # A re-attached publisher adopts the new epoch and proceeds.
        recovered = SnapshotPublisher(store)
        recovered(second)
        assert len(store) == 2


class TestPromote:
    def test_promote_against_live_leader_syncs_first(self, tmp_path, make_store):
        with SnapshotStore(tmp_path / "leader.db") as leader:
            snapshots = build_snapshots(3)
            for snapshot in snapshots:
                leader.append_snapshot(snapshot)
            follower = make_store("follower")
            with ClassificationServer(leader) as server:
                server.start()
                syncer = ReplicaSyncer(server.url, follower)
                report = promote(follower, syncer)
                syncer.client.close()
        assert isinstance(report, PromotionReport)
        assert report.synced and report.sync_error is None
        assert report.applied == 3
        assert (report.previous_epoch, report.epoch) == (0, 1)
        assert follower.leader_epoch() == 1
        assert report.leader_generation == follower.applied_generation()
        assert report.to_dict()["epoch"] == 1

    def test_promote_with_dead_leader_still_bumps(self, make_store):
        follower = make_store("follower")
        follower.append_snapshot(build_snapshots(1)[0])
        # Nothing listens on this port: the normal failover case.
        report = promote(follower, ReplicaSyncer("http://127.0.0.1:9", follower))
        assert not report.synced and report.sync_error is not None
        assert report.epoch == 1
        # The promoted store accepts writes at its new epoch.
        follower.append_snapshot(build_snapshots(2)[-1], epoch=1)
        assert len(follower) == 2

    def test_promote_without_leader_is_a_pure_bump(self, make_store):
        store = make_store()
        report = promote(store)
        assert report.synced is False and report.sync_error is None
        assert (report.applied, report.deduplicated) == (0, 0)
        assert store.leader_epoch() == 1

    def test_cli_promote_live_leader(self, tmp_path, capsys):
        from repro.cli import main

        with SnapshotStore(tmp_path / "leader.db") as leader:
            for snapshot in build_snapshots(2):
                leader.append_snapshot(snapshot)
            with ClassificationServer(leader) as server:
                server.start()
                rc = main(
                    [
                        "replicate",
                        "--from",
                        server.url,
                        "--store",
                        str(tmp_path / "replica.db"),
                        "--promote",
                    ]
                )
        assert rc == 0
        captured = capsys.readouterr()
        import json

        outcome = json.loads(captured.out)
        assert outcome["applied"] == 2 and outcome["epoch"] == 1
        assert "promoted" in captured.err
        with SnapshotStore(tmp_path / "replica.db") as replica:
            assert replica.leader_epoch() == 1 and len(replica) == 2

    def test_cli_promote_final_sync_reports_the_follower_name(self, tmp_path, capsys):
        """The final sync is the replica's own syncer, so ``--follower``
        reaches the leader's lag gauge on a promotion too."""
        from repro.cli import main

        with SnapshotStore(tmp_path / "leader.db") as leader:
            leader.append_snapshot(build_snapshots(1)[0])
            with ClassificationServer(leader) as server:
                server.start()
                argv = ["replicate", "--from", server.url, "--store",
                        str(tmp_path / "replica.db"), "--promote", "--follower", "dc 2"]
                assert main(argv) == 0
                metrics = server.service.handle("/metrics").body.decode()
                # One poll from generation 0: the whole backlog at poll time.
                gauge = f'repro_replication_follower_lag{{follower="dc 2"}} {leader.generation()}'
        capsys.readouterr()
        assert gauge in metrics.splitlines()

    def test_cli_promote_dead_leader_warns_but_promotes(self, tmp_path, capsys):
        from repro.cli import main

        store_path = tmp_path / "replica.db"
        with SnapshotStore(store_path) as replica:
            replica.append_snapshot(build_snapshots(1)[0])
        rc = main(
            [
                "replicate",
                "--from",
                "http://127.0.0.1:9",
                "--store",
                str(store_path),
                "--promote",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "warning: final sync" in captured.err
        with SnapshotStore(store_path) as replica:
            assert replica.leader_epoch() == 1

    def test_cli_promote_past_a_pruned_changelog_warns_but_promotes(self, tmp_path, capsys):
        """A follower the leader's retention overtook cannot finish the final
        sync (``ReplicationError``); promotion still proceeds on its state."""
        from repro.cli import main

        store_path = tmp_path / "replica.db"
        snapshots = build_snapshots(4)
        with SnapshotStore(tmp_path / "leader.db", retention=1) as leader:
            leader.append_snapshot(snapshots[0])
            with ClassificationServer(leader) as server:
                server.start()
                with SnapshotStore(store_path) as replica, ServiceClient(server.url) as client:
                    assert ReplicaSyncer(client, replica).sync_once().applied == 1
                for snapshot in snapshots[1:]:
                    leader.append_snapshot(snapshot)
                rc = main(["replicate", "--from", server.url, "--store", str(store_path),
                           "--promote"])
        assert rc == 0
        captured = capsys.readouterr()
        import json

        outcome = json.loads(captured.out)
        assert not outcome["synced"] and "pruned its changelog" in outcome["sync_error"]
        assert "warning: final sync" in captured.err and "promoted" in captured.err
        with SnapshotStore(store_path) as replica:
            assert replica.leader_epoch() == 1 and len(replica) == 1

    def test_kill_leader_promote_fence_round_trip(self, tmp_path, make_store):
        """The full story: follower syncs, leader dies, follower is
        promoted, and the stale syncer pulling the resurrected old leader
        is fenced instead of overwriting the promoted history."""
        with SnapshotStore(tmp_path / "leader.db") as leader:
            for snapshot in build_snapshots(2):
                leader.append_snapshot(snapshot)
            follower = make_store("follower")
            with ClassificationServer(leader) as server:
                server.start()
                stale_syncer = ReplicaSyncer(server.url, follower)
                assert stale_syncer.sync_once().applied == 2
                assert stale_syncer.epoch == 0
                server.close()  # the leader "dies"

                report = promote(follower, ReplicaSyncer(server.url, follower))
                assert report.sync_error is not None and report.epoch == 1

                # The promoted store is writable by a fresh publisher...
                publisher = SnapshotPublisher(follower)
                assert publisher.epoch == 1
                publisher(build_snapshots(3)[-1])
                assert len(follower) == 3
            stale_syncer.client.close()

            # ...while the stale syncer, still carrying epoch 0, is fenced
            # as soon as the old leader comes back with anything new.
            leader.append_snapshot(build_snapshots(4)[-1])
            with ClassificationServer(leader) as revived:
                revived.start()
                stale_syncer.client = ServiceClient(revived.url)
                with pytest.raises(FencedWriterError):
                    stale_syncer.sync_once()
                stale_syncer.client.close()
        assert len(follower) == 3  # the promoted history was never touched
