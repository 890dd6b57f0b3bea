"""Tests for the multi-worker serving fan-out (repro.service.workers).

Covers the shared stats board, the worker processes sharing the
supervisor's listening socket, the contracts the fan-out is built on --
byte-identical responses no matter which worker accepts -- and the
supervisor's respawn of killed workers.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.service import (
    ClassificationServer,
    MultiWorkerServer,
    SnapshotStore,
    WorkerStatsBoard,
    attach_store,
)
from repro.stream import MemorySource, StreamConfig, StreamEngine, WindowSpec
from tests.test_stream import observation

#: Deterministic endpoints: identical bytes regardless of serving worker.
#: (/v1/stats is volatile by design -- request counters differ per worker.)
DETERMINISTIC_TARGETS = (
    "/healthz",
    "/v1/snapshot/latest",
    "/v1/as/10",
    "/v1/as/10?history=2",
    "/v1/as/65000",
    "/v1/diff",
)


@pytest.fixture()
def store_path(tmp_path):
    """A file-backed store populated by a small drained stream run."""
    path = tmp_path / "workers.db"
    events = [
        observation([10], ["10:1"], timestamp=5),
        observation([20], [], timestamp=30),
        observation([30], ["30:1"], timestamp=80),
        observation([10, 30], ["10:1", "30:1"], timestamp=130),
        observation([20, 30], ["30:1"], timestamp=180),
        observation([40, 10, 30], ["10:1", "30:1"], timestamp=230),
    ]
    with SnapshotStore(path) as store:
        engine = StreamEngine(StreamConfig(window=WindowSpec(size=100)))
        attach_store(engine, store)
        engine.run(MemorySource(events))
    return path


def _binds(host):
    try:
        with socket.socket(socket.AF_INET6, socket.SOCK_STREAM) as probe:
            probe.bind((host, 0))
    except OSError:
        return False
    return True


#: Whether this host has an IPv6 loopback to serve on.
IPV6_LOOPBACK = socket.has_ipv6 and _binds("::1")


def fetch(address, target):
    """One request on a *fresh* connection; returns ``(status, body bytes)``.

    A fresh connection per request is the point: each one is a new race
    for the shared listener, so the requests spread across the workers.
    """
    host, port = address
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.request("GET", target)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class TestWorkerStatsBoard:
    def test_per_worker_slots_and_aggregate(self):
        board = WorkerStatsBoard.create(3)
        try:
            board.observe(0, "as_info", hit=True, error=False, seconds=0.001)
            board.observe(0, "healthz", hit=False, error=False, seconds=0.001)
            board.observe(2, "no-such-endpoint", hit=False, error=True, seconds=0.5)
            rows = board.per_worker()
            assert rows[0] == {
                "requests": 2,
                "cache_hits": 1,
                "cache_misses": 1,
                "errors": 0,
            }
            assert rows[1]["requests"] == 0
            assert rows[2]["errors"] == 1
            payload = board.payload()
            assert payload["count"] == 3
            assert payload["aggregate"]["requests"] == 3
            assert json.loads(json.dumps(payload)) == payload
        finally:
            board.close(unlink=True)

    def test_second_mapping_sees_first_writer(self):
        board = WorkerStatsBoard.create(2)
        try:
            board.observe(1, "diff", hit=False, error=False, seconds=0.001)
            reader = WorkerStatsBoard(board.path, 2)
            assert reader.per_worker()[1]["requests"] == 1
            reader.close()
        finally:
            board.close(unlink=True)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            WorkerStatsBoard.create(0)


class TestMultiWorkerValidation:
    def test_rejects_bad_arguments(self, store_path):
        with pytest.raises(ValueError):
            MultiWorkerServer(str(store_path), workers=0)
        with pytest.raises(ValueError):
            MultiWorkerServer(":memory:", workers=2)

    def test_address_requires_start(self, store_path):
        server = MultiWorkerServer(str(store_path), workers=2)
        with pytest.raises(RuntimeError):
            server.address
        server.close()


class TestProcessFanout:
    """N worker processes accepting on the supervisor's listening socket."""

    def test_byte_identical_across_workers(self, store_path):
        with SnapshotStore(store_path) as reference_store:
            with ClassificationServer(reference_store) as reference:
                reference.start()
                expected = {
                    target: fetch(reference.address, target)
                    for target in DETERMINISTIC_TARGETS
                }
        with MultiWorkerServer(str(store_path), workers=2) as fanout:
            fanout.start()
            assert len(fanout.worker_pids()) == 2
            for target in DETERMINISTIC_TARGETS:
                # Enough fresh connections that, with overwhelming
                # probability, both workers served both the uncached and
                # the cached path.
                responses = {fetch(fanout.address, target) for _ in range(8)}
                assert responses == {expected[target]}

    def test_follower_lag_merges_across_processes(self, store_path):
        """Named polls land on whichever worker accepts; a scrape of any
        worker reports every name, off the board file alone."""
        with SnapshotStore(store_path) as store:
            generation = store.generation()
        names = [f"f{number}" for number in range(24)]
        with MultiWorkerServer(str(store_path), workers=2) as fanout:
            fanout.start()
            for name in names:
                status, _ = fetch(fanout.address, f"/v1/replication/changes?follower={name}")
                assert status == 200
            for _ in range(4):
                status, body = fetch(fanout.address, "/metrics")
                assert status == 200
                lag = {
                    line.split('"')[1]: float(line.split()[-1])
                    for line in body.decode().splitlines()
                    if line.startswith("repro_replication_follower_lag{")
                }
                assert lag == {name: float(generation) for name in names}
            assert all(row["requests"] > 0 for row in fanout.stats()["per_worker"])

    def test_stats_aggregates_across_processes(self, store_path):
        with MultiWorkerServer(str(store_path), workers=2) as fanout:
            fanout.start()
            issued = 24
            for _ in range(issued):
                status, _ = fetch(fanout.address, "/v1/snapshot/latest")
                assert status == 200
            status, body = fetch(fanout.address, "/v1/stats")
            assert status == 200
            payload = json.loads(body.decode())
            workers = payload["workers"]
            assert workers["count"] == 2
            assert workers["aggregate"]["requests"] >= issued
            assert len(workers["per_worker"]) == 2
            # Both processes accepted on the one listener (a fair split
            # leaves a worker idle with probability 2 * 2**-24).
            assert all(row["requests"] > 0 for row in workers["per_worker"])
            # The supervisor reads the same board without HTTP.
            assert fanout.stats()["aggregate"]["requests"] >= issued

    def test_concurrent_clients_lose_no_connection(self, store_path):
        """More workers than cores racing for one listener, under concurrent
        fresh connections: every request is answered once, and the board
        (each slot written only by its worker) counts exactly that many."""
        workers = (os.cpu_count() or 1) + 1
        clients, per_client = 4, 30
        with MultiWorkerServer(str(store_path), workers=workers) as fanout:
            fanout.start()
            statuses = []

            def hammer():
                for _ in range(per_client):
                    statuses.append(fetch(fanout.address, "/v1/as/10")[0])

            threads = [threading.Thread(target=hammer) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert statuses == [200] * (clients * per_client)
            assert fanout.stats()["aggregate"]["requests"] == clients * per_client

    def test_supervisor_respawns_killed_worker(self, store_path):
        with MultiWorkerServer(
            str(store_path), workers=2, poll_interval=0.05
        ) as fanout:
            fanout.start()
            before = set(fanout.worker_pids())
            assert len(before) == 2
            victim = sorted(before)[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if fanout.respawns >= 1 and len(fanout.worker_pids()) == 2:
                    break
                time.sleep(0.05)
            assert fanout.respawns >= 1
            after = set(fanout.worker_pids())
            assert len(after) == 2
            assert victim not in after
            # The fleet keeps serving correct data after the respawn.
            for _ in range(6):
                status, body = fetch(fanout.address, "/v1/snapshot/latest")
                assert status == 200
                assert json.loads(body.decode())["ases"]

    def test_connection_waits_in_backlog_while_worker_respawns(self, store_path):
        """The supervisor keeps listening with no worker alive: a connection
        opened before the respawn completes is queued, then answered."""
        with MultiWorkerServer(
            str(store_path), workers=1, poll_interval=0.5
        ) as fanout:
            fanout.start()
            (victim,) = fanout.worker_pids()
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while fanout.worker_pids() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert fanout.worker_pids() == []
            connection = http.client.HTTPConnection(*fanout.address, timeout=30)
            try:
                connection.connect()
                assert fanout.respawns == 0
                connection.request("GET", "/v1/snapshot/latest")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read().decode())["ases"]
            finally:
                connection.close()
            assert fanout.respawns == 1

    def test_port_stays_reserved_and_workers_share_it(self, store_path):
        with MultiWorkerServer(str(store_path), workers=2) as fanout:
            fanout.start()
            host, port = fanout.address
            assert port > 0
            # Every request hits the same advertised port.
            for _ in range(4):
                status, _ = fetch((host, port), "/healthz")
                assert status == 200


@contextlib.contextmanager
def serve_cli(store_path, *flags, stderr=subprocess.DEVNULL, host="127.0.0.1"):
    """``repro serve --host`` *host* on a free port as a subprocess, yielded once
    it answers ``/healthz``: ``(process, port)``.  Killed on exit if still running."""
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    with socket.socket(family, socket.SOCK_STREAM) as probe:
        probe.bind((host, 0))
        port = probe.getsockname()[1]
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", str(store_path),
         "--host", host, "--port", str(port), *flags],
        stdout=subprocess.DEVNULL,
        stderr=stderr,
        env=os.environ.copy(),
    )
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                if fetch((host, port), "/healthz")[0] == 200:
                    break
            except OSError:
                time.sleep(0.2)
        else:
            pytest.fail("serve CLI never came up")
        yield process, port
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


class TestSupervisorDeath:
    def test_workers_die_with_killed_supervisor(self, store_path):
        """SIGKILL on `repro serve --http-workers` must not orphan workers.

        Daemon-process cleanup only runs on a normal supervisor exit; each
        worker additionally watches its parent pid and shuts down when the
        supervisor vanishes, so the port is always released.
        """
        with serve_cli(store_path, "--http-workers", "2") as (process, port):
            os.kill(process.pid, signal.SIGKILL)
            process.wait(timeout=10)
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                try:
                    fetch(("127.0.0.1", port), "/healthz")
                except OSError:
                    return  # every worker is gone; the port is released
                time.sleep(0.2)
            pytest.fail("workers kept serving after the supervisor was SIGKILLed")


class TestServeSigterm:
    def test_single_worker_serve_exits_cleanly_on_sigterm(self, store_path):
        """Every serve mode takes the Ctrl-C path on SIGTERM (rc 0, the store
        closed) -- the in-process server used to die on the default handler."""
        with serve_cli(store_path, stderr=subprocess.PIPE) as (process, _port):
            process.send_signal(signal.SIGTERM)
            _, err = process.communicate(timeout=15)
            assert process.returncode == 0
            assert b"shutting down" in err


@pytest.mark.skipif(not IPV6_LOOPBACK, reason="no IPv6 loopback on this host")
class TestIPv6:
    """``--host ::1`` serves on an IPv6 listener, one server or a fleet."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_serve_and_query_on_the_ipv6_loopback(self, store_path, workers, capsys):
        from repro.cli import main

        with serve_cli(store_path, "--http-workers", workers, host="::1") as (_, port):
            assert main(["query", f"http://[::1]:{port}", "health"]) == 0
            assert json.loads(capsys.readouterr().out)["status"] == "ok"

    def test_urls_bracket_an_ipv6_host(self, store_path):
        with SnapshotStore(store_path) as store, ClassificationServer(store, host="::1") as server:
            assert server.url == f"http://[::1]:{server.address[1]}"
            assert fetch(server.start().address, "/healthz")[0] == 200
        with MultiWorkerServer(str(store_path), workers=1, host="::1") as fleet:
            assert fleet.start().url == f"http://[::1]:{fleet.address[1]}"
            assert fetch(fleet.address, "/healthz")[0] == 200


class TestCliServeParser:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_unresolvable_host_is_one_error_line(self, store_path, workers, capsys, monkeypatch):
        from repro.cli import main

        def unresolvable(host, *args, **kwargs):
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        monkeypatch.setattr(socket, "getaddrinfo", unresolvable)
        argv = ["serve", "--store", str(store_path), "--host", "no-such-host.invalid",
                "--port", "0", "--http-workers", workers]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: --host 'no-such-host.invalid': Name or service not known"
        ]


    @pytest.mark.parametrize("url", ["memory:", ":memory:"])
    def test_in_memory_store_cannot_serve_a_fleet(self, url, capsys):
        from repro.cli import main

        assert main(["serve", "--store", url, "--http-workers", "2", "--port", "0"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: --http-workers 2: worker processes need a file-backed store, not {url!r}"
        ]

    def test_http_workers_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--store", "x.db"])
        assert args.http_workers == 1
        args = build_parser().parse_args(
            ["serve", "--store", "x.db", "--http-workers", "4"]
        )
        assert args.http_workers == 4
