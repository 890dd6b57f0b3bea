"""Horizontal fan-out of the classification HTTP service.

One :class:`~repro.service.server.ClassificationServer` is a single
``ThreadingHTTPServer``: every request thread shares one Python process, so
the encode/route/cache hot path is GIL-bound no matter how many client
connections arrive.  This module scales the same socket-free
:class:`~repro.service.server.ClassificationService` across **N worker
processes** that all accept on **one shared listening socket** (the
pre-fork design): the supervisor binds and listens once, and every worker
inherits that socket and accepts on it.  Each worker owns its own SQLite
reader connections (the store is WAL, readers never block the producer)
and its own generation-keyed LRU response cache.

Pieces:

* :class:`~repro.service.metrics.WorkerStatsBoard` -- the fleet's one
  ledger (defined in :mod:`repro.service.metrics`).  The supervisor creates
  one board file with a slot per worker; each worker counts its requests,
  and records the follower polls it serves, in its own slot only, and any
  worker renders the fleet-wide aggregate, which is how ``/v1/stats`` and
  ``/metrics`` (follower lag included) answer for the whole deployment no
  matter which worker accepted the connection.  The board file is the
  fleet's only shared file: there are no per-worker sidecar files.
* :class:`MultiWorkerServer` -- the supervisor: binds the listener, spawns
  the workers, monitors them, respawns any that die, and tears the fleet
  down.  ``repro serve --http-workers N`` is a thin wrapper around it.

The listener is non-blocking: every idle worker wakes for a new
connection, one wins the ``accept`` and the others get ``BlockingIOError``,
which :mod:`socketserver` treats as "no request after all".  Because the
supervisor keeps listening for the fleet's whole lifetime, ``port=0``
resolves before any worker starts, and a connection that arrives while a
worker is dead or respawning waits in the listen backlog instead of being
refused.  The design needs nothing beyond POSIX ``fork``/``exec`` fd
inheritance, so every POSIX platform gets real worker processes.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import sys
import threading
import time
from http.server import ThreadingHTTPServer
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Dict, List, Optional, Tuple, Union

from repro.service.backends import open_store, parse_store_url
from repro.service.metrics import WorkerStatsBoard
from repro.service.server import (
    DEFAULT_CACHE_SIZE,
    ClassificationService,
    _SharedListenerHTTPServer,
    build_handler,
    http_url,
    listen_socket,
)


def _watch_supervisor(httpd: ThreadingHTTPServer, supervisor_pid: int) -> None:
    """Shut the worker down once its supervisor is gone.

    Daemon-process cleanup only runs when the supervisor exits *normally*;
    a SIGTERM'd or SIGKILL'd supervisor would otherwise orphan workers
    that keep the listener open forever.  Orphaning reparents this
    process, so a changed ``getppid`` is the death certificate.
    """
    while True:
        if os.getppid() != supervisor_pid:
            httpd.shutdown()
            return
        time.sleep(0.5)


def _serve_worker(
    worker_id: int,
    workers: int,
    store_path: str,
    listener: socket.socket,
    cache_size: int,
    retention: Optional[int],
    archive_dir: Optional[str],
    board_path: str,
    supervisor_pid: int,
    ready: Connection,
    auth_token: Optional[str] = None,
) -> None:
    """Worker process entry point: open the store, accept forever.

    Module-level (not a closure) so the ``spawn`` start method can import
    it.  *listener* is the supervisor's listening socket, inherited as a
    duplicated file descriptor; everything else arrives as plain picklable
    values.  *retention* is carried for ``/v1/stats`` visibility only --
    serving never appends, so it never prunes here.  *archive_dir* makes
    every worker open the store with the same archive, so cold (beyond-retention)
    reads answer on any worker.
    """
    board = WorkerStatsBoard(board_path, workers)
    store = open_store(store_path, retention=retention, archive_dir=archive_dir)
    service = ClassificationService(
        store,
        cache_size=cache_size,
        worker_id=worker_id,
        stats_sink=board,
        auth_token=auth_token,
    )
    httpd = _SharedListenerHTTPServer(listener, build_handler(service))
    threading.Thread(
        target=_watch_supervisor,
        args=(httpd, supervisor_pid),
        name="repro-serve-parent-watch",
        daemon=True,
    ).start()
    ready.send("ready")
    ready.close()
    try:
        httpd.serve_forever(poll_interval=0.1)
    finally:
        httpd.server_close()
        store.close()


def require_file_store(store_url: Union[str, os.PathLike]) -> None:
    """Refuse an in-process store for worker processes.

    Each worker opens the store by URL in its own process, so a ``memory:``
    (or ``:memory:``) store would give every worker an empty database of
    its own: raises :class:`ValueError` instead.
    """
    if parse_store_url(store_url) == ":memory:":
        raise ValueError(f"worker processes need a file-backed store, not {str(store_url)!r}")


class MultiWorkerServer:
    """Supervisor of an N-worker HTTP fan-out over one snapshot store.

    The supervisor binds and listens on one socket; N spawned worker
    processes inherit it and accept on it (true parallelism: one
    interpreter per worker).  It monitors the workers and respawns any
    that die (``respawns`` counts them); connections that arrive in the
    meantime wait in the listen backlog.  Always :meth:`close` when done;
    the class is also a context manager.
    """

    def __init__(
        self,
        store_path: str,
        *,
        workers: int,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = DEFAULT_CACHE_SIZE,
        retention: Optional[int] = None,
        archive_dir: Optional[str] = None,
        auth_token: Optional[str] = None,
        poll_interval: float = 0.2,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        require_file_store(store_path)
        self.store_path = str(store_path)
        self.workers = workers
        self.host = host
        self.requested_port = port
        self.cache_size = cache_size
        self.retention = retention
        self.archive_dir = str(archive_dir) if archive_dir is not None else None
        self.auth_token = auth_token
        self.poll_interval = poll_interval
        self.respawns = 0
        self.respawn_failures = 0
        self.last_respawn_error: Optional[str] = None
        #: worker_id -> (monotonic time before which no retry, current delay).
        self._respawn_backoff: Dict[int, Tuple[float, float]] = {}
        # Spawn, not fork: a worker must not inherit the supervisor's
        # threads or SQLite handles.  The listener still reaches it, as an
        # fd the spawn launcher passes to the child.
        self._mp = multiprocessing.get_context("spawn")
        self._closing = threading.Event()
        self._monitor_thread: Optional[threading.Thread] = None
        self._listener: Optional[socket.socket] = None
        self._board: Optional[WorkerStatsBoard] = None
        self._port: Optional[int] = None
        self._processes: List[Optional[BaseProcess]] = []

    # -- addressing ---------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._port is None:
            raise RuntimeError("server not started")
        return self.host, self._port

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        return http_url(*self.address)

    def worker_pids(self) -> List[int]:
        """Live worker process ids."""
        pids: List[int] = []
        for process in self._processes:
            if process is None or not process.is_alive():
                continue
            pid = process.pid
            if pid is not None:
                pids.append(pid)
        return pids

    def stats(self) -> Dict[str, object]:
        """The fleet-wide counter aggregate straight off the shared board."""
        if self._board is None:
            raise RuntimeError("server not started")
        return self._board.payload()

    # -- lifecycle ----------------------------------------------------------------------
    def _listen(self) -> int:
        """Bind and listen on the shared socket; returns the served port."""
        self._listener = listen_socket(self.host, self.requested_port)
        return int(self._listener.getsockname()[1])

    def start(self) -> "MultiWorkerServer":
        """Bring up every worker; returns once all of them are accepting."""
        if self._port is not None:
            raise RuntimeError("server already started")
        self._board = WorkerStatsBoard.create(self.workers)
        self._port = self._listen()
        self._processes = [None] * self.workers
        for worker_id in range(self.workers):
            self._spawn(worker_id)
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="repro-serve-supervisor", daemon=True
        )
        self._monitor_thread.start()
        return self

    def _spawn(self, worker_id: int) -> None:
        """Start (or restart) one worker process and wait until it accepts."""
        assert self._listener is not None and self._board is not None
        parent_end, child_end = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=_serve_worker,
            name=f"repro-serve-worker-{worker_id}",
            args=(
                worker_id,
                self.workers,
                self.store_path,
                self._listener,
                self.cache_size,
                self.retention,
                self.archive_dir,
                self._board.path,
                os.getpid(),
                child_end,
                self.auth_token,
            ),
            daemon=True,
        )
        process.start()
        child_end.close()
        try:
            try:
                if not parent_end.poll(timeout=30):
                    raise RuntimeError(f"worker {worker_id} never reported ready")
                parent_end.recv()
            except (EOFError, OSError) as error:
                raise RuntimeError(f"worker {worker_id} died during startup") from error
            finally:
                parent_end.close()
        except RuntimeError:
            if process.is_alive():
                process.terminate()
            process.join(timeout=5)
            raise
        if self._closing.is_set() or worker_id >= len(self._processes):
            # close() ran while this (re)spawn handshake was in flight --
            # possibly after giving up on joining the monitor thread.  The
            # worker must not outlive the supervisor's teardown.
            process.terminate()
            process.join(timeout=5)
            return
        self._processes[worker_id] = process

    #: Longest pause between respawn attempts of one crash-looping worker.
    MAX_RESPAWN_BACKOFF = 30.0

    def _monitor(self) -> None:
        """Respawn workers that die, until the supervisor is closing.

        Respawn failures back off exponentially per worker slot (up to
        :data:`MAX_RESPAWN_BACKOFF`): a worker that cannot come up -- say
        the store file was deleted -- must not become a tight fork loop.
        """
        while not self._closing.wait(self.poll_interval):
            for worker_id, process in enumerate(self._processes):
                if self._closing.is_set():
                    return
                if process is None or process.is_alive():
                    continue
                next_try, delay = self._respawn_backoff.get(worker_id, (0.0, 0.0))
                if time.monotonic() < next_try:
                    continue
                process.join(timeout=1)
                try:
                    self._spawn(worker_id)
                except Exception as error:  # noqa: BLE001 - the monitor
                    # must survive *any* spawn failure (OSError from a
                    # fork under resource pressure, a racing teardown),
                    # or respawning is silently disabled forever.
                    self.respawn_failures += 1
                    self.last_respawn_error = str(error)
                    delay = min(self.MAX_RESPAWN_BACKOFF, max(2 * delay, 0.5))
                    self._respawn_backoff[worker_id] = (
                        time.monotonic() + delay,
                        delay,
                    )
                    print(
                        f"repro serve: respawn of worker {worker_id} failed"
                        f" ({error}); retrying in {delay:.1f}s",
                        file=sys.stderr,
                    )
                    continue
                self._respawn_backoff.pop(worker_id, None)
                self.respawns += 1

    def serve_forever(self) -> None:
        """Block the calling thread until :meth:`close` (the CLI path)."""
        self._closing.wait()

    def close(self) -> None:
        """Stop the monitor, tear down every worker, release the port."""
        self._closing.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=5)
            self._monitor_thread = None
        for process in self._processes:
            if process is not None and process.is_alive():
                process.terminate()
        for process in self._processes:
            if process is not None:
                process.join(timeout=5)
        self._processes = []
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self._board is not None:
            self._board.close(unlink=True)
            self._board = None

    def __enter__(self) -> "MultiWorkerServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
