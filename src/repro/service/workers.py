"""Horizontal fan-out of the classification HTTP service.

One :class:`~repro.service.server.ClassificationServer` is a single
``ThreadingHTTPServer``: every request thread shares one Python process, so
the encode/route/cache hot path is GIL-bound no matter how many client
connections arrive.  This module scales the same socket-free
:class:`~repro.service.server.ClassificationService` across **N worker
processes** that all accept on the same ``(host, port)`` via
``SO_REUSEPORT`` -- the kernel load-balances incoming connections across
the workers, each of which owns its own SQLite reader connections (the
store is WAL, readers never block the producer) and its own
generation-keyed LRU response cache.

Pieces:

* :class:`~repro.service.metrics.WorkerStatsBoard` -- the request ledger
  (defined in :mod:`repro.service.metrics`).  The supervisor creates one
  board file with a slot per worker; each worker counts its requests in its
  own slot only, and any worker renders the fleet-wide aggregate, which is
  how ``/v1/stats`` and ``/metrics`` answer for the whole deployment no
  matter which worker the kernel picked.
* :func:`reuseport_supported` -- capability probe that picks the fan-out:
  N worker processes where ``SO_REUSEPORT`` load-balances, else N
  accept-loop threads sharing one non-blocking listener in-process (still
  one service + store reader + cache per worker, but a single Python
  process).
* :class:`MultiWorkerServer` -- the supervisor: resolves the port, spawns
  the workers, monitors them, respawns any that die, and tears the fleet
  down.  ``repro serve --http-workers N`` is a thin wrapper around it.

The supervisor holds a bound (but never listening) ``SO_REUSEPORT``
placeholder socket for the whole lifetime of the fleet: it resolves
``port=0`` to a concrete port before any worker starts, and it keeps the
port reserved across worker crashes, so a respawned worker can always
rebind.  A non-listening member of a reuseport group receives no
connections, so the placeholder is invisible to clients.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import socket
import sys
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Dict, List, Optional, Tuple, Type, Union

from repro.service.backends import SnapshotBackend, open_store, parse_store_url
from repro.service.metrics import FileFollowerLag, WorkerStatsBoard
from repro.service.server import (
    DEFAULT_CACHE_SIZE,
    ClassificationService,
    build_handler,
)

def reuseport_supported() -> bool:
    """Whether this platform can fan out with ``SO_REUSEPORT`` sockets.

    Requires more than the option merely existing: only Linux load-balances
    incoming connections across a reuseport group.  BSD-family kernels
    (including macOS) accept the option but deliver every connection to the
    most recently bound listener, which would turn the "fan-out" into one
    busy worker -- those platforms use the shared-listener thread fallback.
    """
    if not sys.platform.startswith("linux") or not hasattr(socket, "SO_REUSEPORT"):
        return False
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        return True
    except OSError:
        return False
    finally:
        probe.close()


class ReusePortHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` that joins an ``SO_REUSEPORT`` group."""

    daemon_threads = True

    def server_bind(self) -> None:
        self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()


class _SharedListenerHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` accepting on a pre-bound shared listener.

    The listener is non-blocking: when several accept loops wake for the
    same connection, the losers' ``accept`` raises ``BlockingIOError``,
    which ``socketserver`` swallows (``_handle_request_noblock`` treats any
    ``OSError`` from ``get_request`` as "no request after all").
    """

    daemon_threads = True

    def __init__(
        self, listener: socket.socket, handler: Type[BaseHTTPRequestHandler]
    ) -> None:
        super().__init__(listener.getsockname()[:2], handler, bind_and_activate=False)
        self.socket.close()  # replace the unused fresh socket
        self.socket = listener

    def get_request(self) -> Tuple[socket.socket, object]:
        request, client_address = self.socket.accept()
        # Some platforms (Winsock, classic BSD) make accepted sockets
        # inherit the listener's non-blocking flag, and CPython does not
        # reset it for a zero-timeout listener; request handling assumes
        # a blocking connection.
        request.setblocking(True)
        return request, client_address

    def server_close(self) -> None:
        # The shared listener belongs to the supervisor; closing it once
        # (idempotently) is the supervisor's job, so double closes from
        # several workers are harmless.
        self.socket.close()


def _watch_supervisor(httpd: ThreadingHTTPServer, supervisor_pid: int) -> None:
    """Shut the worker down once its supervisor is gone.

    Daemon-process cleanup only runs when the supervisor exits *normally*;
    a SIGTERM'd or SIGKILL'd supervisor would otherwise orphan workers
    that keep the port alive forever.  Orphaning reparents this process,
    so a changed ``getppid`` is the death certificate.
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
    host: str,
    port: int,
    cache_size: int,
    retention: Optional[int],
    archive_dir: Optional[str],
    board_path: str,
    supervisor_pid: int,
    ready: Optional[Connection],
    auth_token: Optional[str] = None,
    lag_dir: Optional[str] = None,
) -> None:
    """Worker process entry point: open the store, bind, accept forever.

    Module-level (not a closure) so the ``spawn`` start method can import
    it; everything it needs arrives as plain picklable values.  *retention*
    is carried for ``/v1/stats`` visibility only -- serving never appends,
    so it never prunes here.  *archive_dir* makes every worker open the
    same tiered view, so cold (beyond-retention) reads answer on any
    worker the kernel picks.  *lag_dir* is the supervisor's shared
    follower-lag directory: each worker persists the changelog polls it
    saw, so the ``/metrics`` scrape of any worker reports every follower.
    """
    board = WorkerStatsBoard(board_path, workers)
    store = open_store(store_path, retention=retention, archive_dir=archive_dir)
    service = ClassificationService(
        store,
        cache_size=cache_size,
        worker_id=worker_id,
        stats_sink=board,
        auth_token=auth_token,
        lag_tracker=(
            FileFollowerLag(lag_dir, worker_id) if lag_dir is not None else None
        ),
    )
    httpd = ReusePortHTTPServer((host, port), build_handler(service))
    threading.Thread(
        target=_watch_supervisor,
        args=(httpd, supervisor_pid),
        name="repro-serve-parent-watch",
        daemon=True,
    ).start()
    if ready is not None:
        ready.send(("ready", httpd.server_address[1]))
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

    The platform picks the fan-out, read back as ``mode``:

    * ``"process"`` where :func:`reuseport_supported` -- N OS processes,
      each accepting on its own ``SO_REUSEPORT`` socket (true parallelism;
      the production shape);
    * ``"thread"`` elsewhere -- N accept-loop threads sharing one
      non-blocking listener in this process (the portable fallback).

    The supervisor monitors process workers and respawns any that die
    (``respawns`` counts them).  Always :meth:`close` when done; the class
    is also a context manager.
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
        start_method: str = "spawn",
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
        self.mode = "process" if reuseport_supported() else "thread"
        self.poll_interval = poll_interval
        self.respawns = 0
        self.respawn_failures = 0
        self.last_respawn_error: Optional[str] = None
        #: worker_id -> (monotonic time before which no retry, current delay).
        self._respawn_backoff: Dict[int, Tuple[float, float]] = {}
        self._mp = multiprocessing.get_context(start_method)
        self._closing = threading.Event()
        self._monitor_thread: Optional[threading.Thread] = None
        self._placeholder: Optional[socket.socket] = None
        self._board: Optional[WorkerStatsBoard] = None
        self._lag_dir: Optional[str] = None
        self._port: Optional[int] = None
        # Process mode state.
        self._processes: List[Optional[BaseProcess]] = []
        # Thread mode state.
        self._listener: Optional[socket.socket] = None
        self._thread_servers: List[_SharedListenerHTTPServer] = []
        self._thread_stores: List[SnapshotBackend] = []
        self._accept_threads: List[threading.Thread] = []

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
        host, port = self.address
        return f"http://{host}:{port}"

    def worker_pids(self) -> List[int]:
        """Live worker process ids (empty in thread mode)."""
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
    def _reserve_port(self) -> int:
        """Bind the non-listening placeholder and resolve the served port."""
        placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if self.mode == "process":
            placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        placeholder.bind((self.host, self.requested_port))
        self._placeholder = placeholder
        return int(placeholder.getsockname()[1])

    def start(self) -> "MultiWorkerServer":
        """Bring up every worker; returns once all of them are accepting."""
        if self._port is not None:
            raise RuntimeError("server already started")
        self._board = WorkerStatsBoard.create(self.workers)
        self._lag_dir = tempfile.mkdtemp(prefix="repro-serve-lag-")
        if self.mode == "process":
            self._port = self._reserve_port()
            self._processes = [None] * self.workers
            for worker_id in range(self.workers):
                self._spawn(worker_id)
        else:
            self._start_thread_mode()
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="repro-serve-supervisor", daemon=True
        )
        self._monitor_thread.start()
        return self

    def _spawn(self, worker_id: int) -> None:
        """Start (or restart) one worker process and wait until it accepts."""
        assert self._port is not None and self._board is not None
        parent_end, child_end = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=_serve_worker,
            name=f"repro-serve-worker-{worker_id}",
            args=(
                worker_id,
                self.workers,
                self.store_path,
                self.host,
                self._port,
                self.cache_size,
                self.retention,
                self.archive_dir,
                self._board.path,
                os.getpid(),
                child_end,
                self.auth_token,
                self._lag_dir,
            ),
            daemon=True,
        )
        process.start()
        child_end.close()
        try:
            try:
                if not parent_end.poll(timeout=30):
                    raise RuntimeError(f"worker {worker_id} never reported ready")
                message = parent_end.recv()
            except (EOFError, OSError) as error:
                raise RuntimeError(f"worker {worker_id} died during startup") from error
            finally:
                parent_end.close()
            if message[0] != "ready" or int(message[1]) != self._port:
                raise RuntimeError(f"worker {worker_id} failed to bind: {message!r}")
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

    def _start_thread_mode(self) -> None:
        """Fallback: N accept loops over one shared non-blocking listener."""
        assert self._board is not None
        self._port = self._reserve_port()
        listener = self._placeholder
        assert listener is not None
        listener.listen(128)
        listener.setblocking(False)
        self._listener = listener
        for worker_id in range(self.workers):
            store = open_store(
                self.store_path,
                retention=self.retention,
                archive_dir=self.archive_dir,
            )
            service = ClassificationService(
                store,
                cache_size=self.cache_size,
                worker_id=worker_id,
                stats_sink=self._board,
                auth_token=self.auth_token,
                lag_tracker=(
                    FileFollowerLag(self._lag_dir, worker_id)
                    if self._lag_dir is not None
                    else None
                ),
            )
            server = _SharedListenerHTTPServer(listener, build_handler(service))
            self._thread_stores.append(store)
            self._thread_servers.append(server)
            self._accept_threads.append(self._start_accept_loop(worker_id, server))

    def _start_accept_loop(
        self, worker_id: int, server: _SharedListenerHTTPServer
    ) -> threading.Thread:
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name=f"repro-serve-worker-{worker_id}",
            daemon=True,
        )
        thread.start()
        return thread

    #: Longest pause between respawn attempts of one crash-looping worker.
    MAX_RESPAWN_BACKOFF = 30.0

    def _monitor(self) -> None:
        """Respawn workers that die, until the supervisor is closing.

        Respawn failures back off exponentially per worker slot (up to
        :data:`MAX_RESPAWN_BACKOFF`): a worker that cannot come up -- say
        the store file was deleted -- must not become a tight fork loop.
        """
        while not self._closing.wait(self.poll_interval):
            if self.mode == "process":
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
            else:
                for worker_id, thread in enumerate(self._accept_threads):
                    if not thread.is_alive() and not self._closing.is_set():
                        self._accept_threads[worker_id] = self._start_accept_loop(
                            worker_id, self._thread_servers[worker_id]
                        )
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
        for server in self._thread_servers:
            server.shutdown()
        for thread in self._accept_threads:
            thread.join(timeout=5)
        for store in self._thread_stores:
            store.close()
        self._thread_servers = []
        self._accept_threads = []
        self._thread_stores = []
        if self._placeholder is not None:
            self._placeholder.close()
            self._placeholder = None
        self._listener = None
        if self._board is not None:
            self._board.close(unlink=True)
            self._board = None
        if self._lag_dir is not None:
            shutil.rmtree(self._lag_dir, ignore_errors=True)
            self._lag_dir = None

    def __enter__(self) -> "MultiWorkerServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
