"""Command-line interface.

Mirrors the tooling the paper released alongside its dataset: point the tool
at MRT archives (RIBs and/or updates), run sanitation and the column-based
inference, and write the per-AS classification database.

Usage::

    python -m repro classify rib.mrt updates.mrt -o classification.txt
    python -m repro classify --threshold 0.95 --format json dump.mrt
    python -m repro classify --algorithm row dump.mrt    # row-based baseline
    python -m repro demo --scale tiny           # no input data: run on the synthetic Internet
    python -m repro show classification.txt --asn 3356
    python -m repro stream updates.mrt --window 3600 --checkpoint-dir state/
    python -m repro stream updates.mrt --workers 4       # multi-process shard workers
    python -m repro stream updates.mrt --store results.db   # materialize snapshots
    python -m repro serve --store results.db --port 8080    # HTTP query API
    python -m repro serve --store results.db --http-workers 4   # 4 worker processes, one port
    python -m repro serve --store results.db --retention 32 --archive-dir cold/
    python -m repro archive cold/ list                      # inspect the cold tier
    python -m repro replicate --from http://leader:8080 --store replica.db --serve
    python -m repro replicate --from http://leader:8080 --store replica.db --promote
    python -m repro query http://localhost:8080 as 3356     # ask the running service
    python -m repro serve --store results.db --auth-token s3cret   # lock the API

Store URLs: ``--store`` accepts a plain path (SQLite, the default), an
explicit ``sqlite:path``, or ``memory:`` (an in-process SQLite store).  With
``--archive-dir`` retention *archives* pruned snapshots into a second,
digest-checked SQLite store instead of deleting them, and reads fall through
to it.

Auth: ``--auth-token`` (or the ``REPRO_AUTH_TOKEN`` environment variable)
makes ``serve``/``replicate`` require ``Authorization: Bearer <token>`` on
every ``/v1/*`` endpoint (``/healthz`` and ``/metrics`` stay open), and
makes ``query``/``replicate`` send it on every request.
"""

from __future__ import annotations

import argparse
import signal
import socket
import sys
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Tuple, cast

from repro.collectors.archive import read_mrt_files
from repro.core.column import ColumnInference
from repro.core.export import ClassificationDatabase
from repro.core.pipeline import InferencePipeline
from repro.core.thresholds import Thresholds
from repro.mrt import MRTDecodeError
from repro.stream.checkpoint import CheckpointError


def _positive_int(text: str) -> int:
    """argparse ``type=`` of the count flags: an integer >= 1, else a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse ``type=`` of ``--allowed-lateness``: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _port(text: str) -> int:
    """argparse ``type=`` of ``--port``: a TCP port, 0 to 65535 (0 picks a free one)."""
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be in 0..65535, got {value}")
    return value


def _threshold(text: str) -> float:
    """argparse ``type=`` of ``--threshold``: a value :class:`Thresholds` accepts."""
    value = float(text)
    try:
        Thresholds.uniform(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return value


def _follower_name(text: str) -> str:
    """argparse ``type=`` of ``--follower``: a name the leader's board can record."""
    from repro.service.metrics import FOLLOWER_NAME_MAX_BYTES as budget

    if len(text.encode("utf-8", "surrogateescape")) > budget:
        raise argparse.ArgumentTypeError(f"must be at most {budget} UTF-8 bytes")
    return text


def _write_database(database: ClassificationDatabase, output: Optional[str], fmt: str) -> None:
    """Write the database to a file or stdout in the chosen format."""
    text = database.to_json() if fmt == "json" else database.dumps()
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _batch_store(args: argparse.Namespace, stack: ExitStack):
    """The ``--store`` a batch command publishes to (``None`` without the flag).

    Opened before the command infers, so an unusable store is one ``error:``
    line before any work is done or any output written.
    """
    if not args.store:
        return None
    from repro.service.backends import open_store

    return stack.enter_context(open_store(args.store))


def _publish_batch(
    args: argparse.Namespace, store, result, events_total: int, unique_tuples: int
) -> None:
    """Materialize a batch result into the ``--store`` *store* (no-op without one)."""
    if store is None:
        return
    from repro.service import publish_result

    snapshot_id = publish_result(
        store, result, events_total=events_total, unique_tuples=unique_tuples
    )
    print(f"stored batch snapshot {snapshot_id} in {args.store}", file=sys.stderr)


def cmd_classify(args: argparse.Namespace) -> int:
    """``classify``: run the pipeline on MRT files."""
    blobs = read_mrt_files(args.inputs)
    pipeline = InferencePipeline(
        thresholds=Thresholds.uniform(args.threshold),
        algorithm=args.algorithm,
    )
    with ExitStack() as stack:
        store = _batch_store(args, stack)
        outcome = pipeline.run_from_mrt(blobs)
        database = ClassificationDatabase.from_result(outcome.result)
        _write_database(database, args.output, args.format)
        _publish_batch(
            args, store, outcome.result, outcome.observations_in, outcome.unique_tuples
        )
    print(
        f"classified {len(database)} ASes from {outcome.observations_in} observations "
        f"({outcome.unique_tuples} unique tuples)",
        file=sys.stderr,
    )
    return 0


def _archive_without_cap(archive_dir: Optional[str], cap: Optional[int], flag: str) -> bool:
    """Whether ``--archive-dir`` lacks its retention *flag*; if so, print why."""
    uncapped = archive_dir is not None and cap is None
    if uncapped:
        print(
            f"error: --archive-dir needs {flag}: an uncapped store"
            " removes no snapshot, so none would reach the archive",
            file=sys.stderr,
        )
    return uncapped


def cmd_stream(args: argparse.Namespace) -> int:
    """``stream``: replay MRT update archives through the streaming engine."""
    if args.horizon is not None and args.horizon < args.window:
        print(
            f"error: --horizon {args.horizon} is shorter than --window {args.window}",
            file=sys.stderr,
        )
        return 2
    if _archive_without_cap(args.archive_dir, args.store_retention, "--store-retention"):
        return 2
    from repro.stream import (
        CheckpointManager,
        MRTReplaySource,
        StreamConfig,
        StreamEngine,
        WindowPolicy,
        WindowSpec,
    )

    source = MRTReplaySource.from_files(args.inputs, order=args.order)
    manager = CheckpointManager(args.checkpoint_dir) if args.checkpoint_dir else None
    workers = args.workers
    # Each worker process hosts >= 1 shard; lift the shard count so every
    # requested worker actually gets a partition to own.
    shards = max(args.shards, workers)

    def report(snapshot) -> None:
        summary = snapshot.summary()
        print(
            f"window [{snapshot.window_start}, {snapshot.window_end}): "
            f"{summary['events_total']} events, {summary['unique_tuples']} tuples, "
            f"{summary['ases_observed']} ASes, {summary['changed_ases']} changed",
            file=sys.stderr,
        )

    # The store lives on the stack so *any* exit -- engine construction
    # errors, a mid-run engine failure, Ctrl-C -- closes the SQLite handle
    # and checkpoints the WAL, not just the success path.
    with ExitStack() as stack:
        store = None
        if args.store:
            from repro.service.backends import open_store

            store = stack.enter_context(
                open_store(
                    args.store,
                    retention=args.store_retention,
                    archive_dir=args.archive_dir,
                )
            )
        engine_cls = StreamEngine
        if workers > 1:
            from repro.parallel import ParallelStreamEngine

            engine_cls = ParallelStreamEngine
        resumed = args.resume and manager is not None and manager.latest() is not None
        if resumed:
            engine = engine_cls.restore(manager, on_window=report)
            # Block size is a runtime throughput knob, not checkpointed
            # state: a resumed engine honours the flag of *this* invocation.
            engine.config.ingest_block_size = args.ingest_block_size
            if workers > 1:
                engine.workers = workers
                if engine.config.shards < workers:
                    # The checkpoint pins the shard count; fewer shards than
                    # workers means the extra processes would own no partition.
                    print(
                        f"warning: checkpoint has {engine.config.shards} shard(s); "
                        f"--workers {workers} is capped to that many processes",
                        file=sys.stderr,
                    )
            print(f"resumed from {manager.latest()}", file=sys.stderr)
        else:
            config = StreamConfig(
                window=WindowSpec(
                    size=args.window,
                    policy=WindowPolicy(args.policy),
                    horizon=args.horizon,
                    allowed_lateness=args.allowed_lateness,
                ),
                shards=shards,
                thresholds=Thresholds.uniform(args.threshold),
                checkpoint_every=args.checkpoint_every,
                ingest_block_size=args.ingest_block_size,
            )
            if workers > 1:
                engine = engine_cls(
                    config, workers=workers, checkpoints=manager, on_window=report
                )
            else:
                engine = engine_cls(config, checkpoints=manager, on_window=report)

        publisher = None
        if store is not None:
            from repro.service import attach_store

            # On --resume the publisher deduplicates against the windows the
            # store already holds: the engine restores to its last
            # checkpoint and re-emits every window closed between that
            # checkpoint and the crash, and each re-emission must land on
            # the store's existing copy (exactly-once publishing).  Keyed on
            # the --resume *intent*, not on whether a checkpoint was found:
            # a resume whose checkpoint directory was lost starts the engine
            # fresh, and without dedup it would re-append every window the
            # store already holds.
            publisher = attach_store(engine, store, resume=args.resume)
            if args.resume and publisher.resume_window_end is not None:
                print(
                    f"store already holds windows through {publisher.resume_window_end}; "
                    "re-emitted windows will be deduplicated",
                    file=sys.stderr,
                )
        result = engine.run(source)
        if manager is not None:
            engine.checkpoint()
        database = ClassificationDatabase.from_result(result)
        _write_database(database, args.output, args.format)
        stats = engine.stats
        print(
            f"streamed {stats.events_in} events through {stats.windows_closed} windows: "
            f"classified {len(database)} ASes ({engine.unique_tuples} unique tuples, "
            f"{engine.late_events} late events, {stats.checkpoints_written} checkpoints)",
            file=sys.stderr,
        )
        if publisher is not None:
            deduplicated = (
                f" ({publisher.deduplicated} duplicate windows skipped)"
                if publisher.deduplicated
                else ""
            )
            print(
                f"stored {publisher.published} window snapshots in {args.store}"
                f"{deduplicated}",
                file=sys.stderr,
            )
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    """``demo``: run the pipeline on the synthetic Internet (no input files)."""
    from repro.experiments.context import ExperimentContext, ExperimentScale

    with ExitStack() as stack:
        store = _batch_store(args, stack)
        context = ExperimentContext(scale=ExperimentScale(args.scale), seed=args.seed)
        result = ColumnInference(Thresholds.uniform(args.threshold)).run(
            context.aggregate_tuples
        )
        database = ClassificationDatabase.from_result(result)
        _write_database(database, args.output, args.format)
        print(f"classified {len(database)} ASes on the synthetic Internet", file=sys.stderr)
        _publish_batch(args, store, result, 0, len(context.aggregate_tuples))
    return 0


def _start_http(
    args: argparse.Namespace,
    stack: ExitStack,
    auth_token: Optional[str],
    *,
    store=None,
    retention: Optional[int] = None,
) -> Tuple[Any, Optional[str]]:
    """Put the HTTP server ``--http-workers`` asks for on *stack*.

    N > 1 starts the worker fleet and returns ``(fleet, "N worker processes")``.
    Otherwise returns ``(server, None)``: one in-process server over *store*
    (opened here when the caller holds none), left for the caller to run --
    ``serve_forever()`` on this thread, or ``start()`` when this thread has
    other work.
    """
    from repro.service import ClassificationServer, MultiWorkerServer
    from repro.service.backends import open_store

    if args.http_workers > 1:
        fleet = stack.enter_context(
            MultiWorkerServer(
                args.store,
                workers=args.http_workers,
                host=args.host,
                port=args.port,
                cache_size=args.cache_size,
                retention=retention,
                archive_dir=args.archive_dir,
                auth_token=auth_token,
            )
        ).start()
        return fleet, f"{fleet.workers} worker processes"
    # Store and server both live on the stack: a failed bind (port already
    # in use) must unwind the store's handles instead of leaking them, and
    # ClassificationServer.close() is safe before serve_forever ran.
    if store is None:
        store = stack.enter_context(
            open_store(args.store, retention=retention, archive_dir=args.archive_dir)
        )
    server = stack.enter_context(
        ClassificationServer(
            store,
            host=args.host,
            port=args.port,
            cache_size=args.cache_size,
            auth_token=auth_token,
        )
    )
    return server, None


def _run_until_interrupted(block: Callable[[], None]) -> None:
    """Run *block* until Ctrl-C or SIGTERM, then say so.

    SIGTERM must tear everything down like Ctrl-C does: the default handler
    would kill only this process and orphan fleet workers on the port.
    """

    def _terminate(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        block()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        signal.signal(signal.SIGTERM, previous)


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: expose a snapshot store over the JSON HTTP API."""
    from repro.service.auth import resolve_token
    from repro.service.backends import open_store, parse_store_url
    from repro.service.workers import require_file_store

    auth_token = resolve_token(args.auth_token)
    if args.http_workers > 1:
        try:
            require_file_store(args.store)
        except ValueError as error:
            print(f"error: --http-workers {args.http_workers}: {error}", file=sys.stderr)
            return 1
    target = parse_store_url(args.store)
    if target != ":memory:" and not Path(target).exists():
        print(f"error: store {args.store!r} does not exist", file=sys.stderr)
        return 1
    with ExitStack() as stack:
        try:
            # An unusable store or archive is refused before any worker starts.
            open_store(args.store, archive_dir=args.archive_dir).close()
            if args.retention is not None:
                # The serving processes never append, so retention only takes
                # effect through an explicit prune here at startup.  With
                # --archive-dir the prune demotes into the archive instead.
                with open_store(
                    args.store, retention=args.retention, archive_dir=args.archive_dir
                ) as pruning:
                    dropped = pruning.compact()
                if dropped:
                    verb = "archived" if args.archive_dir else "pruned"
                    print(f"{verb} {dropped} snapshots beyond --retention", file=sys.stderr)
            server, fleet = _start_http(args, stack, auth_token, retention=args.retention)
        except socket.gaierror as error:
            print(f"error: --host {args.host!r}: {error.strerror}", file=sys.stderr)
            return 1
        with_workers = f" with {fleet}" if fleet else ""
        locked = " [token auth]" if auth_token is not None else ""
        print(
            f"serving {args.store} at {server.url}{with_workers}{locked} (Ctrl-C to stop)",
            file=sys.stderr,
        )
        _run_until_interrupted(server.serve_forever)
    return 0


def cmd_replicate(args: argparse.Namespace) -> int:
    """``replicate``: continuously sync a follower store from a leader's API."""
    import json as _json

    from repro.service import (
        ReplicaSyncer,
        ReplicationError,
        ServiceClient,
        ServiceError,
        promote,
    )
    from repro.service.auth import resolve_token
    from repro.service.backends import open_store
    from repro.service.workers import require_file_store

    if _archive_without_cap(args.archive_dir, args.retention, "--retention"):
        return 2
    auth_token = resolve_token(args.auth_token)
    if args.serve and args.http_workers > 1:
        try:
            require_file_store(args.store)
        except ValueError as error:
            print(f"error: --http-workers {args.http_workers}: {error}", file=sys.stderr)
            return 1
    try:
        client = ServiceClient(args.source, token=auth_token)
    except ValueError as error:
        # Refused before the store is opened: a typo creates no store file.
        print(f"error: --from: {error}", file=sys.stderr)
        return 1
    with ExitStack() as stack:
        stack.enter_context(client)
        store = stack.enter_context(
            open_store(args.store, retention=args.retention, archive_dir=args.archive_dir)
        )
        syncer = ReplicaSyncer(
            client, store, page_size=args.page_size, follower=args.follower
        )
        if args.promote:
            # Failover: fast-forward from the (possibly dead) leader on a
            # best-effort basis, then bump the fencing epoch so appends from
            # the deposed leader's epoch raise FencedWriterError here.
            outcome = promote(store, syncer)
            client.close()  # the deposed leader is fenced from here on, not polled
            print(_json.dumps(outcome.to_dict(), indent=2, sort_keys=True))
            if outcome.sync_error is not None:
                print(
                    f"warning: final sync from {args.source} failed "
                    f"({outcome.sync_error}); promoted with the replica's "
                    "current state",
                    file=sys.stderr,
                )
            print(
                f"promoted {args.store} to leader epoch {outcome.epoch}",
                file=sys.stderr,
            )
            if args.serve:
                # Unlike the replica below, no sync loop runs: promotion made
                # this store the leader, and its deposed predecessor is
                # fenced, not polled.
                server, fleet = _start_http(args, stack, auth_token, store=store)
                print(
                    f"serving promoted leader {args.store} at {server.url} "
                    f"with {fleet or '1 worker'} (Ctrl-C to stop)",
                    file=sys.stderr,
                )
                _run_until_interrupted(server.serve_forever)
            return 0

        def report(sync) -> None:
            print(
                f"applied {sync.applied} snapshots ({sync.deduplicated} already held) "
                f"from {args.source}; replica at generation "
                f"{sync.applied_generation}/{sync.leader_generation}",
                file=sys.stderr,
            )

        try:
            report(syncer.sync_once())
        except ReplicationError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        except (ServiceError, OSError) as error:
            # The first sync must succeed: a replica that cannot reach its
            # leader even once has nothing to serve and nothing to resume.
            print(f"error: leader unreachable: {error}", file=sys.stderr)
            return 1
        if args.once:
            return 0
        if args.serve:
            # An in-process server shares the syncer's store object:
            # per-thread reader connections and the write lock make that
            # safe, and readers never block the applying writer (WAL).
            server, fleet = _start_http(args, stack, auth_token, store=store)
            if fleet is None:
                server.start()
            print(
                f"serving replica {args.store} at {server.url} "
                f"with {fleet or '1 worker'} (Ctrl-C to stop)",
                file=sys.stderr,
            )
        print(
            f"replicating {args.source} -> {args.store} every "
            f"{args.poll_interval:g}s (Ctrl-C to stop)",
            file=sys.stderr,
        )
        try:
            _run_until_interrupted(
                lambda: syncer.run(poll_interval=args.poll_interval, on_sync=report)
            )
        except ReplicationError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    return 0


def cmd_archive(args: argparse.Namespace) -> int:
    """``archive``: inspect and maintain a cold-tier snapshot archive."""
    from repro.service.backends import open_archive

    if not Path(args.archive_dir).is_dir():
        print(f"error: archive directory {args.archive_dir!r} does not exist", file=sys.stderr)
        return 1
    with open_archive(args.archive_dir) as archive:
        if args.action == "list":
            metas = archive.snapshots()
            ids = f"ids {metas[0].snapshot_id}..{metas[-1].snapshot_id}" if metas else "empty"
            print(
                f"{len(metas)} archived snapshots in {archive.path}: {ids}, "
                f"{archive.size_bytes()} bytes"
            )
        elif args.action == "verify":
            problems = archive.verify()
            for problem in problems:
                print(f"error: {problem}", file=sys.stderr)
            if problems:
                print(f"{len(problems)} problems in {archive.path}", file=sys.stderr)
                return 1
            print(f"verified {len(archive)} snapshots in {archive.path}: OK")
        else:
            before = archive.size_bytes()
            archive.compact()
            print(f"compacted {archive.path}: {before} -> {archive.size_bytes()} bytes")
    return 0


#: What each operand-taking ``query`` target needs (all integers).
_QUERY_OPERANDS = {"as": "an AS number", "window": "a window end", "diff": "a window end"}


def cmd_query(args: argparse.Namespace) -> int:
    """``query``: ask a running service and print the JSON response."""
    import http.client
    import json as _json

    from repro.service import ServiceClient, ServiceError
    from repro.service.auth import resolve_token

    operand: Optional[int] = None
    needs = f"error: 'query URL {args.what}' needs {_QUERY_OPERANDS.get(args.what)}"
    if args.arg is not None and args.what in _QUERY_OPERANDS:
        try:
            operand = int(args.arg)
        except ValueError:
            print(f"{needs}, got {args.arg!r}", file=sys.stderr)
            return 2
    if operand is None and args.what in ("as", "window"):
        print(needs, file=sys.stderr)
        return 2
    try:
        client = ServiceClient(args.url, token=resolve_token(args.auth_token))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    with client:
        try:
            if args.what == "metrics":
                # Prometheus exposition text, not JSON: print it verbatim.
                sys.stdout.write(client.metrics_text())
                return 0
            if args.what == "health":
                payload = client.health()
            elif args.what == "latest":
                payload = client.latest_snapshot()
            elif args.what == "stats":
                payload = client.stats()
            elif args.what == "diff":
                payload = client.diff(window_end=operand)
            elif args.what == "as":
                payload = client.as_info(cast(int, operand), history=args.history)
            else:  # window
                payload = client.snapshot(cast(int, operand))
        except ServiceError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        except (OSError, http.client.HTTPException) as error:
            print(f"error: {args.url}: {error}", file=sys.stderr)
            return 1
    print(_json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    """``show``: inspect an exported classification database."""
    try:
        text = Path(args.database).read_text(encoding="utf-8")
        database = (
            ClassificationDatabase.from_json(text)
            if text.lstrip().startswith(("[", "{"))
            else ClassificationDatabase.loads(text)
        )
    except (OSError, ValueError) as error:
        # OSError: a missing file or a directory; ValueError: non-UTF-8
        # bytes (UnicodeDecodeError) or any malformed-database reason.
        reason = error.strerror if isinstance(error, OSError) else error
        print(f"error: {args.database}: {reason}", file=sys.stderr)
        return 1
    if args.asn is not None:
        record = database.get(args.asn)
        if record is None:
            print(f"AS{args.asn}: not in database")
            return 1
        counters = record.counters
        print(
            f"AS{args.asn}: class={record.classification.code} "
            f"t={counters.tagger} s={counters.silent} f={counters.forward} c={counters.cleaner}"
        )
        return 0
    print(f"{len(database)} ASes")
    for code, count in sorted(database.counts_by_code().items()):
        print(f"  {code}: {count}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    classify = subparsers.add_parser("classify", help="classify MRT archives")
    classify.add_argument("inputs", nargs="+", help="MRT files (RIBs and/or updates)")
    classify.add_argument("-o", "--output", help="output file (default: stdout)")
    classify.add_argument("--format", choices=("text", "json"), default="text")
    classify.add_argument("--threshold", type=_threshold, default=0.99)
    classify.add_argument(
        "--algorithm",
        choices=("column", "row"),
        default="column",
        help="inference algorithm: the paper's column-based (default) or the row baseline",
    )
    classify.add_argument(
        "--store",
        help="also materialize the result into this snapshot store "
        "(path, sqlite:path, or memory: for an in-process SQLite store)",
    )
    classify.set_defaults(handler=cmd_classify)

    stream = subparsers.add_parser(
        "stream", help="replay MRT update archives through the streaming engine"
    )
    stream.add_argument("inputs", nargs="+", help="MRT files to replay as an update feed")
    stream.add_argument("-o", "--output", help="output file (default: stdout)")
    stream.add_argument("--format", choices=("text", "json"), default="text")
    stream.add_argument("--threshold", type=_threshold, default=0.99)
    stream.add_argument(
        "--window", type=_positive_int, default=3600, help="window size in seconds of event time"
    )
    stream.add_argument(
        "--policy",
        choices=("cumulative", "sliding"),
        default="cumulative",
        help="cumulative keeps all evidence; sliding retains only a trailing horizon",
    )
    stream.add_argument(
        "--horizon", type=int, default=None, help="sliding retention span (default: 4 windows)"
    )
    stream.add_argument("--allowed-lateness", type=_non_negative_int, default=0)
    stream.add_argument(
        "--shards", type=_positive_int, default=1, help="per-AS-partition workers"
    )
    stream.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="OS processes hosting the shard workers (default: 1, in-process); "
        "raises --shards to at least this many partitions",
    )
    stream.add_argument(
        "--order",
        choices=("archive", "time"),
        default="archive",
        help="replay in stored record order (lazy) or globally time-sorted",
    )
    stream.add_argument("--checkpoint-dir", help="directory for engine state checkpoints")
    stream.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        default=None,
        help="auto-checkpoint every N events",
    )
    stream.add_argument(
        "--resume", action="store_true", help="resume from the latest checkpoint if present"
    )
    stream.add_argument(
        "--store",
        help="persist every window snapshot into this snapshot store "
        "(path, sqlite:path, or memory: for an in-process SQLite store); "
        "serve it afterwards with 'repro serve --store'",
    )
    stream.add_argument(
        "--store-retention",
        type=_positive_int,
        default=None,
        help="keep only the newest N snapshots in --store (default: keep all)",
    )
    stream.add_argument(
        "--archive-dir",
        default=None,
        help="with --store-retention: archive pruned snapshots into a second "
        "snapshot store (archive.db) under this directory instead of deleting them",
    )
    stream.add_argument(
        "--ingest-block-size",
        type=_positive_int,
        default=4096,
        help="events ingested per block, also what ships per round-trip under "
        "--workers N; blocks are split at window cuts so snapshots are "
        "identical at any size — this only trades per-event dispatch "
        "overhead against ingest latency",
    )
    stream.set_defaults(handler=cmd_stream)

    demo = subparsers.add_parser("demo", help="classify the synthetic Internet")
    demo.add_argument("--scale", choices=("tiny", "small", "default", "large"), default="tiny")
    demo.add_argument("--seed", type=int, default=1)
    demo.add_argument("-o", "--output", help="output file (default: stdout)")
    demo.add_argument("--format", choices=("text", "json"), default="text")
    demo.add_argument("--threshold", type=_threshold, default=0.99)
    demo.add_argument(
        "--store",
        help="also materialize the result into this snapshot store "
        "(path, sqlite:path, or memory: for an in-process SQLite store)",
    )
    demo.set_defaults(handler=cmd_demo)

    show = subparsers.add_parser("show", help="inspect an exported database")
    show.add_argument("database", help="database file written by classify/demo")
    show.add_argument("--asn", type=int, default=None, help="show a single AS")
    show.set_defaults(handler=cmd_show)

    serve = subparsers.add_parser(
        "serve", help="serve a snapshot store over the JSON HTTP API"
    )
    serve.add_argument(
        "--store",
        required=True,
        help="snapshot store to serve "
        "(path, sqlite:path, or memory: for an in-process SQLite store)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_port, default=8080)
    serve.add_argument(
        "--cache-size",
        type=_positive_int,
        default=512,
        help="encoded responses kept in the LRU cache",
    )
    serve.add_argument(
        "--http-workers",
        type=_positive_int,
        default=1,
        help="serving workers: 1 (default) runs one threaded server in-process; "
        "N > 1 fans out across N worker processes accepting on one listening "
        "socket the supervisor holds, supervised and respawned on crash",
    )
    serve.add_argument(
        "--retention",
        type=_positive_int,
        default=None,
        help="prune the store to the newest N snapshots at startup "
        "(ongoing caps belong to the producer: stream --store-retention)",
    )
    serve.add_argument(
        "--archive-dir",
        default=None,
        help="serve the cold tier too: --retention demotes into this archive "
        "instead of deleting, and reads fall through to archived windows",
    )
    serve.add_argument(
        "--auth-token",
        default=None,
        help="require 'Authorization: Bearer <token>' on every /v1/* endpoint "
        "(/healthz and /metrics stay open); defaults to $REPRO_AUTH_TOKEN",
    )
    serve.set_defaults(handler=cmd_serve)

    replicate = subparsers.add_parser(
        "replicate",
        help="sync a follower store from a leader's HTTP API (optionally serving it)",
    )
    replicate.add_argument(
        "--from",
        dest="source",
        required=True,
        metavar="URL",
        help="leader base URL, e.g. http://leader:8080",
    )
    replicate.add_argument(
        "--store", required=True, help="follower snapshot store (created if missing)"
    )
    replicate.add_argument(
        "--poll-interval",
        type=float,
        default=1.0,
        help="seconds between changelog polls once caught up (default: 1)",
    )
    replicate.add_argument(
        "--page-size",
        type=_positive_int,
        default=64,
        help="snapshots fetched per changelog page (default: 64)",
    )
    replicate.add_argument(
        "--retention",
        type=_positive_int,
        default=None,
        help="cap the replica to the newest N snapshots (default: keep all)",
    )
    replicate.add_argument(
        "--archive-dir",
        default=None,
        help="with --retention: archive snapshots the cap demotes instead of "
        "deleting them (the replica grows its own cold tier)",
    )
    # A one-shot sync exits before any server could be useful; make the
    # contradiction an argparse error instead of silently ignoring --serve.
    replicate_mode = replicate.add_mutually_exclusive_group()
    replicate_mode.add_argument(
        "--once",
        action="store_true",
        help="sync to the leader's current generation once, then exit",
    )
    replicate_mode.add_argument(
        "--serve",
        action="store_true",
        help="also serve the replica over the JSON HTTP API while syncing",
    )
    replicate.add_argument(
        "--promote",
        action="store_true",
        help="failover: best-effort final sync from the leader, then bump this "
        "replica's leader epoch so it accepts writes and fences the deposed "
        "leader's producers; combine with --serve to start serving it",
    )
    replicate.add_argument(
        "--follower",
        type=_follower_name,
        default=None,
        help="name this follower reports on changelog polls; the leader "
        "publishes a per-follower replication-lag gauge on /metrics under it "
        "(at most 64 UTF-8 bytes)",
    )
    replicate.add_argument(
        "--auth-token",
        default=None,
        help="bearer token sent on every pull from the leader AND required by "
        "this replica's own API when serving; defaults to $REPRO_AUTH_TOKEN",
    )
    replicate.add_argument("--host", default="127.0.0.1")
    replicate.add_argument("--port", type=_port, default=8080)
    replicate.add_argument(
        "--cache-size",
        type=_positive_int,
        default=512,
        help="encoded responses kept in the LRU cache",
    )
    replicate.add_argument(
        "--http-workers",
        type=_positive_int,
        default=1,
        help="with --serve: serving workers, as in 'repro serve --http-workers'",
    )
    replicate.set_defaults(handler=cmd_replicate)

    archive = subparsers.add_parser(
        "archive", help="inspect and maintain a cold-tier snapshot archive"
    )
    archive.add_argument("archive_dir", help="archive directory (--archive-dir of a store)")
    archive.add_argument(
        "action",
        choices=("list", "verify", "compact"),
        help="list the archived snapshots, re-check every snapshot's digest, "
        "or reclaim free pages (VACUUM)",
    )
    archive.set_defaults(handler=cmd_archive)

    query = subparsers.add_parser("query", help="query a running results service")
    query.add_argument("url", help="service base URL, e.g. http://localhost:8080")
    query.add_argument(
        "what",
        choices=("health", "latest", "stats", "diff", "as", "window", "metrics"),
        help="what to ask for",
    )
    query.add_argument(
        "arg", nargs="?", default=None, help="AS number (as) or window end (window/diff)"
    )
    query.add_argument(
        "--history", type=int, default=None, help="with 'as': include the last N snapshots"
    )
    query.add_argument(
        "--auth-token",
        default=None,
        help="bearer token sent with every request (for an --auth-token "
        "service); defaults to $REPRO_AUTH_TOKEN",
    )
    query.set_defaults(handler=cmd_query)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except Exception as error:
        # A corrupt or unreadable *input file*, checkpoint or store is the
        # user's to fix.  Any other OSError (a socket, the output path) is not.
        # The service package loads only here: most commands never open a store.
        from repro.service.backends.base import StoreError

        if isinstance(error, OSError):
            if error.filename not in getattr(args, "inputs", ()):
                raise
        elif not isinstance(error, (MRTDecodeError, CheckpointError, StoreError)):
            raise
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
