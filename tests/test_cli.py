"""Tests for the command-line interface (repro.cli)."""

import json
import pickle
import sqlite3

import pytest

from repro.bgp.community import CommunitySet
from repro.bgp.messages import BGPUpdate, PathAttributes
from repro.bgp.path import ASPath
from repro.bgp.prefix import parse_prefix
from repro.cli import build_parser, main
from repro.core.export import FORMAT_HEADER, ClassificationDatabase
from repro.mrt.encoder import MRTEncoder
from repro.service import SnapshotStore


def write_mrt(path, updates):
    """Write ``(asns, communities)`` updates as one MRT file at *path*."""
    encoder = MRTEncoder()
    for asns, comms in updates:
        encoder.write_update(
            BGPUpdate(
                peer_asn=asns[0],
                timestamp=0,
                announced=(parse_prefix("8.8.8.0/24"),),
                attributes=PathAttributes(
                    as_path=ASPath(asns), communities=CommunitySet.from_strings(comms)
                ),
            )
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(encoder.getvalue())
    return path


@pytest.fixture()
def mrt_file(tmp_path):
    """A small MRT update file with a clear tagger/forwarder structure."""
    updates = [
        ([10], ["10:1"]),
        ([20], []),
        ([30], ["30:1"]),
        ([10, 30], ["10:1", "30:1"]),
        ([20, 30], ["30:1"]),
    ]
    return write_mrt(tmp_path / "updates.mrt", updates)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_classify_defaults(self):
        args = build_parser().parse_args(["classify", "a.mrt"])
        assert args.threshold == 0.99
        assert args.format == "text"


class TestCountFlags:
    """Every count flag shares one argparse type: < 1 is a usage error (rc 2),
    never a traceback, a silent serial run, or a hand-rolled check."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["stream", "a.mrt", "--workers", "0"],
            ["stream", "a.mrt", "--shards", "0"],
            ["stream", "a.mrt", "--ingest-block-size", "0"],
            ["serve", "--store", "x.db", "--http-workers", "0"],
            ["replicate", "--from", "http://127.0.0.1:9", "--store", "x.db", "--http-workers", "-1"],
            ["replicate", "--from", "http://127.0.0.1:9", "--store", "x.db",
             "--page-size", "0"],
            ["stream", "a.mrt", "--workers", "two"],
        ],
        ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
    )
    def test_non_positive_count_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as usage_error:
            main(argv)  # the inputs are never opened: parsing fails first
        assert usage_error.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}" in err and "Traceback" not in err

    def test_count_flags_parse_as_integers(self):
        args = build_parser().parse_args(
            ["stream", "a.mrt", "--workers", "2", "--shards", "3", "--ingest-block-size", "64"]
        )
        assert (args.workers, args.shards, args.ingest_block_size) == (2, 3, 64)


class TestOutOfRangeFlags:
    """A value the engine, store or thresholds would refuse is refused by the
    CLI first: exit status 2 and one error line, never a traceback, and
    nothing is opened or created."""

    LEADER = ["--from", "http://127.0.0.1:9", "--store", "x.db"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--store", "x.db", "--retention", "0"],
            ["serve", "--store", "x.db", "--cache-size", "0"],
            ["replicate", *LEADER, "--serve", "--cache-size", "-1"],
            ["replicate", *LEADER, "--promote", "--retention", "0"],
            ["stream", "a.mrt", "--store", "x.db", "--store-retention", "0"],
            # Without a cap nothing is removed, so nothing would be archived.
            ["stream", "a.mrt", "--store", "x.db", "--archive-dir", "cold"],
            ["stream", "a.mrt", "--checkpoint-every", "0"],
            ["stream", "a.mrt", "--window", "0"],
            ["stream", "a.mrt", "--allowed-lateness", "-5"],
            ["stream", "a.mrt", "--policy", "sliding", "--window", "3600", "--horizon", "10"],
            ["classify", "a.mrt", "--threshold", "1.5"],
            ["stream", "a.mrt", "--threshold", "1.5"],
            ["demo", "--threshold", "1.5"],
            ["serve", "--store", "x.db", "--port", "70000"],
            ["serve", "--store", "x.db", "--port", "-1"],
            ["replicate", *LEADER, "--serve", "--port", "70000"],
            # Checked before the client or the store is opened: no x.db,
            # no cold/archive.db.
            ["replicate", *LEADER, "--once", "--archive-dir", "cold"],
            # The leader's board records names of at most 64 UTF-8 bytes.
            ["replicate", *LEADER, "--once", "--follower", "f" * 65],
        ],
        ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
    )
    def test_is_one_error_line_with_status_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        try:
            status = main(argv)
        except SystemExit as usage_error:  # argparse: its usage synopsis, then the error
            status = usage_error.code
        assert status == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error: " in line]
        assert len(errors) == 1 and errors[0] == err.splitlines()[-1]
        assert argv[-2] in errors[0]
        assert list(tmp_path.iterdir()) == []

    def test_in_range_values_parse(self):
        args = build_parser().parse_args(
            ["stream", "a.mrt", "--threshold", "0.75", "--allowed-lateness", "0", "--window", "1"]
        )
        assert (args.threshold, args.allowed_lateness, args.window) == (0.75, 0, 1)


def _unusable_store(path, kind):
    """A store file at *path* this build cannot open: *kind* ``"v3"`` is a
    store labelled with the older schema version 3, ``"garbage"`` is not a
    SQLite database at all."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if kind == "garbage":
        path.write_bytes(b"not a database\n" * 64)
        return
    with SnapshotStore(path):
        pass
    connection = sqlite3.connect(path)
    with connection:
        connection.execute("UPDATE meta SET value = '3' WHERE key = 'schema_version'")
    connection.close()


class TestUnusableStore:
    """Every command that opens a store reports one it cannot open as one
    ``error:`` line naming the file, exit status 1, never a traceback."""

    COMMANDS = {
        "classify": ["classify", "{mrt}", "--store", "s.db", "-o", "db.txt"],
        "demo": ["demo", "--scale", "tiny", "--store", "s.db", "-o", "db.txt"],
        "stream": ["stream", "{mrt}", "--store", "s.db", "-o", "db.txt"],
        "replicate": ["replicate", "--from", "http://127.0.0.1:9", "--store", "s.db", "--once"],
        "serve": ["serve", "--store", "s.db", "--port", "0"],
        "archive": ["archive", "cold", "verify"],
    }

    @pytest.mark.parametrize("kind", ["v3", "garbage"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_is_one_error_line_with_status_1(
        self, command, kind, mrt_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        # Were the store opened, serving would block: fail instead.
        monkeypatch.setattr(
            "repro.cli._run_until_interrupted", lambda block: pytest.fail("store opened")
        )
        store = "cold/archive.db" if command == "archive" else "s.db"
        _unusable_store(tmp_path / store, kind)
        argv = [part.format(mrt=mrt_file) for part in self.COMMANDS[command]]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [line for line in err.splitlines() if line.startswith("error:")]
        assert store in line
        assert ("schema version 3" if kind == "v3" else "not a database") in line

    @pytest.mark.parametrize("kind", ["v3", "garbage"])
    @pytest.mark.parametrize("command", ["classify", "demo"])
    def test_batch_commands_refuse_it_before_inferring(
        self, command, kind, mrt_file, tmp_path, monkeypatch, capsys
    ):
        """``classify`` and ``demo`` open ``--store`` first: an unusable one
        stops them before any inference, ``classified`` line or ``-o`` file."""
        monkeypatch.chdir(tmp_path)
        _unusable_store(tmp_path / "s.db", kind)
        argv = [part.format(mrt=mrt_file) for part in self.COMMANDS[command]]
        assert main(argv) == 1
        err = capsys.readouterr().err
        (line,) = err.splitlines()
        assert line.startswith("error: ") and "s.db" in line
        assert not (tmp_path / "db.txt").exists()


class TestOnePathOptions:
    """Batch has one layout, one block size and one process: the knobs are
    gone, not ignored."""

    @pytest.mark.parametrize(
        "flag",
        [["--representation", "columnar"], ["--ingest-block-size", "64"], ["--workers", "2"]],
    )
    def test_classify_rejects_the_removed_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as usage_error:
            main(["classify", "a.mrt"] + flag)
        assert usage_error.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_pipeline_has_no_layout_or_block_size_keyword(self):
        import inspect

        from repro.core.pipeline import InferencePipeline

        parameters = inspect.signature(InferencePipeline.__init__).parameters
        assert "representation" not in parameters  # what benchmarks/e2e feature-detects
        assert "ingest_block_size" not in parameters
        assert "workers" not in parameters


class TestClassifyCommand:
    def test_classify_writes_text_database(self, mrt_file, tmp_path, capsys):
        output = tmp_path / "db.txt"
        assert main(["classify", str(mrt_file), "-o", str(output)]) == 0
        database = ClassificationDatabase.loads(output.read_text())
        assert database.classification_of(10).tagging.code == "t"
        assert database.classification_of(20).tagging.code == "s"
        assert "classified" in capsys.readouterr().err

    def test_classify_json_to_stdout(self, mrt_file, capsys):
        assert main(["classify", str(mrt_file), "--format", "json"]) == 0
        captured = capsys.readouterr()
        parsed = json.loads(captured.out)
        assert any(entry["asn"] == 30 and entry["class"].startswith("t") for entry in parsed)

    def test_classify_custom_threshold(self, mrt_file, tmp_path):
        output = tmp_path / "db.txt"
        assert main(["classify", str(mrt_file), "--threshold", "0.6", "-o", str(output)]) == 0
        assert output.exists()


class TestRowBaseline:
    """The row baseline is a batch comparison: ``classify --algorithm row``."""

    # AS20 never tags, so the missing 20:x on ``10 20`` says nothing about
    # AS10 forwarding; the row baseline counts it as cleaner evidence.
    UPDATES = [
        ([10], ["10:1"]),
        ([20], []),
        ([30], ["30:1"]),
        ([10, 30], ["10:1", "30:1"]),
        ([20, 30], ["30:1"]),
        ([10, 20], ["10:1"]),
    ]

    def test_classify_row_equals_the_row_pipeline(self, tmp_path, capsys):
        from repro.collectors.archive import read_mrt_files
        from repro.core.pipeline import InferencePipeline

        mrt_file = write_mrt(tmp_path / "updates.mrt", self.UPDATES)
        argv = ["classify", str(mrt_file), "--format", "json"]
        assert main(argv + ["--algorithm", "row"]) == 0
        row_json = capsys.readouterr().out
        outcome = InferencePipeline(algorithm="row").run_from_mrt(read_mrt_files([str(mrt_file)]))
        assert outcome.result.algorithm == "row"
        assert row_json == ClassificationDatabase.from_result(outcome.result).to_json()
        assert main(argv) == 0
        assert capsys.readouterr().out != row_json  # the two algorithms disagree here

    def test_stream_has_no_algorithm_option(self, mrt_file, capsys):
        with pytest.raises(SystemExit) as usage_error:
            main(["stream", str(mrt_file), "--algorithm", "row"])
        assert usage_error.value.code == 2
        assert "unrecognized arguments: --algorithm row" in capsys.readouterr().err


class TestInputFiles:
    """Inputs are labelled, never dropped; a bad one is an error line, rc 1."""

    RRC00 = [([10], ["10:1"]), ([10, 30], ["10:1", "30:1"])]
    RRC01 = [([20], []), ([20, 30], ["30:1"]), ([20, 40], [])]

    @pytest.mark.parametrize("command", ["classify", "stream"])
    def test_same_basename_inputs_are_both_read(self, command, tmp_path, capsys):
        """Regression: blobs were keyed on the basename, so the second of
        ``rrc00/updates.mrt rrc01/updates.mrt`` silently replaced the first."""

        def run(name, first, second):
            inputs = [
                str(write_mrt(tmp_path / first, self.RRC00)),
                str(write_mrt(tmp_path / second, self.RRC01)),
            ]
            output = tmp_path / name
            assert main([command, *inputs, "-o", str(output)]) == 0
            return output.read_text(), capsys.readouterr().err

        colliding = run("colliding.txt", "rrc00/updates.mrt", "rrc01/updates.mrt")
        distinct = run("distinct.txt", "rrc00.mrt", "rrc01.mrt")
        assert colliding == distinct
        assert f"{len(self.RRC00) + len(self.RRC01)} " in colliding[1]

    @pytest.mark.parametrize("command", ["classify", "stream"])
    @pytest.mark.parametrize(
        "content", [None, b"# not an MRT archive\n" * 8], ids=["missing", "not-mrt"]
    )
    def test_unreadable_input_is_an_error_line(self, command, content, mrt_file, tmp_path, capsys):
        bad = tmp_path / "bad.mrt"
        if content is not None:
            bad.write_bytes(content)
        assert main([command, str(mrt_file), str(bad), "-o", str(tmp_path / "db.txt")]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "db.txt").exists()

    def test_other_os_errors_are_not_swallowed(self, mrt_file, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["classify", str(mrt_file), "-o", str(tmp_path / "no-such-dir" / "db.txt")])


class TestShowCommand:
    def test_show_summary_and_single_asn(self, mrt_file, tmp_path, capsys):
        output = tmp_path / "db.txt"
        main(["classify", str(mrt_file), "-o", str(output)])
        assert main(["show", str(output)]) == 0
        summary = capsys.readouterr().out
        assert "ASes" in summary

        assert main(["show", str(output), "--asn", "10"]) == 0
        detail = capsys.readouterr().out
        assert "AS10" in detail and "class=t" in detail

    def test_show_missing_asn_returns_error(self, mrt_file, tmp_path, capsys):
        output = tmp_path / "db.txt"
        main(["classify", str(mrt_file), "-o", str(output)])
        assert main(["show", str(output), "--asn", "999"]) == 1

    def test_show_reads_json_format(self, mrt_file, tmp_path, capsys):
        output = tmp_path / "db.json"
        main(["classify", str(mrt_file), "--format", "json", "-o", str(output)])
        assert main(["show", str(output)]) == 0

    @pytest.mark.parametrize(
        "content, reason",
        [
            (f"{FORMAT_HEADER}\n1|tf|a|0|0|0\n", "line 2: malformed classification line"),
            (f"{FORMAT_HEADER}\n1|zz|1|0|0|0\n", "unknown class code 'zz'"),
            (f"{FORMAT_HEADER}\n1|tf|-5|0|0|0\n", "tagger '-5' is negative"),
            ('[{"class": "tf"}]', "entry 0: missing key 'asn'"),
            ('{"asn": 1, "class": "tf"}', "expected a JSON list"),
        ],
        ids=["non-integer", "unknown-code", "negative", "json-missing-asn", "json-not-a-list"],
    )
    def test_show_reports_a_malformed_database_as_one_error_line(
        self, content, reason, tmp_path, capsys
    ):
        database = tmp_path / "db.txt"
        database.write_text(content)
        assert main(["show", str(database)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.err.startswith(f"error: {database}: ") and reason in captured.err

    @pytest.mark.parametrize(
        "make, reason",
        [
            (lambda path: None, "No such file or directory"),
            (lambda path: path.mkdir(), "Is a directory"),
            (lambda path: path.write_bytes(b"\xff\xfe1|tf|1|0|0|0\n"), "can't decode byte 0xff"),
        ],
        ids=["missing", "directory", "non-utf8"],
    )
    def test_show_reports_an_unreadable_path_as_one_error_line(
        self, make, reason, tmp_path, capsys
    ):
        database = tmp_path / "db.txt"
        make(database)
        assert main(["show", str(database)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.err.startswith(f"error: {database}: ") and reason in captured.err


class TestQueryCommand:
    """``repro query`` failures are one ``error:`` line: rc 1 when the service
    cannot be asked, rc 2 when the command line itself is wrong."""

    @pytest.mark.parametrize(
        "argv, rc, reason",
        [
            (["http://127.0.0.1:9", "health"], 1, "http://127.0.0.1:9: "),
            (["http://127.0.0.1:9", "metrics"], 1, "http://127.0.0.1:9: "),
            (["ftp://127.0.0.1:9", "health"], 1, "expected an http://host:port base URL"),
            (["http://127.0.0.1:9", "diff", "abc"], 2, "needs a window end, got 'abc'"),
            (["http://127.0.0.1:9", "as", "AS10"], 2, "needs an AS number, got 'AS10'"),
            (["http://127.0.0.1:9", "window", "1.5"], 2, "needs a window end, got '1.5'"),
        ],
        ids=["refused", "refused-metrics", "not-http", "diff-abc", "as-AS10", "window-1.5"],
    )
    def test_failure_is_one_error_line(self, argv, rc, reason, capsys):
        assert main(["query", *argv]) == rc
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert reason in captured.err


class TestReplicateCommand:
    def test_a_bad_leader_url_creates_no_store_file(self, tmp_path, capsys):
        store = tmp_path / "replica.db"
        assert main(["replicate", "--from", "not-a-url", "--store", str(store), "--once"]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: --from: ")
        assert list(tmp_path.iterdir()) == []


class TestStreamCommand:
    def test_stream_with_workers_matches_serial(self, mrt_file, tmp_path, capsys):
        serial = tmp_path / "serial.txt"
        parallel = tmp_path / "parallel.txt"
        assert main(["stream", str(mrt_file), "-o", str(serial)]) == 0
        assert main(["stream", str(mrt_file), "--workers", "2", "-o", str(parallel)]) == 0
        assert parallel.read_text() == serial.read_text()
        assert "streamed" in capsys.readouterr().err

    def test_stream_store_with_retention(self, mrt_file, tmp_path, capsys):
        from repro.service import SnapshotStore

        store_path = tmp_path / "stream.db"
        assert (
            main(
                [
                    "stream",
                    str(mrt_file),
                    "-o",
                    str(tmp_path / "db.txt"),
                    "--store",
                    str(store_path),
                    "--store-retention",
                    "1",
                ]
            )
            == 0
        )
        assert "window snapshots in" in capsys.readouterr().err
        with SnapshotStore(store_path) as store:
            assert store.retention is None  # retention is not persisted...
            assert len(store) == 1  # ...but the producer honored it
            assert store.latest().kind == "window"


@pytest.fixture()
def windowed_mrt_file(tmp_path):
    """An MRT update feed whose timestamps span many streaming windows."""
    encoder = MRTEncoder()
    for index, stamp in enumerate(range(0, 500, 25)):
        encoder.write_update(
            BGPUpdate(
                peer_asn=10,
                timestamp=stamp,
                announced=(parse_prefix("8.8.8.0/24"),),
                attributes=PathAttributes(
                    as_path=ASPath([10, 20] if index % 2 else [10, 30]),
                    communities=CommunitySet.from_strings(["10:1"]),
                ),
            )
        )
    path = tmp_path / "windowed.mrt"
    path.write_bytes(encoder.getvalue())
    return path


class TestStreamResumeStore:
    def test_resume_store_has_no_duplicate_windows(
        self, windowed_mrt_file, tmp_path, capsys
    ):
        """`stream --resume --store` republishes nothing the store holds.

        Run 1 streams the feed to completion (checkpointing as it goes).
        The crash is simulated by deleting the newest checkpoint: the
        resumed run restores an older mid-stream state and re-emits every
        window closed after it -- windows the store already persisted.
        """
        from collections import Counter

        from repro.service import SnapshotStore

        store_path = tmp_path / "resume.db"
        checkpoint_dir = tmp_path / "ckpt"
        base = [
            "stream",
            str(windowed_mrt_file),
            "-o",
            str(tmp_path / "out.txt"),
            "--window",
            "50",
            "--checkpoint-dir",
            str(checkpoint_dir),
            "--checkpoint-every",
            "4",
            "--store",
            str(store_path),
        ]
        assert main(base) == 0
        capsys.readouterr()
        with SnapshotStore(store_path) as store:
            windows_after_first_run = [
                (meta.kind, meta.window_start, meta.window_end)
                for meta in store.snapshots()
            ]
        assert len(windows_after_first_run) > 3

        # Simulate the crash: the last pre-crash checkpoint is gone, so the
        # resume restores a state older than the store's newest window.
        checkpoints = sorted(checkpoint_dir.glob("*"))
        checkpoints[-1].unlink()

        assert main(base + ["--resume"]) == 0
        err = capsys.readouterr().err
        assert "resumed from" in err
        assert "duplicate windows skipped" in err
        with SnapshotStore(store_path) as store:
            keys = Counter(
                (meta.kind, meta.window_start, meta.window_end)
                for meta in store.snapshots()
            )
            assert all(count == 1 for count in keys.values()), keys
            # The resumed run added no windows the full run had not already
            # produced: the store history is exactly the first run's.
            assert list(keys) == windows_after_first_run

    def test_resume_with_lost_checkpoints_still_deduplicates(
        self, windowed_mrt_file, tmp_path, capsys
    ):
        """Dedup keys on the --resume *intent*, not on a found checkpoint.

        If the checkpoint directory is lost entirely, the resumed engine
        starts fresh -- but the store still holds every window, and the
        re-run must not append a second copy of any of them.
        """
        import shutil
        from collections import Counter

        from repro.service import SnapshotStore

        store_path = tmp_path / "lostckpt.db"
        checkpoint_dir = tmp_path / "ckpt"
        base = [
            "stream",
            str(windowed_mrt_file),
            "-o",
            str(tmp_path / "out.txt"),
            "--window",
            "50",
            "--checkpoint-dir",
            str(checkpoint_dir),
            "--store",
            str(store_path),
        ]
        assert main(base) == 0
        capsys.readouterr()
        with SnapshotStore(store_path) as store:
            first_run_count = len(store)
        shutil.rmtree(checkpoint_dir)

        assert main(base + ["--resume"]) == 0
        err = capsys.readouterr().err
        assert "resumed from" not in err  # no checkpoint survived
        assert "duplicate windows skipped" in err
        with SnapshotStore(store_path) as store:
            keys = Counter(
                (meta.kind, meta.window_start, meta.window_end)
                for meta in store.snapshots()
            )
            assert all(count == 1 for count in keys.values()), keys
            assert len(store) == first_run_count

    def test_plain_rerun_appends_without_dedup(self, windowed_mrt_file, tmp_path, capsys):
        """A plain re-run (no --resume) keeps the historical append-only
        semantics: every window is appended again, documenting why the
        dedup is tied to the resume path."""
        from repro.service import SnapshotStore

        store_path = tmp_path / "plain.db"
        base = [
            "stream",
            str(windowed_mrt_file),
            "-o",
            str(tmp_path / "out.txt"),
            "--window",
            "50",
            "--store",
            str(store_path),
        ]
        assert main(base) == 0
        with SnapshotStore(store_path) as store:
            first = len(store)
        assert main(base) == 0
        with SnapshotStore(store_path) as store:
            assert len(store) == 2 * first

    def test_store_closed_when_engine_fails_mid_run(
        self, windowed_mrt_file, tmp_path, monkeypatch
    ):
        """An engine crash must not leak the SQLite handle / WAL."""
        from repro.stream import StreamEngine

        store_path = tmp_path / "leak.db"
        wal_path = tmp_path / "leak.db-wal"

        def exploding_run(self, source, *, finish=True):
            # The store is open at this point: its WAL exists on disk.
            assert wal_path.exists()
            raise RuntimeError("engine blew up mid-run")

        monkeypatch.setattr(StreamEngine, "run", exploding_run)
        with pytest.raises(RuntimeError, match="blew up"):
            main(
                [
                    "stream",
                    str(windowed_mrt_file),
                    "--store",
                    str(store_path),
                ]
            )
        # Context management closed the store on the failure path: SQLite
        # checkpointed and removed the WAL on the last connection close.
        assert not wal_path.exists()
        assert store_path.exists()


def _truncate(path):
    path.write_bytes(path.read_bytes()[:100])


def _set_version(path):
    payload = pickle.loads(path.read_bytes())
    payload["version"] = 2
    path.write_bytes(pickle.dumps(payload))


def _set_row_state(path):
    payload = pickle.loads(path.read_bytes())
    payload["state"]["classifier"]["algorithm"] = "row"
    path.write_bytes(pickle.dumps(payload))


class TestResumeFromBadCheckpoint:
    """A checkpoint ``stream --resume`` cannot use is one error line, rc 1."""

    @pytest.mark.parametrize(
        "damage,message",
        [
            (_truncate, "cannot read checkpoint"),
            (_set_version, "has version 2"),
            (_set_row_state, "repro classify --algorithm row"),
        ],
        ids=["truncated", "wrong-version", "row-state"],
    )
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_bad_checkpoint_is_an_error_line(
        self, damage, message, workers, windowed_mrt_file, tmp_path, capsys
    ):
        checkpoints = tmp_path / "ckpt"
        feed = [str(windowed_mrt_file), "--window", "100", "--checkpoint-dir", str(checkpoints)]
        assert main(["stream", *feed, "-o", str(tmp_path / "first.txt")]) == 0
        (latest,) = checkpoints.glob("stream-ckpt-*.pkl")
        damage(latest)
        capsys.readouterr()
        output = tmp_path / "resumed.txt"
        rc = main(["stream", *feed, "--resume", "--workers", workers, "-o", str(output)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert line.startswith("error: ") and message in line
        assert not output.exists()
