"""The repository benchmark: ingest, batch classify and HTTP serving, end to end.

Three ways in, one measurement underneath:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    what the benchmark driver calls: one workload, measured for S seconds,
    one JSON object on the last line of standard output (see BENCHMARK.json).
``run.py --seed N [--rounds R] [--out report.json]``
    every workload, R untraced rounds in round-robin order plus one traced
    pass, each in its own process; prints every metric by name and unit with
    median, quartiles and sample count, and writes the same as JSON.
``run.py --compare A.json B.json``
    per-metric ratio of two such reports against the bounds in
    BENCHMARK.json; exits non-zero on a breach.

``--smoke`` is the second form shrunk for CI: tiny scale, thinned inputs, one
repetition, all seven workloads, every oracle and the traced pass.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import adapter  # noqa: E402 - needs HERE on sys.path
import hostspeed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Repetition, median  # noqa: E402

MANIFEST_PATH = adapter.ROOT / "BENCHMARK.json"
#: Scratch space: stores, checkpoints, the server's stats board.  Inside the
#: checkout because the benchmark may write nowhere else; removed on exit.
WORK_ROOT = adapter.ROOT / ".bench_work"


def workdir_of(pid: int, workload: str) -> Path:
    """Where the measuring process *pid* keeps its scratch files."""
    return WORK_ROOT / f"{pid}-{workload}"


def load_manifest() -> Dict[str, object]:
    with MANIFEST_PATH.open() as handle:
        return json.load(handle)


# -- no process outlives a run ----------------------------------------------------------------
#: Set in the environment of the process that measures; absent in its supervisor.
CHILD_ENV = "REPRO_BENCH_CHILD"
#: ``prctl`` option: orphaned descendants are re-parented to this process.
PR_SET_CHILD_SUBREAPER = 36
#: Seconds the descendants get to end by themselves before they are killed.
REAP_GRACE = 3.0


def adopt_orphans() -> None:
    """Become the parent of every descendant whose own parent has exited.

    The server and the pool are ``multiprocessing`` children started with
    ``spawn``, which also starts a resource tracker that ends only once the
    measuring process has: nobody waits for it, and where PID 1 does not reap
    it stays behind as a zombie.  As a sub-reaper the supervisor inherits it,
    and anything else the measuring process did not wait for.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: init adopts and reaps orphans there


def children() -> List[int]:
    """Process ids whose parent is this process, zombies included."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # ended while we were looking
        # "pid (comm) state ppid ...": comm may hold spaces and parentheses.
        if int(stat.rpartition(")")[2].split()[1]) == me:
            found.append(int(entry))
    return found


def reap(grace: float) -> None:
    """Wait until this process has no child left; kill what outstays *grace*."""
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            # Their own children fall to this process next and go the same way.
            for child in children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)


def supervise(args: argparse.Namespace) -> int:
    """Run this command line in a child; return once it and all it started ended.

    The child runs under ``PYTHONHASHSEED=0``: string hashing is randomised
    per process, so dict and set layouts -- there, in the server subprocess
    and in the pool workers, which inherit the environment -- would differ
    from run to run and move the timings by a few percent.  The program still
    receives only the generated inputs.
    """
    adapter.require_program()
    adopt_orphans()

    def interrupted(signum, _frame):
        raise KeyboardInterrupt(f"signal {signum}")

    signal.signal(signal.SIGTERM, interrupted)
    environment = dict(os.environ, PYTHONHASHSEED="0", **{CHILD_ENV: "1"})
    child = subprocess.Popen([sys.executable] + sys.argv, env=environment)
    grace = REAP_GRACE
    try:
        code = child.wait()
    except BaseException:
        grace = 0.0
        child.kill()
        child.wait()
        raise
    finally:
        reap(grace)
        # A child that was killed could not remove its scratch files.
        shutil.rmtree(workdir_of(child.pid, args.workload), ignore_errors=True)
        with contextlib.suppress(OSError):  # absent, or another run's files are in it
            WORK_ROOT.rmdir()
    return code if code >= 0 else 1


# -- one workload, one process --------------------------------------------------------------
def measure(args: argparse.Namespace) -> int:
    """Driver mode: set up, warm up, repeat for ``--seconds``, verify, print."""
    manifest = load_manifest()
    workdir = workdir_of(os.getpid(), args.workload)
    workdir.mkdir(parents=True, exist_ok=True)
    # The server supervisor and the checkpoint writer ask tempfile for
    # scratch files; keep those inside the checkout too.
    tempfile.tempdir = str(workdir)
    os.environ["TMPDIR"] = str(workdir)
    workload = WORKLOADS[args.workload](args.scale, args.seed, args.stride, workdir)
    try:
        # Every timed stretch sits between two samples of the host's speed
        # and is restated at the reference speed (see hostspeed.py).
        gauge = hostspeed.Gauge()
        raw_setups: List[float] = []
        setups: List[float] = []
        # The traced pass reports no setup_s: build the fixture once there.
        for _ in range(1 if args.trace else args.setups):
            gc.collect()
            gauge.reset()
            began = time.perf_counter()
            workload.prepare()
            raw_setups.append(time.perf_counter() - began)
            setups.append(raw_setups[-1] * gauge.since())
        digest = workload.digest()
        print(f"inputs sha256 {digest}")
        # Full collections should walk the program's objects, not the
        # benchmark's inputs: park the fixture in the permanent generation.
        gc.collect()
        gc.freeze()

        workload.repeat()  # the warm-up: cold allocator and caches, discarded
        plain: List[Repetition] = []
        traced: List[Repetition] = []
        gauge.reset()
        deadline = time.perf_counter() + args.seconds
        while len(plain) < args.min_reps or time.perf_counter() < deadline:
            plain.append(workload.repeat())
            plain[-1].speed = gauge.since()
            if args.trace:
                traced.append(workload.repeat(Tracer()))
                traced[-1].speed = gauge.since()

        checks = workload.verify()
        raw = {
            "throughput": [rep.items / rep.wall for rep in plain],
            "result_ms_p50": [median(rep.latencies) * 1e3 for rep in plain],
        }
        speeds = [rep.speed for rep in plain]
        samples = {
            "setup_s": setups,
            "throughput": [value / speed for value, speed in zip(raw["throughput"], speeds)],
            "result_ms_p50": [value * speed for value, speed in zip(raw["result_ms_p50"], speeds)],
        }
        end_to_end = {name: median(values) for name, values in samples.items()}
        end_to_end["state_mb"] = workload.state_bytes() / 1e6
        layers = workload.layers(plain, traced) if args.trace else None
        spans = traced[-1].tracer.as_rows() if traced else []
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    repetitions = plain + traced
    attempted = sum(rep.items for rep in repetitions) + sum(c.attempted for c in checks)
    failed = sum(rep.failed for rep in repetitions) + sum(c.failed for c in checks)
    for check in checks:
        verdict = "ok" if check.failed == 0 else f"FAILED {check.failed}"
        note = f" ({check.note})" if check.note else ""
        print(f"oracle {check.name}: {verdict} of {check.attempted}{note}")

    units = {spec["name"]: spec["unit"] for spec in manifest["end_to_end"]}
    if set(units) != set(end_to_end):
        raise SystemExit(f"BENCHMARK.json end_to_end != measured: {sorted(end_to_end)}")
    metrics = {
        name: {"value": value, "unit": units[name]} for name, value in end_to_end.items()
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "digest": digest,
        "item": workload.item,
        "result": workload.result,
        "aliases": workload.aliases,
        "samples": samples,
        "raw_samples": {"setup_s": raw_setups, "host_speed": speeds, **raw},
        "checks": [vars(check) for check in checks],
        "end_to_end": metrics,
    }
    if layers is not None:
        layer_units = {spec["name"]: spec["unit"] for spec in manifest["per_layer"]}
        layers.set("host.speed", median(speeds))
        layers.set("host.raw_throughput", median(raw["throughput"]))
        layers.set("host.raw_result_ms_p50", median(raw["result_ms_p50"]))
        unknown = set(layers.values) - set(layer_units)
        if unknown:
            raise SystemExit(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
        layers.skip(set(layer_units) - set(layers.values), workload.idle)
        detail["per_layer"] = {
            name: {"value": layers.values[name], "unit": unit,
                   **({"reason": layers.reasons[name]} if layers.values[name] is None else {})}
            for name, unit in layer_units.items()
        }
        detail["spans"] = spans
        # The driver's line carries numbers only: a layer that did not run
        # did no work, so its counts and times read 0 there; the reason stays
        # in the detail report.
        metrics = {
            name: {"value": layers.values[name] or 0, "unit": unit}
            for name, unit in layer_units.items()
        }
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if failed == 0 else 1


# -- every workload, one process each -------------------------------------------------------
def run_child(
    args: argparse.Namespace, workload: str, trace: int, detail: Path
) -> Dict[str, object]:
    """One driver-mode run in its own process; its result line plus its detail file."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--scale", args.scale,
        "--stride", str(args.stride),
        "--setups", str(args.setups),
        "--min-reps", str(args.min_reps),
        "--detail", str(detail),
    ]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = completed.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload}: no result (exit {completed.returncode})")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(detail.read_text())
    return result


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    q1, q2, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    )
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def suite(args: argparse.Namespace) -> int:
    """Full mode: R untraced rounds round-robin, then one traced pass."""
    adapter.require_program()
    manifest = load_manifest()
    # All seven, not only those BENCHMARK.json hands to the driver (see README).
    names = list(WORKLOADS)
    scratch = WORK_ROOT / f"{os.getpid()}-suite"
    scratch.mkdir(parents=True, exist_ok=True)
    report: Dict[str, object] = {
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "rounds": args.rounds,
        "features": adapter.features(),
        "workloads": {},
    }
    failed_total = 0
    try:
        rounds: Dict[str, List[Dict[str, object]]] = {name: [] for name in names}
        # Smoke skips the untraced rounds: the traced pass below runs untraced
        # repetitions too, and one of each is all a CI check needs.
        for round_index in range(0 if args.smoke else args.rounds):
            for name in names:
                print(f"round {round_index + 1}/{args.rounds}: {name}", file=sys.stderr)
                rounds[name].append(run_child(args, name, 0, scratch / f"{name}.json"))
        for name in names:
            print(f"traced pass: {name}", file=sys.stderr)
            traced = run_child(args, name, 1, scratch / f"{name}-traced.json")
            results = rounds[name] or [traced]
            detail = traced["detail"]
            end_to_end = {}
            for spec in manifest["end_to_end"]:
                metric = spec["name"]
                values = [r["detail"]["end_to_end"][metric]["value"] for r in results]
                end_to_end[metric] = {"unit": spec["unit"], **quartiles(values)}
                if metric in detail["aliases"]:
                    end_to_end[metric]["alias"] = detail["aliases"][metric]
            attempted = sum(r["attempted"] for r in results + [traced])
            failed = sum(r["failed"] for r in results + [traced])
            failed_total += failed
            report["workloads"][name] = {
                "digest": detail["digest"],
                "item": detail["item"],
                "result": detail["result"],
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "failed_share": failed / attempted,
                "end_to_end": end_to_end,
                "per_layer": detail["per_layer"],
                "checks": detail["checks"],
                "spans": detail["spans"],
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    print_report(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 0 if failed_total == 0 else 1


def print_report(report: Dict[str, object]) -> None:
    print(f"seed {report['seed']}  scale {report['scale']}  features {report['features']}")
    for name, entry in report["workloads"].items():
        print(f"\n== {name}  (item: {entry['item']}; result: {entry['result']})")
        print(f"   inputs sha256 {entry['digest']}")
        print(f"   attempted {entry['attempted']}  failed {entry['failed']}"
              f"  failed_share {entry['failed_share']:.6f}")
        for metric, row in entry["end_to_end"].items():
            alias = f" = {row['alias']}" if "alias" in row else ""
            print(f"   {metric:<34}{row['median']:>16.4f} {row['unit']:<6}"
                  f" q1 {row['q1']:.4f} q3 {row['q3']:.4f} n {row['n']}{alias}")
        for metric, row in entry["per_layer"].items():
            if row["value"] is None:
                print(f"   {metric:<34}{'null':>16} {row['unit']:<6} ({row['reason']})")
            else:
                print(f"   {metric:<34}{row['value']:>16.4f} {row['unit']:<6}")


# -- two reports against the bounds -----------------------------------------------------------
def compare(before_path: str, after_path: str) -> int:
    """B against A: how much worse each end-to-end metric got, per workload."""
    manifest = load_manifest()
    before = json.loads(Path(before_path).read_text())["workloads"]
    after = json.loads(Path(after_path).read_text())["workloads"]
    breaches = 0
    print(f"{'workload':<20}{'metric':<16}{'A':>14}{'B':>14}{'B/A':>8}"
          f"{'worse by':>10}{'bound':>8}")
    for workload in before:
        if workload not in after:
            print(f"{workload:<20}missing from {after_path}")
            breaches += 1
            continue
        for spec in manifest["end_to_end"]:
            a = before[workload]["end_to_end"][spec["name"]]["median"]
            b = after[workload]["end_to_end"][spec["name"]]["median"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            breach = worse > spec["bound"]
            breaches += breach
            print(f"{workload:<20}{spec['name']:<16}{a:>14.4f}{b:>14.4f}{b / a:>8.3f}"
                  f"{worse:>+10.3f}{spec['bound']:>8.2f}{'  BREACH' if breach else ''}")
    return 1 if breaches else 0


def parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run repeats its job (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="small", choices=("tiny", "small", "default"),
                        help="experiment scale of the synthetic Internet")
    parser.add_argument("--stride", type=int, default=1,
                        help="keep every N-th tuple of the generated inputs")
    parser.add_argument("--setups", type=int, default=3,
                        help="times the fixture is built; setup_s is their median")
    parser.add_argument("--min-reps", type=int, default=3,
                        help="timed repetitions to run even after --seconds ran out")
    parser.add_argument("--detail", help="also write this run's full detail as JSON here")
    parser.add_argument("--rounds", type=int, default=5,
                        help="untraced rounds per workload when no --workload is given")
    parser.add_argument("--out", help="write the all-workloads report as JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale, thinned inputs, one repetition, every oracle")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.smoke:
        args.scale, args.stride, args.setups, args.min_reps = "tiny", 4, 1, 1
        args.seconds, args.rounds = 0.0, 1
    if args.seconds is None:
        args.seconds = float(load_manifest()["run_seconds"])
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return measure(args) if os.environ.get(CHILD_ENV) else supervise(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
