"""Per-AS reads of the SQLite store on a store larger than its column cache.

Appends ``--snapshots`` windows of ``--rows`` ASes each (5 % of them replaced
window to window) and prints one JSON line: the median append time, the file
size, and the median microseconds per call of ``as_latest`` and
``as_history`` for ASes in the newest window ("seen") and for ASNs the store
never held ("unseen"), plus ``stats()`` (first call after the appends, then
repeated).  The defaults hold ~1.2M AS rows,
past the store's ~1M-row column cache.

    PYTHONPATH=src python benchmarks/store_reads.py --snapshots 800 --rows 1500
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.results import ClassificationResult
from repro.core.thresholds import Thresholds
from repro.service import SnapshotStore
from repro.stream.engine import WindowSnapshot


def median_us(call, targets) -> float:
    for target in targets[:3]:
        call(target)
    samples = []
    for target in targets:
        began = time.perf_counter()
        call(target)
        samples.append(time.perf_counter() - began)
    return statistics.median(samples) * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--snapshots", type=int, default=800)
    parser.add_argument("--rows", type=int, default=1500)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    pool = rng.sample(range(1, 4_000_000), 2 * args.rows)
    live, spare = pool[: args.rows], pool[args.rows :]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        store = SnapshotStore(Path(tmp) / "reads.db")
        appends = []
        for window in range(args.snapshots):
            for _ in range(args.rows // 20):
                gone, back = rng.randrange(len(live)), rng.randrange(len(spare))
                live[gone], spare[back] = spare[back], live[gone]
            asns = sorted(live)
            counters = np.array([[window], [1], [2], [3]], dtype=np.int64).repeat(len(asns), 1)
            result = ClassificationResult(asns, counters, Thresholds())
            snapshot = WindowSnapshot(window * 10, window * 10 + 10, 0, 1, 1, result, {})
            began = time.perf_counter()
            store.append_snapshot(snapshot)
            appends.append(time.perf_counter() - began)
        out["append_ms_p50"] = statistics.median(appends) * 1e3
        out["file_mb"] = sum(os.stat(path).st_size for path in Path(tmp).iterdir()) / 1e6
        began = time.perf_counter()
        store.stats()  # the first scrape after a write
        out["stats_first_us"] = (time.perf_counter() - began) * 1e6
        seen = live[:200]
        unseen = [rng.randrange(5_000_000, 6_000_000) for _ in range(200)]
        out["latest_seen_us"] = median_us(store.as_latest, seen)
        out["history8_seen_us"] = median_us(lambda asn: store.as_history(asn, limit=8), seen)
        out["history100_seen_us"] = median_us(
            lambda asn: store.as_history(asn, limit=100), seen[:20]
        )
        out["latest_unseen_us"] = median_us(store.as_latest, unseen)
        out["history8_unseen_us"] = median_us(lambda asn: store.as_history(asn, limit=8), unseen)
        out["stats_us"] = median_us(lambda _: store.stats(), seen[:5])
        store.close()
    print(json.dumps({key: round(value, 2) for key, value in out.items()}))


if __name__ == "__main__":
    main()
