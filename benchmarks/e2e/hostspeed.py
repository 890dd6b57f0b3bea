"""How fast the host runs right now, against a fixed yardstick.

The sandbox is a few cores of a shared host whose speed moves under the
benchmark: for seconds (a repetition of ``serve_hot`` reads 3.9, 5.1 or 6.6 k
requests/s depending on the moment) and for ten minutes and more (every
workload at once 15 % slower, once 2x slower), CPU time inflating along with
wall time and no steal reported.  Nothing measured inside one run averages
that away, and a later change would be judged against a parent measured at
another speed.

So every timed stretch is bracketed by passes of one small interpreter-bound
kernel, and its time is restated at the speed at which that kernel takes
``REFERENCE_S``: the time the program would have taken on the reference host.
The kernel is part of the benchmark, so a change to the program cannot move
it.  Over 25 minutes of alternating repetitions the restated medians of 20 s
windows spread 30-45 % less than the raw ones (IQR/median 3-7 % against
5-9 %), through a host episode that slowed the raw readings by 10-17 %.

Raw readings stay in the report: ``host.speed`` and ``host.raw_*``.
"""

from __future__ import annotations

import gc
import time

#: Seconds one kernel pass takes on the sandbox, between its fast (~9 ms) and
#: its usual (~11 ms) level.  A yardstick, not a claim: on another machine
#: every restated time moves by the same factor, for the parent and for the
#: change alike.
REFERENCE_S = 0.0100
#: Kernel passes per sample.
PASSES = 2


def kernel(size: int = 30000) -> int:
    """Dict, tuple, hash, small-string and sort work: what the program is made of."""
    counts = {}
    total = 0
    for index in range(size):
        key = (index % 977, index % 13)
        counts[key] = counts.get(key, 0) + 1
        total += len(str(index)) + hash(key) % 7
    ranked = sorted(counts.items(), key=lambda item: item[1])
    return total + len(ranked)


def sample() -> float:
    """Mean seconds of one kernel pass, now.

    The collector is held off meanwhile: a full collection walks the
    program's heap, and the yardstick must not depend on the program.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        for _ in range(PASSES):
            kernel()
        return (time.perf_counter() - began) / PASSES
    finally:
        if enabled:
            gc.enable()


def speed(before: float, after: float) -> float:
    """Host speed between two samples: 1 at the reference, 0.5 when twice as slow."""
    return REFERENCE_S / ((before + after) / 2)


class Gauge:
    """Brackets stretches of work between samples; one sample serves two stretches."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Start a stretch now (after work that is not to be counted)."""
        self.mark = sample()

    def since(self) -> float:
        """Host speed over the stretch that ends now; the next one starts here."""
        before, self.mark = self.mark, sample()
        return speed(before, self.mark)
