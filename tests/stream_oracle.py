"""Differential oracle for the streaming engine.

Replays a feed one event at a time with none of the engine's machinery --
no shards, blocks, interning, memo, or incremental phase records -- and
classifies the live tuple set with the object-tuple *reference* inference
(:mod:`column_oracle`, the paper's listing) every time a window closes.  The
engine's documented invariant is "what a window publishes == batch over the
tuples live at that point"; production batch counts with the engine's own
kernels, so the reference stands in for it here (``tests/test_column_oracle.py``
holds production batch to the same reference) and the sentence stays a
statement about two implementations.
"""

from __future__ import annotations

from column_oracle import ListingInference, assert_same_result, counter_state
from sanitize_oracle import ObservationSanitizer

from repro.bgp.announcement import PathCommTuple
from repro.stream import ColumnarColumnClassifier, WindowClock, WindowPolicy


def reference_windows(events, spec, *, asn_registry=None):
    """``(windows, sanitation stats dict)`` of replaying *events* under *spec*.

    One ``(start, end, events_total, unique_tuples, code map, counters,
    changed)`` tuple per closed window, the final close included.
    """
    sanitizer = ObservationSanitizer(asn_registry=asn_registry)
    clock = WindowClock(spec)
    inference = ListingInference()
    last_seen = {}  # sanitized (path, comm) -> newest event time it was seen at
    windows = []
    codes = {}
    events_total = 0

    def close(closed):
        nonlocal codes
        if spec.policy is WindowPolicy.SLIDING:
            cutoff = closed.end - spec.effective_horizon
            for key in [key for key, seen in last_seen.items() if seen < cutoff]:
                del last_seen[key]
        result = inference.run([PathCommTuple(path, comm) for path, comm in last_seen])
        changed = result.changed_since(codes)
        codes = result.as_code_map()
        windows.append(
            (closed.start, closed.end, events_total, len(last_seen), codes,
             counter_state(result), changed)
        )

    for event in events:
        closed = clock.advance(event.timestamp)
        if closed is not None:
            close(closed)  # the crossing event belongs to the next window
        events_total += 1
        kept = sanitizer.sanitize_observation(event)
        if kept is not None:
            key = (kept.path, kept.communities)
            last_seen[key] = max(event.timestamp, last_seen.get(key, event.timestamp))
    closed = clock.close_current()
    if closed is not None:
        close(closed)
    return windows, sanitizer.stats.as_dict()


def engine_windows(engine):
    """The engine's retained snapshots in :func:`reference_windows` form."""
    return [
        (s.window_start, s.window_end, s.events_total, s.unique_tuples,
         s.result.as_code_map(), counter_state(s.result), dict(s.changed))
        for s in engine.snapshots
    ]


def assert_packed_matches_batch(tuples):
    """A fresh stream classifier fed *tuples* == the reference inference over them.

    This is "packed kernels over interned groups == object kernels" on whole
    inferences.
    """
    batch = ListingInference()
    want = batch.run(tuples)
    classifier = ColumnarColumnClassifier()
    for item in tuples:
        classifier.add_tuple(item)
    assert_same_result(classifier.update(), want)
    assert classifier.report == batch.report
