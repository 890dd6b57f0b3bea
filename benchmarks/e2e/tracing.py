"""In-memory spans for the traced pass, recorded from the benchmark's side.

The program under test carries no timers of its own, so the per-layer numbers
come from here: delegating proxies sit on the objects the engine calls into
(router, clock, classifier, publisher, store) and a stamping wrapper sits on
the event source.  Every span records its name, start, end and the span that
was open when it began; a layer's self time is its duration minus the part
covered by its direct children.  Spans live in a list until the run ends.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterator, List, Optional


class Tracer:
    """A span list plus the stack of spans currently open."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]``; parent ``-1`` is the root.
        self.spans: List[list] = []
        self._open: List[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, function: Callable) -> Callable:
        """*function* with a span around every call."""

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    # -- reading the spans back ---------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        return [end - start for span, start, end, _ in self.spans if span == name]

    def busy(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self, name: str) -> List[float]:
        """Per-span duration minus what its direct children cover."""
        covered: Dict[int, float] = {}
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        return [
            (end - start) - covered.get(index, 0.0)
            for index, (span, start, end, _) in enumerate(self.spans)
            if span == name
        ]

    def as_rows(self) -> List[Dict[str, object]]:
        """Spans as JSON-ready rows, times relative to the first span."""
        if not self.spans:
            return []
        origin = self.spans[0][1]
        return [
            {"id": index, "name": name, "start_s": start - origin,
             "end_s": end - origin, "parent": parent}
            for index, (name, start, end, parent) in enumerate(self.spans)
        ]


class Proxy:
    """Delegates everything to *target*; the named methods get a span.

    ``spans`` maps a method name to the span name recorded around it
    (``"__call__"`` traces calling the proxy itself, which is how the
    ``on_window`` publisher is wrapped).  Attributes that are not traced are
    read through on every access, so live properties stay live.
    """

    def __init__(self, target: object, tracer: Tracer, spans: Dict[str, str]) -> None:
        self.__dict__["_target"] = target
        self.__dict__["_tracer"] = tracer
        self.__dict__["_spans"] = spans

    def __getattr__(self, name: str):
        value = getattr(self._target, name)
        span = self._spans.get(name)
        if span is None:
            return value
        traced = self._tracer.wrap(span, value)
        # Bound methods of one target are stable: cache the wrapper so later
        # lookups skip __getattr__ altogether.
        self.__dict__[name] = traced
        return traced

    def __setattr__(self, name: str, value: object) -> None:
        setattr(self._target, name, value)

    def __len__(self) -> int:
        return len(self._target)  # type: ignore[arg-type]

    def __call__(self, *args, **kwargs):
        call = self.__dict__.get("_call")
        if call is None:
            span = self._spans.get("__call__")
            call = self._target if span is None else self._tracer.wrap(span, self._target)
            self.__dict__["_call"] = call
        return call(*args, **kwargs)


class StampedSource:
    """A block source that notes when each block is handed to the engine.

    ``handed`` is the clock reading taken just before the newest block was
    yielded; the window-publish hook subtracts it to get "block handed in ->
    snapshot durable".  With a tracer it also records one span per block
    fetch (decode and observation building happen inside the fetch) and one
    per block the engine works on, and opens ``engine.drain`` when the feed
    is exhausted -- the caller closes that one when ``run()`` returns.
    """

    def __init__(self, source: object, tracer: Optional[Tracer] = None) -> None:
        self.source = source
        self.tracer = tracer
        self.handed = 0.0
        self.blocks = 0
        self.drain_span = -1

    def iter_blocks(self, size: int) -> Iterator[list]:
        tracer = self.tracer
        blocks = iter(self.source.iter_blocks(size))  # type: ignore[attr-defined]
        while True:
            if tracer is not None:
                fetch = tracer.begin("source.next_block")
            block = next(blocks, None)
            if tracer is not None:
                tracer.end(fetch)
            if block is None:
                break
            self.blocks += 1
            if tracer is None:
                self.handed = time.perf_counter()
                yield block
            else:
                work = tracer.begin("engine.ingest_block")
                self.handed = tracer.spans[work][1]
                yield block
                tracer.end(work)
        if tracer is not None:
            self.drain_span = tracer.begin("engine.drain")
