"""Multi-process counting for the column and row inference algorithms.

Both algorithms spend essentially all their time in counting phases that are
pure functions of ``(tuple chunk, decisions)`` and produce commutative
per-AS sums (see :mod:`repro.core.column`).  That makes them map-reducible:
split the prepared tuples into one chunk per worker, count every phase on
all chunks concurrently, and merge the per-chunk deltas at the phase barrier
before the decision view for the next phase is taken.

Because the merged deltas are exactly the deltas a single process would have
produced over the concatenated chunk list, the resulting counter stores,
decision views, stall behaviour, and hence the final
:class:`~repro.core.results.ClassificationResult` are **identical** to the
serial :class:`~repro.core.column.ColumnInference` /
:class:`~repro.core.row.RowInference` — a property the test suite pins down
tuple-for-tuple.

The chunks are shipped to the pool workers once, through the pool
initializer (a no-copy fork inheritance on platforms with the ``fork`` start
method); per-phase messages then carry only ``(chunk index, column,
decision view)``.
"""

from __future__ import annotations

import multiprocessing
from contextlib import contextmanager
from multiprocessing.pool import Pool
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.column import (
    ColumnInference,
    PhaseCounter,
    PhaseDelta,
    PreparedTuple,
    count_column_phase,
    merge_phase_deltas,
)
from repro.core.counters import DecisionView
from repro.core.row import RowDelta, RowInference, count_row_phase
from repro.core.thresholds import Thresholds

#: Below this many tuples the pool start-up cost dwarfs the counting work.
MIN_PARALLEL_TUPLES = 256

#: The prepared tuple chunks of the current pool's workers (set by the initializer).
_WORKER_CHUNKS: List[List[PreparedTuple]] = []


def _init_chunks(chunks: List[List[PreparedTuple]]) -> None:
    """Pool initializer: pin the prepared tuple chunks in the worker."""
    global _WORKER_CHUNKS
    _WORKER_CHUNKS = chunks


def _count_column_chunk(task: Tuple[int, str, int, DecisionView]) -> Tuple[PhaseDelta, int]:
    """Count one phase of one column over one worker-resident chunk."""
    chunk_index, phase, column, decisions = task
    return count_column_phase(_WORKER_CHUNKS[chunk_index], phase, column, decisions)


def _count_row_chunk(chunk_index: int) -> RowDelta:
    """Count the row deltas of one worker-resident chunk."""
    return count_row_phase(_WORKER_CHUNKS[chunk_index])


def split_chunks(prepared: Sequence[PreparedTuple], parts: int) -> List[List[PreparedTuple]]:
    """Split a work-unit sequence into at most *parts* contiguous, balanced chunks."""
    parts = max(1, min(parts, len(prepared)))
    size, remainder = divmod(len(prepared), parts)
    chunks: List[List[PreparedTuple]] = []
    start = 0
    for index in range(parts):
        end = start + size + (1 if index < remainder else 0)
        chunks.append(list(prepared[start:end]))
        start = end
    return chunks


@contextmanager
def _chunk_pool(
    prepared: List[PreparedTuple], workers: int, context: Optional[str]
) -> Iterator[Tuple[Pool, int]]:
    """A pool with *prepared* pinned in one chunk per worker, and the chunk count."""
    chunks = split_chunks(prepared, workers)
    ctx = multiprocessing.get_context(context)
    with ctx.Pool(len(chunks), initializer=_init_chunks, initargs=(chunks,)) as pool:
        yield pool, len(chunks)


class ParallelColumnInference(ColumnInference):
    """Byte-identical drop-in for :class:`ColumnInference` on N processes."""

    def __init__(
        self,
        thresholds: Optional[Thresholds] = None,
        *,
        workers: int = 2,
        max_columns: Optional[int] = None,
        stop_when_stalled: bool = True,
        context: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        super().__init__(
            thresholds, max_columns=max_columns, stop_when_stalled=stop_when_stalled
        )
        self.workers = workers
        self._context = context

    @contextmanager
    def _phase_counter(self, prepared: List[PreparedTuple]) -> Iterator[PhaseCounter]:
        """Count each phase on every pinned chunk and merge at the barrier."""
        if self.workers == 1 or len(prepared) < MIN_PARALLEL_TUPLES:
            with super()._phase_counter(prepared) as count_phase:
                yield count_phase
            return
        with _chunk_pool(prepared, self.workers, self._context) as (pool, parts):

            def count_phase(
                phase: str, column: int, decisions: DecisionView
            ) -> Tuple[PhaseDelta, int]:
                outcomes = pool.map(
                    _count_column_chunk,
                    [(index, phase, column, decisions) for index in range(parts)],
                )
                return (
                    merge_phase_deltas(delta for delta, _ in outcomes),
                    sum(increments for _, increments in outcomes),
                )

            yield count_phase


class ParallelRowInference(RowInference):
    """Byte-identical drop-in for :class:`RowInference` on N processes."""

    def __init__(
        self,
        thresholds: Optional[Thresholds] = None,
        *,
        workers: int = 2,
        context: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        super().__init__(thresholds)
        self.workers = workers
        self._context = context

    def _count(self, prepared: List[PreparedTuple]) -> Iterable[RowDelta]:
        """One row delta per pinned chunk."""
        if self.workers == 1 or len(prepared) < MIN_PARALLEL_TUPLES:
            return super()._count(prepared)
        with _chunk_pool(prepared, self.workers, self._context) as (pool, parts):
            return pool.map(_count_row_chunk, range(parts))
