"""Multi-core parallel execution layer.

Map-reduce style execution of the batch pipeline and the streaming engine
over OS processes:

* :mod:`repro.parallel.pool` -- shard-affine sanitation worker processes
  (the per-peer-AS partitioning of :mod:`repro.stream.sharding`);
* :mod:`repro.parallel.batch` -- parallel sanitize + dedup for the batch
  pipeline, byte-identical to the serial pass;
* :mod:`repro.parallel.inference` -- chunk-parallel column / row counting
  with per-phase shard-merge barriers, byte-identical to the serial
  algorithms;
* :mod:`repro.parallel.stream` -- the streaming engine with its shard
  workers in other processes.

Entry points most callers want: ``InferencePipeline(workers=N)`` (batch) and
``ParallelStreamEngine`` (streaming), or simply ``--workers N`` on the
``classify`` / ``stream`` CLI commands.
"""

from repro.parallel.batch import parallel_unique_tuples
from repro.parallel.inference import (
    MIN_PARALLEL_TUPLES,
    ParallelColumnInference,
    ParallelRowInference,
    split_chunks,
)
from repro.parallel.pool import ShardProcessPool
from repro.parallel.stream import ParallelStreamEngine

__all__ = [
    "MIN_PARALLEL_TUPLES",
    "ParallelColumnInference",
    "ParallelRowInference",
    "ParallelStreamEngine",
    "ShardProcessPool",
    "parallel_unique_tuples",
    "split_chunks",
]
