"""Multi-process execution of the streaming engine.

* :mod:`repro.parallel.pool` -- shard-affine sanitation worker processes
  (the per-peer-AS partitioning of :mod:`repro.stream.sharding`);
* :mod:`repro.parallel.stream` -- the streaming engine with its shard
  workers in other processes.

Entry point: ``ParallelStreamEngine``, or ``--workers N`` on the ``stream``
CLI command.  Batch inference (``classify``, ``InferencePipeline``) runs in
one process.
"""

from repro.parallel.pool import ShardProcessPool
from repro.parallel.stream import ParallelStreamEngine

__all__ = ["ParallelStreamEngine", "ShardProcessPool"]
