"""Streaming classification: incremental, windowed, checkpointable inference.

This package turns the batch pipeline into an event-driven engine that keeps
a per-AS community-usage classification continuously up to date over live
BGP update feeds.  See :mod:`repro.stream.engine` for the orchestration and
:mod:`repro.stream.incremental` for the exactness argument.
"""

from repro.stream.checkpoint import CheckpointError, CheckpointManager
from repro.stream.engine import (
    DEFAULT_INGEST_BLOCK_SIZE,
    StreamConfig,
    StreamEngine,
    StreamStats,
    WindowSnapshot,
)
from repro.stream.incremental import ColumnarColumnClassifier, IncrementalStats
from repro.stream.sharding import ShardRouter, ShardWorker, shard_of
from repro.stream.sources import (
    BlockSource,
    MemorySource,
    MRTReplaySource,
    ScenarioSource,
    iter_event_blocks,
)
from repro.stream.window import ClosedWindow, WindowClock, WindowPolicy, WindowSpec

__all__ = [
    "BlockSource",
    "CheckpointError",
    "CheckpointManager",
    "ClosedWindow",
    "ColumnarColumnClassifier",
    "DEFAULT_INGEST_BLOCK_SIZE",
    "IncrementalStats",
    "MemorySource",
    "MRTReplaySource",
    "ScenarioSource",
    "ShardRouter",
    "ShardWorker",
    "StreamConfig",
    "StreamEngine",
    "StreamStats",
    "WindowClock",
    "WindowPolicy",
    "WindowSnapshot",
    "WindowSpec",
    "iter_event_blocks",
    "shard_of",
]
