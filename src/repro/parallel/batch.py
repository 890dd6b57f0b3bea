"""Parallel batch sanitation + deduplication.

Splits an observation stream across the :class:`ShardProcessPool` by
collector-peer AS (the :func:`~repro.stream.sharding.shard_of` partitioning)
and merges the per-shard outcomes back into the exact unique-tuple list a
serial :meth:`Sanitizer.to_unique_tuples` pass would produce:

* every shard owns a disjoint slice of the ``(path, comm)`` tuple space, so
  per-shard dedup equals global dedup;
* the pool returns each batch's new tuples sorted by their global sequence
  number, so concatenating batches restores the serial first-appearance
  order tuple-for-tuple.

The objects crossing the process boundary pickle compactly:
:class:`~repro.bgp.path.ASPath` and community values define ``__reduce__``
codecs that serialise to positional integer tuples.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.bgp.announcement import PathCommTuple, RouteObservation, iter_blocks
from repro.bgp.asn import ASNRegistry
from repro.bgp.prefix import PrefixAllocation
from repro.core.pipeline import SANITIZE_BLOCK_SIZE
from repro.sanitize.filters import SanitationConfig, SanitationStats
from repro.parallel.pool import ShardProcessPool


def parallel_unique_tuples(
    observations: Iterable[RouteObservation],
    workers: int,
    *,
    asn_registry: Optional[ASNRegistry] = None,
    prefix_allocation: Optional[PrefixAllocation] = None,
    sanitation: Optional[SanitationConfig] = None,
) -> Tuple[List[PathCommTuple], SanitationStats]:
    """Sanitize + deduplicate *observations* on *workers* processes.

    Returns ``(unique tuples, merged sanitation stats)`` identical to a
    serial :meth:`Sanitizer.to_unique_tuples` run over the same iterable.
    The input may be lazy; it is shipped to the fleet in blocks of
    :data:`~repro.core.pipeline.SANITIZE_BLOCK_SIZE`.
    """
    unique: List[PathCommTuple] = []
    with ShardProcessPool(
        shards=workers,
        workers=workers,
        asn_registry=asn_registry,
        prefix_allocation=prefix_allocation,
        sanitation=sanitation,
    ) as pool:
        for batch in iter_blocks(enumerate(observations), SANITIZE_BLOCK_SIZE):
            unique.extend(
                PathCommTuple(*pair) for _seq, _shard, pair in pool.process_batch(batch)
            )
        stats = pool.sanitation_stats()
    return unique, stats
