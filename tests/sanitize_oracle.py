"""Reference sanitation: one observation at a time, then first-appearance dedup.

Production sanitizes and deduplicates in one memoised loop over route-block
columns (:meth:`repro.sanitize.filters.Sanitizer.dedup_block`, which batch
``classify`` and every stream shard run).  This is the plain statement of
Section 4.1 it must equal: every observation goes through the prefix check
and :meth:`~repro.sanitize.filters.Sanitizer.sanitize_path` on its own, with
no memo, no block and no columns, and the survivors are deduplicated into
``(path, comm)`` tuples in the order they first appear.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from repro.bgp.announcement import PathCommTuple, RouteObservation
from repro.sanitize.filters import Sanitizer


class ObservationSanitizer(Sanitizer):
    """:class:`Sanitizer` plus the per-observation entry points."""

    def sanitize_observation(self, observation: RouteObservation) -> Optional[RouteObservation]:
        """Sanitize one observation; return ``None`` if it must be dropped."""
        self.stats.observations_in += 1
        if self.prefix_allocation is not None and not self.prefix_allocation.is_allocated(
            observation.prefix
        ):
            self.stats.dropped_unallocated_prefix += 1
            return None
        path = self.sanitize_path(observation.path, observation.peer_asn)
        if path is None:
            return None
        self.stats.observations_out += 1
        return observation if path is observation.path else replace(observation, path=path)

    def sanitize_observations(
        self, observations: Iterable[RouteObservation]
    ) -> Iterator[RouteObservation]:
        """Yield the sanitized subset of *observations*."""
        for observation in observations:
            sanitized = self.sanitize_observation(observation)
            if sanitized is not None:
                yield sanitized

    def to_unique_tuples(self, observations: Iterable[RouteObservation]) -> List[PathCommTuple]:
        """Sanitize, then deduplicate into unique ``(path, comm)`` tuples."""
        return unique_tuples(self.sanitize_observations(observations))


def unique_tuples(observations: Iterable[RouteObservation]) -> List[PathCommTuple]:
    """The ``(path, comm)`` pairs of *observations*, each once, in order of
    first appearance."""
    seen: Set[Tuple] = set()
    result: List[PathCommTuple] = []
    for observation in observations:
        key = (observation.path, observation.communities)
        if key not in seen:
            seen.add(key)
            result.append(PathCommTuple(*key))
    return result
