"""End-to-end inference pipeline.

Chains the stages the paper's measurement system performs:

1. decode MRT archives into route blocks (optional -- callers may start
   from observations, lowered to blocks),
2. sanitize the routes (Section 4.1) and deduplicate them into unique
   ``(path, comm)`` tuples, in one loop,
3. run the column-based inference (Section 5),
4. summarise the classification.

The pipeline object is what the examples and the Table 3 experiment drive;
each stage can also be used on its own.  Step 2 is
:meth:`~repro.sanitize.filters.Sanitizer.dedup_block`, the loop every shard
of the streaming engine runs, with one dedup set for the whole run.  Every
stage runs in the calling process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

from repro.bgp.announcement import PathCommTuple, RouteBlock, RouteObservation, iter_blocks
from repro.bgp.asn import ASNRegistry
from repro.bgp.prefix import PrefixAllocation
from repro.collectors.archive import iter_route_blocks_from_mrt
from repro.core.column import ColumnInference
from repro.core.results import ClassificationResult
from repro.core.row import RowInference
from repro.core.thresholds import Thresholds
from repro.sanitize.filters import SANITIZE_BLOCK_SIZE, SanitationStats, Sanitizer


@dataclass
class PipelineResult:
    """Everything one pipeline run produced."""

    result: ClassificationResult
    tuples: List[PathCommTuple]
    sanitation: SanitationStats = field(default_factory=SanitationStats)
    #: ``False`` when the input bypassed sanitation (``run_from_tuples``):
    #: the sanitation stats are then all-zero by construction, and no raw
    #: observation count exists to report.
    sanitized: bool = True

    @property
    def observations_in(self) -> int:
        """Raw observations sanitized (0 for a pre-sanitized tuple run)."""
        return self.sanitation.observations_in

    @property
    def unique_tuples(self) -> int:
        """Number of unique ``(path, comm)`` tuples after sanitation."""
        return len(self.tuples)

    def summary(self) -> Dict[str, int]:
        """Flat summary combining sanitation and classification figures.

        ``observations_in`` is only reported for runs that actually consumed
        raw observations; pre-sanitized tuple runs have no meaningful raw
        observation count and claiming one would misstate the provenance.
        """
        summary = {
            "unique_tuples": self.unique_tuples,
            **self.result.summary(),
        }
        if self.sanitized:
            summary["observations_in"] = self.observations_in
        return summary


class InferencePipeline:
    """Raw collector data in, per-AS community usage classification out."""

    def __init__(
        self,
        *,
        thresholds: Optional[Thresholds] = None,
        asn_registry: Optional[ASNRegistry] = None,
        prefix_allocation: Optional[PrefixAllocation] = None,
        algorithm: str = "column",
    ) -> None:
        if algorithm not in ("column", "row"):
            raise ValueError(f"unknown algorithm {algorithm!r}")
        self.thresholds = thresholds or Thresholds()
        self.asn_registry = asn_registry
        self.prefix_allocation = prefix_allocation
        self.algorithm = algorithm

    # -- stage helpers --------------------------------------------------------------------
    def _make_inference(self) -> Union[ColumnInference, RowInference]:
        if self.algorithm == "row":
            return RowInference(self.thresholds)
        return ColumnInference(self.thresholds)

    def _run_blocks(self, blocks: Iterable[RouteBlock]) -> PipelineResult:
        sanitizer = Sanitizer(
            asn_registry=self.asn_registry, prefix_allocation=self.prefix_allocation
        )
        seen: Set[Tuple] = set()
        tuples = [
            PathCommTuple(*key)
            for block in blocks
            for _index, key in sanitizer.dedup_block(block, seen)
        ]
        return PipelineResult(self._make_inference().run(tuples), tuples, sanitizer.stats)

    # -- entry points ----------------------------------------------------------------------
    def run_from_observations(self, observations: Iterable[RouteObservation]) -> PipelineResult:
        """Sanitize, deduplicate, and classify observations.

        *observations* may be any iterable, including a lazy generator: the
        input is lowered to route blocks of :data:`SANITIZE_BLOCK_SIZE` one
        at a time, so only one block plus the deduplicated unique tuples are
        ever held in memory.
        """
        blocks = iter_blocks(observations, SANITIZE_BLOCK_SIZE)
        return self._run_blocks(map(RouteBlock.from_observations, blocks))

    def run_from_tuples(self, tuples: Iterable[PathCommTuple]) -> PipelineResult:
        """Classify pre-sanitized ``(path, comm)`` tuples directly.

        No sanitation happens here, so the result honestly reports all-zero
        sanitation stats and ``sanitized=False`` instead of fabricating a
        raw observation count from the tuple count.
        """
        materialized = list(tuples)
        result = self._make_inference().run(materialized)
        return PipelineResult(result, materialized, sanitized=False)

    def run_from_mrt(self, blobs: Mapping[str, bytes]) -> PipelineResult:
        """Decode per-collector MRT blobs, then sanitize and classify.

        Decoding is lazy: the decoder's route blocks (one attribute memo for
        the run) go straight into the sanitizer's loop as columns, so a route
        whose outcome is memoised never becomes an object.
        """
        return self._run_blocks(iter_route_blocks_from_mrt(blobs, SANITIZE_BLOCK_SIZE))
