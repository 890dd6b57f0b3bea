"""The row-based baseline (paper Section 5.7, Listing 2).

The baseline processes one ``(path, comm)`` tuple at a time, without the
Cond1 / Cond2 safeguards:

* **tagging pass** -- for every AS on the path, count tagger evidence when a
  community carrying its ASN is present, silent evidence otherwise;
* **forwarding pass** -- walking the path from the origin towards the peer,
  when the community of the downstream neighbour ``A_{x+1}`` is missing the
  AS ``A_x`` receives cleaner evidence; when it is present every AS between
  the collector and ``A_{x+1}`` receives forward evidence (they all must
  have forwarded it).

Every tuple's contribution is independent of all counters, so the whole
algorithm is one commutative sum of per-tuple deltas: :func:`row_tuple_delta`
computes one tuple's contribution and :func:`count_row_phase` folds any
number of them.

The paper argues (and Section 6 shows) that this approach cannot distinguish
hidden behaviour from silence/cleaning and is therefore prone to
misclassification; it is included as a batch comparison baseline (``repro
classify --algorithm row``, ``InferencePipeline(algorithm="row")``) and
exercised by the ablation benchmark.  The streaming engine runs the column
algorithm only.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as _np

from repro.bgp.announcement import PathCommTuple
from repro.bgp.asn import ASN
from repro.core.results import ClassificationResult
from repro.core.thresholds import Thresholds

#: The per-tuple form counted here: ``(path ASNs, upper fields of output(A_1))``.
PreparedTuple = Tuple[Tuple[ASN, ...], FrozenSet[ASN]]

#: Per-AS four-component ``[dt, ds, df, dc]`` counter deltas.
RowDelta = Dict[ASN, List[int]]


def prepare_tuple(item: PathCommTuple) -> PreparedTuple:
    """Pre-compute the membership-test form of one ``(path, comm)`` tuple."""
    return (item.path.asns, item.communities.upper_fields())


def row_tuple_delta(prepared: PreparedTuple, delta: Optional[RowDelta] = None) -> RowDelta:
    """The ``(t, s, f, c)`` contributions of one prepared tuple (order-free).

    Folds into *delta* in place when one is given (how
    :func:`count_row_phase` sums a chunk), else returns a fresh mapping.
    """
    asns, uppers = prepared
    if delta is None:
        delta = {}

    def entry(asn: ASN) -> List[int]:
        found = delta.get(asn)
        if found is None:
            found = delta[asn] = [0, 0, 0, 0]
        return found

    # Tagging: every AS of the path, tagger when its own community is present.
    for asn in asns:
        if asn in uppers:
            entry(asn)[0] += 1
        else:
            entry(asn)[1] += 1
    # Forwarding: walk origin -> peer; a missing downstream community is
    # cleaner evidence, a present one is forward evidence for all upstreams.
    n = len(asns)
    for x in range(n - 1, 0, -1):
        if asns[x] not in uppers:
            entry(asns[x - 1])[3] += 1
        else:
            for j in range(x):
                entry(asns[j])[2] += 1
    return delta


def count_row_phase(prepared: Sequence[PreparedTuple]) -> RowDelta:
    """Summed per-AS deltas of a chunk of prepared tuples.

    Pure in *prepared*: what :meth:`RowInference.run` turns into a result.
    """
    delta: RowDelta = {}
    for item in prepared:
        row_tuple_delta(item, delta)
    return delta


class RowInference:
    """Runs the row-based baseline over ``(path, comm)`` tuples."""

    def __init__(self, thresholds: Optional[Thresholds] = None) -> None:
        self.thresholds = thresholds or Thresholds()

    def run(self, tuples: Sequence[PathCommTuple]) -> ClassificationResult:
        """Infer classifications with the row-based counting rules.

        Every AS of a path gets tagging evidence, so the summed delta holds
        one row per observed AS.
        """
        delta = count_row_phase([prepare_tuple(item) for item in tuples])
        asns = sorted(delta)
        counters = _np.array([delta[asn] for asn in asns], dtype=_np.int64).reshape(-1, 4).T
        return ClassificationResult(asns, counters, self.thresholds, algorithm="row")
