"""Interned columnar representation of sanitized ``(path, comm)`` tuples.

Upstream of counting every tuple is an :class:`~repro.bgp.path.ASPath` plus
a :class:`~repro.bgp.community.CommunitySet`.  On a feed that re-announces
the same tuples window after window, answering the counting kernels'
membership questions (``A_x in output(A_1)``) on those objects again and
again would dominate the runtime.

This module provides the interned form the streaming classifiers count on.
(Both paths count ``(as-index row, hits, multiplicity)`` groups with one set
of kernels; they differ in how they get there.  A stream interns, because
it meets the same tuple again and retracts it later; the one-shot batch has
nothing to remember and lowers its tuples in bulk instead --
:func:`repro.core.matrix.lower_tuples`.)

* :class:`TupleTable` interns each unique AS path and community set exactly
  once.  ASNs get dense indices into a flat ``array('Q')`` symbol table;
  paths are stored as packed ``array('Q')`` runs of AS indices with an
  offset index (one slice per path); community sets keep their upper-field
  sets.  For every distinct ``(path, comm)`` pair the table computes a
  **hits bitmask** once: bit ``p`` is set iff ``path[p]``'s ASN appears as
  an upper field of the community set.  Lowered, the bitmask is a row of
  the matrix's hit plane, so every membership test the counting kernels
  perform afterwards is one boolean cell.
* :func:`materialize_groups` lowers ``(path_id, hits) -> multiplicity``
  aggregates into the one form the kernels in :mod:`repro.core.column`
  count: :class:`~repro.core.matrix.GroupMatrix` buckets gathered in bulk
  from the packed paths (:meth:`TupleTable.path_cells`), whatever the size
  of the set and the length of its paths.  Tuples sharing a path and a hits
  bitmask are one group whose contribution is multiplied -- the kernels
  never look at the community set again.

Because every counting phase is a pure function of ``(tuples, decisions)``
and all phase contributions are commutative sums, the representation cannot
change a single output byte — the conformance tests pin the packed kernels
against the paper's listing over object tuples (``tests/column_oracle.py``)
tuple for tuple.
"""

from __future__ import annotations

from array import array
from typing import Collection, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as _np

from repro.bgp.announcement import PathCommTuple
from repro.bgp.asn import ASN
from repro.bgp.community import CommunitySet
from repro.bgp.path import ASPath
from repro.core.matrix import GroupMatrix

#: A tuple interned into a :class:`TupleTable`: ``(path_id, comm_id)``.
TupleRef = Tuple[int, int]

#: Aggregated multiplicities of one batch: ``(path_id, hits) -> count``.
GroupCounts = Dict[Tuple[int, int], int]


def _hits_bitmask(asns: Sequence[ASN], uppers: FrozenSet[ASN]) -> int:
    """Bit ``p`` set iff ``asns[p]`` appears as an upper field."""
    hits = 0
    for position, asn in enumerate(asns):
        if asn in uppers:
            hits |= 1 << position
    return hits


class TupleTable:
    """Append-only symbol tables interning paths, community sets, and ASNs.

    Ids are dense and assigned in first-intern order, so a table restored
    from :meth:`state_dict` output assigns identical ids to identical
    inputs — the property the checkpoint round-trip relies on.
    """

    __slots__ = (
        "_as_ids",
        "_as_values",
        "_path_ids",
        "_path_objs",
        "_path_offsets",
        "_path_data",
        "_comm_ids",
        "_comm_sets",
        "_comm_uppers",
        "_pair_hits",
        "max_path_length",
    )

    def __init__(self) -> None:
        self._as_ids: Dict[ASN, int] = {}
        self._as_values: "array[int]" = array("Q")
        self._path_ids: Dict[Tuple[ASN, ...], int] = {}
        #: Per-path interned :class:`ASPath` (reconstruction without rebuild).
        self._path_objs: List[ASPath] = []
        #: Packed persisted form: offsets into one flat AS-index run array.
        self._path_offsets: "array[int]" = array("Q", [0])
        self._path_data: "array[int]" = array("Q")
        self._comm_ids: Dict[CommunitySet, int] = {}
        self._comm_sets: List[CommunitySet] = []
        self._comm_uppers: List[FrozenSet[ASN]] = []
        #: ``(path_id, comm_id) -> hits`` bitmask cache (computed once).
        self._pair_hits: Dict[TupleRef, int] = {}
        self.max_path_length = 0

    # -- sizes -------------------------------------------------------------------------
    @property
    def as_count(self) -> int:
        """Number of distinct ASNs interned so far."""
        return len(self._as_values)

    @property
    def path_count(self) -> int:
        """Number of distinct paths interned so far."""
        return len(self._path_objs)

    @property
    def comm_count(self) -> int:
        """Number of distinct community sets interned so far."""
        return len(self._comm_sets)

    def __len__(self) -> int:
        """Number of distinct ``(path, comm)`` pairs seen."""
        return len(self._pair_hits)

    # -- interning ---------------------------------------------------------------------
    def intern_asn(self, asn: ASN) -> int:
        """Dense index of *asn*, assigned on first sight."""
        index = self._as_ids.get(asn)
        if index is None:
            index = self._as_ids[asn] = len(self._as_values)
            self._as_values.append(asn)
        return index

    def intern_path(self, path: ASPath) -> int:
        """Id of *path*'s ASN sequence, interning it on first sight."""
        asns = path.asns
        path_id = self._path_ids.get(asns)
        if path_id is None:
            path_id = self._intern_path_asns(asns, path)
        return path_id

    def _intern_path_asns(self, asns: Tuple[ASN, ...], path: Optional[ASPath]) -> int:
        path_id = self._path_ids[asns] = len(self._path_objs)
        # Inlined intern_asn: this loop runs once per ASN of every new path
        # and is the hottest part of interning.
        as_ids = self._as_ids
        as_values = self._as_values
        indices = []
        for asn in asns:
            index = as_ids.get(asn)
            if index is None:
                index = as_ids[asn] = len(as_values)
                as_values.append(asn)
            indices.append(index)
        self._path_objs.append(path if path is not None else ASPath(asns))
        self._path_data.extend(indices)
        self._path_offsets.append(len(self._path_data))
        if len(asns) > self.max_path_length:
            self.max_path_length = len(asns)
        return path_id

    def intern_comm(self, communities: CommunitySet) -> int:
        """Id of *communities*, interning it on first sight."""
        comm_id = self._comm_ids.get(communities)
        if comm_id is None:
            comm_id = self._comm_ids[communities] = len(self._comm_sets)
            self._comm_sets.append(communities)
            self._comm_uppers.append(communities.upper_fields())
        return comm_id

    def intern(self, path: ASPath, communities: CommunitySet) -> TupleRef:
        """Intern one ``(path, comm)`` pair; computes its hits bitmask once."""
        ref = (self.intern_path(path), self.intern_comm(communities))
        if ref not in self._pair_hits:
            self._pair_hits[ref] = _hits_bitmask(
                self._path_objs[ref[0]].asns, self._comm_uppers[ref[1]]
            )
        return ref

    def intern_tuple(self, item: PathCommTuple) -> TupleRef:
        """Intern one :class:`PathCommTuple`."""
        return self.intern(item.path, item.communities)

    # -- lookup ------------------------------------------------------------------------
    def as_values(self) -> Sequence[ASN]:
        """Dense index -> ASN symbol table (index order)."""
        return self._as_values

    def path_of(self, path_id: int) -> ASPath:
        """The interned :class:`ASPath` behind *path_id*."""
        return self._path_objs[path_id]

    def comm_of(self, comm_id: int) -> CommunitySet:
        """The interned :class:`CommunitySet` behind *comm_id*."""
        return self._comm_sets[comm_id]

    def hits_of(self, path_id: int, comm_id: int) -> int:
        """The hits bitmask of an interned pair (cached)."""
        ref = (path_id, comm_id)
        hits = self._pair_hits.get(ref)
        if hits is None:
            hits = self._pair_hits[ref] = _hits_bitmask(
                self._path_objs[path_id].asns, self._comm_uppers[comm_id]
            )
        return hits

    def tuple_of(self, ref: TupleRef) -> PathCommTuple:
        """Reconstruct the :class:`PathCommTuple` behind *ref*."""
        return PathCommTuple(self._path_objs[ref[0]], self._comm_sets[ref[1]])

    def path_cells(self, path_ids: Collection[int]) -> Tuple["_np.ndarray", "_np.ndarray"]:
        """``(lengths, cells)``: the AS-index rows of *path_ids*, concatenated.

        One ragged gather over the packed runs instead of a row tuple per
        path.  Both results are copies and the views they were read through
        are gone on return: a live ``frombuffer`` view pins its ``array``, and
        the next intern that appends to it would raise ``BufferError``.
        """
        ids = _np.fromiter(path_ids, dtype=_np.int64, count=len(path_ids))
        offsets = _np.frombuffer(self._path_offsets, dtype=_np.uint64)
        starts = offsets[ids].astype(_np.int64)
        lengths = offsets[ids + 1].astype(_np.int64) - starts
        firsts = _np.cumsum(lengths) - lengths
        index = _np.arange(int(lengths.sum())) + _np.repeat(starts - firsts, lengths)
        return lengths, _np.frombuffer(self._path_data, dtype=_np.uint64)[index].astype(_np.int64)

    # -- (de)serialisation (checkpointing) ---------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Plain-data snapshot; ids are preserved by the append order."""
        return {
            "as_values": array("Q", self._as_values),
            "path_offsets": array("Q", self._path_offsets),
            "path_data": array("Q", self._path_data),
            "comm_sets": list(self._comm_sets),
            "max_path_length": self.max_path_length,
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore the table **in place** from :meth:`state_dict` output.

        In-place so every holder of this table instance (shard workers, the
        incremental classifier) observes the restored contents.
        """
        as_values = state["as_values"]
        offsets = state["path_offsets"]
        data = state["path_data"]
        comm_sets = state["comm_sets"]
        self.__init__()  # type: ignore[misc]
        self._as_values = array("Q", as_values)  # type: ignore[arg-type]
        self._as_ids = {asn: index for index, asn in enumerate(self._as_values)}
        self._path_offsets = array("Q", offsets)  # type: ignore[arg-type]
        self._path_data = array("Q", data)  # type: ignore[arg-type]
        symbols, bounds = self._as_values, self._path_offsets
        flat = [symbols[index] for index in self._path_data]
        for path_id in range(len(bounds) - 1):
            asns = tuple(flat[bounds[path_id] : bounds[path_id + 1]])
            self._path_objs.append(ASPath(asns))
            self._path_ids[asns] = path_id
        for comm_id, communities in enumerate(comm_sets):  # type: ignore[arg-type]
            self._comm_ids[communities] = comm_id
            self._comm_sets.append(communities)
            self._comm_uppers.append(communities.upper_fields())
        # Hits bitmasks are derived data; recomputed lazily on demand.
        self.max_path_length = state["max_path_length"]  # type: ignore[assignment]

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "TupleTable":
        """Rebuild a table from :meth:`state_dict` output."""
        table = cls()
        table.load_state(state)
        return table


def materialize_groups(
    table: TupleTable,
    counts: GroupCounts,
    cells: Optional[Tuple["_np.ndarray", "_np.ndarray"]] = None,
) -> GroupMatrix:
    """Lower ``(path_id, hits) -> count`` aggregates into the kernels' matrix.

    The buckets are filled straight from the paths' *cells*
    (:meth:`TupleTable.path_cells` over the keys, gathered here unless the
    caller already did), no tuple per group.
    """
    lengths, flat = cells or table.path_cells([path_id for path_id, _ in counts])
    multiplicities = _np.fromiter(counts.values(), dtype=_np.int64, count=len(counts))
    hits = [hits for _, hits in counts]
    return GroupMatrix.from_cells(lengths, flat, hits, multiplicities)


def merge_group_counts(target: GroupCounts, extra: GroupCounts) -> None:
    """Fold *extra* multiplicities into *target* in place (commutative).

    Multiplicities are signed (a retraction is ``-1``); a key whose total
    returns to zero leaves *target*, so it holds the live groups only.
    """
    get = target.get
    for key, count in extra.items():
        total = get(key, 0) + count
        if total:
            target[key] = total
        else:
            target.pop(key, None)
