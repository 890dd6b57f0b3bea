"""Per-day collector archives: RIB snapshots and update streams.

Turns the routing substrate (best paths from every collector peer) and the
community usage model into the data a collector project archives for one day:

* one or more RIB snapshots per collector (every peer exports its best route
  per prefix, with the community set produced by the propagation model), and
* an update stream: re-announcements and flaps of a subset of routes spread
  over the day.

The archive can be materialised either directly as
:class:`repro.bgp.announcement.RouteObservation` objects (fast path used by
most experiments) or as binary MRT blobs (via :mod:`repro.mrt`) to exercise
the full decode-sanitize-infer pipeline end to end.

A light *realism noise* layer optionally adds private and stray communities,
which real collector data is full of (Table 1 reports them explicitly and
Figure 5 counts them at peer ASes); these communities are ignored by the
inference but must flow through the pipeline.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from itertools import chain
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.bgp.announcement import RouteBlock, RouteObservation
from repro.bgp.asn import ASN
from repro.bgp.community import CommunitySet, make_community
from repro.bgp.messages import BGPUpdate, PathAttributes
from repro.bgp.path import ASPath
from repro.collectors.collector import CollectorProject
from repro.mrt.decoder import MRTDecoder
from repro.mrt.encoder import MRTEncoder
from repro.sanitize.filters import SANITIZE_BLOCK_SIZE
from repro.topology.generator import Topology
from repro.topology.routing import ValleyFreePath
from repro.usage.propagation import CommunityPropagator

#: 2021-05-19 00:00:00 UTC, the paper's primary measurement day.
DEFAULT_EPOCH = 1621382400


@dataclass
class ArchiveConfig:
    """Knobs controlling the volume and churn of the generated archives."""

    #: RIB snapshots written per day (RIPE: every 8h; we default to 2).
    rib_snapshots_per_day: int = 2
    #: Share of (peer, origin, prefix) routes that also appear in updates.
    update_share: float = 0.35
    #: Re-announcements per updated route per day (min, max).
    updates_per_route: Tuple[int, int] = (1, 3)
    #: Probability that a route is missing from a given day entirely
    #: (session resets, route unavailability) — drives day-to-day churn.
    p_route_missing: float = 0.02
    #: Probability that an observation additionally carries a private
    #: community / a stray community (realism noise).
    p_private_community: float = 0.03
    p_stray_community: float = 0.02
    seed: int = 0
    #: Unix timestamp of day 0.
    epoch: int = DEFAULT_EPOCH


@dataclass
class DayArchive:
    """One day of archived data for one collector project."""

    project: str
    day: int
    observations: List[RouteObservation]
    rib_entry_count: int
    update_message_count: int

    @property
    def total_entries(self) -> int:
        """RIB entries plus update messages (the Table 1 "Entries total" row)."""
        return self.rib_entry_count + self.update_message_count


class CollectorArchive:
    """Generates per-day archives for one collector project."""

    def __init__(
        self,
        topology: Topology,
        project: CollectorProject,
        paths_by_peer: Dict[ASN, Dict[ASN, ValleyFreePath]],
        propagator: CommunityPropagator,
        *,
        config: Optional[ArchiveConfig] = None,
    ) -> None:
        self.topology = topology
        self.project = project
        self.paths_by_peer = paths_by_peer
        self.propagator = propagator
        self.config = config or ArchiveConfig()
        self._output_cache: Dict[ASPath, CommunitySet] = {}
        self._stray_candidates: List[ASN] = sorted(topology.ases)

    # -- helpers ---------------------------------------------------------------
    def _output_for(self, path: ASPath) -> CommunitySet:
        """Community set exported by the peer for *path* (memoised)."""
        cached = self._output_cache.get(path)
        if cached is None:
            cached = self.propagator.output(path)
            self._output_cache[path] = cached
        return cached

    def _route_present(self, day: int, peer: ASN, origin: ASN) -> bool:
        """Deterministic per-day availability of a (peer, origin) route."""
        if self.config.p_route_missing <= 0:
            return True
        rng = random.Random(f"{self.config.seed}:{day}:{peer}:{origin}")
        return rng.random() >= self.config.p_route_missing

    def _realism_noise(self, rng: random.Random, path: ASPath, communities: CommunitySet) -> CommunitySet:
        """Optionally add private / stray communities to an observation."""
        config = self.config
        if config.p_private_community > 0 and rng.random() < config.p_private_community:
            communities = communities.add(make_community(64512 + rng.randint(0, 100), rng.randint(1, 500)))
        if config.p_stray_community > 0 and rng.random() < config.p_stray_community:
            stray_asn = rng.choice(self._stray_candidates)
            if stray_asn not in path:
                communities = communities.add(make_community(stray_asn, rng.randint(1, 500)))
        return communities

    # -- day generation -------------------------------------------------------------
    def generate_day(self, day: int = 0) -> DayArchive:
        """Generate the archive of *day* for the whole project."""
        config = self.config
        day_start = config.epoch + day * 86400
        rng = random.Random(f"{config.seed}:{self.project.name}:{day}")
        observations: List[RouteObservation] = []
        rib_entries = 0
        update_messages = 0

        for collector in self.project.collectors:
            for peer in collector.peer_asns:
                per_origin = self.paths_by_peer.get(peer, {})
                for origin, best in per_origin.items():
                    if not self._route_present(day, peer, origin):
                        continue
                    communities = self._output_for(best.path)
                    for prefix in self.topology.prefixes_of(origin):
                        noisy = self._realism_noise(rng, best.path, communities)
                        if self.project.provides_ribs:
                            for snapshot in range(config.rib_snapshots_per_day):
                                rib_entries += 1
                                if snapshot == 0:
                                    observations.append(
                                        RouteObservation(
                                            collector=collector.name,
                                            peer_asn=peer,
                                            prefix=prefix,
                                            path=best.path,
                                            communities=noisy,
                                            timestamp=day_start + snapshot * (86400 // max(1, config.rib_snapshots_per_day)),
                                            from_rib=True,
                                        )
                                    )
                        if rng.random() < config.update_share:
                            count = rng.randint(*config.updates_per_route)
                            update_messages += count
                            observations.append(
                                RouteObservation(
                                    collector=collector.name,
                                    peer_asn=peer,
                                    prefix=prefix,
                                    path=best.path,
                                    communities=noisy,
                                    timestamp=day_start + rng.randint(0, 86399),
                                    from_rib=False,
                                )
                            )
        return DayArchive(
            project=self.project.name,
            day=day,
            observations=observations,
            rib_entry_count=rib_entries,
            update_message_count=update_messages,
        )

    # -- MRT materialisation -----------------------------------------------------------
    def day_to_mrt(self, archive: DayArchive) -> Dict[str, bytes]:
        """Encode a day archive into binary MRT blobs, one per collector."""
        blobs: Dict[str, bytes] = {}
        by_collector: Dict[str, List[RouteObservation]] = {}
        for observation in archive.observations:
            by_collector.setdefault(observation.collector, []).append(observation)
        for collector in self.project.collectors:
            observations = by_collector.get(collector.name, [])
            encoder = MRTEncoder()
            encoder.write_peer_index_table(
                list(collector.peer_asns), timestamp=self.config.epoch + archive.day * 86400
            )
            sequence = 0
            for observation in observations:
                attributes = PathAttributes(
                    as_path=observation.path, communities=observation.communities
                )
                if observation.from_rib:
                    encoder.write_rib_entry(
                        observation.prefix,
                        [(observation.peer_asn, observation.timestamp, attributes)],
                        sequence=sequence,
                        timestamp=observation.timestamp,
                    )
                    sequence += 1
                else:
                    encoder.write_update(
                        BGPUpdate(
                            peer_asn=observation.peer_asn,
                            timestamp=observation.timestamp,
                            announced=(observation.prefix,),
                            attributes=attributes,
                        )
                    )
            blobs[collector.name] = encoder.getvalue()
        return blobs


def read_mrt_files(paths: Sequence[Union[str, Path]]) -> Dict[str, bytes]:
    """Read MRT files into the ``{collector label: blob}`` mapping the batch
    pipeline and the replay source consume.

    A file is labelled by its basename when no other input shares it, else
    by its path as given: RIPE RIS and RouteViews name files identically in
    every collector directory (``rrc00/updates.20210401.0000.gz``,
    ``rrc01/updates.20210401.0000.gz``), and a basename key alone would
    silently keep one of them.  The same path given twice is one file.
    """
    unique = list(dict.fromkeys(str(path) for path in paths))
    names = [Path(path).name for path in unique]
    shared = Counter(names)
    blobs: Dict[str, bytes] = {}
    for path, name in zip(unique, names):
        # Opened as given, so an OSError's ``filename`` is the caller's argument.
        with open(path, "rb") as handle:
            blobs[name if shared[name] == 1 else path] = handle.read()
    return blobs


def iter_route_blocks_from_mrt(blobs: Mapping[str, bytes], size: int) -> Iterator[RouteBlock]:
    """Lazily decode ``{collector: MRT blob}`` into route blocks, file after file.

    The blocks of :meth:`repro.mrt.decoder.MRTDecoder.blocks` in mapping
    order, one materialised at a time (they never span collectors, so the last
    of each file may be short), so arbitrarily large archives stream through
    in bounded memory.  The files share one attribute / COMMUNITIES memo:
    routes decoded from equal path-attribute blobs share one ``ASPath`` /
    ``CommunitySet`` pair, from equal COMMUNITIES values the ``CommunitySet``.
    Anything the wire format forbids -- including a RIB record before its
    PEER_INDEX_TABLE or a peer index past it -- raises
    :class:`~repro.mrt.MRTDecodeError`.
    """
    decoder: Optional[MRTDecoder] = None
    for collector, blob in blobs.items():
        decoder = MRTDecoder(blob, share=decoder)
        yield from decoder.blocks(collector, size)


def iter_observation_blocks_from_mrt(
    blob: bytes, collector: str, size: int
) -> Iterator[Sequence[RouteObservation]]:
    """One collector's MRT blob as observation blocks of up to *size*."""
    return iter_route_blocks_from_mrt({collector: blob}, size)


def iter_observations_from_mrt(blob: bytes, collector: str) -> Iterator[RouteObservation]:
    """Lazily decode one collector's MRT blob into route observations.

    The observation view of :func:`iter_route_blocks_from_mrt`, a block at a
    time: a multi-gigabyte archive streams through the sanitizer without ever
    materialising the full observation list.
    """
    return chain.from_iterable(iter_route_blocks_from_mrt({collector: blob}, SANITIZE_BLOCK_SIZE))


def observations_from_mrt(blob: bytes, collector: str) -> List[RouteObservation]:
    """Decode one collector's MRT blob back into route observations."""
    return list(iter_observations_from_mrt(blob, collector))
