"""Dataclasses describing decoded MRT records."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.bgp.asn import ASN
from repro.bgp.messages import BGPUpdate, PathAttributes, RIBEntry
from repro.bgp.prefix import Prefix
from repro.mrt.constants import BGP4MPSubtype, MRTType


class MRTDecodeError(ValueError):
    """Raised when the byte stream violates the MRT / BGP wire format."""


@dataclass(frozen=True)
class MRTRecord:
    """Base class for decoded MRT records; carries the common header."""

    timestamp: int
    mrt_type: MRTType
    subtype: int


@dataclass(frozen=True)
class PeerEntry:
    """One peer in a TABLE_DUMP_V2 PEER_INDEX_TABLE."""

    peer_asn: ASN
    peer_ip: int = 0
    peer_bgp_id: int = 0
    ipv6: bool = False


@dataclass(frozen=True)
class PeerIndexTable(MRTRecord):
    """TABLE_DUMP_V2 PEER_INDEX_TABLE record."""

    collector_bgp_id: int = 0
    view_name: str = ""
    peers: Tuple[PeerEntry, ...] = ()

    def peer_asn_at(self, index: int) -> ASN:
        """The ASN of the peer a RIB entry's ``peer_index`` refers to."""
        if not 0 <= index < len(self.peers):
            raise MRTDecodeError(
                f"peer index {index} is past the {len(self.peers)}-peer PEER_INDEX_TABLE"
            )
        return self.peers[index].peer_asn


@dataclass(frozen=True)
class RIBAfiEntry:
    """One per-peer route inside a RIB_IPV4/6_UNICAST record."""

    peer_index: int
    originated_time: int
    attributes: PathAttributes


@dataclass(frozen=True)
class RIBEntryRecord(MRTRecord):
    """TABLE_DUMP_V2 RIB_IPV4_UNICAST / RIB_IPV6_UNICAST record."""

    sequence: int = 0
    prefix: Prefix = Prefix.ipv4(0, 0)
    entries: Tuple[RIBAfiEntry, ...] = ()

    def to_rib_entries(self, peer_table: PeerIndexTable) -> List[RIBEntry]:
        """Materialise :class:`repro.bgp.messages.RIBEntry` objects.

        Needs the *peer_table* of the same dump to resolve peer indexes to
        peer ASNs, exactly as an MRT consumer must; an index past the table
        raises :class:`MRTDecodeError`.
        """
        result: List[RIBEntry] = []
        for entry in self.entries:
            result.append(
                RIBEntry(
                    peer_asn=peer_table.peer_asn_at(entry.peer_index),
                    prefix=self.prefix,
                    attributes=entry.attributes,
                    timestamp=entry.originated_time or self.timestamp,
                )
            )
        return result


@dataclass(frozen=True)
class BGP4MPMessage(MRTRecord):
    """BGP4MP_MESSAGE / BGP4MP_MESSAGE_AS4 record wrapping one BGP UPDATE."""

    peer_asn: ASN = 0
    local_asn: ASN = 0
    interface_index: int = 0
    afi: int = 1
    peer_ip: int = 0
    local_ip: int = 0
    update: Optional[BGPUpdate] = None

    @property
    def is_as4(self) -> bool:
        """``True`` when encoded with 4-byte ASNs."""
        return self.subtype in (
            BGP4MPSubtype.BGP4MP_MESSAGE_AS4,
            BGP4MPSubtype.BGP4MP_MESSAGE_AS4_LOCAL,
        )
