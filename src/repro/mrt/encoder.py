"""Binary MRT encoder.

Produces byte streams that a standard MRT consumer (or
:mod:`repro.mrt.decoder`) can parse.  The encoder is used by the collector
simulation to archive RIB snapshots and update streams in the same wire
format the paper's pipeline downloads from RIPE RIS / RouteViews / Isolario.
"""

from __future__ import annotations

import struct
from io import BytesIO
from typing import BinaryIO, List, Optional, Sequence, Tuple

from repro.bgp.asn import ASN
from repro.bgp.community import CommunitySet, LargeCommunity
from repro.bgp.messages import BGPUpdate, PathAttributes
from repro.bgp.path import ASPath
from repro.bgp.prefix import Prefix
from repro.mrt.constants import (
    AFI_IPV4,
    ATTR_FLAG_EXTENDED_LENGTH,
    ATTR_FLAG_OPTIONAL,
    ATTR_FLAG_TRANSITIVE,
    BGP_MARKER,
    BGP4MPSubtype,
    BGPMessageType,
    MRTType,
    PathAttributeType,
    TableDumpV2Subtype,
)


def _encode_prefix_nlri(prefix: Prefix) -> bytes:
    """Encode a prefix in NLRI form: length byte + minimal network bytes."""
    n_bytes = (prefix.length + 7) // 8
    total_bytes = 4 if prefix.is_ipv4 else 16
    network_bytes = prefix.network.to_bytes(total_bytes, "big")[:n_bytes]
    return bytes([prefix.length]) + network_bytes


def _encode_attribute(type_code: int, value: bytes, *, optional: bool = False) -> bytes:
    """Encode one BGP path attribute with appropriate flags."""
    flags = ATTR_FLAG_TRANSITIVE
    if optional:
        flags |= ATTR_FLAG_OPTIONAL
    if len(value) > 255:
        flags |= ATTR_FLAG_EXTENDED_LENGTH
        header = struct.pack("!BBH", flags, type_code, len(value))
    else:
        header = struct.pack("!BBB", flags, type_code, len(value))
    return header + value


def _encode_as_path(path: ASPath, asn_size: int) -> bytes:
    """Encode the AS_PATH attribute value using *asn_size*-byte ASNs."""
    out = bytearray()
    fmt = "!H" if asn_size == 2 else "!I"
    for segment in path.segments:
        out += struct.pack("!BB", int(segment.segment_type), len(segment.asns))
        for asn in segment.asns:
            out += struct.pack(fmt, asn)
    return bytes(out)


def _encode_communities(communities: CommunitySet) -> Tuple[bytes, bytes]:
    """Encode (COMMUNITIES, LARGE_COMMUNITIES) attribute values."""
    regular = bytearray()
    large = bytearray()
    for community in communities.sorted():
        if isinstance(community, LargeCommunity):
            large += struct.pack("!III", community.upper, community.data1, community.data2)
        else:
            regular += struct.pack("!I", community.value)
    return bytes(regular), bytes(large)


def encode_path_attributes(attributes: PathAttributes, *, asn_size: int = 4) -> bytes:
    """Encode the path attributes of one route.

    Emits ORIGIN, AS_PATH, NEXT_HOP, optionally MED/LOCAL_PREF, and the
    COMMUNITIES / LARGE_COMMUNITIES attributes when present.
    """
    out = bytearray()
    out += _encode_attribute(PathAttributeType.ORIGIN, bytes([int(attributes.origin)]))
    out += _encode_attribute(PathAttributeType.AS_PATH, _encode_as_path(attributes.as_path, asn_size))
    out += _encode_attribute(PathAttributeType.NEXT_HOP, struct.pack("!I", attributes.next_hop & 0xFFFFFFFF))
    if attributes.med is not None:
        out += _encode_attribute(
            PathAttributeType.MULTI_EXIT_DISC, struct.pack("!I", attributes.med), optional=True
        )
    if attributes.local_pref is not None:
        out += _encode_attribute(PathAttributeType.LOCAL_PREF, struct.pack("!I", attributes.local_pref))
    regular, large = _encode_communities(attributes.communities)
    if regular:
        out += _encode_attribute(PathAttributeType.COMMUNITIES, regular, optional=True)
    if large:
        out += _encode_attribute(PathAttributeType.LARGE_COMMUNITIES, large, optional=True)
    return bytes(out)


class MRTEncoder:
    """Streaming encoder that appends MRT records to an in-memory buffer.

    Typical use::

        encoder = MRTEncoder()
        encoder.write_peer_index_table(peers, timestamp=ts)
        for prefix, entries in rib.items():
            encoder.write_rib_entry(prefix, entries, timestamp=ts)
        blob = encoder.getvalue()
    """

    def __init__(self, stream: Optional[BinaryIO] = None) -> None:
        self._stream: BinaryIO = stream if stream is not None else BytesIO()
        self._peer_order: List[ASN] = []

    # -- low level ----------------------------------------------------------
    def _write_record(self, timestamp: int, mrt_type: MRTType, subtype: int, body: bytes) -> None:
        header = struct.pack("!IHHI", timestamp & 0xFFFFFFFF, int(mrt_type), int(subtype), len(body))
        self._stream.write(header)
        self._stream.write(body)

    def getvalue(self) -> bytes:
        """Return the encoded byte stream (only for in-memory encoders)."""
        if isinstance(self._stream, BytesIO):
            return self._stream.getvalue()
        raise TypeError("encoder was constructed around an external stream")

    # -- TABLE_DUMP_V2 -------------------------------------------------------
    def write_peer_index_table(
        self,
        peer_asns: Sequence[ASN],
        *,
        timestamp: int = 0,
        collector_bgp_id: int = 0,
        view_name: str = "",
    ) -> None:
        """Write the PEER_INDEX_TABLE that subsequent RIB records reference."""
        self._peer_order = list(peer_asns)
        view = view_name.encode()
        body = bytearray()
        body += struct.pack("!I", collector_bgp_id)
        body += struct.pack("!H", len(view)) + view
        body += struct.pack("!H", len(peer_asns))
        for index, asn in enumerate(peer_asns):
            # Peer type: bit 1 set -> 4-byte ASN; bit 0 clear -> IPv4 peer IP.
            body += struct.pack("!B", 0x02)
            body += struct.pack("!I", index + 1)  # peer BGP ID (synthetic)
            body += struct.pack("!I", (10 << 24) | index)  # peer IP (synthetic)
            body += struct.pack("!I", asn)
        self._write_record(timestamp, MRTType.TABLE_DUMP_V2, TableDumpV2Subtype.PEER_INDEX_TABLE, bytes(body))

    def peer_index(self, peer_asn: ASN) -> int:
        """Resolve a peer ASN to its index in the last written peer table."""
        return self._peer_order.index(peer_asn)

    def write_rib_entry(
        self,
        prefix: Prefix,
        entries: Sequence[Tuple[ASN, int, PathAttributes]],
        *,
        sequence: int = 0,
        timestamp: int = 0,
    ) -> None:
        """Write one RIB_IPV4_UNICAST / RIB_IPV6_UNICAST record.

        *entries* is a sequence of ``(peer_asn, originated_time, attributes)``
        tuples; peer ASNs must have been registered via
        :meth:`write_peer_index_table`.
        """
        subtype = (
            TableDumpV2Subtype.RIB_IPV4_UNICAST if prefix.is_ipv4 else TableDumpV2Subtype.RIB_IPV6_UNICAST
        )
        body = bytearray()
        body += struct.pack("!I", sequence)
        body += _encode_prefix_nlri(prefix)
        body += struct.pack("!H", len(entries))
        for peer_asn, originated, attributes in entries:
            attr_bytes = encode_path_attributes(attributes, asn_size=4)
            body += struct.pack("!HIH", self.peer_index(peer_asn), originated & 0xFFFFFFFF, len(attr_bytes))
            body += attr_bytes
        self._write_record(timestamp, MRTType.TABLE_DUMP_V2, subtype, bytes(body))

    # -- BGP4MP ---------------------------------------------------------------
    def write_update(
        self,
        update: BGPUpdate,
        *,
        local_asn: ASN = 0,
        as4: bool = True,
    ) -> None:
        """Write one BGP4MP_MESSAGE(_AS4) record wrapping a BGP UPDATE.

        The header AFI is the prefixes' family (IPv4 when there are none), so
        an UPDATE mixing families raises :class:`ValueError`; so does, with
        ``as4=False``, a peer, local or path ASN that needs 4 bytes.  Nothing
        is written when it raises.
        """
        families = {prefix.afi for prefix in update.announced + update.withdrawn}
        if len(families) > 1:
            raise ValueError("an UPDATE cannot mix IPv4 and IPv6 prefixes: one header AFI frames them all")
        if not as4:
            path = update.attributes.as_path if update.attributes is not None else ()
            for asn in (update.peer_asn, local_asn, *path):
                if asn > 0xFFFF:
                    raise ValueError(f"ASN {asn} does not fit a 2-byte BGP4MP_MESSAGE: write it with as4=True")
        afi = families.pop() if families else AFI_IPV4
        asn_size = 4 if as4 else 2
        subtype = BGP4MPSubtype.BGP4MP_MESSAGE_AS4 if as4 else BGP4MPSubtype.BGP4MP_MESSAGE
        fmt = "!I" if as4 else "!H"

        withdrawn = b"".join(_encode_prefix_nlri(p) for p in update.withdrawn)
        nlri = b"".join(_encode_prefix_nlri(p) for p in update.announced)
        attrs = (
            encode_path_attributes(update.attributes, asn_size=asn_size)
            if update.attributes is not None
            else b""
        )
        bgp_body = (
            struct.pack("!H", len(withdrawn))
            + withdrawn
            + struct.pack("!H", len(attrs))
            + attrs
            + nlri
        )
        bgp_message = (
            BGP_MARKER + struct.pack("!HB", 16 + 2 + 1 + len(bgp_body), int(BGPMessageType.UPDATE)) + bgp_body
        )

        body = bytearray()
        body += struct.pack(fmt, update.peer_asn)
        body += struct.pack(fmt, local_asn)
        body += struct.pack("!H", 0)  # interface index
        body += struct.pack("!H", afi)
        address = bytes(4 if afi == AFI_IPV4 else 16)
        body += address  # peer IP (synthetic)
        body += address  # local IP (synthetic)
        body += bgp_message
        self._write_record(update.timestamp, MRTType.BGP4MP, subtype, bytes(body))


def encode_records(
    peer_asns: Sequence[ASN],
    rib: Sequence[Tuple[Prefix, Sequence[Tuple[ASN, int, PathAttributes]]]] = (),
    updates: Sequence[BGPUpdate] = (),
    *,
    timestamp: int = 0,
) -> bytes:
    """Convenience helper: encode a peer table, RIB entries, and updates."""
    encoder = MRTEncoder()
    encoder.write_peer_index_table(peer_asns, timestamp=timestamp)
    for sequence, (prefix, entries) in enumerate(rib):
        encoder.write_rib_entry(prefix, entries, sequence=sequence, timestamp=timestamp)
    for update in updates:
        encoder.write_update(update)
    return encoder.getvalue()
