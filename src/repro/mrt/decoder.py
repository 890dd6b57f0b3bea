"""Binary MRT decoder.

Parses the byte streams produced by :mod:`repro.mrt.encoder` (and any other
standards-conforming writer of the supported record types) back into the
record dataclasses of :mod:`repro.mrt.records`.  This is the entry point of
the measurement pipeline: collector archives are decoded here before
sanitation and inference.

Two things keep it cheap.  Every fixed-size header is framed with one
``struct.Struct.unpack_from`` behind one explicit bounds check, at absolute
offsets into a single ``memoryview`` of the input.  And a path-attribute blob
is parsed once per file: a RIB dump repeats one blob across prefixes and the
update stream repeats it again, so :class:`MRTDecoder` memoises the decoded
:class:`~repro.bgp.messages.PathAttributes` on the blob's raw bytes.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, Optional, Tuple

from repro.bgp.asn import ASN
from repro.bgp.community import AnyCommunity, Community, CommunitySet, LargeCommunity
from repro.bgp.messages import BGPUpdate, Origin, PathAttributes
from repro.bgp.path import ASPath, PathSegment, SegmentType
from repro.bgp.prefix import Prefix
from repro.mrt.constants import (
    AFI_IPV4,
    AFI_IPV6,
    ATTR_FLAG_EXTENDED_LENGTH,
    BGP_MARKER,
    BGP4MPSubtype,
    BGPMessageType,
    MRT_COMMON_HEADER_SIZE,
    MRTType,
    PathAttributeType,
    TableDumpV2Subtype,
)
from repro.mrt.records import (
    BGP4MPMessage,
    MRTDecodeError,
    MRTRecord,
    PeerEntry,
    PeerIndexTable,
    RIBAfiEntry,
    RIBEntryRecord,
)

#: Distinct attribute blobs one decoder remembers before it starts over.  A
#: full-table RIB dump has millions of entries; the memo is a per-file
#: working set, not a copy of the file.
ATTRIBUTE_MEMO_CAP = 65536

_MRT_HEADER = struct.Struct("!IHHI")
_PEER_TABLE_HEADER = struct.Struct("!IH")
#: PEER_INDEX_TABLE entry layouts by the two low peer-type bits
#: (bit 0: IPv6 peer address, bit 1: 4-byte peer ASN).
_PEER_ENTRIES = (
    struct.Struct("!BI4sH"),
    struct.Struct("!BI16sH"),
    struct.Struct("!BI4sI"),
    struct.Struct("!BI16sI"),
)
_RIB_ENTRY = struct.Struct("!HIH")
#: BGP4MP peer header (peer AS, local AS, interface index, AFI) by subtype.
_BGP4MP_PEER_HEADERS = {
    BGP4MPSubtype.BGP4MP_MESSAGE: struct.Struct("!HHHH"),
    BGP4MPSubtype.BGP4MP_MESSAGE_AS4: struct.Struct("!IIHH"),
}
#: Peer IP, local IP, BGP marker, message length, message type.
_BGP4MP_MESSAGE_V4 = struct.Struct("!4s4s16sHB")
_BGP4MP_MESSAGE_V6 = struct.Struct("!16s16s16sHB")
_BGP_HEADER_SIZE = 19
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")

_MRT_TYPES = {int(member): member for member in MRTType}
_TABLE_DUMP_V2_SUBTYPES = {int(member): member for member in TableDumpV2Subtype}
_BGP4MP_SUBTYPES = {int(member): member for member in BGP4MPSubtype}
_SEGMENT_TYPES = {int(member): member for member in SegmentType}
_ORIGINS = {int(member): member for member in Origin}
_RIB_AFI = {
    TableDumpV2Subtype.RIB_IPV4_UNICAST: AFI_IPV4,
    TableDumpV2Subtype.RIB_IPV6_UNICAST: AFI_IPV6,
}
_ADDRESS_BYTES = {AFI_IPV4: 4, AFI_IPV6: 16}
_ASN_FORMAT = {2: "H", 4: "I"}

_ATTR_ORIGIN = int(PathAttributeType.ORIGIN)
_ATTR_AS_PATH = int(PathAttributeType.AS_PATH)
_ATTR_NEXT_HOP = int(PathAttributeType.NEXT_HOP)
_ATTR_MED = int(PathAttributeType.MULTI_EXIT_DISC)
_ATTR_LOCAL_PREF = int(PathAttributeType.LOCAL_PREF)
_ATTR_COMMUNITIES = int(PathAttributeType.COMMUNITIES)
_ATTR_LARGE_COMMUNITIES = int(PathAttributeType.LARGE_COMMUNITIES)
_MSG_UPDATE = int(BGPMessageType.UPDATE)


def _truncated(what: str, wanted: int, available: int) -> MRTDecodeError:
    return MRTDecodeError(f"truncated {what}: wanted {wanted} bytes, {available} available")


def _decode_prefix_nlri(data, pos: int, end: int, afi: int) -> Tuple[Prefix, int]:
    """Decode one NLRI prefix (length byte + minimal network bytes) at *pos*.

    Returns the prefix and the offset just past it.
    """
    total_bytes = _ADDRESS_BYTES.get(afi)
    if total_bytes is None:
        raise MRTDecodeError(f"unsupported address family {afi}")
    if pos >= end:
        raise _truncated("prefix", 1, 0)
    length = data[pos]
    if length > total_bytes * 8:
        raise MRTDecodeError(f"prefix length {length} exceeds maximum {total_bytes * 8}")
    pos += 1
    n_bytes = (length + 7) >> 3
    if end - pos < n_bytes:
        raise _truncated("prefix", n_bytes, end - pos)
    network = int.from_bytes(data[pos : pos + n_bytes], "big") << (8 * (total_bytes - n_bytes))
    return Prefix(network, length, afi), pos + n_bytes


def _decode_prefixes(data, pos: int, end: int, afi: int) -> Tuple[Prefix, ...]:
    """Decode the back-to-back NLRI prefixes filling ``data[pos:end]``."""
    prefixes: List[Prefix] = []
    while pos < end:
        prefix, pos = _decode_prefix_nlri(data, pos, end, afi)
        prefixes.append(prefix)
    return tuple(prefixes)


def _decode_as_path(data, pos: int, end: int, asn_size: int) -> ASPath:
    """Decode the AS_PATH attribute value in ``data[pos:end]``."""
    code = _ASN_FORMAT[asn_size]
    segments: List[PathSegment] = []
    while pos < end:
        if end - pos < 2:
            raise _truncated("AS path segment header", 2, end - pos)
        segment_type = data[pos]
        count = data[pos + 1]
        pos += 2
        size = count * asn_size
        if end - pos < size:
            raise _truncated("AS path segment", size, end - pos)
        kind = _SEGMENT_TYPES.get(segment_type)
        if kind is None:
            raise MRTDecodeError(f"unknown AS path segment type {segment_type}")
        segments.append(PathSegment(kind, struct.unpack_from(f"!{count}{code}", data, pos)))
        pos += size
    return ASPath.from_segments(segments)


def decode_path_attributes(value, *, asn_size: int = 4) -> PathAttributes:
    """Decode a BGP path attribute blob into :class:`PathAttributes`.

    *value* is any bytes-like object (``bytes``, or a ``memoryview`` slice
    of an archive).  Unknown attributes are skipped; a blob without an
    AS_PATH, a truncated attribute, and a COMMUNITIES / LARGE_COMMUNITIES
    body that is not a whole number of values raise :class:`MRTDecodeError`.
    """
    end = len(value)
    pos = 0
    as_path: Optional[ASPath] = None
    origin = Origin.INCOMPLETE
    next_hop = 0
    med: Optional[int] = None
    local_pref: Optional[int] = None
    communities: List[AnyCommunity] = []

    while pos < end:
        if end - pos < 3:
            raise _truncated("attribute header", 3, end - pos)
        type_code = value[pos + 1]
        if value[pos] & ATTR_FLAG_EXTENDED_LENGTH:
            if end - pos < 4:
                raise _truncated("attribute header", 4, end - pos)
            length = (value[pos + 2] << 8) | value[pos + 3]
            pos += 4
        else:
            length = value[pos + 2]
            pos += 3
        if end - pos < length:
            raise _truncated("attribute", length, end - pos)

        if type_code == _ATTR_AS_PATH:
            as_path = _decode_as_path(value, pos, pos + length, asn_size)
        elif type_code == _ATTR_COMMUNITIES:
            if length % 4:
                raise MRTDecodeError("COMMUNITIES attribute length not a multiple of 4")
            for packed in struct.unpack_from(f"!{length // 4}I", value, pos):
                communities.append(Community.from_value(packed))
        elif type_code == _ATTR_LARGE_COMMUNITIES:
            if length % 12:
                raise MRTDecodeError("LARGE_COMMUNITIES attribute length not a multiple of 12")
            fields = struct.unpack_from(f"!{length // 4}I", value, pos)
            for index in range(0, len(fields), 3):
                communities.append(LargeCommunity(*fields[index : index + 3]))
        elif type_code == _ATTR_ORIGIN and length:
            origin = _ORIGINS.get(value[pos], Origin.INCOMPLETE)
        elif type_code == _ATTR_NEXT_HOP and length >= 4:
            (next_hop,) = _U32.unpack_from(value, pos)
        elif type_code == _ATTR_MED and length >= 4:
            (med,) = _U32.unpack_from(value, pos)
        elif type_code == _ATTR_LOCAL_PREF and length >= 4:
            (local_pref,) = _U32.unpack_from(value, pos)
        # Unknown attributes are skipped, as a tolerant MRT consumer must.
        pos += length

    if as_path is None:
        raise MRTDecodeError("path attributes lack a mandatory AS_PATH")
    return PathAttributes(
        as_path=as_path,
        communities=CommunitySet(communities),
        origin=origin,
        next_hop=next_hop,
        med=med,
        local_pref=local_pref,
    )


class MRTDecoder:
    """Iterator over the MRT records contained in a bytes-like blob.

    The decoder reads through one ``memoryview`` over *data* (``bytes``,
    ``bytearray``, ``mmap`` or another ``memoryview``); decoded records hold
    plain values and copies, never views, so the blob's lifetime is not
    extended.

    Path-attribute blobs are memoised per decoder -- that is, per file -- on
    ``(asn_size, raw bytes)``: equal blobs decode to the *same* immutable
    :class:`PathAttributes` object, so downstream dict probes on its
    ``ASPath`` / ``CommunitySet`` hit the identity shortcut and their cached
    hashes.  The memo holds at most :data:`ATTRIBUTE_MEMO_CAP` blobs and is
    cleared when full; a blob that fails to decode is never stored and
    raises :class:`MRTDecodeError` every time it is met.
    ``attribute_blobs`` counts the blobs met and ``attribute_memo_hits``
    those answered from the memo.
    """

    def __init__(self, data) -> None:
        self._view = memoryview(data)
        self._pos = 0
        self._peer_table: Optional[PeerIndexTable] = None
        self._attribute_memo: Dict[Tuple[int, bytes], PathAttributes] = {}
        self.attribute_blobs = 0
        self.attribute_memo_hits = 0

    @property
    def peer_table(self) -> Optional[PeerIndexTable]:
        """The most recently decoded PEER_INDEX_TABLE, if any."""
        return self._peer_table

    def __iter__(self) -> Iterator[MRTRecord]:
        return self

    def __next__(self) -> MRTRecord:
        view = self._view
        pos = self._pos
        available = len(view) - pos
        if available == 0:
            raise StopIteration
        if available < MRT_COMMON_HEADER_SIZE:
            raise MRTDecodeError("trailing bytes shorter than an MRT header")
        timestamp, mrt_type, subtype, length = _MRT_HEADER.unpack_from(view, pos)
        pos += MRT_COMMON_HEADER_SIZE
        if available - MRT_COMMON_HEADER_SIZE < length:
            raise _truncated("record", length, available - MRT_COMMON_HEADER_SIZE)
        end = pos + length
        # A record that fails to decode is still stepped over.
        self._pos = end

        mrt_type_enum = _MRT_TYPES.get(mrt_type)
        if mrt_type_enum is None:
            raise MRTDecodeError(f"unsupported MRT type {mrt_type}")
        if mrt_type_enum is MRTType.TABLE_DUMP_V2:
            return self._decode_table_dump_v2(timestamp, subtype, pos, end)
        if mrt_type_enum is MRTType.BGP4MP or mrt_type_enum is MRTType.BGP4MP_ET:
            return self._decode_bgp4mp(timestamp, mrt_type_enum, subtype, pos, end)
        raise MRTDecodeError(f"MRT type {mrt_type_enum.name} not supported by this decoder")

    def _attributes(self, pos: int, end: int, asn_size: int) -> PathAttributes:
        """The attributes encoded in ``view[pos:end]``, parsed once per blob."""
        self.attribute_blobs += 1
        raw = bytes(self._view[pos:end])
        key = (asn_size, raw)
        memo = self._attribute_memo
        attributes = memo.get(key)
        if attributes is not None:
            self.attribute_memo_hits += 1
            return attributes
        attributes = decode_path_attributes(raw, asn_size=asn_size)
        if len(memo) >= ATTRIBUTE_MEMO_CAP:
            memo.clear()
        memo[key] = attributes
        return attributes

    # -- TABLE_DUMP_V2 -------------------------------------------------------
    def _decode_table_dump_v2(self, timestamp: int, subtype: int, pos: int, end: int) -> MRTRecord:
        subtype_enum = _TABLE_DUMP_V2_SUBTYPES.get(subtype)
        if subtype_enum is None:
            raise MRTDecodeError(f"unknown TABLE_DUMP_V2 subtype {subtype}")
        if subtype_enum is TableDumpV2Subtype.PEER_INDEX_TABLE:
            return self._decode_peer_index_table(timestamp, pos, end)
        afi = _RIB_AFI.get(subtype_enum)
        if afi is None:
            raise MRTDecodeError(f"TABLE_DUMP_V2 subtype {subtype_enum.name} not supported")

        view = self._view
        if end - pos < 4:
            raise _truncated("RIB sequence number", 4, end - pos)
        (sequence,) = _U32.unpack_from(view, pos)
        prefix, pos = _decode_prefix_nlri(view, pos + 4, end, afi)
        if end - pos < 2:
            raise _truncated("RIB entry count", 2, end - pos)
        (entry_count,) = _U16.unpack_from(view, pos)
        pos += 2
        entries: List[RIBAfiEntry] = []
        for _ in range(entry_count):
            if end - pos < _RIB_ENTRY.size:
                raise _truncated("RIB entry", _RIB_ENTRY.size, end - pos)
            peer_index, originated, attr_len = _RIB_ENTRY.unpack_from(view, pos)
            pos += _RIB_ENTRY.size
            if end - pos < attr_len:
                raise _truncated("RIB entry attributes", attr_len, end - pos)
            attributes = self._attributes(pos, pos + attr_len, 4)
            pos += attr_len
            entries.append(RIBAfiEntry(peer_index, originated, attributes))
        return RIBEntryRecord(
            timestamp=timestamp,
            mrt_type=MRTType.TABLE_DUMP_V2,
            subtype=subtype_enum,
            sequence=sequence,
            prefix=prefix,
            entries=tuple(entries),
        )

    def _decode_peer_index_table(self, timestamp: int, pos: int, end: int) -> PeerIndexTable:
        view = self._view
        if end - pos < _PEER_TABLE_HEADER.size:
            raise _truncated("PEER_INDEX_TABLE", _PEER_TABLE_HEADER.size, end - pos)
        collector_id, view_len = _PEER_TABLE_HEADER.unpack_from(view, pos)
        pos += _PEER_TABLE_HEADER.size
        if end - pos < view_len + 2:
            raise _truncated("PEER_INDEX_TABLE view name", view_len + 2, end - pos)
        view_name = bytes(view[pos : pos + view_len]).decode(errors="replace")
        (peer_count,) = _U16.unpack_from(view, pos + view_len)
        pos += view_len + 2
        peers: List[PeerEntry] = []
        for _ in range(peer_count):
            if pos >= end:
                raise _truncated("peer entry", 1, 0)
            layout = _PEER_ENTRIES[view[pos] & 0x03]
            if end - pos < layout.size:
                raise _truncated("peer entry", layout.size, end - pos)
            peer_type, bgp_id, peer_ip, peer_asn = layout.unpack_from(view, pos)
            pos += layout.size
            peers.append(
                PeerEntry(
                    peer_asn=peer_asn,
                    peer_ip=int.from_bytes(peer_ip, "big"),
                    peer_bgp_id=bgp_id,
                    ipv6=bool(peer_type & 0x01),
                )
            )
        table = PeerIndexTable(
            timestamp=timestamp,
            mrt_type=MRTType.TABLE_DUMP_V2,
            subtype=TableDumpV2Subtype.PEER_INDEX_TABLE,
            collector_bgp_id=collector_id,
            view_name=view_name,
            peers=tuple(peers),
        )
        self._peer_table = table
        return table

    # -- BGP4MP ---------------------------------------------------------------
    def _decode_bgp4mp(
        self, timestamp: int, mrt_type: MRTType, subtype: int, pos: int, end: int
    ) -> BGP4MPMessage:
        subtype_enum = _BGP4MP_SUBTYPES.get(subtype)
        if subtype_enum is None:
            raise MRTDecodeError(f"unknown BGP4MP subtype {subtype}")
        peer_header = _BGP4MP_PEER_HEADERS.get(subtype_enum)
        if peer_header is None:
            raise MRTDecodeError(f"BGP4MP subtype {subtype_enum.name} not supported")
        asn_size = 4 if subtype_enum is BGP4MPSubtype.BGP4MP_MESSAGE_AS4 else 2

        view = self._view
        if mrt_type is MRTType.BGP4MP_ET:
            pos += 4  # microsecond timestamp, ignored
        if end - pos < peer_header.size:
            raise _truncated("BGP4MP header", peer_header.size, end - pos)
        peer_asn, local_asn, interface_index, afi = peer_header.unpack_from(view, pos)
        pos += peer_header.size

        message = _BGP4MP_MESSAGE_V4 if afi == AFI_IPV4 else _BGP4MP_MESSAGE_V6
        if end - pos < message.size:
            raise _truncated("BGP4MP message header", message.size, end - pos)
        peer_ip, local_ip, marker, message_length, message_type = message.unpack_from(view, pos)
        pos += message.size
        if marker != BGP_MARKER:
            raise MRTDecodeError("BGP message marker mismatch")
        body_length = message_length - _BGP_HEADER_SIZE
        if body_length < 0 or end - pos < body_length:
            raise _truncated("BGP message", body_length, end - pos)

        # Non-UPDATE messages (keepalives, opens) carry no routing data.
        update: Optional[BGPUpdate] = None
        if message_type == _MSG_UPDATE:
            update = self._decode_bgp_update(
                pos, pos + body_length, peer_asn, timestamp, asn_size, afi
            )
        return BGP4MPMessage(
            timestamp=timestamp,
            mrt_type=mrt_type,
            subtype=subtype_enum,
            peer_asn=peer_asn,
            local_asn=local_asn,
            interface_index=interface_index,
            afi=afi,
            peer_ip=int.from_bytes(peer_ip, "big"),
            local_ip=int.from_bytes(local_ip, "big"),
            update=update,
        )

    def _decode_bgp_update(
        self, pos: int, end: int, peer_asn: ASN, timestamp: int, asn_size: int, afi: int
    ) -> BGPUpdate:
        view = self._view
        if end - pos < 2:
            raise _truncated("withdrawn routes length", 2, end - pos)
        (withdrawn_len,) = _U16.unpack_from(view, pos)
        pos += 2
        # The attribute length field must follow the withdrawn routes.
        if end - pos < withdrawn_len + 2:
            raise _truncated("withdrawn routes", withdrawn_len + 2, end - pos)
        withdrawn = _decode_prefixes(view, pos, pos + withdrawn_len, afi)
        pos += withdrawn_len
        (attr_len,) = _U16.unpack_from(view, pos)
        pos += 2
        if end - pos < attr_len:
            raise _truncated("path attributes", attr_len, end - pos)
        attributes = self._attributes(pos, pos + attr_len, asn_size) if attr_len else None
        announced = _decode_prefixes(view, pos + attr_len, end, afi)
        if announced and attributes is None:
            raise MRTDecodeError("UPDATE announces NLRI without path attributes")
        return BGPUpdate(
            peer_asn=peer_asn,
            timestamp=timestamp,
            announced=announced,
            withdrawn=withdrawn,
            attributes=attributes,
        )


def decode_records(data) -> List[MRTRecord]:
    """Decode every record in *data* into a list."""
    return list(MRTDecoder(data))
