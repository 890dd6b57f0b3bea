"""Differential oracle for the MRT decoder.

The ``_Cursor``-based decoder that :mod:`repro.mrt.decoder` shipped until
PR 16, kept verbatim but for one shared defect fixed in both (PR 19: NLRI
bits past the prefix length are masked): one bounds check and one slice per
*field*, no memo, no ``struct`` framing -- small, slow and obviously right.
The production decoder is pinned to it record by record, and its routes view
to :func:`iter_observations` (``tests/test_mrt_oracle.py``).

Documented, intended divergences -- hostile inputs on which this decoder
escapes with an *untyped* exception where production raises
:class:`~repro.mrt.MRTDecodeError`:

* an unknown TABLE_DUMP_V2 / BGP4MP subtype (the enum's bare ``ValueError``);
* an UPDATE announcing NLRI with a zero-length attribute block
  (``BGPUpdate.__post_init__``'s ``ValueError``);
* a BGP4MP header with an AFI other than 1 / 2 followed by a prefix
  (``Prefix.__post_init__``'s ``ValueError``);
* in :func:`iter_observations`, a RIB entry whose ``peer_index`` is past the
  PEER_INDEX_TABLE (``IndexError``) and a RIB record before any table (bare
  ``ValueError``).
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional

from repro.bgp.announcement import RouteObservation
from repro.bgp.asn import ASN
from repro.bgp.community import Community, CommunitySet, LargeCommunity
from repro.bgp.messages import BGPUpdate, Origin, PathAttributes
from repro.bgp.path import ASPath, PathSegment, SegmentType
from repro.bgp.prefix import Prefix
from repro.mrt import MRTDecodeError
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
    MRTRecord,
    PeerEntry,
    PeerIndexTable,
    RIBAfiEntry,
    RIBEntryRecord,
)


class _Cursor:
    """A tiny bounds-checked reader over a bytes-like object."""

    __slots__ = ("data", "pos")

    def __init__(self, data, pos: int = 0) -> None:
        self.data = data
        self.pos = pos

    def remaining(self) -> int:
        return len(self.data) - self.pos

    def read(self, count: int):
        if count < 0 or self.remaining() < count:
            raise MRTDecodeError(
                f"truncated record: wanted {count} bytes, {self.remaining()} available"
            )
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def read_uint(self, size: int) -> int:
        return int.from_bytes(self.read(size), "big")


def _decode_prefix_nlri(cursor: _Cursor, afi: int = AFI_IPV4) -> Prefix:
    """Decode one NLRI-encoded prefix (length byte + minimal network bytes)."""
    length = cursor.read_uint(1)
    total_bytes = 4 if afi == AFI_IPV4 else 16
    max_length = total_bytes * 8
    if length > max_length:
        raise MRTDecodeError(f"prefix length {length} exceeds maximum {max_length}")
    n_bytes = (length + 7) // 8
    # Shift instead of concatenating zero padding: works on memoryview
    # chunks (bytes-like concatenation does not) and skips a copy.
    network = int.from_bytes(cursor.read(n_bytes), "big") << (8 * (total_bytes - n_bytes))
    # Bits past the prefix length are "irrelevant" (RFC 4271 section 4.3): masked (PR 19).
    network &= ~((1 << (max_length - length)) - 1)
    return Prefix(network, length, afi)


def _decode_as_path(value, asn_size: int) -> ASPath:
    """Decode the AS_PATH attribute value."""
    cursor = _Cursor(value)
    segments: List[PathSegment] = []
    while cursor.remaining():
        segment_type = cursor.read_uint(1)
        count = cursor.read_uint(1)
        asns = tuple(cursor.read_uint(asn_size) for _ in range(count))
        try:
            segments.append(PathSegment(SegmentType(segment_type), asns))
        except ValueError as exc:
            raise MRTDecodeError(f"unknown AS path segment type {segment_type}") from exc
    return ASPath.from_segments(segments)


def decode_path_attributes(value, *, asn_size: int = 4) -> PathAttributes:
    """Decode a BGP path attribute blob into :class:`PathAttributes`.

    *value* may be ``bytes`` or a ``memoryview`` slice; every consumer below
    (``struct.unpack``, ``int.from_bytes``, indexing) reads either without
    copying.
    """
    cursor = _Cursor(value)
    as_path: Optional[ASPath] = None
    origin = Origin.INCOMPLETE
    next_hop = 0
    med: Optional[int] = None
    local_pref: Optional[int] = None
    communities: List = []

    while cursor.remaining():
        flags = cursor.read_uint(1)
        type_code = cursor.read_uint(1)
        length = cursor.read_uint(2 if flags & ATTR_FLAG_EXTENDED_LENGTH else 1)
        body = cursor.read(length)

        if type_code == PathAttributeType.ORIGIN and body:
            origin = Origin(body[0]) if body[0] in (0, 1, 2) else Origin.INCOMPLETE
        elif type_code == PathAttributeType.AS_PATH:
            as_path = _decode_as_path(body, asn_size)
        elif type_code == PathAttributeType.NEXT_HOP and len(body) >= 4:
            next_hop = int.from_bytes(body[:4], "big")
        elif type_code == PathAttributeType.MULTI_EXIT_DISC and len(body) >= 4:
            med = int.from_bytes(body[:4], "big")
        elif type_code == PathAttributeType.LOCAL_PREF and len(body) >= 4:
            local_pref = int.from_bytes(body[:4], "big")
        elif type_code == PathAttributeType.COMMUNITIES:
            if length % 4:
                raise MRTDecodeError("COMMUNITIES attribute length not a multiple of 4")
            for offset in range(0, length, 4):
                communities.append(Community.from_value(int.from_bytes(body[offset : offset + 4], "big")))
        elif type_code == PathAttributeType.LARGE_COMMUNITIES:
            if length % 12:
                raise MRTDecodeError("LARGE_COMMUNITIES attribute length not a multiple of 12")
            for offset in range(0, length, 12):
                upper, data1, data2 = struct.unpack("!III", body[offset : offset + 12])
                communities.append(LargeCommunity(upper, data1, data2))
        # Unknown attributes are skipped, as a tolerant MRT consumer must.

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
    """Iterator over the MRT records contained in a byte blob."""

    def __init__(self, data: bytes) -> None:
        self._cursor = _Cursor(memoryview(data))
        self._peer_table: Optional[PeerIndexTable] = None

    @property
    def peer_table(self) -> Optional[PeerIndexTable]:
        """The most recently decoded PEER_INDEX_TABLE, if any."""
        return self._peer_table

    def __iter__(self) -> Iterator[MRTRecord]:
        return self

    def __next__(self) -> MRTRecord:
        if self._cursor.remaining() == 0:
            raise StopIteration
        if self._cursor.remaining() < MRT_COMMON_HEADER_SIZE:
            raise MRTDecodeError("trailing bytes shorter than an MRT header")
        timestamp = self._cursor.read_uint(4)
        mrt_type = self._cursor.read_uint(2)
        subtype = self._cursor.read_uint(2)
        length = self._cursor.read_uint(4)
        body = self._cursor.read(length)

        try:
            mrt_type_enum = MRTType(mrt_type)
        except ValueError as exc:
            raise MRTDecodeError(f"unsupported MRT type {mrt_type}") from exc

        if mrt_type_enum == MRTType.TABLE_DUMP_V2:
            record = self._decode_table_dump_v2(timestamp, subtype, body)
        elif mrt_type_enum in (MRTType.BGP4MP, MRTType.BGP4MP_ET):
            record = self._decode_bgp4mp(timestamp, mrt_type_enum, subtype, body)
        else:
            raise MRTDecodeError(f"MRT type {mrt_type_enum.name} not supported by this decoder")
        return record

    # -- TABLE_DUMP_V2 -------------------------------------------------------
    def _decode_table_dump_v2(self, timestamp: int, subtype: int, body: bytes) -> MRTRecord:
        subtype_enum = TableDumpV2Subtype(subtype)
        cursor = _Cursor(body)
        if subtype_enum == TableDumpV2Subtype.PEER_INDEX_TABLE:
            collector_id = cursor.read_uint(4)
            view_len = cursor.read_uint(2)
            view_name = bytes(cursor.read(view_len)).decode(errors="replace")
            peer_count = cursor.read_uint(2)
            peers: List[PeerEntry] = []
            for _ in range(peer_count):
                peer_type = cursor.read_uint(1)
                ipv6 = bool(peer_type & 0x01)
                as4 = bool(peer_type & 0x02)
                bgp_id = cursor.read_uint(4)
                peer_ip = cursor.read_uint(16 if ipv6 else 4)
                peer_asn = cursor.read_uint(4 if as4 else 2)
                peers.append(PeerEntry(peer_asn=peer_asn, peer_ip=peer_ip, peer_bgp_id=bgp_id, ipv6=ipv6))
            table = PeerIndexTable(
                timestamp=timestamp,
                mrt_type=MRTType.TABLE_DUMP_V2,
                subtype=subtype_enum,
                collector_bgp_id=collector_id,
                view_name=view_name,
                peers=tuple(peers),
            )
            self._peer_table = table
            return table

        if subtype_enum in (TableDumpV2Subtype.RIB_IPV4_UNICAST, TableDumpV2Subtype.RIB_IPV6_UNICAST):
            afi = AFI_IPV4 if subtype_enum == TableDumpV2Subtype.RIB_IPV4_UNICAST else AFI_IPV6
            sequence = cursor.read_uint(4)
            prefix = _decode_prefix_nlri(cursor, afi)
            entry_count = cursor.read_uint(2)
            entries: List[RIBAfiEntry] = []
            for _ in range(entry_count):
                peer_index = cursor.read_uint(2)
                originated = cursor.read_uint(4)
                attr_len = cursor.read_uint(2)
                attributes = decode_path_attributes(cursor.read(attr_len), asn_size=4)
                entries.append(RIBAfiEntry(peer_index=peer_index, originated_time=originated, attributes=attributes))
            return RIBEntryRecord(
                timestamp=timestamp,
                mrt_type=MRTType.TABLE_DUMP_V2,
                subtype=subtype_enum,
                sequence=sequence,
                prefix=prefix,
                entries=tuple(entries),
            )

        raise MRTDecodeError(f"TABLE_DUMP_V2 subtype {subtype_enum.name} not supported")

    # -- BGP4MP ---------------------------------------------------------------
    def _decode_bgp4mp(self, timestamp: int, mrt_type: MRTType, subtype: int, body: bytes) -> BGP4MPMessage:
        subtype_enum = BGP4MPSubtype(subtype)
        if subtype_enum not in (BGP4MPSubtype.BGP4MP_MESSAGE, BGP4MPSubtype.BGP4MP_MESSAGE_AS4):
            raise MRTDecodeError(f"BGP4MP subtype {subtype_enum.name} not supported")
        as4 = subtype_enum == BGP4MPSubtype.BGP4MP_MESSAGE_AS4
        asn_size = 4 if as4 else 2

        cursor = _Cursor(body)
        if mrt_type == MRTType.BGP4MP_ET:
            cursor.read_uint(4)  # microsecond timestamp, ignored
        peer_asn = cursor.read_uint(asn_size)
        local_asn = cursor.read_uint(asn_size)
        interface_index = cursor.read_uint(2)
        afi = cursor.read_uint(2)
        addr_size = 4 if afi == AFI_IPV4 else 16
        peer_ip = cursor.read_uint(addr_size)
        local_ip = cursor.read_uint(addr_size)

        marker = cursor.read(16)
        if marker != BGP_MARKER:
            raise MRTDecodeError("BGP message marker mismatch")
        message_length = cursor.read_uint(2)
        message_type = cursor.read_uint(1)
        if message_type != BGPMessageType.UPDATE:
            # Non-UPDATE messages (keepalives, opens) carry no routing data.
            cursor.read(message_length - 19)
            update = None
        else:
            update = self._decode_bgp_update(cursor, message_length - 19, peer_asn, timestamp, asn_size, afi)

        return BGP4MPMessage(
            timestamp=timestamp,
            mrt_type=mrt_type,
            subtype=subtype_enum,
            peer_asn=peer_asn,
            local_asn=local_asn,
            interface_index=interface_index,
            afi=afi,
            peer_ip=peer_ip,
            local_ip=local_ip,
            update=update,
        )

    @staticmethod
    def _decode_bgp_update(
        cursor: _Cursor, body_length: int, peer_asn: ASN, timestamp: int, asn_size: int, afi: int
    ) -> BGPUpdate:
        body = _Cursor(cursor.read(body_length))
        withdrawn_len = body.read_uint(2)
        withdrawn_cursor = _Cursor(body.read(withdrawn_len))
        withdrawn: List[Prefix] = []
        while withdrawn_cursor.remaining():
            withdrawn.append(_decode_prefix_nlri(withdrawn_cursor, afi))
        attr_len = body.read_uint(2)
        attr_bytes = body.read(attr_len)
        attributes = decode_path_attributes(attr_bytes, asn_size=asn_size) if attr_bytes else None
        announced: List[Prefix] = []
        while body.remaining():
            announced.append(_decode_prefix_nlri(body, afi))
        return BGPUpdate(
            peer_asn=peer_asn,
            timestamp=timestamp,
            announced=tuple(announced),
            withdrawn=tuple(withdrawn),
            attributes=attributes,
        )


def decode_records(data: bytes) -> List[MRTRecord]:
    """Decode every record in *data* into a list."""
    return list(MRTDecoder(data))


# -- hand framing, for inputs the encoder refuses (or has no call) to write ----------
def mrt_record(mrt_type: int, subtype: int, body: bytes, timestamp: int = 0) -> bytes:
    """One MRT record around a raw body."""
    return struct.pack("!IHHI", timestamp, mrt_type, subtype, len(body)) + body


def bgp4mp_message(
    message_body: bytes,
    *,
    message_type: int = 2,
    as4: bool = True,
    afi: int = 1,
    extended_timestamp: bool = False,
) -> bytes:
    """A BGP4MP(_ET) MESSAGE(_AS4) record around a raw BGP message body (an
    UPDATE's unless *message_type* says otherwise), peer AS 3356."""
    address = bytes(4 if afi == 1 else 16)
    peer_header = struct.pack("!IIHH" if as4 else "!HHHH", 3356, 0, 0, afi) + address * 2
    message = BGP_MARKER + struct.pack("!HB", 19 + len(message_body), message_type) + message_body
    microseconds = struct.pack("!I", 250000) if extended_timestamp else b""
    return mrt_record(
        17 if extended_timestamp else 16, 4 if as4 else 1, microseconds + peer_header + message
    )


def rib_entries_record(
    entries,
    *,
    nlri: bytes = b"\x18\x08\x08\x08",
    subtype: int = 2,
    sequence: int = 0,
    timestamp: int = 0,
) -> bytes:
    """A RIB_IPV4_UNICAST (*subtype* 4: IPV6) record of ``(peer_index, raw
    attribute blob)`` entries under the raw NLRI *nlri* (8.8.8.0/24)."""
    body = struct.pack("!I", sequence) + nlri + struct.pack("!H", len(entries))
    for peer_index, blob in entries:
        body += struct.pack("!HIH", peer_index, 0, len(blob)) + blob
    return mrt_record(13, subtype, body, timestamp=timestamp)


def rib_record(attribute_blob: bytes, *, peer_index: int = 0, sequence: int = 0) -> bytes:
    """A one-entry RIB_IPV4_UNICAST record for 8.8.8.0/24 around a raw attribute blob."""
    return rib_entries_record([(peer_index, attribute_blob)], sequence=sequence)


def split_records(blob: bytes) -> List[bytes]:
    """Cut a well-formed blob at its record boundaries (framing only)."""
    records: List[bytes] = []
    pos = 0
    while pos < len(blob):
        (length,) = struct.unpack_from("!I", blob, pos + 8)
        records.append(blob[pos : pos + MRT_COMMON_HEADER_SIZE + length])
        pos += MRT_COMMON_HEADER_SIZE + length
    return records


def iter_observations(blob: bytes, collector: str) -> Iterator[RouteObservation]:
    """``collectors.archive.iter_observations_from_mrt`` as it was before PR 16,
    but for one thing: a record is all or nothing (PR 21).  Every peer index
    of a RIB record is resolved before its first observation comes out, so a
    record with a bad index in a later entry contributes nothing."""
    peer_table: Optional[PeerIndexTable] = None
    for record in MRTDecoder(blob):
        if isinstance(record, PeerIndexTable):
            peer_table = record
        elif isinstance(record, RIBEntryRecord):
            if peer_table is None:
                raise ValueError("RIB record before PEER_INDEX_TABLE")
            yield from [
                RouteObservation(
                    collector=collector,
                    peer_asn=peer_table.peers[entry.peer_index].peer_asn,
                    prefix=record.prefix,
                    path=entry.attributes.as_path,
                    communities=entry.attributes.communities,
                    timestamp=entry.originated_time or record.timestamp,
                    from_rib=True,
                )
                for entry in record.entries
            ]
        elif isinstance(record, BGP4MPMessage) and record.update is not None:
            update = record.update
            if update.attributes is None:
                continue
            for prefix in update.announced:
                yield RouteObservation(
                    collector=collector,
                    peer_asn=update.peer_asn,
                    prefix=prefix,
                    path=update.attributes.as_path,
                    communities=update.attributes.communities,
                    timestamp=update.timestamp,
                    from_rib=False,
                )
