"""Binary MRT decoder.

Parses the byte streams produced by :mod:`repro.mrt.encoder` (and any other
standards-conforming writer of the supported record types).  This is the
entry point of the measurement pipeline: collector archives are decoded here
before sanitation and inference.

**One framing walk, two views.**  The header / RIB / BGP4MP / UPDATE framing
-- every ``struct`` layout, bounds check and :class:`MRTDecodeError` -- lives
once (:meth:`MRTDecoder._frame` and below) and produces plain values.  On top
of it sit two thin views that share the decoder's position, peer table and
memos:

* ``next(decoder)`` / :func:`decode_records` wrap the values in the record
  dataclasses of :mod:`repro.mrt.records` (the public API, what the encoder
  round-trips against);
* :meth:`MRTDecoder.blocks` fills :class:`~repro.bgp.announcement.RouteBlock`
  columns, one entry per announced route, with no record, ``Prefix`` or
  ``RouteObservation`` in between.  It is what the pipeline reads
  (:mod:`repro.collectors.archive`): the streaming engine straight off the
  columns, everyone else as the ``Sequence[RouteObservation]`` a block is.

Three things keep the walk cheap.  Every fixed-size header is framed with one
``struct.Struct.unpack_from`` behind one explicit bounds check, at absolute
offsets into a single ``memoryview`` of the input.  A path-attribute blob is
parsed once per file: a RIB dump repeats one blob across prefixes and the
update stream repeats it again, so :class:`MRTDecoder` memoises the decoded
:class:`~repro.bgp.messages.PathAttributes` on the blob's raw bytes.  And a
blob that does miss rarely carries a new community attribute (a collector
day holds ~10x fewer distinct COMMUNITIES values than distinct blobs), so
the COMMUNITIES value bytes are memoised as well, one level further down.
The collector files of one replay share both memos (``MRTDecoder(blob,
share=previous)``): a peer that feeds two collectors sends them the same blobs.
"""

from __future__ import annotations

import struct
from itertools import chain, starmap
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.bgp.announcement import RouteBlock
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

#: Distinct attribute blobs (and distinct COMMUNITIES values) the decoders of
#: one replay remember before they start over.  A full-table RIB dump has
#: millions of entries; the memos are a working set, not a copy of the files.
ATTRIBUTE_MEMO_CAP = 65536

#: One framed NLRI prefix, checked but not parsed: :meth:`Prefix.from_nlri`'s arguments.
_NLRI = Tuple[int, int, bytes]
#: A framed UPDATE body: ``(withdrawn, attributes, announced)``.
_Update = Tuple[Tuple[_NLRI, ...], Optional[PathAttributes], Tuple[_NLRI, ...]]

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


def _frame_nlri(data, pos: int, end: int, afi: int) -> Tuple[_NLRI, int]:
    """Frame one NLRI prefix (length byte + minimal network bytes) at *pos*.

    Returns the prefix (network bytes copied out) and the offset just past it.
    """
    total_bytes = _ADDRESS_BYTES.get(afi)
    if total_bytes is None:
        raise MRTDecodeError(f"unsupported address family {afi}")
    if pos >= end:
        raise _truncated("prefix length", 1, 0)
    length = data[pos]
    if length > total_bytes * 8:
        raise MRTDecodeError(f"prefix length {length} exceeds maximum {total_bytes * 8}")
    pos += 1
    n_bytes = (length + 7) >> 3
    if end - pos < n_bytes:
        raise _truncated("prefix", n_bytes, end - pos)
    return (afi, length, bytes(data[pos : pos + n_bytes])), pos + n_bytes


def _frame_prefixes(data, pos: int, end: int, afi: int) -> Tuple[_NLRI, ...]:
    """Frame the back-to-back NLRI prefixes filling ``data[pos:end]``."""
    prefixes: List[_NLRI] = []
    while pos < end:
        prefix, pos = _frame_nlri(data, pos, end, afi)
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
        asns = struct.unpack_from(f"!{count}{code}", data, pos)
        pos += size
        if pos == end and count and kind is SegmentType.AS_SEQUENCE and not segments:
            # One non-empty AS_SEQUENCE is the whole attribute: no segment
            # objects (:attr:`ASPath.segments` synthesises exactly this one).
            return ASPath(asns)
        segments.append(PathSegment(kind, asns))
    return ASPath.from_segments(segments)


def _decode_attributes(
    value, asn_size: int, community_memo: Dict[bytes, CommunitySet]
) -> PathAttributes:
    """:func:`decode_path_attributes` over the caller's COMMUNITIES memo.

    *community_memo* maps the value bytes of a COMMUNITIES attribute to the
    set built from them.  A blob whose only community attribute is a known
    value gets that very :class:`CommunitySet`; a malformed value raises
    before it could be stored.
    """
    end = len(value)
    pos = 0
    as_path: Optional[ASPath] = None
    origin = Origin.INCOMPLETE
    next_hop = 0
    med: Optional[int] = None
    local_pref: Optional[int] = None
    regular: List[CommunitySet] = []
    large: List[AnyCommunity] = []

    while pos < end:
        if end - pos < 3:
            raise _truncated("attribute header", 3, end - pos)
        type_code = value[pos + 1]
        if value[pos] & ATTR_FLAG_EXTENDED_LENGTH:
            if end - pos < 4:
                raise _truncated("extended attribute header", 4, end - pos)
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
            body = bytes(value[pos : pos + length])
            known = community_memo.get(body)
            if known is None:
                if length % 4:
                    raise MRTDecodeError("COMMUNITIES attribute length not a multiple of 4")
                known = community_memo[body] = CommunitySet(
                    map(Community.from_value, struct.unpack(f"!{length // 4}I", body))
                )
            regular.append(known)
        elif type_code == _ATTR_LARGE_COMMUNITIES:
            if length % 12:
                raise MRTDecodeError("LARGE_COMMUNITIES attribute length not a multiple of 12")
            fields = struct.unpack_from(f"!{length // 4}I", value, pos)
            for index in range(0, len(fields), 3):
                large.append(LargeCommunity(*fields[index : index + 3]))
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
    if len(regular) == 1 and not large:
        communities = regular[0]
    else:
        communities = CommunitySet(chain(large, *regular))
    return PathAttributes(
        as_path=as_path,
        communities=communities,
        origin=origin,
        next_hop=next_hop,
        med=med,
        local_pref=local_pref,
    )


def decode_path_attributes(value, *, asn_size: int = 4) -> PathAttributes:
    """Decode a BGP path attribute blob into :class:`PathAttributes`.

    *value* is any bytes-like object (``bytes``, or a ``memoryview`` slice
    of an archive).  Unknown attributes are skipped; a blob without an
    AS_PATH, a truncated attribute, and a COMMUNITIES / LARGE_COMMUNITIES
    body that is not a whole number of values raise :class:`MRTDecodeError`.
    """
    return _decode_attributes(value, asn_size, {})


class MRTDecoder:
    """One framing walk over the MRT records of a bytes-like blob, two views.

    Iterating the decoder yields the record dataclasses; :meth:`blocks`
    yields the announced routes as column blocks without building them.  Both
    advance the same position, so after a record was rejected
    (:class:`MRTDecodeError`) either view resumes at the next one.

    The decoder reads through one ``memoryview`` over *data* (``bytes``,
    ``bytearray``, ``mmap`` or another ``memoryview``); what it hands out
    holds plain values and copies, never views, so the blob's lifetime is
    not extended.

    Path-attribute blobs are memoised per decoder -- per file, or per replay
    when the files' decoders are chained with *share* -- on ``(asn_size, raw
    bytes)``: equal blobs decode to the *same* immutable
    :class:`PathAttributes` object, so downstream dict probes on its
    ``ASPath`` / ``CommunitySet`` hit the identity shortcut and their cached
    hashes.  Beneath it, COMMUNITIES values are memoised on their raw bytes,
    so blobs that differ elsewhere (path, MED, next hop) still share one
    ``CommunitySet``.  Each memo holds about :data:`ATTRIBUTE_MEMO_CAP`
    entries and both are cleared together when one is full; a blob or value
    that fails to decode is never stored and raises :class:`MRTDecodeError`
    every time it is met.  ``attribute_blobs`` counts the blobs met and
    ``attribute_memo_hits`` those answered from the blob memo.
    """

    def __init__(self, data, *, share: Optional["MRTDecoder"] = None) -> None:
        self._view = memoryview(data)
        self._pos = 0
        self._peer_table: Optional[PeerIndexTable] = None
        self._attribute_memo: Dict[Tuple[int, bytes], PathAttributes] = {}
        self._community_memo: Dict[bytes, CommunitySet] = {}
        if share is not None:
            self._attribute_memo = share._attribute_memo
            self._community_memo = share._community_memo
        self.attribute_blobs = 0
        self.attribute_memo_hits = 0

    @property
    def peer_table(self) -> Optional[PeerIndexTable]:
        """The most recently decoded PEER_INDEX_TABLE, if any."""
        return self._peer_table

    # -- view 1: records -------------------------------------------------------
    def __iter__(self) -> Iterator[MRTRecord]:
        return self

    def __next__(self) -> MRTRecord:
        frame = self._frame()
        if frame is None:
            raise StopIteration
        timestamp, mrt_type, subtype, fields = frame
        if mrt_type is not MRTType.TABLE_DUMP_V2:
            peer_asn, local_asn, interface_index, afi, peer_ip, local_ip, update = fields
            if update is not None:
                withdrawn, attributes, announced = update
                update = BGPUpdate(
                    peer_asn=peer_asn,
                    timestamp=timestamp,
                    announced=tuple(starmap(Prefix.from_nlri, announced)),
                    withdrawn=tuple(starmap(Prefix.from_nlri, withdrawn)),
                    attributes=attributes,
                )
            return BGP4MPMessage(
                timestamp=timestamp,
                mrt_type=mrt_type,
                subtype=subtype,
                peer_asn=peer_asn,
                local_asn=local_asn,
                interface_index=interface_index,
                afi=afi,
                peer_ip=int.from_bytes(peer_ip, "big"),
                local_ip=int.from_bytes(local_ip, "big"),
                update=update,
            )
        if subtype is TableDumpV2Subtype.PEER_INDEX_TABLE:
            return fields
        sequence, prefix, entries = fields
        return RIBEntryRecord(
            timestamp=timestamp,
            mrt_type=mrt_type,
            subtype=subtype,
            sequence=sequence,
            prefix=Prefix.from_nlri(*prefix),
            entries=tuple(starmap(RIBAfiEntry, entries)),
        )

    # -- view 2: route blocks --------------------------------------------------
    def blocks(self, collector: str, size: int) -> Iterator[RouteBlock]:
        """The announced routes of the remaining records as column blocks.

        One entry per RIB entry and per announced prefix of an UPDATE, in
        archive order, *size* to a block (the last may be short); peer
        tables, withdrawals and non-UPDATE messages are stepped over.  A RIB
        entry's ``peer_index`` is resolved through the last PEER_INDEX_TABLE
        this decoder met -- a RIB record before any table, or an index past
        it, is an :class:`MRTDecodeError` like everything else the wire format
        forbids.  A record is framed whole and its peers resolved before its
        first route goes in: a rejected record contributes nothing, what came
        before it comes out ahead of the error, a new call resumes after it.
        """
        if size < 1:
            raise ValueError(f"block size must be >= 1, got {size}")
        block = RouteBlock(collector)
        try:
            for timestamp, mrt_type, subtype, fields in iter(self._frame, None):
                # Routes = (time, peer, attributes) entries x prefixes: an
                # UPDATE has one entry, a RIB record one prefix.
                rib = mrt_type is MRTType.TABLE_DUMP_V2
                if not rib:
                    if fields[6] is None:
                        continue
                    entries = [(timestamp, fields[0], fields[6][1])]
                    prefixes = fields[6][2]
                elif subtype is not TableDumpV2Subtype.PEER_INDEX_TABLE:
                    peer_table = self._peer_table
                    if peer_table is None:
                        raise MRTDecodeError("RIB record before PEER_INDEX_TABLE")
                    entries = [
                        (originated or timestamp, peer_table.peer_asn_at(peer_index), attributes)
                        for peer_index, originated, attributes in fields[2]
                    ]
                    prefixes = (fields[1],)
                else:
                    continue
                for time, peer_asn, attributes in entries:
                    for afi, length, network in prefixes:
                        block.timestamps.append(time)
                        block.peer_asns.append(peer_asn)
                        block.paths.append(attributes.as_path)
                        block.communities.append(attributes.communities)
                        block.from_rib.append(rib)
                        block.afis.append(afi)
                        block.prefix_lengths.append(length)
                        block.networks.append(network)
                while len(block.timestamps) >= size:  # a record may run over
                    yield block[:size]
                    block = block[size:]
        except MRTDecodeError:
            if len(block):
                yield block
            raise
        if len(block):
            yield block

    # -- the framing walk ------------------------------------------------------
    def _frame(self) -> Optional[Tuple[int, MRTType, Any, Any]]:
        """Frame the next record: ``(timestamp, mrt_type, subtype, fields)``.

        ``None`` at the end of the input.  *mrt_type* and *subtype* are the
        enum members; *fields* is the decoded :class:`PeerIndexTable` (kept as
        :attr:`peer_table`), :meth:`_frame_rib`'s or :meth:`_frame_bgp4mp`'s
        tuple.
        """
        view = self._view
        pos = self._pos
        available = len(view) - pos
        if available == 0:
            return None
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
            table_subtype = _TABLE_DUMP_V2_SUBTYPES.get(subtype)
            if table_subtype is None:
                raise MRTDecodeError(f"unknown TABLE_DUMP_V2 subtype {subtype}")
            if table_subtype is TableDumpV2Subtype.PEER_INDEX_TABLE:
                return (
                    timestamp,
                    mrt_type_enum,
                    table_subtype,
                    self._frame_peer_index_table(timestamp, pos, end),
                )
            afi = _RIB_AFI.get(table_subtype)
            if afi is None:
                raise MRTDecodeError(f"TABLE_DUMP_V2 subtype {table_subtype.name} not supported")
            return timestamp, mrt_type_enum, table_subtype, self._frame_rib(pos, end, afi)
        if mrt_type_enum is MRTType.BGP4MP or mrt_type_enum is MRTType.BGP4MP_ET:
            message_subtype = _BGP4MP_SUBTYPES.get(subtype)
            if message_subtype is None:
                raise MRTDecodeError(f"unknown BGP4MP subtype {subtype}")
            if mrt_type_enum is MRTType.BGP4MP_ET:
                pos += 4  # microsecond timestamp, ignored
            return (
                timestamp,
                mrt_type_enum,
                message_subtype,
                self._frame_bgp4mp(message_subtype, pos, end),
            )
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
        community_memo = self._community_memo
        if len(memo) >= ATTRIBUTE_MEMO_CAP or len(community_memo) >= ATTRIBUTE_MEMO_CAP:
            memo.clear()
            community_memo.clear()
        attributes = memo[key] = _decode_attributes(raw, asn_size, community_memo)
        return attributes

    # -- TABLE_DUMP_V2 -------------------------------------------------------
    def _frame_rib(
        self, pos: int, end: int, afi: int
    ) -> Tuple[int, _NLRI, List[Tuple[int, int, PathAttributes]]]:
        """``(sequence, prefix, [(peer_index, originated_time, attributes)])``."""
        view = self._view
        if end - pos < 4:
            raise _truncated("RIB sequence number", 4, end - pos)
        (sequence,) = _U32.unpack_from(view, pos)
        prefix, pos = _frame_nlri(view, pos + 4, end, afi)
        if end - pos < 2:
            raise _truncated("RIB entry count", 2, end - pos)
        (entry_count,) = _U16.unpack_from(view, pos)
        pos += 2
        entries: List[Tuple[int, int, PathAttributes]] = []
        for _ in range(entry_count):
            if end - pos < _RIB_ENTRY.size:
                raise _truncated("RIB entry", _RIB_ENTRY.size, end - pos)
            peer_index, originated, attr_len = _RIB_ENTRY.unpack_from(view, pos)
            pos += _RIB_ENTRY.size
            if end - pos < attr_len:
                raise _truncated("RIB entry attributes", attr_len, end - pos)
            entries.append((peer_index, originated, self._attributes(pos, pos + attr_len, 4)))
            pos += attr_len
        return sequence, prefix, entries

    def _frame_peer_index_table(self, timestamp: int, pos: int, end: int) -> PeerIndexTable:
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
                raise _truncated("peer type", 1, 0)
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
    def _frame_bgp4mp(self, subtype: BGP4MPSubtype, pos: int, end: int) -> Tuple[Any, ...]:
        """``(peer_asn, local_asn, interface_index, afi, peer_ip, local_ip,
        update)``: the addresses as raw bytes, *update* as
        :meth:`_frame_bgp_update` returns it, ``None`` for a non-UPDATE."""
        peer_header = _BGP4MP_PEER_HEADERS.get(subtype)
        if peer_header is None:
            raise MRTDecodeError(f"BGP4MP subtype {subtype.name} not supported")
        asn_size = 4 if subtype is BGP4MPSubtype.BGP4MP_MESSAGE_AS4 else 2

        view = self._view
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
        update: Optional[_Update] = None
        if message_type == _MSG_UPDATE:
            update = self._frame_bgp_update(pos, pos + body_length, asn_size, afi)
        return peer_asn, local_asn, interface_index, afi, peer_ip, local_ip, update

    def _frame_bgp_update(self, pos: int, end: int, asn_size: int, afi: int) -> _Update:
        """``(withdrawn, attributes, announced)`` of the UPDATE in ``view[pos:end]``."""
        view = self._view
        if end - pos < 2:
            raise _truncated("withdrawn routes length", 2, end - pos)
        (withdrawn_len,) = _U16.unpack_from(view, pos)
        pos += 2
        # The attribute length field must follow the withdrawn routes.
        if end - pos < withdrawn_len + 2:
            raise _truncated("withdrawn routes", withdrawn_len + 2, end - pos)
        withdrawn = _frame_prefixes(view, pos, pos + withdrawn_len, afi)
        pos += withdrawn_len
        (attr_len,) = _U16.unpack_from(view, pos)
        pos += 2
        if end - pos < attr_len:
            raise _truncated("path attributes", attr_len, end - pos)
        attributes = self._attributes(pos, pos + attr_len, asn_size) if attr_len else None
        announced = _frame_prefixes(view, pos + attr_len, end, afi)
        if announced and attributes is None:
            raise MRTDecodeError("UPDATE announces NLRI without path attributes")
        return withdrawn, attributes, announced


def decode_records(data) -> List[MRTRecord]:
    """Decode every record in *data* into a list."""
    return list(MRTDecoder(data))
