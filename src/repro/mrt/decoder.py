"""Binary MRT decoder.

Parses the byte streams produced by :mod:`repro.mrt.encoder` (and any other
standards-conforming writer of the supported record types).  This is the
entry point of the measurement pipeline: collector archives are decoded here
before sanitation and inference.

**One framing walk, two views.**  The header / RIB / BGP4MP / UPDATE framing
-- every ``struct`` layout, bounds check and :class:`MRTDecodeError` -- lives
once, in :meth:`MRTDecoder._walk`, a generator that frames one record per
step into plain values.  On top of it sit two thin views that share the
decoder's position, peer table and memos:

* ``next(decoder)`` / :func:`decode_records` wrap the values in the record
  dataclasses of :mod:`repro.mrt.records` (the public API, what the encoder
  round-trips against);
* :meth:`MRTDecoder.blocks` fills :class:`~repro.bgp.announcement.RouteBlock`
  columns, one entry per announced route, with no record, ``Prefix`` or
  ``RouteObservation`` in between.  It is what the pipeline reads
  (:mod:`repro.collectors.archive`): the streaming engine straight off the
  columns, everyone else as the ``Sequence[RouteObservation]`` a block is.

Three things keep the walk cheap.  It is one loop: the input, the
``struct`` unpackers and the memo's ``get`` stay in locals across records,
type and subtype stay integers (only the records view looks up their enum
members), and the NLRI and RIB entries are framed inline behind explicit
bounds checks.  A path-attribute blob is parsed once per replay: a RIB dump
repeats one blob across prefixes and the update stream repeats it again, so
the decoded :class:`~repro.bgp.messages.PathAttributes` is memoised on the
blob's bytes -- one slice, since ``bytes`` and ``mmap`` input is read in
place and other bytes-like input copied once.  And a blob that misses
rarely carries a new community attribute (~10x fewer distinct COMMUNITIES
values than distinct blobs on a collector day), so those value bytes are
memoised one level further down.  On the benchmark's isolario day (2-core
host, memo warm) a record costs the blocks view ~3.5 us where the framing
methods the walk replaced took ~5.4 us, and a blob that misses ~5.9 us
instead of ~7.7 us.  The files of one replay share both memos
(``MRTDecoder(blob, share=previous)``): a peer that feeds two collectors
sends them the same blobs.
"""

from __future__ import annotations

import mmap
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

#: One checked NLRI prefix: ``(afi, length, network bytes)``.
_NLRI = Tuple[int, int, bytes]
#: One framed record, as :meth:`MRTDecoder._walk` yields it.
_Frame = Tuple[int, int, int, List[Tuple[int, int, PathAttributes]], List[_NLRI], Any]

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
#: BGP4MP peer header (peer AS, local AS, interface index, AFI), ASN size by subtype.
_BGP4MP_PEER_HEADERS = {
    int(BGP4MPSubtype.BGP4MP_MESSAGE): (struct.Struct("!HHHH"), 2),
    int(BGP4MPSubtype.BGP4MP_MESSAGE_AS4): (struct.Struct("!IIHH"), 4),
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
    int(TableDumpV2Subtype.RIB_IPV4_UNICAST): AFI_IPV4,
    int(TableDumpV2Subtype.RIB_IPV6_UNICAST): AFI_IPV6,
}
_MAX_PREFIX_LENGTH = {AFI_IPV4: 32, AFI_IPV6: 128}
_ASN_FORMAT = {2: "H", 4: "I"}
#: ``Struct`` of an AS_SEQUENCE's ASNs by ``(count, asn_size)``, made on first use.
_SEQUENCE_LAYOUTS: Dict[Tuple[int, int], struct.Struct] = {}

_TABLE_DUMP_V2 = int(MRTType.TABLE_DUMP_V2)
_BGP4MP = int(MRTType.BGP4MP)
_BGP4MP_ET = int(MRTType.BGP4MP_ET)
_PEER_INDEX_TABLE = int(TableDumpV2Subtype.PEER_INDEX_TABLE)
_ATTR_ORIGIN = int(PathAttributeType.ORIGIN)
_ATTR_AS_PATH = int(PathAttributeType.AS_PATH)
_ATTR_NEXT_HOP = int(PathAttributeType.NEXT_HOP)
_ATTR_MED = int(PathAttributeType.MULTI_EXIT_DISC)
_ATTR_LOCAL_PREF = int(PathAttributeType.LOCAL_PREF)
_ATTR_COMMUNITIES = int(PathAttributeType.COMMUNITIES)
_ATTR_LARGE_COMMUNITIES = int(PathAttributeType.LARGE_COMMUNITIES)
_MSG_UPDATE = int(BGPMessageType.UPDATE)

_new = object.__new__
_set = object.__setattr__


def _truncated(what: str, wanted: int, available: int) -> MRTDecodeError:
    return MRTDecodeError(f"truncated {what}: wanted {wanted} bytes, {available} available")


def _unsupported(mrt_type: int, subtype: int) -> MRTDecodeError:
    """The error for a record type or subtype the walk does not frame."""
    kind = _MRT_TYPES.get(mrt_type)
    if kind is None:
        return MRTDecodeError(f"unsupported MRT type {mrt_type}")
    if kind is MRTType.TABLE_DUMP_V2:
        table_subtype = _TABLE_DUMP_V2_SUBTYPES.get(subtype)
        if table_subtype is None:
            return MRTDecodeError(f"unknown TABLE_DUMP_V2 subtype {subtype}")
        return MRTDecodeError(f"TABLE_DUMP_V2 subtype {table_subtype.name} not supported")
    if kind is MRTType.BGP4MP or kind is MRTType.BGP4MP_ET:
        message_subtype = _BGP4MP_SUBTYPES.get(subtype)
        if message_subtype is None:
            return MRTDecodeError(f"unknown BGP4MP subtype {subtype}")
        return MRTDecodeError(f"BGP4MP subtype {message_subtype.name} not supported")
    return MRTDecodeError(f"MRT type {kind.name} not supported by this decoder")


def _decode_as_path(data: bytes, pos: int, end: int, asn_size: int) -> ASPath:
    """Decode the AS_PATH attribute value in ``data[pos:end]``."""
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
        layout = _SEQUENCE_LAYOUTS.get((count, asn_size))
        if layout is None:
            layout = _SEQUENCE_LAYOUTS[count, asn_size] = struct.Struct(f"!{count}{_ASN_FORMAT[asn_size]}")
        asns = layout.unpack_from(data, pos)
        pos += size
        if pos == end and count and kind is SegmentType.AS_SEQUENCE and not segments:
            # One non-empty AS_SEQUENCE is the whole attribute: no segment
            # objects (:attr:`ASPath.segments` synthesises exactly this one).
            return ASPath(asns)
        segments.append(PathSegment(kind, asns))
    return ASPath.from_segments(segments)


def _decode_attributes(
    value: bytes, asn_size: int, community_memo: Dict[bytes, CommunitySet]
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
            body = value[pos : pos + length]
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
    # The frozen dataclass, filled as its ``__init__`` would, minus the lookups.
    attributes = _new(PathAttributes)
    _set(attributes, "as_path", as_path)
    _set(attributes, "communities", communities)
    _set(attributes, "origin", origin)
    _set(attributes, "next_hop", next_hop)
    _set(attributes, "local_pref", local_pref)
    _set(attributes, "med", med)
    return attributes


def decode_path_attributes(value, *, asn_size: int = 4) -> PathAttributes:
    """Decode a BGP path attribute blob into :class:`PathAttributes`.

    *value* is any bytes-like object (``bytes``, or a ``memoryview`` slice
    of an archive).  Unknown attributes are skipped; a blob without an
    AS_PATH, a truncated attribute, and a COMMUNITIES / LARGE_COMMUNITIES
    body that is not a whole number of values raise :class:`MRTDecodeError`.
    """
    return _decode_attributes(bytes(value), asn_size, {})


def _record(frame: _Frame) -> MRTRecord:
    """The record dataclass of one frame of :meth:`MRTDecoder._walk`."""
    timestamp, mrt_type, subtype, entries, prefixes, extra = frame
    if mrt_type == _TABLE_DUMP_V2:
        if subtype == _PEER_INDEX_TABLE:
            return extra
        return RIBEntryRecord(
            timestamp=timestamp,
            mrt_type=MRTType.TABLE_DUMP_V2,
            subtype=_TABLE_DUMP_V2_SUBTYPES[subtype],
            sequence=extra,
            prefix=Prefix.from_nlri(*prefixes[0]),
            entries=tuple(starmap(RIBAfiEntry, entries)),
        )
    peer_asn, local_asn, interface_index, afi, peer_ip, local_ip, withdrawn = extra
    update = None
    if withdrawn is not None:
        update = BGPUpdate(
            peer_asn=peer_asn,
            timestamp=timestamp,
            announced=tuple(starmap(Prefix.from_nlri, prefixes)),
            withdrawn=tuple(starmap(Prefix.from_nlri, withdrawn)),
            attributes=entries[0][2] if entries else None,
        )
    return BGP4MPMessage(
        timestamp=timestamp,
        mrt_type=_MRT_TYPES[mrt_type],
        subtype=_BGP4MP_SUBTYPES[subtype],
        peer_asn=peer_asn,
        local_asn=local_asn,
        interface_index=interface_index,
        afi=afi,
        peer_ip=int.from_bytes(peer_ip, "big"),
        local_ip=int.from_bytes(local_ip, "big"),
        update=update,
    )


class MRTDecoder:
    """One framing walk over the MRT records of a bytes-like blob, two views.

    Iterating the decoder yields the record dataclasses; :meth:`blocks`
    yields the announced routes as column blocks without building them.  Both
    advance the same position, so after a record was rejected
    (:class:`MRTDecodeError`) either view resumes at the next one.

    *data* is ``bytes``, ``bytearray``, ``mmap`` or a ``memoryview``;
    ``bytes`` and ``mmap`` are read in place, anything else is copied once.
    What the decoder hands out holds plain values and copies, never views,
    so the blob's lifetime is not extended.

    Path-attribute blobs are memoised per decoder -- per file, or per replay
    when the files' decoders are chained with *share* -- on their raw bytes
    (and on ``(2, raw bytes)`` for a blob of 2-byte ASNs): equal blobs decode
    to the *same* immutable :class:`PathAttributes` object, so downstream
    dict probes on its ``ASPath`` / ``CommunitySet`` hit the identity
    shortcut and their cached hashes.  Beneath it, COMMUNITIES values are
    memoised on their raw bytes, so blobs that differ elsewhere (path, MED,
    next hop) still share one ``CommunitySet``.  Each memo holds about
    :data:`ATTRIBUTE_MEMO_CAP` entries and both are cleared together when one
    is full; a blob or value that fails to decode is never stored and raises
    :class:`MRTDecodeError` every time it is met.  ``attribute_blobs`` counts
    the blobs met and ``attribute_memo_hits`` those answered from the blob
    memo.
    """

    def __init__(self, data, *, share: Optional["MRTDecoder"] = None) -> None:
        self._data = data if isinstance(data, (bytes, mmap.mmap)) else bytes(data)
        self._pos = 0
        self._peer_table: Optional[PeerIndexTable] = None
        self._attribute_memo: Dict[Any, PathAttributes] = {}
        self._community_memo: Dict[bytes, CommunitySet] = {}
        if share is not None:
            self._attribute_memo = share._attribute_memo
            self._community_memo = share._community_memo
        self.attribute_blobs = 0
        self._attribute_misses = 0

    @property
    def peer_table(self) -> Optional[PeerIndexTable]:
        """The most recently decoded PEER_INDEX_TABLE, if any."""
        return self._peer_table

    @property
    def attribute_memo_hits(self) -> int:
        """How many of the ``attribute_blobs`` the blob memo answered."""
        return self.attribute_blobs - self._attribute_misses

    # -- view 1: records -------------------------------------------------------
    def __iter__(self) -> Iterator[MRTRecord]:
        return map(_record, self._walk())

    def __next__(self) -> MRTRecord:
        return _record(next(self._walk()))

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
        # One row per route, in the order of the block's columns.
        rows: List[tuple] = []
        append = rows.append
        table = self._peer_table
        try:
            for timestamp, mrt_type, subtype, entries, prefixes, extra in self._walk():
                if mrt_type != _TABLE_DUMP_V2:
                    # An UPDATE's one attribute set, for each announced prefix.
                    for peer_asn, _, attributes in entries:
                        path, communities = attributes.as_path, attributes.communities
                        for afi, length, network in prefixes:
                            append((timestamp, peer_asn, path, communities, False, afi, length, network))
                elif subtype == _PEER_INDEX_TABLE:
                    table = extra
                else:
                    if table is None:
                        raise MRTDecodeError("RIB record before PEER_INDEX_TABLE")
                    peers = table.peers
                    ((afi, length, network),) = prefixes
                    mark = len(rows)
                    for peer_index, originated, attributes in entries:
                        if peer_index >= len(peers):
                            del rows[mark:]  # all or nothing
                            table.peer_asn_at(peer_index)  # raises: past the table
                        append((originated or timestamp, peers[peer_index].peer_asn, attributes.as_path,
                                attributes.communities, True, afi, length, network))
                while len(rows) >= size:  # a record may run over
                    yield RouteBlock.from_rows(collector, rows[:size])
                    del rows[:size]
        except MRTDecodeError:
            if rows:
                yield RouteBlock.from_rows(collector, rows)
            raise
        if rows:
            yield RouteBlock.from_rows(collector, rows)

    # -- the framing walk ------------------------------------------------------
    def _walk(self) -> Iterator[_Frame]:
        """Frame the records from the decoder's position on, one per step:
        ``(timestamp, mrt_type, subtype, entries, prefixes, extra)``, type and
        subtype as integers, each prefix a checked ``(afi, length, network)``.

        A RIB record gives its ``(peer_index, originated_time, attributes)``
        entries, its one prefix and its sequence number; a BGP4MP message
        ``[(peer_asn, timestamp, attributes)]`` for an UPDATE with path
        attributes, its announced prefixes and ``(peer_asn, local_asn,
        interface_index, afi, peer_ip, local_ip, withdrawn)`` (raw address
        bytes; *withdrawn* ``None`` for a non-UPDATE); a PEER_INDEX_TABLE the
        table, kept as :attr:`peer_table`.  Each step moves the decoder's
        position past its record first, so a rejected record is stepped over
        and any walk, of either view, resumes after it.
        """
        data = self._data
        size = len(data)
        unpack_header = _MRT_HEADER.unpack_from
        unpack_u16 = _U16.unpack_from
        unpack_u32 = _U32.unpack_from
        unpack_entry = _RIB_ENTRY.unpack_from
        entry_size = _RIB_ENTRY.size
        memo_get = self._attribute_memo.get
        while True:
            pos = self._pos
            available = size - pos
            if available == 0:
                return
            if available < MRT_COMMON_HEADER_SIZE:
                raise MRTDecodeError("trailing bytes shorter than an MRT header")
            timestamp, mrt_type, subtype, length = unpack_header(data, pos)
            pos += MRT_COMMON_HEADER_SIZE
            if available - MRT_COMMON_HEADER_SIZE < length:
                raise _truncated("record", length, available - MRT_COMMON_HEADER_SIZE)
            end = pos + length
            # A record that fails to decode is still stepped over.
            self._pos = end

            if mrt_type == _TABLE_DUMP_V2:
                afi = _RIB_AFI.get(subtype)
                if afi is None:
                    if subtype != _PEER_INDEX_TABLE:
                        raise _unsupported(mrt_type, subtype)
                    table = self._frame_peer_index_table(timestamp, pos, end)
                    yield timestamp, mrt_type, subtype, [], [], table
                    continue
                rib = True
                asn_size = 4
                if end - pos < 4:
                    raise _truncated("RIB sequence number", 4, end - pos)
                (extra,) = unpack_u32(data, pos)
                spans: Tuple[Tuple[int, int], ...] = ((pos + 4, end),)
            elif mrt_type == _BGP4MP or mrt_type == _BGP4MP_ET:
                peer_header = _BGP4MP_PEER_HEADERS.get(subtype)
                if peer_header is None:
                    raise _unsupported(mrt_type, subtype)
                layout, asn_size = peer_header
                if mrt_type == _BGP4MP_ET:
                    if end - pos < 4:
                        raise _truncated("BGP4MP_ET microsecond timestamp", 4, end - pos)
                    pos += 4  # ignored
                if end - pos < layout.size:
                    raise _truncated("BGP4MP header", layout.size, end - pos)
                peer_asn, local_asn, interface_index, afi = layout.unpack_from(data, pos)
                pos += layout.size
                message = _BGP4MP_MESSAGE_V4 if afi == AFI_IPV4 else _BGP4MP_MESSAGE_V6
                if end - pos < message.size:
                    raise _truncated("BGP4MP message header", message.size, end - pos)
                peer_ip, local_ip, marker, message_length, message_type = message.unpack_from(data, pos)
                pos += message.size
                if marker != BGP_MARKER:
                    raise MRTDecodeError("BGP message marker mismatch")
                body_length = message_length - _BGP_HEADER_SIZE
                if body_length < 0:
                    raise MRTDecodeError(
                        f"BGP message length {message_length} is shorter than its"
                        f" {_BGP_HEADER_SIZE}-byte header"
                    )
                if end - pos < body_length:
                    raise _truncated("BGP message", body_length, end - pos)
                if message_type != _MSG_UPDATE:
                    # Non-UPDATE messages (keepalives, opens) carry no routing data.
                    extra = (peer_asn, local_asn, interface_index, afi, peer_ip, local_ip, None)
                    yield timestamp, mrt_type, subtype, [], [], extra
                    continue
                rib = False
                end = pos + body_length  # bytes after the BGP message are not ours
                if end - pos < 2:
                    raise _truncated("withdrawn routes length", 2, end - pos)
                (withdrawn_len,) = unpack_u16(data, pos)
                pos += 2
                # The attribute length field must follow the withdrawn routes.
                if end - pos < withdrawn_len + 2:
                    raise _truncated("withdrawn routes", withdrawn_len + 2, end - pos)
                (attr_len,) = unpack_u16(data, pos + withdrawn_len)
                attr_pos = pos + withdrawn_len + 2
                if end - attr_pos < attr_len:
                    raise _truncated("path attributes", attr_len, end - attr_pos)
                spans = ((pos, pos + withdrawn_len), (attr_pos + attr_len, end))
            else:
                raise _unsupported(mrt_type, subtype)

            # The NLRI, each prefix a length byte and its minimal network
            # bytes: a RIB record's one prefix, an UPDATE's withdrawn routes
            # and its announced ones.
            max_length = _MAX_PREFIX_LENGTH.get(afi)
            nlri = []
            for start, stop in spans:
                prefixes = []
                while start < stop:
                    if max_length is None:
                        raise MRTDecodeError(f"unsupported address family {afi}")
                    prefix_length = data[start]
                    if prefix_length > max_length:
                        raise MRTDecodeError(f"prefix length {prefix_length} exceeds maximum {max_length}")
                    start += 1
                    n_bytes = (prefix_length + 7) >> 3
                    if stop - start < n_bytes:
                        raise _truncated("prefix", n_bytes, stop - start)
                    prefixes.append((afi, prefix_length, data[start : start + n_bytes]))
                    start += n_bytes
                    if rib:
                        break
                nlri.append(prefixes)

            # The attribute blobs: a RIB record's entries, an UPDATE's one set.
            if rib:
                if not prefixes:
                    raise _truncated("prefix length", 1, 0)
                pos = start
                if end - pos < 2:
                    raise _truncated("RIB entry count", 2, end - pos)
                (count,) = unpack_u16(data, pos)
                pos += 2
            else:
                withdrawn, prefixes = nlri
                extra = (peer_asn, local_asn, interface_index, afi, peer_ip, local_ip, withdrawn)
                if prefixes and not attr_len:
                    raise MRTDecodeError("UPDATE announces NLRI without path attributes")
                pos = attr_pos
                count = 1 if attr_len else 0
                peer, originated = peer_asn, timestamp
            entries = []
            for _ in range(count):
                if rib:
                    if end - pos < entry_size:
                        raise _truncated("RIB entry", entry_size, end - pos)
                    peer, originated, attr_len = unpack_entry(data, pos)
                    pos += entry_size
                    if end - pos < attr_len:
                        raise _truncated("RIB entry attributes", attr_len, end - pos)
                raw = data[pos : pos + attr_len]
                key = raw if asn_size == 4 else (asn_size, raw)
                self.attribute_blobs += 1
                attributes = memo_get(key)
                if attributes is None:
                    attributes = self._parse(key, raw, asn_size)
                entries.append((peer, originated, attributes))
                pos += attr_len
            yield timestamp, mrt_type, subtype, entries, prefixes, extra

    def _parse(self, key: Any, raw: bytes, asn_size: int) -> PathAttributes:
        """A blob the memo does not know: parsed, and kept unless it fails."""
        self._attribute_misses += 1
        memo = self._attribute_memo
        community_memo = self._community_memo
        if len(memo) >= ATTRIBUTE_MEMO_CAP or len(community_memo) >= ATTRIBUTE_MEMO_CAP:
            memo.clear()
            community_memo.clear()
        attributes = memo[key] = _decode_attributes(raw, asn_size, community_memo)
        return attributes

    # -- TABLE_DUMP_V2 -------------------------------------------------------
    def _frame_peer_index_table(self, timestamp: int, pos: int, end: int) -> PeerIndexTable:
        data = self._data
        if end - pos < _PEER_TABLE_HEADER.size:
            raise _truncated("PEER_INDEX_TABLE", _PEER_TABLE_HEADER.size, end - pos)
        collector_id, view_len = _PEER_TABLE_HEADER.unpack_from(data, pos)
        pos += _PEER_TABLE_HEADER.size
        if end - pos < view_len + 2:
            raise _truncated("PEER_INDEX_TABLE view name", view_len + 2, end - pos)
        view_name = data[pos : pos + view_len].decode(errors="replace")
        (peer_count,) = _U16.unpack_from(data, pos + view_len)
        pos += view_len + 2
        peers: List[PeerEntry] = []
        for _ in range(peer_count):
            if pos >= end:
                raise _truncated("peer type", 1, 0)
            layout = _PEER_ENTRIES[data[pos] & 0x03]
            if end - pos < layout.size:
                raise _truncated("peer entry", layout.size, end - pos)
            peer_type, bgp_id, peer_ip, peer_asn = layout.unpack_from(data, pos)
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


def decode_records(data) -> List[MRTRecord]:
    """Decode every record in *data* into a list."""
    return list(MRTDecoder(data))
