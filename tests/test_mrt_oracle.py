"""The production MRT decoder pinned to the ``_Cursor`` oracle.

``tests/mrt_oracle.py`` is the decoder as it was before it learned to memoise
attribute blobs and frame headers with ``struct``.  Every well-formed input
must decode to the same records, and every mutated one must end the same
way: the same record prefix, then either a clean end or a rejection.  The
same holds for the route blocks production reads (``MRTDecoder.blocks``, and
``iter_observations_from_mrt`` on top of it) against the oracle's
record-by-record observation loop: column by column, ``prefix(i)`` included,
at every block size.
"""

import re
import struct

import mrt_oracle
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from mrt_oracle import bgp4mp_message, mrt_record, rib_entries_record, split_records

from repro.bgp.announcement import RouteBlock, RouteObservation
from repro.bgp.community import CommunitySet
from repro.bgp.messages import BGPUpdate, Origin, PathAttributes
from repro.bgp.path import ASPath, PathSegment, SegmentType
from repro.bgp.prefix import Prefix, parse_prefix
from repro.collectors.archive import iter_observations_from_mrt, observations_from_mrt
from repro.datasets.synthetic import SyntheticConfig, SyntheticInternet
from repro.mrt import MRTDecodeError, MRTDecoder, MRTEncoder, decode_records
from repro.mrt.encoder import encode_path_attributes
from repro.mrt.records import BGP4MPMessage, RIBEntryRecord

V4 = (parse_prefix("8.8.8.0/24"), parse_prefix("9.9.0.0/16"), parse_prefix("0.0.0.0/0"))
V6 = (parse_prefix("2001:db8::/32"), parse_prefix("2a00:1450:4000::/37"))

PLAIN = PathAttributes(as_path=ASPath([3356, 1299, 64496]))
RICH = PathAttributes(
    as_path=ASPath([3356, 1299, 200000]),
    communities=CommunitySet.from_strings(["3356:100", "1299:20000", "200000:5:6", "4200000000:1:2"]),
    origin=Origin.EGP,
    next_hop=0x0A000001,
    med=50,
    local_pref=120,
)
#: Like RICH, but encodable with 2-byte ASNs.
NARROW = PathAttributes(as_path=ASPath([3356, 1299, 64496]), communities=RICH.communities, med=7)
#: 70 regular communities = a 280-byte COMMUNITIES body: extended length.
LONG = PathAttributes(
    as_path=ASPath([3356, 1299]),
    communities=CommunitySet.from_strings(f"3356:{value}" for value in range(70)),
)
SEGMENTED = PathAttributes(
    as_path=ASPath.from_segments(
        [
            PathSegment(SegmentType.AS_CONFED_SEQUENCE, (64512, 64513)),
            PathSegment(SegmentType.AS_CONFED_SET, (64514,)),
            PathSegment(SegmentType.AS_SEQUENCE, (3356, 1299)),
            PathSegment(SegmentType.AS_SET, (64496, 64497, 64498)),
            PathSegment(SegmentType.AS_SEQUENCE, ()),
        ]
    )
)


def _encoded(write) -> bytes:
    encoder = MRTEncoder()
    write(encoder)
    return encoder.getvalue()


def _rib(encoder: MRTEncoder) -> None:
    encoder.write_peer_index_table([3356, 1299, 200000], timestamp=9, collector_bgp_id=7, view_name="rrc00")
    encoder.write_rib_entry(V4[0], [(3356, 111, RICH)], sequence=0, timestamp=9)
    encoder.write_rib_entry(V6[0], [(1299, 0, PLAIN)], sequence=1, timestamp=9)
    encoder.write_rib_entry(V4[2], [(200000, 5, LONG)], sequence=2, timestamp=9)
    # Several peers under one prefix, one blob repeated and one empty entry list.
    encoder.write_rib_entry(
        V4[1], [(3356, 1, RICH), (1299, 2, SEGMENTED), (200000, 3, RICH)], sequence=3, timestamp=9
    )
    encoder.write_rib_entry(V6[1], [], sequence=4, timestamp=9)


def _updates(encoder: MRTEncoder) -> None:
    multi = BGPUpdate(peer_asn=3356, timestamp=100, announced=V4, withdrawn=V4[:2], attributes=RICH)
    encoder.write_update(multi)
    encoder.write_update(
        BGPUpdate(peer_asn=3356, timestamp=100, announced=V4, withdrawn=V4[:2], attributes=NARROW),
        as4=False,
        local_asn=64500,
    )
    encoder.write_update(BGPUpdate(peer_asn=1299, timestamp=101, withdrawn=V4[:1]))
    encoder.write_update(BGPUpdate(peer_asn=1299, timestamp=102, announced=V4[:1], attributes=SEGMENTED))
    encoder.write_update(BGPUpdate(peer_asn=1299, timestamp=103, announced=V4[1:2], attributes=LONG), as4=False)
    encoder.write_update(BGPUpdate(peer_asn=1299, timestamp=104))


def _update_body(attributes: bytes, nlri: bytes = b"\x18\x08\x08\x08", withdrawn: bytes = b"") -> bytes:
    return struct.pack("!H", len(withdrawn)) + withdrawn + struct.pack("!H", len(attributes)) + attributes + nlri


def _hand_framed() -> bytes:
    """What :class:`MRTEncoder` has no call for, framed by hand."""
    rich = encode_path_attributes(RICH)
    unknown = (
        bytes([0x40, 6, 0])  # ATOMIC_AGGREGATE, empty
        + bytes([0xC0, 7, 8]) + struct.pack("!II", 64496, 0x0A000001)  # AGGREGATOR
        + bytes([0xD0, 99, 0x01, 0x04]) + bytes(260)  # unassigned type, extended length
        + bytes([0x40, 1, 0])  # ORIGIN with an empty body keeps the default
        + bytes([0x40, 1, 1, 9])  # ORIGIN with an unassigned value
        + bytes([0x40, 3, 2, 1, 2])  # NEXT_HOP too short to read
    )
    # A peer table with all four entry layouts: IPv4/IPv6 address x 2-/4-byte ASN.
    peers = (
        bytes([0]) + struct.pack("!I4sH", 1, bytes([10, 0, 0, 1]), 3356)
        + bytes([1]) + struct.pack("!I16sH", 2, bytes(range(16)), 1299)
        + bytes([2]) + struct.pack("!I4sI", 3, bytes([10, 0, 0, 3]), 200000)
        + bytes([3]) + struct.pack("!I16sI", 4, bytes(range(16, 32)), 4200000000)
    )
    table = struct.pack("!IH", 7, 5) + b"rrc\xff1" + struct.pack("!H", 4) + peers
    v6_nlri = bytes([32, 0x20, 0x01, 0x0D, 0xB8])
    return b"".join(
        [
            mrt_record(13, 1, table, timestamp=9),
            bgp4mp_message(_update_body(rich), extended_timestamp=True),
            bgp4mp_message(_update_body(encode_path_attributes(NARROW, asn_size=2)), as4=False, extended_timestamp=True),
            bgp4mp_message(_update_body(rich + unknown)),
            bgp4mp_message(_update_body(rich, nlri=v6_nlri, withdrawn=v6_nlri), afi=2),
            bgp4mp_message(b"", message_type=4),  # KEEPALIVE
            bgp4mp_message(bytes(10), message_type=1),  # OPEN, body not looked at
            bgp4mp_message(_update_body(rich, nlri=b""), afi=7),  # no prefix, so no family needed
            # Bytes after the BGP message and after the last RIB entry are not the decoder's.
            mrt_record(16, 4, bgp4mp_message(_update_body(rich))[12:] + b"\x00\x01"),
            mrt_record(13, 2, mrt_oracle.rib_record(rich)[12:] + b"\xff"),
        ]
    )


WELL_FORMED = {
    "rib": _encoded(_rib),
    "updates": _encoded(_updates),
    "rib-then-updates": _encoded(lambda encoder: (_rib(encoder), _updates(encoder))),
    "hand-framed": _hand_framed(),
    "empty": b"",
}


def _multi_peer_day():
    """``(day, cut)``: a first-RIB-of-the-day dump and an update stream of a
    synthetic Internet, and a few-KB cut of it.

    The peer table holds 2- and 4-byte peer ASNs; each RIB record carries
    every peer's route to one origin prefix (tens of entries: distinct blobs
    across peers, shared ones across an origin's prefixes), some records are
    IPv6 and one entry's path ends in an AS_SET.  The UPDATEs that follow are
    time-ordered multi-prefix announcements and withdrawals in both families,
    over 2-byte sessions where the peer and path allow it, else 4-byte ones.
    """
    internet = SyntheticInternet.build(SyntheticConfig.small(seed=3))
    peers = internet.collector_peers(["isolario", "routeviews"])
    origins = sorted({origin for peer in peers for origin in internet.paths_by_peer[peer]})[::40]

    def v6(origin, index=0):
        return Prefix((0x20010DB8 << 96) | (origin << 64) | (index << 48), 64, afi=2)

    def attributes(peer, origin):
        path = internet.paths_by_peer[peer][origin].path
        if origin == origins[0] and peer == peers[0]:
            path = ASPath.from_segments(
                [PathSegment(SegmentType.AS_SEQUENCE, path.asns), PathSegment(SegmentType.AS_SET, (64512, 64513))]
            )
        return PathAttributes(as_path=path, communities=internet.propagator.output(path), med=origin % 7 or None)

    rib = MRTEncoder()
    rib.write_peer_index_table(peers, timestamp=1000, collector_bgp_id=7, view_name="multi")
    sequence = 0
    for origin in origins:
        prefixes = internet.topology.prefixes_of(origin) + (v6(origin),) * (origin % 2)
        for prefix in prefixes:
            entries = [(peer, 900 + index, attributes(peer, origin)) for index, peer in enumerate(peers)]
            rib.write_rib_entry(prefix, entries, sequence=sequence, timestamp=1000)
            sequence += 1

    updates = MRTEncoder()
    for step, origin in enumerate(origins):
        peer = peers[step * 5 % len(peers)]
        routes = attributes(peer, origin)
        narrow = peer < 65536 and max(routes.as_path.asns) < 65536
        other = origins[step - 1]
        for announced, withdrawn in [
            (internet.topology.prefixes_of(origin), internet.topology.prefixes_of(other)[:2]),
            ((v6(origin), v6(origin, 1)), (v6(other),)),
            ((), internet.topology.prefixes_of(origin)[:1]),
        ]:
            update = BGPUpdate(
                peer_asn=peer,
                timestamp=2000 + step,
                announced=announced,
                withdrawn=withdrawn,
                attributes=routes if announced else None,
            )
            updates.write_update(update, as4=not narrow, local_asn=64500)

    rib_records, update_records = split_records(rib.getvalue()), split_records(updates.getvalue())
    return b"".join(rib_records + update_records), b"".join(rib_records[:3] + update_records[:6])


MULTI_PEER_DAY, MULTI_PEER_CUT = _multi_peer_day()


def detail(record):
    """A record plus what its ``==`` does not look at.

    ``ASPath.__eq__`` compares the flattened ASNs only, and an ``IntEnum``
    equals its plain value; the wire segments and the enum types are part of
    what the decoder promises.
    """
    routes = [entry.attributes for entry in getattr(record, "entries", ())]
    update = getattr(record, "update", None)
    if update is not None and update.attributes is not None:
        routes.append(update.attributes)
    return (
        record,
        type(record),
        type(record.mrt_type),
        type(record.subtype),
        [(route.as_path.segments, type(route.origin)) for route in routes],
    )


def observation_detail(observation):
    """An observation plus the wire segments its ``==`` does not look at."""
    return observation, observation.path.segments


#: A negative number in an error message: ``"wanted 12 bytes, -2 available"``.
NEGATIVE_COUNT = re.compile(r"(?<![\w-])-\d")


def run(items, describe=detail, *, oracle=False):
    """``(items as detail, how it ended)`` of draining the iterator *items*.

    ``"crashed"`` is an exception that is not :class:`MRTDecodeError`: the
    oracle's documented untyped escapes.  A production rejection must not
    name a negative count: that is a length check run after the position
    moved past the end (the oracle keeps its historical messages).
    """
    seen = []
    try:
        for item in items:
            seen.append(describe(item))
    except MRTDecodeError as error:
        assert oracle or not NEGATIVE_COUNT.search(str(error)), error
        return seen, "rejected"
    except (ValueError, IndexError):
        return seen, "crashed"
    return seen, "clean"


def assert_same_records(blob: bytes) -> str:
    expected, expected_end = run(mrt_oracle.MRTDecoder(blob), oracle=True)
    records, end = run(MRTDecoder(blob))
    assert records == expected
    assert end != "crashed", "production let an untyped exception out"
    assert end == ("clean" if expected_end == "clean" else "rejected")
    return end


def assert_same_outcome(blob: bytes) -> str:
    """Both views against the oracle; how the *records* view ended."""
    assert_same_observations(blob)
    return assert_same_records(blob)


def block_rows(block: RouteBlock):
    """A block read column by column: one observation (plus segments) per row."""
    assert isinstance(block, RouteBlock) and len(block) > 0
    columns = (block.timestamps, block.peer_asns, block.paths, block.communities,
               block.from_rib, block.afis, block.prefix_lengths, block.networks)
    assert {len(column) for column in columns} == {len(block)}
    return [
        observation_detail(
            RouteObservation(
                collector=block.collector,
                peer_asn=block.peer_asns[index],
                prefix=block.prefix(index),
                path=block.paths[index],
                communities=block.communities[index],
                timestamp=block.timestamps[index],
                from_rib=block.from_rib[index],
            )
        )
        for index in range(len(block))
    ]


def drain_blocks(blob: bytes, size: int):
    """``(rows, how it ended)`` of the block view, the whole blob in one call."""
    rows = []
    blocks, end = run(MRTDecoder(blob).blocks("rrc00", size), lambda block: block)
    for block in blocks:
        assert len(block) <= size
        rows.extend(block_rows(block))
        # The observation view of the same block: indexing, iteration, slices.
        assert [observation_detail(item) for item in block] == block_rows(block)
        assert [block[index] for index in range(len(block))] == list(block)
    assert all(len(block) == size for block in blocks[:-1]) or end == "rejected"
    return rows, end


def assert_same_observations(blob: bytes) -> str:
    """The route blocks hold what the oracle's loop yields before it stops,
    at every block size, and stop the same way (they can stop where the
    records view does not: a RIB record before its table, a peer index past
    it); so does the observation iterator on top of them."""
    expected, expected_end = run(
        mrt_oracle.iter_observations(blob, "rrc00"), observation_detail, oracle=True
    )
    for size in (1, 3, 4096):
        rows, end = drain_blocks(blob, size)
        assert rows == expected
        assert end != "crashed", "production let an untyped exception out"
        assert end == ("clean" if expected_end == "clean" else "rejected")
    observations, obs_end = run(iter_observations_from_mrt(blob, "rrc00"), observation_detail)
    assert observations == expected
    assert obs_end != "crashed", "production let an untyped exception out"
    assert obs_end == ("clean" if expected_end == "clean" else "rejected")
    return obs_end


def routes_of(blocks):
    """``(timestamp, peer_asn, prefix, path, communities, from_rib)`` per route."""
    return [
        (item.timestamp, item.peer_asn, item.prefix, item.path, item.communities, item.from_rib)
        for block in blocks
        for item in block
    ]


def route_of(timestamp, peer_asn, prefix, attributes, from_rib):
    return (timestamp, peer_asn, prefix, attributes.as_path, attributes.communities, from_rib)


class TestWellFormedInputs:
    @pytest.mark.parametrize("name", sorted(WELL_FORMED))
    def test_record_by_record(self, name):
        blob = WELL_FORMED[name]
        assert assert_same_outcome(blob) == "clean"
        assert assert_same_observations(blob) == "clean"
        assert len(mrt_oracle.decode_records(blob)) == len(split_records(blob))

    def test_the_catalogue_covers_what_it_claims(self):
        records = mrt_oracle.decode_records(WELL_FORMED["hand-framed"])
        table = records[0]
        assert [(peer.ipv6, peer.peer_asn) for peer in table.peers] == [
            (False, 3356), (True, 1299), (False, 200000), (True, 4200000000)
        ]
        assert table.view_name == "rrc\ufffd1"
        assert [int(record.mrt_type) for record in records[1:3]] == [17, 17]
        assert records[3].update.attributes.origin is Origin.INCOMPLETE
        assert records[3].update.attributes.next_hop == RICH.next_hop
        assert records[4].update.announced[0].is_ipv6
        assert [record.update for record in records[5:7]] == [None, None]
        segmented = mrt_oracle.decode_records(WELL_FORMED["rib"])[4].entries[1].attributes.as_path
        assert segmented.has_as_set and len(segmented.segments) == 5


def _rib_entries(*entries) -> bytes:
    return rib_entries_record(entries, timestamp=9)


class TestRoutesView:
    """What only the route-block view decides: peer indexes, record order, resuming."""

    TABLE = _encoded(lambda encoder: encoder.write_peer_index_table([3356, 1299], timestamp=9))
    RICH_BLOB = encode_path_attributes(RICH)
    PLAIN_BLOB = encode_path_attributes(PLAIN)

    def test_bad_peer_index_rejects_the_whole_record(self):
        good = _rib_entries((1, self.PLAIN_BLOB), (0, self.RICH_BLOB))
        record = _rib_entries(
            (0, self.RICH_BLOB), (1, self.PLAIN_BLOB), (2, self.RICH_BLOB), (0, self.PLAIN_BLOB)
        )
        blob = self.TABLE + good + record + _rib_entries((1, self.PLAIN_BLOB))
        assert assert_same_observations(blob) == "rejected"
        decoder = MRTDecoder(blob)
        blocks = decoder.blocks("rrc00", 4096)
        # The record before it comes out whole, ahead of the error ...
        assert [(route[1], route[3]) for route in routes_of([next(blocks)])] == [
            (1299, PLAIN.as_path), (3356, RICH.as_path)
        ]
        with pytest.raises(MRTDecodeError, match="peer index 2"):
            next(blocks)
        # ... the rejected one contributes nothing, and the next one follows.
        assert [route[1] for route in routes_of(decoder.blocks("rrc00", 4096))] == [1299]

    def test_a_framing_error_wins_over_a_missing_peer_table(self):
        record = _rib_entries((0, self.RICH_BLOB), (0, self.PLAIN_BLOB))
        assert assert_same_observations(record) == "rejected"
        with pytest.raises(MRTDecodeError, match="before PEER_INDEX_TABLE"):
            next(MRTDecoder(record).blocks("rrc00", 1))
        # The second entry claims more attribute bytes than the record holds.
        broken = bytearray(record)
        struct.pack_into("!H", broken, len(record) - len(self.PLAIN_BLOB) - 2, 4000)
        assert assert_same_observations(bytes(broken)) == "rejected"
        with pytest.raises(MRTDecodeError, match="truncated RIB entry attributes"):
            next(MRTDecoder(bytes(broken)).blocks("rrc00", 1))
        # ... and after a table, not even the intact first entry comes out.
        assert observations_from_mrt(self.TABLE + record, "rrc00")
        blocks = MRTDecoder(self.TABLE + bytes(broken)).blocks("rrc00", 1)
        with pytest.raises(MRTDecodeError, match="truncated RIB entry attributes"):
            next(blocks)

    def test_a_later_peer_table_replaces_the_earlier_one(self):
        other = _encoded(lambda encoder: encoder.write_peer_index_table([200000], timestamp=10))
        blob = self.TABLE + _rib_entries((1, self.PLAIN_BLOB)) + other + _rib_entries((0, self.PLAIN_BLOB))
        assert assert_same_observations(blob) == "clean"
        assert [route[1] for route in routes_of(MRTDecoder(blob).blocks("rrc00", 8))] == [1299, 200000]
        assert assert_same_observations(blob + _rib_entries((1, self.PLAIN_BLOB))) == "rejected"

    def test_withdrawals_and_non_updates_yield_no_route(self):
        blob = _encoded(
            lambda encoder: (
                encoder.write_update(BGPUpdate(peer_asn=1299, timestamp=101, withdrawn=V4[:1])),
                encoder.write_update(BGPUpdate(peer_asn=1299, timestamp=104)),
            )
        ) + bgp4mp_message(b"", message_type=4) + bgp4mp_message(bytes(10), message_type=1)
        assert len(mrt_oracle.decode_records(blob)) == 4
        assert assert_same_observations(blob) == "clean"
        assert list(MRTDecoder(blob).blocks("rrc00", 8)) == []

    def test_rib_and_update_routes_carry_the_record_fields(self):
        routes = routes_of(MRTDecoder(WELL_FORMED["rib-then-updates"]).blocks("rrc00", 5))
        assert routes[0] == route_of(111, 3356, V4[0], RICH, True)  # originated time set
        assert routes[1] == route_of(9, 1299, V6[0], PLAIN, True)  # ... and not: the record's
        # A multi-entry RIB record: one prefix, each entry's own peer and time.
        assert routes[3:6] == [
            route_of(1, 3356, V4[1], RICH, True),
            route_of(2, 1299, V4[1], SEGMENTED, True),
            route_of(3, 200000, V4[1], RICH, True),
        ]
        # A multi-NLRI UPDATE: one peer, time and attribute set, each prefix.
        first_update = [route for route in routes if not route[5]][: len(V4)]
        assert first_update == [route_of(100, 3356, prefix, RICH, False) for prefix in V4]

    def test_two_and_four_byte_peers_resolve_through_the_table(self):
        rich = encode_path_attributes(RICH)
        blob = split_records(WELL_FORMED["hand-framed"])[0] + b"".join(
            rib_entries_record([(index, rich)], timestamp=9) for index in range(4)
        )
        assert assert_same_observations(blob) == "clean"
        (block,) = MRTDecoder(blob).blocks("rrc00", 8)
        assert block.peer_asns == [3356, 1299, 200000, 4200000000]

    def test_both_views_resume_at_the_next_record_after_an_error(self):
        good = _rib_entries((0, self.RICH_BLOB))
        last = _rib_entries((1, self.PLAIN_BLOB))
        blob = self.TABLE + good + mrt_record(13, 99, b"") + _rib_entries((7, self.PLAIN_BLOB)) + last

        decoder = MRTDecoder(blob)
        assert [type(next(decoder)).__name__ for _ in range(2)] == ["PeerIndexTable", "RIBEntryRecord"]
        with pytest.raises(MRTDecodeError, match="subtype 99"):
            next(decoder)
        assert next(decoder).entries[0].peer_index == 7  # the records view does not resolve it
        assert next(decoder).entries[0].attributes == PLAIN
        with pytest.raises(StopIteration):
            next(decoder)

        decoder = MRTDecoder(blob)
        blocks = decoder.blocks("rrc00", 4096)
        assert next(blocks).paths == [RICH.as_path]  # what came before the error, cut short
        with pytest.raises(MRTDecodeError, match="subtype 99"):
            next(blocks)
        with pytest.raises(StopIteration):  # a generator that raised is spent ...
            next(blocks)
        with pytest.raises(MRTDecodeError, match="peer index 7"):  # ... a new one resumes
            next(decoder.blocks("rrc00", 4096))
        assert routes_of(decoder.blocks("rrc00", 4096)) == [route_of(9, 1299, V4[0], PLAIN, True)]

        # One position for both views: a rejected record is stepped over for either.
        decoder = MRTDecoder(blob)
        assert len(list(zip(range(2), decoder))) == 2
        with pytest.raises(MRTDecodeError, match="subtype 99"):
            next(decoder.blocks("rrc00", 1))
        assert next(decoder).entries[0].peer_index == 7
        assert [route[1] for route in routes_of(decoder.blocks("rrc00", 1))] == [1299]

    def test_a_block_size_below_one_is_refused(self):
        with pytest.raises(ValueError, match="block size"):
            next(MRTDecoder(WELL_FORMED["rib"]).blocks("rrc00", 0))


class TestRouteBlocks:
    """The block as a value: NLRI kept raw, slices, and its own lifetime."""

    def test_prefix_masks_the_bits_past_its_length(self):
        rich = encode_path_attributes(RICH)
        cases = [
            (1, b"\x00", "0.0.0.0/0"),
            (1, b"\x20\x08\x08\x08\x08", "8.8.8.8/32"),
            (1, b"\x15\x0a\xff\xff", "10.255.248.0/21"),  # 3 bits of the last byte are noise
            (1, b"\x01\xff", "128.0.0.0/1"),
            (2, b"\x00", "::/0"),
            (2, b"\x25\x2a\x00\x14\x50\x47", "2a00:1450:4000::/37"),
            (2, bytes([128]) + bytes(range(1, 17)), "102:304:506:708:90a:b0c:d0e:f10/128"),
        ]
        blob = TestRoutesView.TABLE + b"".join(
            rib_entries_record([(0, rich)], nlri=nlri, subtype=2 if afi == 1 else 4) for afi, nlri, _ in cases
        ) + b"".join(bgp4mp_message(_update_body(rich, nlri=nlri), afi=afi) for afi, nlri, _ in cases)
        assert assert_same_observations(blob) == "clean"
        (block,) = MRTDecoder(blob).blocks("rrc00", 64)
        assert [str(block.prefix(index)) for index in range(len(block))] == [text for *_, text in cases] * 2
        assert block.afis == [afi for afi, *_ in cases] * 2
        assert block.prefix_lengths == [nlri[0] for _, nlri, _ in cases] * 2
        assert block.networks == [nlri[1:] for _, nlri, _ in cases] * 2  # checked, not parsed
        assert all(type(network) is bytes for network in block.networks)

    @pytest.mark.parametrize("name", ["rib", "updates", "rib-then-updates", "hand-framed"])
    def test_slices_are_blocks_over_the_same_events(self, name):
        (block,) = MRTDecoder(WELL_FORMED[name]).blocks("rrc00", 4096)
        rows = block_rows(block)
        for start, stop in [(0, len(block)), (0, 1), (1, 4), (2, None), (len(block) - 1, len(block))]:
            part = block[start:stop]
            assert isinstance(part, RouteBlock) and part.collector == "rrc00"
            assert block_rows(part) == rows[start:stop]
            assert [observation_detail(item) for item in part] == rows[start:stop]
        assert len(block[3:3]) == 0 and list(block[3:3]) == []
        assert block[-1] == list(block)[-1]

    def test_a_block_outlives_its_decoder_and_its_input(self):
        blob = bytearray(WELL_FORMED["rib-then-updates"])
        expected = [observation_detail(item) for item in mrt_oracle.iter_observations(bytes(blob), "rrc00")]
        decoder = MRTDecoder(blob)
        blocks = list(decoder.blocks("rrc00", 7))
        del decoder
        blob[:] = bytes(len(blob))  # a view into the buffer would read zeros now
        del blob
        assert [row for block in blocks for row in block_rows(block)] == expected

    def test_an_observation_list_lowers_to_the_columns_the_engine_reads(self):
        observations = observations_from_mrt(WELL_FORMED["rib-then-updates"], "rrc00")
        block = RouteBlock.from_observations(observations)
        assert len(block) == len(observations) and list(block) == observations
        assert block.timestamps == [item.timestamp for item in observations]
        assert block.peer_asns == [item.peer_asn for item in observations]
        assert all(ours is theirs.path for ours, theirs in zip(block.paths, observations))
        assert all(ours is theirs.communities for ours, theirs in zip(block.communities, observations))
        assert [block.prefix(index) for index in range(len(block))] == [item.prefix for item in observations]
        part = block[2:5]
        assert isinstance(part, RouteBlock) and list(part) == observations[2:5]
        assert part[0] is observations[2] and part.prefix(1) == observations[3].prefix

    def test_the_files_of_one_replay_share_one_memo(self):
        first = MRTDecoder(WELL_FORMED["rib"])
        rib = list(first.blocks("a", 64))
        second = MRTDecoder(WELL_FORMED["updates"], share=first)
        updates = list(second.blocks("b", 64))
        alone = list(MRTDecoder(WELL_FORMED["updates"]).blocks("b", 64))
        assert routes_of(updates) == routes_of(alone)
        assert second.attribute_memo_hits > MRTDecoder(WELL_FORMED["updates"]).attribute_memo_hits
        by_value = {(path.asns, communities): path for path, communities in zip(rib[0].paths, rib[0].communities)}
        shared = [path for path, communities in zip(updates[0].paths, updates[0].communities)
                  if by_value.get((path.asns, communities)) is path]
        assert shared, "no attribute blob of the update stream came from the RIB's memo"


class TestVerifySkillArchives:
    """The synthetic archives the verify skill drives the CLI with."""

    @pytest.fixture(scope="class")
    def blobs(self):
        internet = SyntheticInternet.build(SyntheticConfig.small(seed=11))
        archive = internet.archive_for("ripe")
        return archive.day_to_mrt(archive.generate_day(0))

    def test_observations_equal_the_oracle(self, blobs):
        for collector, blob in blobs.items():
            observations = observations_from_mrt(blob, collector)
            assert observations == list(mrt_oracle.iter_observations(blob, collector))
            assert observations

    def test_repeated_blobs_share_their_objects(self, blobs):
        collector, blob = sorted(blobs.items())[0]
        by_pair = {}
        for observation in observations_from_mrt(blob, collector):
            first = by_pair.setdefault((observation.path.asns, observation.communities), observation)
            # Equal (path, comm) can still come from different blobs (MED,
            # next hop), but within a synthetic day they never do.
            assert observation.path is first.path
            assert observation.communities is first.communities


class TestMultiPeerDay:
    """The shape of a real collector's first RIB of the day, and its update
    stream: tens of peers per RIB record, both ASN widths, both families."""

    def test_both_views_equal_the_oracle(self):
        assert assert_same_records(MULTI_PEER_DAY) == "clean"
        assert assert_same_observations(MULTI_PEER_DAY) == "clean"
        assert assert_same_outcome(MULTI_PEER_CUT) == "clean"

    def test_the_day_has_the_shape_it_claims(self):
        table, *records = mrt_oracle.decode_records(MULTI_PEER_DAY)
        ribs = [record for record in records if isinstance(record, RIBEntryRecord)]
        messages = [record for record in records if isinstance(record, BGP4MPMessage)]
        assert {peer.peer_asn < 65536 for peer in table.peers} == {True, False}
        assert min(len(record.entries) for record in ribs) >= 20
        assert {record.prefix.afi for record in ribs} == {1, 2}
        assert any(entry.attributes.as_path.has_as_set for record in ribs for entry in record.entries)
        blobs = [encode_path_attributes(entry.attributes) for record in ribs for entry in record.entries]
        assert len(blobs) // 4 < len(set(blobs)) < len(blobs)  # mostly distinct, some shared
        assert {(record.is_as4, record.afi) for record in messages} == {
            (as4, afi) for as4 in (False, True) for afi in (1, 2)
        }
        assert any(len(record.update.announced) > 1 and record.update.withdrawn for record in messages)
        assert [record.timestamp for record in messages] == sorted(record.timestamp for record in messages)
        assert 2000 < len(MULTI_PEER_CUT) < 6000

    def test_blocks_carry_every_peer_of_a_record(self):
        decoder = MRTDecoder(MULTI_PEER_DAY)
        (block,) = decoder.blocks("multi", 1 << 20)
        peers = [peer.peer_asn for peer in decoder.peer_table.peers]
        assert block.peer_asns[: len(peers)] == peers
        assert block.from_rib.count(True) == len(peers) * sum(
            1 for record in mrt_oracle.decode_records(MULTI_PEER_DAY) if isinstance(record, RIBEntryRecord)
        )
        assert set(block.afis) == {1, 2}


class TestIPv6Updates:
    """The encoder frames an UPDATE in its prefixes' family."""

    def test_an_ipv6_update_round_trips(self):
        update = BGPUpdate(peer_asn=3356, timestamp=100, announced=V6, withdrawn=V6[:1], attributes=RICH)
        blob = _encoded(lambda encoder: encoder.write_update(update))
        assert assert_same_outcome(blob) == "clean"
        (record,) = decode_records(blob)
        assert record.afi == 2 and record.update == update
        (block,) = MRTDecoder(blob).blocks("rrc00", 8)
        assert [block.prefix(index) for index in range(len(block))] == list(V6)

    @pytest.mark.parametrize("announced, withdrawn", [(V4[:1], V6[:1]), (V4[:1] + V6[:1], ())])
    def test_mixed_families_are_refused(self, announced, withdrawn):
        encoder = MRTEncoder()
        update = BGPUpdate(peer_asn=3356, timestamp=100, announced=announced, withdrawn=withdrawn, attributes=RICH)
        with pytest.raises(ValueError, match="cannot mix IPv4 and IPv6"):
            encoder.write_update(update)
        assert encoder.getvalue() == b""


# -- mutated inputs ---------------------------------------------------------------------
_SEEDS = [blob for name, blob in sorted(WELL_FORMED.items()) if blob] + [MULTI_PEER_CUT]


@st.composite
def mutated_blobs(draw):
    blob = bytearray(draw(st.sampled_from(_SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "flip", "smash", "record-length"]))
        if not blob:
            break
        if kind == "truncate":
            del blob[draw(st.integers(0, len(blob) - 1)) :]
        elif kind == "flip":
            blob[draw(st.integers(0, len(blob) - 1))] ^= 1 << draw(st.integers(0, 7))
        elif kind == "smash":
            # Two bytes overwritten anywhere: sooner or later an inner
            # length field (attributes, withdrawn routes, BGP message, counts).
            at = draw(st.integers(0, max(0, len(blob) - 2)))
            blob[at : at + 2] = struct.pack("!H", draw(st.integers(0, 0xFFFF)))
        else:
            try:
                records = split_records(bytes(blob))
            except struct.error:
                continue
            at = sum(len(record) for record in records[: draw(st.integers(0, len(records) - 1))])
            if at + 12 <= len(blob):
                lie_about_record_length(blob, at, draw(st.integers(-40, 40)))
    return bytes(blob)


def lie_about_record_length(blob, at, lie):
    """Move the length field of the record header at *at* by *lie* bytes.

    Clamped to the field's range: an earlier flip / smash may already have
    pushed it to within 40 of either end.
    """
    (length,) = struct.unpack_from("!I", blob, at + 8)
    struct.pack_into("!I", blob, at + 8, min(0xFFFFFFFF, max(0, length + lie)))


def _length_field_saturated():
    """The first record claims 2**32 - 1 bytes: what the clamp produces."""
    blob = bytearray(WELL_FORMED["updates"])
    struct.pack_into("!I", blob, 8, 0xFFFFFFF0)
    lie_about_record_length(blob, 0, 40)
    assert struct.unpack_from("!I", blob, 8) == (0xFFFFFFFF,)
    return bytes(blob)


class TestMutatedInputs:
    @settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutated_blobs())
    @example(_length_field_saturated())
    def test_same_prefix_then_same_end(self, blob):
        assert_same_outcome(blob)

    def test_every_truncation_of_a_small_file(self):
        blob = WELL_FORMED["rib-then-updates"]
        ends = {assert_same_outcome(blob[:cut]) for cut in range(len(blob))}
        assert ends == {"clean", "rejected"}

    @staticmethod
    def _ends_of_every_single_bit_flip(name, outcome):
        blob = bytearray(WELL_FORMED[name])
        ends = set()
        for index in range(len(blob)):
            for bit in range(8):
                blob[index] ^= 1 << bit
                ends.add(outcome(bytes(blob)))
                blob[index] ^= 1 << bit
        return ends

    def test_every_single_bit_flip_of_the_update_stream(self):
        assert self._ends_of_every_single_bit_flip("updates", assert_same_outcome) == {"clean", "rejected"}

    def test_every_single_bit_flip_of_the_rib_dump(self):
        # Where the routes view decides more than the records view: peer
        # indexes, the table they point into, originated times.
        def outcome(blob):
            assert_same_records(blob)
            return assert_same_observations(blob)

        assert self._ends_of_every_single_bit_flip("rib", outcome) == {"clean", "rejected"}
