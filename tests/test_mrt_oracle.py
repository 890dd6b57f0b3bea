"""The production MRT decoder pinned to the ``_Cursor`` oracle.

``tests/mrt_oracle.py`` is the decoder as it was before it learned to memoise
attribute blobs and frame headers with ``struct``.  Every well-formed input
must decode to the same records, and every mutated one must end the same
way: the same record prefix, then either a clean end or a rejection.  The
same holds for the routes view production reads
(``iter_observations_from_mrt``) against the oracle's record-by-record
observation loop.
"""

import struct

import mrt_oracle
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from mrt_oracle import bgp4mp_message, mrt_record, rib_entries_record, split_records

from repro.bgp.community import CommunitySet
from repro.bgp.messages import BGPUpdate, Origin, PathAttributes
from repro.bgp.path import ASPath, PathSegment, SegmentType
from repro.bgp.prefix import parse_prefix
from repro.collectors.archive import iter_observations_from_mrt, observations_from_mrt
from repro.datasets.synthetic import SyntheticConfig, SyntheticInternet
from repro.mrt import MRTDecodeError, MRTDecoder, MRTEncoder
from repro.mrt.encoder import encode_path_attributes

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


def run(items, describe=detail):
    """``(items as detail, how it ended)`` of draining the iterator *items*.

    ``"crashed"`` is an exception that is not :class:`MRTDecodeError`: the
    oracle's documented untyped escapes.
    """
    seen = []
    try:
        for item in items:
            seen.append(describe(item))
    except MRTDecodeError:
        return seen, "rejected"
    except (ValueError, IndexError):
        return seen, "crashed"
    return seen, "clean"


def assert_same_records(blob: bytes) -> str:
    expected, expected_end = run(mrt_oracle.MRTDecoder(blob))
    records, end = run(MRTDecoder(blob))
    assert records == expected
    assert end != "crashed", "production let an untyped exception out"
    assert end == ("clean" if expected_end == "clean" else "rejected")
    return end


def assert_same_outcome(blob: bytes) -> str:
    """Both views against the oracle; how the *records* view ended."""
    assert_same_observations(blob)
    return assert_same_records(blob)


def assert_same_observations(blob: bytes) -> str:
    """The routes view yields what the oracle's loop yields before it stops,
    and stops the same way (it can stop where the records view does not: a
    RIB record before its table, a peer index past it)."""
    expected, expected_end = run(mrt_oracle.iter_observations(blob, "rrc00"), observation_detail)
    observations, end = run(iter_observations_from_mrt(blob, "rrc00"), observation_detail)
    assert observations == expected
    assert end != "crashed", "production let an untyped exception out"
    assert end == ("clean" if expected_end == "clean" else "rejected")
    return end


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
    """What only the routes view decides: peer indexes, record order, resuming."""

    TABLE = _encoded(lambda encoder: encoder.write_peer_index_table([3356, 1299], timestamp=9))
    RICH_BLOB = encode_path_attributes(RICH)
    PLAIN_BLOB = encode_path_attributes(PLAIN)

    def test_bad_peer_index_in_a_later_entry_comes_after_the_earlier_ones(self):
        record = _rib_entries(
            (0, self.RICH_BLOB), (1, self.PLAIN_BLOB), (2, self.RICH_BLOB), (0, self.PLAIN_BLOB)
        )
        blob = self.TABLE + record + _rib_entries((1, self.PLAIN_BLOB))
        assert assert_same_observations(blob) == "rejected"
        routes = MRTDecoder(blob).routes()
        assert [(route[1], route[3].as_path) for route in (next(routes), next(routes))] == [
            (3356, RICH.as_path), (1299, PLAIN.as_path)
        ]
        with pytest.raises(MRTDecodeError, match="peer index 2"):
            next(routes)

    def test_a_framing_error_wins_over_a_missing_peer_table(self):
        record = _rib_entries((0, self.RICH_BLOB), (0, self.PLAIN_BLOB))
        assert assert_same_observations(record) == "rejected"
        with pytest.raises(MRTDecodeError, match="before PEER_INDEX_TABLE"):
            next(MRTDecoder(record).routes())
        # The second entry claims more attribute bytes than the record holds.
        broken = bytearray(record)
        struct.pack_into("!H", broken, len(record) - len(self.PLAIN_BLOB) - 2, 4000)
        assert assert_same_observations(bytes(broken)) == "rejected"
        with pytest.raises(MRTDecodeError, match="truncated RIB entry attributes"):
            next(MRTDecoder(bytes(broken)).routes())
        # ... and after a table, not even the intact first entry comes out.
        assert observations_from_mrt(self.TABLE + record, "rrc00")
        routes = MRTDecoder(self.TABLE + bytes(broken)).routes()
        with pytest.raises(MRTDecodeError, match="truncated RIB entry attributes"):
            next(routes)

    def test_a_later_peer_table_replaces_the_earlier_one(self):
        other = _encoded(lambda encoder: encoder.write_peer_index_table([200000], timestamp=10))
        blob = self.TABLE + _rib_entries((1, self.PLAIN_BLOB)) + other + _rib_entries((0, self.PLAIN_BLOB))
        assert assert_same_observations(blob) == "clean"
        assert [route[1] for route in MRTDecoder(blob).routes()] == [1299, 200000]
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
        assert list(MRTDecoder(blob).routes()) == []

    def test_rib_and_update_routes_carry_the_record_fields(self):
        routes = list(MRTDecoder(WELL_FORMED["rib-then-updates"]).routes())
        assert routes[0] == (111, 3356, V4[0], RICH, True)  # originated time set
        assert routes[1] == (9, 1299, V6[0], PLAIN, True)  # ... and not: the record's
        first_update = [route for route in routes if not route[4]][: len(V4)]
        assert first_update == [(100, 3356, prefix, RICH, False) for prefix in V4]

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
        routes = decoder.routes()
        assert next(routes)[3] == RICH
        with pytest.raises(MRTDecodeError, match="subtype 99"):
            next(routes)
        with pytest.raises(StopIteration):  # a generator that raised is spent ...
            next(routes)
        with pytest.raises(MRTDecodeError, match="peer index 7"):  # ... a new one resumes
            next(decoder.routes())
        assert list(decoder.routes()) == [(9, 1299, V4[0], PLAIN, True)]

        # One position for both views: a rejected record is stepped over for either.
        decoder = MRTDecoder(blob)
        assert len(list(zip(range(2), decoder))) == 2
        with pytest.raises(MRTDecodeError, match="subtype 99"):
            next(decoder.routes())
        assert next(decoder).entries[0].peer_index == 7
        assert [route[1] for route in decoder.routes()] == [1299]


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


# -- mutated inputs ---------------------------------------------------------------------
_SEEDS = [blob for name, blob in sorted(WELL_FORMED.items()) if blob]


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
