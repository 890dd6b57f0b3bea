"""The production MRT decoder pinned to the ``_Cursor`` oracle.

``tests/mrt_oracle.py`` is the decoder as it was before it learned to memoise
attribute blobs and frame headers with ``struct``.  Every well-formed input
must decode to the same records, and every mutated one must end the same
way: the same record prefix, then either a clean end or a rejection.
"""

import struct

import mrt_oracle
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from mrt_oracle import bgp4mp_message, mrt_record, split_records

from repro.bgp.community import CommunitySet
from repro.bgp.messages import BGPUpdate, Origin, PathAttributes
from repro.bgp.path import ASPath, PathSegment, SegmentType
from repro.bgp.prefix import parse_prefix
from repro.collectors.archive import observations_from_mrt
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


def run(decoder):
    """``(records as detail, how it ended)`` of draining *decoder*.

    ``"crashed"`` is an exception that is not :class:`MRTDecodeError`: the
    oracle's documented untyped escapes.
    """
    records = []
    try:
        for record in decoder:
            records.append(detail(record))
    except MRTDecodeError:
        return records, "rejected"
    except (ValueError, IndexError):
        return records, "crashed"
    return records, "clean"


def assert_same_outcome(blob: bytes) -> str:
    expected, expected_end = run(mrt_oracle.MRTDecoder(blob))
    records, end = run(MRTDecoder(blob))
    assert records == expected
    assert end != "crashed", "production let an untyped exception out"
    assert end == ("clean" if expected_end == "clean" else "rejected")
    return end


class TestWellFormedInputs:
    @pytest.mark.parametrize("name", sorted(WELL_FORMED))
    def test_record_by_record(self, name):
        blob = WELL_FORMED[name]
        assert assert_same_outcome(blob) == "clean"
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

    def test_every_single_bit_flip_of_the_update_stream(self):
        blob = bytearray(WELL_FORMED["updates"])
        ends = set()
        for index in range(len(blob)):
            for bit in range(8):
                blob[index] ^= 1 << bit
                ends.add(assert_same_outcome(bytes(blob)))
                blob[index] ^= 1 << bit
        assert ends == {"clean", "rejected"}
