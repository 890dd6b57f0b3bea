"""Unit tests for the MRT encoder and decoder."""

import copy
import dataclasses
import pickle
import struct

import pytest
from mrt_oracle import bgp4mp_message, mrt_record, rib_entries_record, rib_record

from repro.bgp.community import CommunitySet
from repro.bgp.messages import BGPUpdate, Origin, PathAttributes
from repro.bgp.path import ASPath, PathSegment, SegmentType
from repro.bgp.prefix import parse_prefix
from repro.mrt import (
    BGP4MPMessage,
    MRTDecodeError,
    MRTDecoder,
    MRTEncoder,
    PeerIndexTable,
    RIBEntryRecord,
    decode_records,
    encode_records,
)
from repro.collectors.archive import observations_from_mrt
from repro.mrt.decoder import decode_path_attributes
from repro.mrt.encoder import encode_path_attributes


@pytest.fixture()
def attributes():
    return PathAttributes(
        as_path=ASPath([3356, 1299, 200000]),
        communities=CommunitySet.from_strings(["3356:100", "200000:5:6"]),
        origin=Origin.EGP,
        next_hop=0x0A000001,
        med=50,
        local_pref=120,
    )


class TestPathAttributeCodec:
    def test_round_trip(self, attributes):
        blob = encode_path_attributes(attributes, asn_size=4)
        decoded = decode_path_attributes(blob, asn_size=4)
        assert decoded.as_path == attributes.as_path
        assert decoded.communities == attributes.communities
        assert decoded.origin is Origin.EGP
        assert decoded.next_hop == attributes.next_hop
        assert decoded.med == 50
        assert decoded.local_pref == 120

    def test_two_byte_asn_encoding(self):
        attrs = PathAttributes(as_path=ASPath([3356, 1299]))
        blob = encode_path_attributes(attrs, asn_size=2)
        decoded = decode_path_attributes(blob, asn_size=2)
        assert decoded.as_path == attrs.as_path

    @pytest.mark.parametrize("asn_size", [2, 4])
    @pytest.mark.parametrize(
        "shape, plain",
        [
            ([(SegmentType.AS_SEQUENCE, (3356, 1299, 2914))], True),
            ([(SegmentType.AS_SEQUENCE, (3356,))], True),
            ([(SegmentType.AS_SEQUENCE, ())], False),
            ([(SegmentType.AS_SEQUENCE, (3356, 1299)), (SegmentType.AS_SEQUENCE, (2914,))], False),
            ([(SegmentType.AS_CONFED_SEQUENCE, (64512, 64513))], False),
            ([(SegmentType.AS_SET, (3356, 1299))], False),
            ([(SegmentType.AS_SEQUENCE, (3356,)), (SegmentType.AS_SET, (1299, 2914))], False),
            ([(SegmentType.AS_SEQUENCE, ()), (SegmentType.AS_SEQUENCE, (3356, 1299))], False),
        ],
    )
    def test_only_a_lone_as_sequence_decodes_without_segment_objects(self, shape, plain, asn_size):
        segments = tuple(PathSegment(kind, asns) for kind, asns in shape)
        flat = [asn for segment in segments if not segment.is_set for asn in segment.asns]
        blob = encode_path_attributes(PathAttributes(as_path=ASPath(flat, segments)), asn_size=asn_size)
        path = decode_path_attributes(blob, asn_size=asn_size).as_path
        assert (path._segments is None) == plain
        assert path.segments == segments and path.asns == tuple(flat)
        assert path.has_as_set == any(segment.is_set for segment in segments)
        # Either way the wire form is what comes back out.
        assert encode_path_attributes(PathAttributes(as_path=path), asn_size=asn_size) == blob

    def test_missing_as_path_rejected(self):
        with pytest.raises(MRTDecodeError):
            decode_path_attributes(b"", asn_size=4)

    def test_malformed_communities_length_rejected(self):
        # COMMUNITIES attribute with a 3-byte body is invalid.
        blob = bytes([0x40, 2, 4, 2, 1, 0, 0, 0, 3356 >> 8, 3356 & 0xFF])
        blob += bytes([0xC0, 8, 3, 1, 2, 3])
        with pytest.raises(MRTDecodeError):
            decode_path_attributes(blob, asn_size=2)


class TestRIBRoundTrip:
    def test_rib_entries_round_trip(self, attributes):
        prefix = parse_prefix("8.8.8.0/24")
        blob = encode_records([3356, 1299], rib=[(prefix, [(3356, 111, attributes)])], timestamp=42)
        records = decode_records(blob)
        assert isinstance(records[0], PeerIndexTable)
        assert isinstance(records[1], RIBEntryRecord)
        assert records[1].prefix == prefix
        entries = records[1].to_rib_entries(records[0])
        assert entries[0].peer_asn == 3356
        assert entries[0].as_path == attributes.as_path
        assert entries[0].communities == attributes.communities
        assert entries[0].timestamp == 111

    def test_peer_table_metadata(self):
        blob = encode_records([10, 20, 200000], timestamp=7)
        (table,) = decode_records(blob)
        assert [p.peer_asn for p in table.peers] == [10, 20, 200000]
        assert table.timestamp == 7

    def test_ipv6_rib_entry(self, attributes):
        prefix = parse_prefix("2001:db8::/32")
        blob = encode_records([3356], rib=[(prefix, [(3356, 0, attributes)])])
        records = decode_records(blob)
        assert records[1].prefix == prefix

    def test_unknown_peer_rejected_at_encode_time(self, attributes):
        encoder = MRTEncoder()
        encoder.write_peer_index_table([10])
        with pytest.raises(ValueError):
            encoder.write_rib_entry(parse_prefix("8.8.8.0/24"), [(99, 0, attributes)])


class TestUpdateRoundTrip:
    def _update(self, attributes, peer=3356):
        return BGPUpdate(
            peer_asn=peer,
            timestamp=1621382400,
            announced=(parse_prefix("8.8.8.0/24"), parse_prefix("9.9.0.0/16")),
            withdrawn=(parse_prefix("1.2.3.0/24"),),
            attributes=attributes,
        )

    def test_update_round_trip_as4(self, attributes):
        update = self._update(attributes)
        blob = encode_records([3356], updates=[update])
        records = decode_records(blob)
        message = records[-1]
        assert isinstance(message, BGP4MPMessage)
        assert message.is_as4
        decoded = message.update
        assert decoded.peer_asn == 3356
        assert decoded.announced == update.announced
        assert decoded.withdrawn == update.withdrawn
        assert decoded.attributes.as_path == attributes.as_path
        assert decoded.attributes.communities == attributes.communities

    def test_update_round_trip_2byte(self):
        attrs = PathAttributes(as_path=ASPath([3356, 1299]))
        update = BGPUpdate(
            peer_asn=3356,
            timestamp=5,
            announced=(parse_prefix("8.8.8.0/24"),),
            attributes=attrs,
        )
        encoder = MRTEncoder()
        encoder.write_update(update, as4=False)
        message = decode_records(encoder.getvalue())[0]
        assert not message.is_as4
        assert message.update.attributes.as_path == attrs.as_path

    @pytest.mark.parametrize(
        "peer, local, path",
        [(200000, 0, [3356]), (3356, 70000, [3356]), (3356, 0, [3356, 200000])],
    )
    def test_2byte_update_refuses_a_4byte_asn_before_writing(self, peer, local, path):
        update = BGPUpdate(
            peer_asn=peer,
            timestamp=5,
            announced=(parse_prefix("8.8.8.0/24"),),
            attributes=PathAttributes(as_path=ASPath(path)),
        )
        encoder = MRTEncoder()
        encoder.write_peer_index_table([3356])
        before = encoder.getvalue()
        wide = max(asn for asn in (peer, local, *path) if asn > 0xFFFF)
        with pytest.raises(ValueError, match=f"ASN {wide} "):
            encoder.write_update(update, local_asn=local, as4=False)
        assert encoder.getvalue() == before

    def test_withdrawal_only_update(self):
        update = BGPUpdate(peer_asn=1, timestamp=0, withdrawn=(parse_prefix("8.8.8.0/24"),))
        encoder = MRTEncoder()
        encoder.write_update(update)
        decoded = decode_records(encoder.getvalue())[0].update
        assert decoded.withdrawn == update.withdrawn
        assert decoded.attributes is None


class TestDecoderErrors:
    def test_truncated_stream_rejected(self, attributes):
        blob = encode_records([3356], rib=[(parse_prefix("8.8.8.0/24"), [(3356, 0, attributes)])])
        with pytest.raises(MRTDecodeError):
            decode_records(blob[:-5])

    def test_garbage_header_rejected(self):
        with pytest.raises(MRTDecodeError):
            decode_records(b"\x00" * 12)

    def test_trailing_garbage_rejected(self):
        blob = encode_records([3356]) + b"\x01\x02"
        with pytest.raises(MRTDecodeError):
            decode_records(blob)

    def test_empty_stream_yields_nothing(self):
        assert decode_records(b"") == []

    @pytest.mark.parametrize("mrt_type", [13, 16])
    def test_unknown_subtype_is_a_decode_error(self, mrt_type):
        with pytest.raises(MRTDecodeError, match="subtype 99"):
            decode_records(mrt_record(mrt_type, 99, b""))

    def test_peer_index_past_the_table_is_a_decode_error(self, attributes):
        blob = encode_records([10]) + rib_record(encode_path_attributes(attributes), peer_index=1)
        table, rib = decode_records(blob)
        with pytest.raises(MRTDecodeError, match="peer index 1"):
            rib.to_rib_entries(table)
        with pytest.raises(MRTDecodeError, match="peer index 1"):
            observations_from_mrt(blob, "rrc00")

    def test_rib_before_peer_table_is_a_decode_error(self, attributes):
        blob = rib_record(encode_path_attributes(attributes))
        assert len(decode_records(blob)) == 1
        with pytest.raises(MRTDecodeError, match="before PEER_INDEX_TABLE"):
            observations_from_mrt(blob, "rrc00")

    def test_extended_timestamp_shorter_than_its_microseconds(self):
        # The 4-byte microsecond field is checked before it is skipped, so
        # the error names what is missing and never a negative count.
        blob = struct.pack("!IHHI", 0, 17, 4, 2) + b"\x00\x01"
        with pytest.raises(
            MRTDecodeError,
            match="^truncated BGP4MP_ET microsecond timestamp: wanted 4 bytes, 2 available$",
        ):
            decode_records(blob)

    def test_bgp_message_length_below_its_header(self):
        record = bytearray(bgp4mp_message(struct.pack("!HH", 0, 0)))
        struct.pack_into("!H", record, len(record) - 7, 7)  # the length field
        with pytest.raises(
            MRTDecodeError, match="^BGP message length 7 is shorter than its 19-byte header$"
        ):
            decode_records(bytes(record))

    def test_nlri_without_attributes_is_a_decode_error(self):
        body = struct.pack("!HH", 0, 0) + b"\x18\x08\x08\x08"
        with pytest.raises(MRTDecodeError, match="without path attributes"):
            decode_records(bgp4mp_message(body))

    def test_prefix_under_an_unknown_address_family_is_a_decode_error(self, attributes):
        blob = encode_path_attributes(attributes)
        body = struct.pack("!HH", 0, len(blob)) + blob + b"\x18\x08\x08\x08"
        with pytest.raises(MRTDecodeError, match="address family 7"):
            decode_records(bgp4mp_message(body, afi=7))

    @pytest.mark.parametrize(
        "afi, nlri, text",
        [
            (1, bytes([20, 10, 1, 0x1F]), "10.1.16.0/20"),
            (1, bytes([0]), "0.0.0.0/0"),
            (1, bytes([32, 10, 1, 2, 3]), "10.1.2.3/32"),
            (2, bytes([33, 0x20, 0x01, 0x0D, 0xB8, 0xFF]), "2001:db8:8000::/33"),
            (2, bytes([3, 0x3F]), "2000::/3"),
        ],
        ids=["v4-20", "v4-0", "v4-32", "v6-33", "v6-3"],
    )
    def test_nlri_bits_past_the_prefix_length_are_dropped(self, attributes, afi, nlri, text):
        # RFC 4271 section 4.3 calls them irrelevant; they used to be kept, so the
        # prefix compared unequal to its clean twin and str() raised ValueError.
        expected = parse_prefix(text)
        blob = encode_path_attributes(attributes)
        rib = rib_entries_record([(0, blob)], nlri=nlri, subtype=2 if afi == 1 else 4)
        body = struct.pack("!H", len(nlri)) + nlri + struct.pack("!H", len(blob)) + blob + nlri
        record, message = decode_records(rib + bgp4mp_message(body, afi=afi))
        decoded = [record.prefix, *message.update.withdrawn, *message.update.announced]
        assert decoded == [expected] * 3
        assert [str(prefix) for prefix in decoded] == [text] * 3

    def test_decoder_exposes_peer_table(self):
        blob = encode_records([10, 20])
        decoder = MRTDecoder(blob)
        list(decoder)
        assert decoder.peer_table is not None
        assert len(decoder.peer_table.peers) == 2


class TestBytesLikeInput:
    """The decoder reads any bytes-like blob through one memoryview."""

    def _mixed_blob(self, attributes):
        encoder = MRTEncoder()
        encoder.write_peer_index_table([3356, 1299], timestamp=9, view_name="rrc00")
        encoder.write_rib_entry(
            parse_prefix("8.8.8.0/24"), [(3356, 111, attributes)], sequence=1
        )
        encoder.write_rib_entry(
            parse_prefix("2001:db8::/32"), [(1299, 222, attributes)], sequence=2
        )
        for peer in (3356, 1299):
            encoder.write_update(
                BGPUpdate(
                    peer_asn=peer,
                    timestamp=1621382400,
                    announced=(parse_prefix("8.8.8.0/24"), parse_prefix("9.9.0.0/16")),
                    withdrawn=(parse_prefix("1.2.3.0/24"),),
                    attributes=attributes,
                )
            )
        return encoder.getvalue()

    def test_records_do_not_retain_views(self, attributes):
        """Decoded records must not keep the input buffer alive via views."""
        blob = bytearray(self._mixed_blob(attributes))
        records = decode_records(blob)
        # Releasing the buffer would raise if any exported view survived.
        del records
        blob.clear()

    def test_accepts_memoryview_input(self, attributes):
        blob = self._mixed_blob(attributes)
        assert decode_records(memoryview(blob)) == decode_records(blob)

    def test_view_name_is_plain_str(self):
        encoder = MRTEncoder()
        encoder.write_peer_index_table([10], view_name="rrc01")
        (table,) = decode_records(encoder.getvalue())
        assert table.view_name == "rrc01"
        assert type(table.view_name) is str


class TestAttributeMemo:
    """A path-attribute blob is parsed once per decoder -- that is, per file."""

    def _repeating_blob(self, attributes):
        prefixes = [parse_prefix("8.8.8.0/24"), parse_prefix("9.9.0.0/16")]
        update = BGPUpdate(peer_asn=3356, timestamp=5, announced=(prefixes[0],), attributes=attributes)
        return encode_records(
            [3356], rib=[(prefix, [(3356, 0, attributes)]) for prefix in prefixes], updates=[update]
        )

    def test_equal_blobs_decode_to_the_same_object(self, attributes):
        decoder = MRTDecoder(self._repeating_blob(attributes))
        _table, rib_a, rib_b, message = list(decoder)
        assert rib_a.entries[0].attributes is rib_b.entries[0].attributes
        assert message.update.attributes is rib_a.entries[0].attributes
        assert (decoder.attribute_blobs, decoder.attribute_memo_hits) == (3, 2)

    def test_two_decoders_share_nothing(self, attributes):
        blob = self._repeating_blob(attributes)
        first, second = MRTDecoder(blob), MRTDecoder(blob)
        records = list(first)
        again = list(second)
        assert records == again
        assert records[1].entries[0].attributes is not again[1].entries[0].attributes
        assert second.attribute_memo_hits == first.attribute_memo_hits == 2

    def test_memo_is_bounded_and_survives_a_clear(self, monkeypatch):
        monkeypatch.setattr("repro.mrt.decoder.ATTRIBUTE_MEMO_CAP", 4)
        distinct = [PathAttributes(as_path=ASPath([3356, 100 + index])) for index in range(10)]
        rib = [
            (parse_prefix(f"8.8.{index}.0/24"), [(3356, 0, route)])
            for index, route in enumerate(distinct + distinct[::-1] + distinct[:3] * 2)
        ]
        decoder = MRTDecoder(encode_records([3356], rib=rib))
        decoded = []
        for record in decoder:
            decoded.append(record)
            assert len(decoder._attribute_memo) <= 4
        assert [record.entries[0].attributes for record in decoded[1:]] == [
            entries[0][2] for _prefix, entries in rib
        ]
        assert decoder.attribute_blobs == len(rib)
        assert 0 < decoder.attribute_memo_hits < len(rib) - len(distinct)

    def test_malformed_blob_is_never_cached(self, attributes):
        # A COMMUNITIES attribute with a 3-byte body after a valid AS_PATH.
        bad = encode_path_attributes(PathAttributes(as_path=ASPath([3356]))) + bytes([0xC0, 8, 3, 1, 2, 3])
        good = rib_record(encode_path_attributes(attributes), sequence=2)
        decoder = MRTDecoder(rib_record(bad) + rib_record(bad, sequence=1) + good)
        for _ in range(2):
            with pytest.raises(MRTDecodeError, match="COMMUNITIES"):
                next(decoder)
        assert decoder.attribute_memo_hits == 0 and not decoder._attribute_memo
        assert next(decoder).entries[0].attributes == attributes

    def test_asn_width_is_part_of_the_key(self):
        # AS_SEQUENCE(65538, 0x02010007) under 4-byte ASNs reads as
        # AS_SEQUENCE(1, 2) + AS_SEQUENCE(7) under 2-byte ASNs.
        as_path = bytes([2, 2]) + struct.pack("!II", 65538, 0x02010007)
        blob = bytes([0x40, 2, len(as_path)]) + as_path
        body = struct.pack("!HH", 0, len(blob)) + blob + b"\x18\x08\x08\x08"
        decoder = MRTDecoder(bgp4mp_message(body, as4=True) + bgp4mp_message(body, as4=False))
        wide, narrow = (record.update.attributes.as_path for record in decoder)
        assert wide == ASPath([65538, 0x02010007])
        assert narrow == ASPath([1, 2, 7])
        assert (decoder.attribute_blobs, decoder.attribute_memo_hits) == (2, 0)

    def test_a_collector_day_mostly_hits(self, tiny_internet):
        archive = tiny_internet.archive_for("isolario")
        for blob in archive.day_to_mrt(archive.generate_day(0)).values():
            decoder = MRTDecoder(blob)
            records = sum(1 for _record in decoder)
            assert decoder.attribute_blobs >= records - 1
            assert decoder.attribute_memo_hits / decoder.attribute_blobs > 0.5


class TestCommunityMemo:
    """Beneath the blob memo, a COMMUNITIES value is parsed once per decoder."""

    PATH_A = bytes([0x40, 2, 6, 2, 1]) + struct.pack("!I", 3356)
    PATH_B = bytes([0x40, 2, 10, 2, 2]) + struct.pack("!II", 1299, 64496)

    @staticmethod
    def _communities(*values: str) -> bytes:
        body = b"".join(struct.pack("!HH", *map(int, value.split(":"))) for value in values)
        return bytes([0xC0, 8, len(body)]) + body

    @staticmethod
    def _large(upper: int, data1: int, data2: int) -> bytes:
        return bytes([0xC0, 32, 12]) + struct.pack("!III", upper, data1, data2)

    def _decode(self, *blobs: bytes):
        decoder = MRTDecoder(b"".join(rib_record(blob, sequence=index) for index, blob in enumerate(blobs)))
        return decoder, [record.entries[0].attributes for record in decoder]

    def test_same_value_under_different_paths_is_one_object(self):
        value = self._communities("3356:100", "1299:7")
        decoder, (first, second) = self._decode(self.PATH_A + value, self.PATH_B + value)
        assert first.as_path != second.as_path
        assert first.communities is second.communities
        assert first.communities == CommunitySet.from_strings(["3356:100", "1299:7"])
        # Two distinct blobs: the blob memo saw neither before.
        assert (decoder.attribute_blobs, decoder.attribute_memo_hits) == (2, 0)
        assert list(decoder._community_memo) == [value[3:]]

    def test_attribute_combinations_decode_as_before(self):
        one, other = self._communities("3356:100"), self._communities("1299:7", "3356:100")
        blobs = [
            self.PATH_A + one + other,  # two COMMUNITIES attributes: their union
            self.PATH_A + one + self._large(200000, 5, 6),
            self.PATH_A + self._communities(),  # an empty attribute
            self.PATH_A,  # none at all
            self.PATH_A + one,
        ]
        decoder, decoded = self._decode(*blobs)
        assert [route.communities for route in decoded] == [
            CommunitySet.from_strings(["3356:100", "1299:7"]),
            CommunitySet.from_strings(["3356:100", "200000:5:6"]),
            CommunitySet(),
            CommunitySet(),
            CommunitySet.from_strings(["3356:100"]),
        ]
        assert [route.communities for route in decoded] == [
            decode_path_attributes(blob).communities for blob in blobs
        ]
        # Only a blob's sole community attribute is handed out as the shared set.
        assert decoded[4].communities is decoder._community_memo[one[3:]]
        assert decoded[0].communities is not decoder._community_memo[other[3:]]
        assert set(decoder._community_memo) == {one[3:], other[3:], b""}

    def test_malformed_value_raises_every_time_and_is_never_stored(self):
        bad = bytes([0xC0, 8, 3, 1, 2, 3])
        good = self._communities("3356:100")
        decoder = MRTDecoder(
            rib_record(self.PATH_A + good + bad)
            + rib_record(self.PATH_B + bad)
            + rib_record(self.PATH_B + good)
        )
        for _ in range(2):
            with pytest.raises(MRTDecodeError, match="COMMUNITIES attribute length"):
                next(decoder)
        # What parsed before the failure may stay; the failure itself never does.
        assert set(decoder._community_memo) <= {good[3:]} and not decoder._attribute_memo
        assert next(decoder).entries[0].attributes.communities == CommunitySet.from_strings(["3356:100"])
        for _ in range(2):
            with pytest.raises(MRTDecodeError, match="COMMUNITIES attribute length"):
                decode_path_attributes(self.PATH_A + bad)

    def test_overflowing_the_cap_clears_both_memos(self, monkeypatch):
        monkeypatch.setattr("repro.mrt.decoder.ATTRIBUTE_MEMO_CAP", 3)
        blobs = [
            bytes([0x40, 2, 6, 2, 1]) + struct.pack("!I", 100 + index) + self._communities(f"3356:{index}")
            for index in range(8)
        ]
        decoder = MRTDecoder(b"".join(rib_record(blob, sequence=index) for index, blob in enumerate(blobs)))
        sizes = []
        for record in decoder:
            assert record.entries[0].attributes == decode_path_attributes(blobs[len(sizes)])
            sizes.append((len(decoder._attribute_memo), len(decoder._community_memo)))
        assert sizes == [(1, 1), (2, 2), (3, 3), (1, 1), (2, 2), (3, 3), (1, 1), (2, 2)]

    def test_values_alone_can_fill_the_cap(self, monkeypatch):
        # Blobs that never reach the blob memo (no AS_PATH) still grow the value memo.
        monkeypatch.setattr("repro.mrt.decoder.ATTRIBUTE_MEMO_CAP", 3)
        hostile = [self._communities(f"3356:{index}") for index in range(7)]
        decoder = MRTDecoder(b"".join(rib_record(blob) for blob in hostile))
        for _ in hostile:
            with pytest.raises(MRTDecodeError, match="AS_PATH"):
                next(decoder)
            assert len(decoder._community_memo) <= 3 and not decoder._attribute_memo

    def test_two_decoders_share_nothing(self):
        blob = rib_record(self.PATH_A + self._communities("3356:100"))
        first, second = MRTDecoder(blob), MRTDecoder(blob)
        (one,), (other,) = list(first), list(second)
        assert one == other
        assert one.entries[0].attributes.communities is not other.entries[0].attributes.communities
        assert decode_path_attributes(self.PATH_A + self._communities("3356:100")).communities is not (
            one.entries[0].attributes.communities
        )


class TestDecodedAttributes:
    """A :class:`PathAttributes` the decoder builds on a blob-memo miss is an
    ordinary instance of the frozen dataclass, however the walk fills it."""

    @pytest.fixture(params=["plain", "rich", "segmented"])
    def built(self, request, attributes):
        return {
            "plain": PathAttributes(as_path=ASPath([3356, 1299])),
            "rich": attributes,
            "segmented": PathAttributes(
                as_path=ASPath.from_segments(
                    [PathSegment(SegmentType.AS_SEQUENCE, (3356,)), PathSegment(SegmentType.AS_SET, (1, 2))]
                ),
                origin=Origin.INCOMPLETE,
                local_pref=0,
            ),
        }[request.param]

    @pytest.fixture()
    def decoded(self, built):
        decoder = MRTDecoder(rib_record(encode_path_attributes(built)))
        (record,) = decoder
        assert (decoder.attribute_blobs, decoder.attribute_memo_hits) == (1, 0)  # a miss
        return record.entries[0].attributes

    def test_equal_and_hash_equal_to_a_constructed_one(self, built, decoded):
        assert type(decoded) is PathAttributes
        assert decoded == built and built == decoded
        assert hash(decoded) == hash(built)
        assert repr(decoded) == repr(built)
        assert {decoded: 1}[built] == 1

    def test_pickles_and_copies_like_a_constructed_one(self, built, decoded):
        assert pickle.loads(pickle.dumps(decoded)) == built
        assert pickle.dumps(decoded) == pickle.dumps(built)
        assert copy.copy(decoded) == built and copy.deepcopy(decoded) == built

    def test_is_frozen_and_derives_copies(self, built, decoded):
        with pytest.raises(dataclasses.FrozenInstanceError):
            decoded.med = 1
        other = CommunitySet.from_strings(["1:1"])
        assert decoded.with_communities(other) == built.with_communities(other)
        assert dataclasses.replace(decoded, med=9) == dataclasses.replace(built, med=9)
        assert dataclasses.asdict(decoded) == dataclasses.asdict(built)
