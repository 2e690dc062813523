"""Exhaustive round-trip and robustness tests for the runtime wire codec."""

import dataclasses

import pytest

from repro.net.message import (
    PING_MESSAGE_BITS,
    ROUTING_MESSAGE_BITS,
    MessageKind,
)
from repro.runtime import wire
from repro.streaming.buffer import SegmentBuffer
from repro.streaming.buffermap import BufferMap, buffer_map_bits


def sample_messages():
    """At least one instance of every wire kind, plus boundary payloads."""
    full_map = BufferMap(head_id=0, capacity=600, bits=(1 << 600) - 1)
    empty_map = BufferMap(head_id=7, capacity=600)
    tiny_map = BufferMap(head_id=0, capacity=1, bits=1)
    odd_map = BufferMap(head_id=3, capacity=13, bits=0b1_0000_0100_0001)  # 3, 9, 15
    return [
        # -- buffer maps: fresh stream (-1 edge), full, empty, 1-slot, odd size
        wire.BufferMapMsg.from_buffer_map(0, -1, tiny_map),
        wire.BufferMapMsg.from_buffer_map(1, 0, odd_map),
        wire.BufferMapMsg.from_buffer_map(8191, 2**31 - 1, full_map),
        wire.BufferMapMsg.from_buffer_map(42, 599, empty_map),
        # -- segment transfer plane
        wire.SegmentRequest(sender=0, segment_id=0),
        wire.SegmentRequest(sender=2**32 - 1, segment_id=2**32 - 1, prefetch=True),
        wire.SegmentData(sender=1, segment_id=2, size_bits=30 * 1024),
        wire.SegmentData(sender=3, segment_id=4, size_bits=0, prefetch=True),
        wire.SegmentNack(sender=9, segment_id=11),
        wire.SegmentNack(sender=9, segment_id=11, prefetch=True),
        # -- traced segment frames (8-byte observability tail, u64 edge)
        wire.SegmentRequest(sender=3, segment_id=5, trace_id=1),
        wire.SegmentData(
            sender=1, segment_id=2, size_bits=30 * 1024, trace_id=2**64 - 1
        ),
        wire.SegmentNack(sender=9, segment_id=11, prefetch=True, trace_id=77),
        # -- pull lists (one frame per supplier): narrow, wide, traced
        wire.SegmentRequest(sender=2, segment_id=3, more=((4, 0), (9, 0))),
        wire.SegmentRequest(sender=2, segment_id=3, prefetch=True, more=((2**32 - 1, 0),)),
        wire.SegmentNack(sender=9, segment_id=11, more=((12, 5), (13, 0))),
        wire.SegmentNack(sender=9, segment_id=11, trace_id=2**64 - 1, more=((12, 0),)),
        # -- DHT plane: empty-ish and long paths
        wire.DhtLookup(origin=5, target_key=1234, segment_id=77, path=(5,)),
        wire.DhtLookup(
            origin=5, target_key=0, segment_id=0, path=tuple(range(64))
        ),
        wire.DhtResponse(
            responder=6, origin=5, target_key=1234, segment_id=77,
            has_data=True, rate=12.5, path=(5, 6),
        ),
        wire.DhtResponse(
            responder=6, origin=5, target_key=8191, segment_id=0,
            has_data=False, rate=0.0, path=(),
        ),
        # -- membership plane
        wire.Ping(sender=0, nonce=0),
        wire.Ping(sender=17, nonce=2**32 - 1),
        wire.Pong(sender=18, nonce=3),
        wire.Handover(sender=4, segment_bits=30 * 1024, segment_ids=()),
        wire.Handover(
            sender=4, segment_bits=30 * 1024, segment_ids=tuple(range(100))
        ),
        # -- flow-control plane
        wire.CreditGrant(sender=0, credits=1),
        wire.CreditGrant(sender=2**32 - 1, credits=2**16 - 1),
        # -- cluster transport plane: handshake and routed envelopes
        wire.ShardHello(shard_index=0, num_shards=1, token=0, ring_size=8192),
        wire.ShardHello(
            shard_index=2**16 - 1, num_shards=2**16 - 1,
            token=2**32 - 1, ring_size=2**32 - 1,
        ),
        wire.RoutedFrame(src=0, dst=1, payload=b""),
        wire.RoutedFrame(
            src=2**32 - 1, dst=0,
            payload=wire.encode(wire.SegmentData(sender=1, segment_id=2, size_bits=64)),
            data=True,
        ),
        # src matches the inner frame's sender: exercises the src-elision path
        wire.RoutedFrame(
            src=1, dst=9,
            payload=wire.encode(wire.SegmentData(sender=1, segment_id=2, size_bits=64)),
            data=True,
        ),
        # -- fast-path envelopes: batches and incremental maps
        wire.FrameBatch(
            frames=(
                wire.encode(wire.Ping(sender=1, nonce=7)),
                wire.encode(wire.SegmentRequest(sender=2, segment_id=3)),
                wire.encode(wire.BufferMapMsg.from_buffer_map(1, 0, odd_map, seq=4)),
            )
        ),
        wire.FrameBatch(frames=(wire.encode(wire.Pong(sender=5, nonce=6)),)),
        wire.BufferMapDelta(
            sender=3, seq=9, newest_id=120, head_id=40, capacity=600,
            runs=((0, 3), (17, 1), (599, 1)),
        ),
        wire.BufferMapDelta(
            sender=3, seq=1, newest_id=-1, head_id=0, capacity=600, runs=(),
        ),
        # -- observability plane: telemetry pushes (opaque JSON bodies)
        wire.TelemetryFrame.from_body(
            shard=0, period=3,
            body={"continuity": 0.97, "playing": 29, "total": 30},
        ),
        wire.TelemetryFrame(shard=2**16 - 1, period=2**32 - 1, payload=b"{}"),
        wire.TelemetryFrame(shard=1, period=0, payload=b""),
    ]


class TestRoundTrip:
    def test_every_wire_kind_is_covered(self):
        covered = set()
        for msg in sample_messages():
            decoded, _ = wire.decode(wire.encode(msg))
            covered.add(type(decoded).__name__)
        by_kind = {
            wire.WireKind.BUFFER_MAP: "BufferMapMsg",
            wire.WireKind.SEGMENT_REQUEST: "SegmentRequest",
            wire.WireKind.SEGMENT_DATA: "SegmentData",
            wire.WireKind.SEGMENT_NACK: "SegmentNack",
            wire.WireKind.DHT_LOOKUP: "DhtLookup",
            wire.WireKind.DHT_RESPONSE: "DhtResponse",
            wire.WireKind.PING: "Ping",
            wire.WireKind.PONG: "Pong",
            wire.WireKind.HANDOVER: "Handover",
            wire.WireKind.CREDIT: "CreditGrant",
            wire.WireKind.SHARD_HELLO: "ShardHello",
            wire.WireKind.ROUTE: "RoutedFrame",
            wire.WireKind.BATCH: "FrameBatch",
            wire.WireKind.MAP_DELTA: "BufferMapDelta",
            wire.WireKind.TELEMETRY: "TelemetryFrame",
        }
        assert set(by_kind) == set(wire.WireKind), "update the map for new kinds"
        assert covered == set(by_kind.values())

    @pytest.mark.parametrize(
        "msg", sample_messages(), ids=lambda m: type(m).__name__
    )
    def test_round_trip_identity(self, msg):
        frame = wire.encode(msg)
        decoded, consumed = wire.decode(frame)
        assert consumed == len(frame)
        if isinstance(msg, wire.DhtResponse):
            # float32 on the wire: compare the rate at that precision.
            assert decoded.responder == msg.responder
            assert decoded.origin == msg.origin
            assert decoded.target_key == msg.target_key
            assert decoded.segment_id == msg.segment_id
            assert decoded.has_data == msg.has_data
            assert decoded.path == msg.path
            assert decoded.rate == pytest.approx(msg.rate, rel=1e-6)
        else:
            assert decoded == msg

    def test_buffer_map_payload_round_trips_exactly(self):
        buffer = SegmentBuffer(capacity=600)
        for sid in (0, 1, 17, 256, 599):
            buffer.add(sid)
        original = BufferMap.from_buffer(buffer)
        msg = wire.BufferMapMsg.from_buffer_map(3, 599, original)
        decoded, _ = wire.decode(wire.encode(msg))
        assert decoded.buffer_map() == original

    def test_concatenated_frames_decode_in_order(self):
        msgs = sample_messages()
        stream = b"".join(wire.encode(m) for m in msgs)
        offset = 0
        decoded = []
        while offset < len(stream):
            msg, offset = wire.decode(stream, offset)
            decoded.append(msg)
        assert len(decoded) == len(msgs)
        assert [type(m) for m in decoded] == [type(m) for m in msgs]


class TestTraceTail:
    """The 8-byte observability tail on segment frames (repro.obs)."""

    def _pairs(self):
        return [
            (
                wire.SegmentRequest(sender=3, segment_id=5),
                wire.SegmentRequest(sender=3, segment_id=5, trace_id=41),
            ),
            (
                wire.SegmentData(sender=1, segment_id=2, size_bits=64),
                wire.SegmentData(sender=1, segment_id=2, size_bits=64, trace_id=41),
            ),
            (
                wire.SegmentNack(sender=9, segment_id=11),
                wire.SegmentNack(sender=9, segment_id=11, trace_id=41),
            ),
        ]

    def test_untraced_frames_are_byte_identical_to_the_pre_obs_wire(self):
        # trace_id=0 must cost nothing: same bytes, no flag bit set.
        for plain, traced in self._pairs():
            zeroed = dataclasses.replace(traced, trace_id=0)
            assert wire.encode(zeroed) == wire.encode(plain)
            # flags is the final byte of all three untraced segment frames
            assert not wire.encode(plain)[-1] & 0x2

    def test_traced_frames_cost_exactly_eight_extra_bytes(self):
        for plain, traced in self._pairs():
            assert len(wire.encode(traced)) == len(wire.encode(plain)) + 8
            decoded, _ = wire.decode(wire.encode(traced))
            assert decoded == traced

    def test_trace_tail_is_never_charged_to_the_ledger(self):
        plain = wire.SegmentData(sender=1, segment_id=2, size_bits=30 * 1024)
        traced = wire.SegmentData(
            sender=1, segment_id=2, size_bits=30 * 1024, trace_id=99
        )
        assert wire.ledger_entry(traced) == wire.ledger_entry(plain)
        assert wire.ledger_entry(
            wire.SegmentRequest(sender=1, segment_id=2, trace_id=99)
        ) is None

    def test_trace_flag_with_missing_tail_is_rejected(self):
        frame = bytearray(wire.encode(wire.SegmentRequest(sender=3, segment_id=5)))
        # Set the traced flag without appending the tail: corrupt frame.
        flags_offset = len(frame) - 1
        frame[flags_offset] |= 0x2
        with pytest.raises(wire.WireError):
            wire.decode(bytes(frame))


def with_body(kind: int, body_hex: str) -> bytes:
    """A frame of ``kind`` around a hand-written body."""
    body = bytes.fromhex(body_hex)
    return (1 + len(body)).to_bytes(4, "big") + bytes([kind]) + body


#: Pull lists, built from the documented layout: header (sender, first
#: segment, flags with bit 2 set), a u16 count of further ids, the ids at
#: the frame's width, then — when any segment is traced (bit 1) — one u64
#: trace id per segment.
PULL_LIST_VECTORS = [
    (wire.SegmentRequest(sender=7, segment_id=300, more=((301, 0), (305, 0))),
     "0000000c82" "0007012c04" "0002" "012d0131"),
    (wire.SegmentNack(sender=7, segment_id=300, more=((65536, 0),)),
     "0000001009" "00000007" "0000012c" "04" "0001" "00010000"),
    (wire.SegmentRequest(sender=7, segment_id=300, prefetch=True, more=((301, 5),)),
     "0000001a82" "0007012c07" "0001" "012d" "0000000000000000" "0000000000000005"),
    (wire.SegmentNack(sender=70000, segment_id=300, trace_id=9, more=((301, 0),)),
     "0000002009" "00011170" "0000012c" "06" "0001" "0000012d"
     "0000000000000009" "0000000000000000"),
]

#: Malformed narrow pull-list bodies: each must raise ``WireError``.
BAD_PULL_BODIES = {
    "flag without a count": "0007012c04",
    "half a count": "0007012c0400",
    "count of zero": "0007012c040000",
    "fewer ids than the count": "0007012c040003012d0131",
    "half an id": "0007012c040002012d01",
    "trailing byte after the ids": "0007012c040002012d013100",
    "trace tail one id short": "0007012c060001012d" + "00" * 8,
    "trace tail one id long": "0007012c060001012d" + "00" * 24,
    "trace tail missing": "0007012c060001012d",
}


class TestPullLists:
    """Flag bit 2: one request or refusal frame lists every segment one
    pass pulls from (or one supplier refuses to) one peer."""

    @pytest.mark.parametrize(
        "msg, hex_", PULL_LIST_VECTORS,
        ids=[f"{type(m).__name__}-{h[8:10]}-{len(h) // 2}B" for m, h in PULL_LIST_VECTORS],
    )
    def test_encode_and_decode_match_the_vector(self, msg, hex_):
        frame = bytes.fromhex(hex_)
        assert wire.encode(msg) == frame
        assert wire.decode(frame) == (msg, len(frame))

    def test_a_list_is_never_charged(self):
        more = ((4, 0), (5, 1))
        assert wire.ledger_entry(wire.SegmentRequest(sender=1, segment_id=3, more=more)) is None
        assert wire.ledger_entry(wire.SegmentNack(sender=1, segment_id=3, more=more)) is None

    def test_too_many_ids_are_rejected_at_encode(self):
        more = tuple((sid, 0) for sid in range(1, 2**16 + 1))
        with pytest.raises(wire.WireError):
            wire.encode(wire.SegmentRequest(sender=1, segment_id=0, more=more))

    @pytest.mark.parametrize("kind", [0x82, 0x89], ids=["request", "nack"])
    @pytest.mark.parametrize("body", list(BAD_PULL_BODIES.values()), ids=list(BAD_PULL_BODIES))
    def test_malformed_list_body_is_rejected_alone_and_in_a_batch(self, kind, body):
        bad = with_body(kind, body)
        with pytest.raises(wire.WireError):
            wire.decode(bad)
        with pytest.raises(wire.WireError):
            wire.decode_frame(bad)
        # Inside a batch: the whole envelope is refused, the good entry too.
        batch = wire.encode(wire.FrameBatch(frames=(wire.encode(wire.Ping(sender=1)), bad)))
        with pytest.raises(wire.WireError):
            wire.decode_frame(batch)

    def test_malformed_wide_list_body_is_rejected(self):
        good = "00000007" "0000012c" "04" "0002" "0000012d" "00000131"
        assert wire.decode(with_body(0x02, good))[0].pulls() == ((300, 0), (301, 0), (305, 0))
        for bad in (good[:-2], good + "00", good[:18] + "0003" + good[22:]):
            with pytest.raises(wire.WireError):
                wire.decode(with_body(0x02, bad))


class TestTruncationAndCorruption:
    @pytest.mark.parametrize(
        "msg", sample_messages(), ids=lambda m: type(m).__name__
    )
    def test_every_proper_prefix_is_rejected_as_truncated(self, msg):
        frame = wire.encode(msg)
        for cut in range(len(frame)):
            with pytest.raises(wire.TruncatedFrameError):
                wire.decode(frame[:cut])

    def test_unknown_kind_rejected(self):
        frame = bytearray(wire.encode(wire.Ping(sender=1)))
        frame[4] = 0xEE  # the kind byte
        with pytest.raises(wire.WireError):
            wire.decode(bytes(frame))

    def test_zero_length_frame_rejected(self):
        with pytest.raises(wire.WireError):
            wire.decode(b"\x00\x00\x00\x00")

    def test_oversized_length_prefix_rejected(self):
        header = (wire.MAX_FRAME_PAYLOAD + 1).to_bytes(4, "big")
        with pytest.raises(wire.WireError):
            wire.decode(header + b"\x00" * 16)

    def test_body_size_mismatch_rejected(self):
        # A ping frame whose declared length covers one extra byte.
        good = wire.encode(wire.Ping(sender=1, nonce=2))
        bad = (len(good) - 4 + 1).to_bytes(4, "big") + good[4:] + b"\x00"
        with pytest.raises(wire.WireError):
            wire.decode(bad)

    def test_bitmap_size_mismatch_rejected(self):
        msg = wire.BufferMapMsg.from_buffer_map(
            1, 5, BufferMap(head_id=0, capacity=16, bits=0b10)
        )
        frame = bytearray(wire.encode(msg))
        frame[-2:] = b""  # drop a bitmap byte
        frame[0:4] = (len(frame) - 4 - 2 + 2).to_bytes(4, "big")
        frame[0:4] = (len(frame) - 4).to_bytes(4, "big")
        with pytest.raises(wire.WireError):
            wire.decode(bytes(frame))

    def test_out_of_range_fields_rejected_at_encode(self):
        with pytest.raises(wire.WireError):
            wire.encode(wire.Ping(sender=2**32))
        with pytest.raises(wire.WireError):
            wire.encode(wire.SegmentRequest(sender=-1, segment_id=0))
        with pytest.raises(wire.WireError):
            wire.encode(
                wire.BufferMapMsg(
                    sender=1, newest_id=-2, head_id=0, capacity=8, bitmap=b"\x00"
                )
            )
        with pytest.raises(wire.WireError):
            wire.encode(
                wire.BufferMapMsg(
                    sender=1, newest_id=0, head_id=0, capacity=16, bitmap=b"\x00"
                )
            )


class TestFrameDecoder:
    def test_single_byte_feeds_reassemble_every_message(self):
        msgs = sample_messages()
        stream = b"".join(wire.encode(m) for m in msgs)
        decoder = wire.FrameDecoder()
        decoded = []
        for i in range(len(stream)):
            decoded.extend(decoder.feed(stream[i : i + 1]))
        assert len(decoded) == len(msgs)
        assert decoder.pending_bytes == 0

    def test_coalesced_feed_returns_all_messages_at_once(self):
        msgs = sample_messages()
        stream = b"".join(wire.encode(m) for m in msgs)
        decoder = wire.FrameDecoder()
        decoded = decoder.feed(stream)
        assert len(decoded) == len(msgs)

    def test_split_across_frame_boundary(self):
        a = wire.encode(wire.Ping(sender=1, nonce=2))
        b = wire.encode(wire.Pong(sender=3, nonce=4))
        decoder = wire.FrameDecoder()
        first = decoder.feed(a + b[:3])
        assert [type(m) for m in first] == [wire.Ping]
        assert decoder.pending_bytes == 3
        second = decoder.feed(b[3:])
        assert [type(m) for m in second] == [wire.Pong]

    def test_malformed_frame_poisons_the_stream(self):
        decoder = wire.FrameDecoder()
        with pytest.raises(wire.WireError):
            decoder.feed(b"\x00\x00\x00\x01\xee")

    def test_one_byte_chunks_keep_the_receive_buffer_compacted(self):
        # Regression for the quadratic re-slicing decoder: a long stream
        # arriving one byte at a time must neither lose messages nor let
        # the internal buffer grow past the compaction threshold (the old
        # implementation copied the whole pending buffer per chunk; this
        # one tracks an offset and compacts periodically).
        msgs = [wire.Ping(sender=i, nonce=i) for i in range(2000)]
        stream = b"".join(wire.encode(m) for m in msgs)
        decoder = wire.FrameDecoder()
        decoded = []
        for i in range(len(stream)):
            decoded.extend(decoder.feed(stream[i : i + 1]))
            assert len(decoder._buffer) <= decoder._COMPACT_AT + 16
        assert decoded == msgs
        assert decoder.pending_bytes == 0

    def test_dead_prefix_past_threshold_is_compacted(self):
        # One huge chunk of complete frames plus a partial tail: the dead
        # prefix exceeds _COMPACT_AT inside a single feed, so the buffer
        # must shrink back to (roughly) the partial frame.
        msgs = [wire.Ping(sender=i, nonce=i) for i in range(8000)]  # 9-byte frames
        stream = b"".join(wire.encode(m) for m in msgs)
        assert len(stream) > wire.FrameDecoder._COMPACT_AT
        decoder = wire.FrameDecoder()
        decoded = decoder.feed(stream[:-2])
        assert len(decoded) == len(msgs) - 1
        assert decoder.pending_bytes == len(wire.encode(msgs[0])) - 2
        assert len(decoder._buffer) < 64
        decoded.extend(decoder.feed(stream[-2:]))
        assert decoded == msgs
        assert decoder.pending_bytes == 0


class TestLedgerAccounting:
    """Accounted sizes reconcile against net/message.py, not frame lengths."""

    def test_buffer_map_costs_capacity_plus_anchor(self):
        for capacity in (1, 13, 600):
            msg = wire.BufferMapMsg.from_buffer_map(
                1, 5, BufferMap(head_id=0, capacity=capacity)
            )
            kind, bits = wire.ledger_entry(msg)
            assert kind is MessageKind.BUFFER_MAP
            assert bits == buffer_map_bits(capacity)
            # ...and is decoupled from the physical frame size.
            assert bits != len(wire.encode(msg)) * 8

    def test_data_costs_declared_payload_by_path(self):
        scheduled = wire.SegmentData(sender=1, segment_id=2, size_bits=30 * 1024)
        prefetched = wire.SegmentData(
            sender=1, segment_id=2, size_bits=30 * 1024, prefetch=True
        )
        assert wire.ledger_entry(scheduled) == (
            MessageKind.DATA_SCHEDULED, 30 * 1024.0,
        )
        assert wire.ledger_entry(prefetched) == (
            MessageKind.DATA_PREFETCH, 30 * 1024.0,
        )

    def test_dht_messages_cost_80_bits(self):
        lookup = wire.DhtLookup(origin=1, target_key=2, segment_id=3, path=(1,))
        response = wire.DhtResponse(
            responder=2, origin=1, target_key=2, segment_id=3,
            has_data=True, rate=1.0, path=(1, 2),
        )
        assert wire.ledger_entry(lookup) == (
            MessageKind.DHT_ROUTING, float(ROUTING_MESSAGE_BITS),
        )
        assert wire.ledger_entry(response) == (
            MessageKind.DHT_ROUTING, float(ROUTING_MESSAGE_BITS),
        )

    def test_membership_messages_cost_ping_bits(self):
        for msg in (
            wire.Ping(sender=1),
            wire.Pong(sender=1),
            wire.Handover(sender=1, segment_bits=8, segment_ids=(1, 2)),
        ):
            assert wire.ledger_entry(msg) == (
                MessageKind.MEMBERSHIP, float(PING_MESSAGE_BITS),
            )

    def test_pull_requests_are_not_charged(self):
        assert wire.ledger_entry(wire.SegmentRequest(sender=1, segment_id=2)) is None
        assert wire.ledger_entry(wire.SegmentNack(sender=1, segment_id=2)) is None
        assert wire.ledger_entry(wire.CreditGrant(sender=1, credits=4)) is None
        # Cluster transport frames are free too: the inner frame of a
        # routed envelope is charged once, at its originating peer.
        assert wire.ledger_entry(
            wire.ShardHello(shard_index=0, num_shards=2, token=1, ring_size=8192)
        ) is None
        assert wire.ledger_entry(wire.RoutedFrame(src=1, dst=2, payload=b"x")) is None

    def test_telemetry_frames_are_never_charged(self):
        # The observability plane is physical-only: a telemetry push must
        # not perturb the paper-facing ledger no matter how large its body.
        small = wire.TelemetryFrame.from_body(shard=0, period=1, body={})
        big = wire.TelemetryFrame.from_body(
            shard=3, period=9,
            body={"counters": {f"k{i}": i for i in range(200)}},
        )
        assert wire.ledger_entry(small) is None
        assert wire.ledger_entry(big) is None

    def test_telemetry_body_round_trips_through_the_codec(self):
        body = {"continuity": 0.5, "miss_causes": {"deadline": 2}, "period": 7}
        frame = wire.TelemetryFrame.from_body(shard=2, period=7, body=body)
        decoded, _ = wire.decode(wire.encode(frame))
        assert decoded.shard == 2
        assert decoded.period == 7
        assert decoded.body() == body


# One vector per kind byte: every peer message at both widths (the wide one
# pushed past 16 bits by one field), the four one-width kinds once.  Built
# from the documented layouts, not from the encoder.
_PING = wire.encode(wire.Ping(sender=7, nonce=1))
_CREDIT = wire.encode(wire.CreditGrant(sender=7, credits=4))
GOLDEN_VECTORS = [
    (wire.BufferMapMsg(sender=7, newest_id=-1, head_id=0, capacity=13, bitmap=b"\x82\x08", seq=3),
     "0000000d81000700000000000d00038208"),
    (wire.BufferMapMsg(sender=7, newest_id=65535, head_id=0, capacity=13, bitmap=b"\x82\x08", seq=3),
     "0000001501000000070000ffff00000000000d000000038208"),
    (wire.BufferMapDelta(sender=7, seq=4, newest_id=120, head_id=40, capacity=600, runs=((0, 3), (17, 1))),
     "000000158e0007000400790028025800020000000300110001"),
    (wire.BufferMapDelta(sender=7, seq=65536, newest_id=120, head_id=40, capacity=600,
                         runs=((0, 3), (17, 1))),
     "0000001d0e00000007000100000000007800000028025800020000000300110001"),
    (wire.SegmentRequest(sender=7, segment_id=300, prefetch=True),
     "00000006820007012c01"),
    (wire.SegmentRequest(sender=7, segment_id=65536, prefetch=True),
     "0000000a02000000070001000001"),
    (wire.SegmentData(sender=7, segment_id=300, size_bits=30720),
     "00000008830007012c780000"),
    (wire.SegmentData(sender=7, segment_id=300, size_bits=65536),
     "0000000e03000000070000012c0001000000"),
    (wire.SegmentNack(sender=7, segment_id=300, trace_id=5),
     "0000000e890007012c020000000000000005"),
    (wire.SegmentNack(sender=70000, segment_id=300, trace_id=5),
     "0000001209000111700000012c020000000000000005"),
    (wire.DhtLookup(origin=7, target_key=4096, segment_id=300, path=(7, 9)),
     "0000000d8400071000012c000200070009"),
    (wire.DhtLookup(origin=7, target_key=4096, segment_id=300, path=(7, 65536)),
     "000000170400000007000010000000012c00020000000700010000"),
    (wire.DhtResponse(responder=9, origin=7, target_key=4096, segment_id=300, has_data=True,
                      rate=12.5, path=(7, 9)),
     "0000001485000900071000012c0141480000000200070009"),
    (wire.DhtResponse(responder=70000, origin=7, target_key=4096, segment_id=300, has_data=True,
                      rate=12.5, path=(7, 9)),
     "00000020050001117000000007000010000000012c014148000000020000000700000009"),
    (wire.Ping(sender=7, nonce=1), "000000058600070001"),
    (wire.Ping(sender=7, nonce=65536), "00000009060000000700010000"),
    (wire.Pong(sender=9, nonce=1), "000000058700090001"),
    (wire.Pong(sender=70000, nonce=1), "00000009070001117000000001"),
    (wire.Handover(sender=7, segment_bits=30720, segment_ids=(300, 301)),
     "0000000b88000778000002012c012d"),
    (wire.Handover(sender=7, segment_bits=30720, segment_ids=(300, 65536)),
     "0000001308000000070000780000020000012c00010000"),
    (wire.CreditGrant(sender=7, credits=4), "000000058a00070004"),
    (wire.CreditGrant(sender=65536, credits=4), "000000070a000100000004"),
    (wire.ShardHello(shard_index=0, num_shards=2, token=42, ring_size=8192),
     "0000000d0b000000020000002a00002000"),
    (wire.RoutedFrame(src=7, dst=9, payload=_PING),  # src elided: the narrow ping spells it
     "0000000f0c0200000009000000058600070001"),
    (wire.FrameBatch(frames=(_PING, _CREDIT)),
     "000000110d00020005860007000100058a00070004"),
    (wire.TelemetryFrame(shard=1, period=2, payload=b"{}"),
     "000000090f0001000000027b7d"),
]

#: The kinds that ship at one width only.
ONE_WIDTH = {wire.WireKind.SHARD_HELLO, wire.WireKind.ROUTE, wire.WireKind.BATCH,
             wire.WireKind.TELEMETRY}


class TestGoldenVectors:
    """Byte-exact frames: a declarative codec must reproduce every one."""

    def test_every_kind_byte_has_a_vector(self):
        kind_bytes = sorted(bytes.fromhex(hex_)[4] for _, hex_ in GOLDEN_VECTORS)
        expected = sorted(
            [int(kind) for kind in wire.WireKind]
            + [kind | wire.NARROW for kind in wire.WireKind if kind not in ONE_WIDTH]
        )
        assert kind_bytes == expected
        assert all(kind < wire.NARROW for kind in wire.WireKind)

    @pytest.mark.parametrize(
        "msg, hex_", GOLDEN_VECTORS,
        ids=[f"{type(m).__name__}-{h[8:10]}" for m, h in GOLDEN_VECTORS],
    )
    def test_encode_and_decode_match_the_vector(self, msg, hex_):
        frame = bytes.fromhex(hex_)
        assert wire.encode(msg) == frame
        assert wire.decode(frame) == (msg, len(frame))
