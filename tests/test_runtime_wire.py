"""Exhaustive round-trip and robustness tests for the runtime wire codec."""

import dataclasses
import re
import struct
from pathlib import Path

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


def varint(value: int) -> bytes:
    """Minimal unsigned LEB128: seven bits per byte, low bits first."""
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def with_body(kind: int, body_hex: str) -> bytes:
    """A frame of ``kind`` around a hand-written body."""
    body = bytes.fromhex(body_hex)
    return varint(1 + len(body)) + bytes([kind]) + body


#: Pull lists, built from the documented layout: header (sender, first
#: segment, flags with bit 2 set), a varint count of further ids, the ids
#: at the frame's width, then — when any segment is traced (bit 1) — one
#: u64 trace id per segment.
PULL_LIST_VECTORS = [
    (wire.SegmentRequest(sender=7, segment_id=300, more=((301, 0), (305, 0))),
     "0b82" "0007012c04" "02" "012d0131"),
    (wire.SegmentNack(sender=7, segment_id=300, more=((65536, 0),)),
     "0f09" "00000007" "0000012c" "04" "01" "00010000"),
    (wire.SegmentRequest(sender=7, segment_id=300, prefetch=True, more=((301, 5),)),
     "1982" "0007012c07" "01" "012d" "0000000000000000" "0000000000000005"),
    (wire.SegmentNack(sender=70000, segment_id=300, trace_id=9, more=((301, 0),)),
     "1f09" "00011170" "0000012c" "06" "01" "0000012d"
     "0000000000000009" "0000000000000000"),
]

#: Malformed narrow pull-list bodies: each must raise ``WireError``.
BAD_PULL_BODIES = {
    "flag without a count": "0007012c04",
    "half a count": "0007012c0480",
    "non-minimal count": "0007012c048100012d",
    "four-byte count": "0007012c0481808000012d",
    "count of zero": "0007012c0400",
    "fewer ids than the count": "0007012c0403012d0131",
    "half an id": "0007012c0402012d01",
    "trailing byte after the ids": "0007012c0402012d013100",
    "trace tail one id short": "0007012c0601012d" + "00" * 8,
    "trace tail one id long": "0007012c0601012d" + "00" * 24,
    "trace tail missing": "0007012c0601012d",
}


class TestPullLists:
    """Flag bit 2: one request or refusal frame lists every segment one
    pass pulls from (or one supplier refuses to) one peer."""

    @pytest.mark.parametrize(
        "msg, hex_", PULL_LIST_VECTORS,
        ids=[f"{type(m).__name__}-{h[2:4]}-{len(h) // 2}B" for m, h in PULL_LIST_VECTORS],
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
        good = "00000007" "0000012c" "04" "02" "0000012d" "00000131"
        assert wire.decode(with_body(0x02, good))[0].pulls() == ((300, 0), (301, 0), (305, 0))
        for bad in (good[:-2], good + "00", good[:18] + "03" + good[20:]):
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
        frame[1] = 0xEE  # the kind byte, behind a one-byte prefix
        with pytest.raises(wire.WireError):
            wire.decode(bytes(frame))

    def test_zero_length_frame_rejected(self):
        with pytest.raises(wire.WireError):
            wire.decode(b"\x00\x01")

    def test_oversized_length_prefix_rejected(self):
        # MAX_FRAME_PAYLOAD + 1 fits the three-byte prefix but not the bound.
        header = varint(wire.MAX_FRAME_PAYLOAD + 1)
        assert len(header) == wire.MAX_PREFIX
        with pytest.raises(wire.WireError):
            wire.decode(header + b"\x00" * 16)
        with pytest.raises(wire.WireError):
            wire.FrameDecoder().feed(header)

    def test_body_size_mismatch_rejected(self):
        # A ping frame whose declared length covers one extra byte.
        good = wire.encode(wire.Ping(sender=1, nonce=2))
        bad = varint(len(good) - 1 + 1) + good[1:] + b"\x00"
        with pytest.raises(wire.WireError):
            wire.decode(bad)

    def test_bitmap_size_mismatch_rejected(self):
        msg = wire.BufferMapMsg.from_buffer_map(
            1, 5, BufferMap(head_id=0, capacity=16, bits=0b10)
        )
        frame = wire.encode(msg)
        payload = frame[1:-1]  # drop a bitmap byte
        with pytest.raises(wire.WireError):
            wire.decode(varint(len(payload)) + payload)

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
            decoder.feed(b"\x01\xee")

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
        msgs = [wire.Ping(sender=i, nonce=i) for i in range(12000)]  # 6-byte frames
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


def non_minimal(value: int, size: int) -> bytes:
    """``value`` spelled as a ``size``-byte varint, padded with zero groups."""
    spelled = bytearray(varint(value))
    while len(spelled) < size:
        spelled[-1] |= 0x80
        spelled.append(0)
    return bytes(spelled)


def telemetry_of_payload(length: int) -> wire.TelemetryFrame:
    """A telemetry frame whose payload (kind byte + body) is ``length`` bytes."""
    return wire.TelemetryFrame(shard=1, period=2, payload=b"x" * (length - 7))


#: A narrow map whose bitmap pushes its payload past 127 bytes.
LONG_MAP = wire.BufferMapMsg.from_buffer_map(
    7, 1300, BufferMap(head_id=100, capacity=1200, bits=(1 << 1200) - 1 - (1 << 5)), seq=9
)


class TestVarintFraming:
    """Every length and count is a minimal varint of at most three bytes."""

    @pytest.mark.parametrize(
        "length, prefix",
        [(127, "7f"), (128, "8001"), (16383, "ff7f"), (16384, "808001"),
         (wire.MAX_FRAME_PAYLOAD, "808004")],
    )
    def test_the_prefix_grows_a_byte_at_each_boundary(self, length, prefix):
        msg = telemetry_of_payload(length)
        frame = wire.encode(msg)
        assert frame.startswith(bytes.fromhex(prefix))
        assert len(frame) == len(prefix) // 2 + length
        assert wire.prologue(frame) == (len(prefix) // 2, length)
        assert wire.decode(frame) == (msg, len(frame))
        assert wire.decode_frame(frame) == (msg,)
        assert wire.FrameDecoder().feed(frame) == [msg]

    def test_one_byte_past_the_bound_is_refused_at_encode(self):
        with pytest.raises(wire.WireError):
            wire.encode(telemetry_of_payload(wire.MAX_FRAME_PAYLOAD + 1))

    #: Spellings of a ping's payload length (6) that are not the one byte
    #: ``06``, and three-byte spellings that continue past the third byte.
    BAD_PREFIXES = {
        "two bytes for 6": "8600",
        "three bytes for 6": "868000",
        "three bytes for 128": "808100",
        "four bytes for 6": "86808000",
        "continued past three bytes": "80808001",
    }

    @pytest.mark.parametrize("prefix", list(BAD_PREFIXES.values()), ids=list(BAD_PREFIXES))
    def test_a_bad_prefix_is_rejected_loose_and_inside_a_batch(self, prefix):
        ping = wire.encode(wire.Ping(sender=7, nonce=1))
        bad = bytes.fromhex(prefix) + ping[1:]
        with pytest.raises(wire.WireError) as caught:
            wire.decode(bad)
        assert not isinstance(caught.value, wire.TruncatedFrameError)
        with pytest.raises(wire.WireError):
            wire.decode_frame(bad)
        with pytest.raises(wire.WireError):
            wire.FrameDecoder().feed(bad)
        batch = with_body(wire.WireKind.BATCH, (varint(2) + ping + bad).hex())
        with pytest.raises(wire.WireError):
            wire.decode(batch)
        with pytest.raises(wire.WireError):
            wire.decode_frame(batch)

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_a_respelled_count_is_rejected(self, size):
        msgs = [
            wire.DhtLookup(origin=7, target_key=4096, segment_id=300, path=(7, 9)),
            wire.Handover(sender=7, segment_bits=30720, segment_ids=(300, 301)),
            wire.BufferMapDelta(sender=7, seq=4, newest_id=120, head_id=40, capacity=600,
                                runs=((0, 3), (17, 1))),
            wire.SegmentNack(sender=7, segment_id=300, more=((301, 0),)),
        ]
        # The count follows the narrow header: 6, 4, 10 and 5 bytes.
        for msg, header in zip(msgs, (6, 4, 10, 5)):
            frame = wire.encode(msg)
            count_at = 2 + header
            count = frame[count_at]
            body = frame[2:count_at] + non_minimal(count, size) + frame[count_at + 1:]
            with pytest.raises(wire.WireError):
                wire.decode(with_body(frame[1], body.hex()))
        batch = wire.encode(wire.FrameBatch(frames=(wire.encode(msgs[0]),) * 2))
        respelled = batch[2:3] + non_minimal(2, size) + batch[4:]
        with pytest.raises(wire.WireError):
            wire.decode(varint(len(respelled)) + respelled)

    def test_a_stream_split_inside_a_two_byte_prefix(self):
        ping = wire.Ping(sender=7, nonce=1)
        stream = wire.encode(ping) + wire.encode(LONG_MAP) + wire.encode(ping)
        inside = len(wire.encode(ping)) + 1  # between the map's two prefix bytes
        assert stream[inside - 1] & 0x80 and not stream[inside] & 0x80
        decoder = wire.FrameDecoder()
        assert decoder.feed(stream[:inside]) == [ping]
        assert decoder.pending_bytes == 1
        with pytest.raises(wire.TruncatedFrameError):
            wire.decode(stream[:inside], inside - 1)
        assert decoder.feed(stream[inside:]) == [LONG_MAP, ping]
        assert decoder.pending_bytes == 0

    def test_a_stream_split_after_each_byte_of_a_three_byte_prefix(self):
        msg = telemetry_of_payload(20000)
        frame = wire.encode(msg)
        for cut in (1, 2, 3):
            decoder = wire.FrameDecoder()
            assert decoder.feed(frame[:cut]) == []
            assert decoder.feed(frame[cut:]) == [msg]

    def test_a_batch_carries_one_and_two_byte_entry_prefixes_verbatim(self):
        ping = wire.encode(wire.Ping(sender=7, nonce=1))
        long_map = wire.encode(LONG_MAP)
        credit = wire.encode(wire.CreditGrant(sender=7, credits=2))
        assert wire.prologue(ping)[0] == 1 and wire.prologue(long_map)[0] == 2
        batch = wire.encode(wire.FrameBatch(frames=(ping, long_map, credit)))
        assert wire.prologue(batch) == (2, len(batch) - 2)
        assert batch[2:4] == bytes([wire.WireKind.BATCH, 3])
        assert batch[4:] == ping + long_map + credit
        assert wire.decode(batch)[0].frames == (ping, long_map, credit)
        assert wire.decode_frame(batch) == [
            wire.Ping(sender=7, nonce=1), LONG_MAP, wire.CreditGrant(sender=7, credits=2),
        ]
        assert wire.decode_frame(batch, only=wire.ABSORBED_KINDS) == [
            LONG_MAP, wire.CreditGrant(sender=7, credits=2),
        ]

    def test_frame_helpers_read_past_a_two_byte_prefix(self):
        long_map = wire.encode(LONG_MAP)
        batch = wire.encode(wire.FrameBatch(frames=(long_map,) * 3))
        assert wire.prologue(batch)[0] == 2
        assert wire.is_batch(batch) and wire.frame_count(batch) == 3
        assert not wire.is_one_shot(batch)
        assert not wire.is_batch(long_map) and wire.frame_count(long_map) == 1
        handover = wire.encode(
            wire.Handover(sender=7, segment_bits=8, segment_ids=tuple(range(100)))
        )
        assert wire.prologue(handover)[0] == 2
        assert wire.is_one_shot(handover) and not wire.is_batch(handover)
        assert wire.encode_batch([long_map, batch, handover]) == [long_map, batch, handover]

    def test_routed_source_elision_reads_past_a_two_byte_prefix(self):
        batch = wire.encode(wire.FrameBatch(frames=(wire.encode(LONG_MAP),) * 2))
        # A wide kind byte: the four bytes after it are what elision compares.
        spelled = int.from_bytes(batch[3:7], "big")
        for src in (spelled, spelled + 1):
            routed = wire.RoutedFrame(src=src, dst=9, payload=batch, data=True)
            frame = wire.encode(routed)
            assert wire.decode(frame) == (routed, len(frame))
            assert wire.prologue(frame)[1] == (6 if src == spelled else 10) + len(batch)
        long_map = wire.encode(LONG_MAP)  # narrow, led by its sender
        routed = wire.RoutedFrame(src=LONG_MAP.sender, dst=9, payload=long_map)
        frame = wire.encode(routed)
        assert wire.prologue(frame)[1] == 6 + len(long_map)
        assert wire.decode(frame) == (routed, len(frame))

    def test_the_route_headroom_is_exact(self):
        limit = wire.MAX_FRAME_PAYLOAD - wire.ROUTE_HEADROOM
        for length, fits in ((limit, True), (limit + 1, False)):
            inner = wire.encode(telemetry_of_payload(length))
            routed = wire.RoutedFrame(src=1, dst=2, payload=inner)
            if fits:
                assert wire.prologue(wire.encode(routed))[1] == wire.MAX_FRAME_PAYLOAD
            else:
                with pytest.raises(wire.WireError):
                    wire.encode(routed)


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
# from the documented layouts, not from the encoder.  Each is shorter than
# 128 bytes, so its prefix is one byte and its kind byte is the second.
_PING = wire.encode(wire.Ping(sender=7, nonce=1))
_CREDIT = wire.encode(wire.CreditGrant(sender=7, credits=4))
GOLDEN_VECTORS = [
    (wire.BufferMapMsg(sender=7, newest_id=-1, head_id=0, capacity=13, bitmap=b"\x82\x08", seq=3),
     "0d81000700000000000d00038208"),
    (wire.BufferMapMsg(sender=7, newest_id=65535, head_id=0, capacity=13, bitmap=b"\x82\x08", seq=3),
     "1501000000070000ffff00000000000d000000038208"),
    # Runs as a varint count, then (gap since the previous run's end, length).
    (wire.BufferMapDelta(sender=7, seq=4, newest_id=120, head_id=40, capacity=600, runs=((0, 3), (17, 1))),
     "108e00070004007900280258" "02" "0003" "0e01"),
    (wire.BufferMapDelta(sender=7, seq=65536, newest_id=120, head_id=40, capacity=600,
                         runs=((0, 3), (17, 1))),
     "180e00000007000100000000007800000028" "0258" "02" "0003" "0e01"),
    (wire.SegmentRequest(sender=7, segment_id=300, prefetch=True),
     "06820007012c01"),
    (wire.SegmentRequest(sender=7, segment_id=65536, prefetch=True),
     "0a02000000070001000001"),
    (wire.SegmentData(sender=7, segment_id=300, size_bits=30720),
     "08830007012c780000"),
    (wire.SegmentData(sender=7, segment_id=300, size_bits=65536),
     "0e03000000070000012c0001000000"),
    (wire.SegmentNack(sender=7, segment_id=300, trace_id=5),
     "0e890007012c020000000000000005"),
    (wire.SegmentNack(sender=70000, segment_id=300, trace_id=5),
     "1209000111700000012c020000000000000005"),
    (wire.DhtLookup(origin=7, target_key=4096, segment_id=300, path=(7, 9)),
     "0c8400071000012c" "02" "00070009"),
    (wire.DhtLookup(origin=7, target_key=4096, segment_id=300, path=(7, 65536)),
     "160400000007000010000000012c" "02" "0000000700010000"),
    (wire.DhtResponse(responder=9, origin=7, target_key=4096, segment_id=300, has_data=True,
                      rate=12.5, path=(7, 9)),
     "1385000900071000012c0141480000" "02" "00070009"),
    (wire.DhtResponse(responder=70000, origin=7, target_key=4096, segment_id=300, has_data=True,
                      rate=12.5, path=(7, 9)),
     "1f050001117000000007000010000000012c0141480000" "02" "0000000700000009"),
    (wire.Ping(sender=7, nonce=1), "058600070001"),
    (wire.Ping(sender=7, nonce=65536), "09060000000700010000"),
    (wire.Pong(sender=9, nonce=1), "058700090001"),
    (wire.Pong(sender=70000, nonce=1), "09070001117000000001"),
    (wire.Handover(sender=7, segment_bits=30720, segment_ids=(300, 301)),
     "0a8800077800" "02" "012c012d"),
    (wire.Handover(sender=7, segment_bits=30720, segment_ids=(300, 65536)),
     "12080000000700007800" "02" "0000012c00010000"),
    (wire.CreditGrant(sender=7, credits=4), "058a00070004"),
    (wire.CreditGrant(sender=65536, credits=4), "070a000100000004"),
    (wire.ShardHello(shard_index=0, num_shards=2, token=42, ring_size=8192),
     "0d0b000000020000002a00002000"),
    (wire.RoutedFrame(src=7, dst=9, payload=_PING),  # src elided: the narrow ping spells it
     "0c0c0200000009" "058600070001"),
    # Entries verbatim, each behind its own prefix, after a varint count.
    (wire.FrameBatch(frames=(_PING, _CREDIT)),
     "0e0d" "02" "058600070001" "058a00070004"),
    (wire.TelemetryFrame(shard=1, period=2, payload=b"{}"),
     "090f0001000000027b7d"),
]

#: The kinds that ship at one width only.
ONE_WIDTH = {wire.WireKind.SHARD_HELLO, wire.WireKind.ROUTE, wire.WireKind.BATCH,
             wire.WireKind.TELEMETRY}


class TestGoldenVectors:
    """Byte-exact frames: a declarative codec must reproduce every one."""

    def test_every_kind_byte_has_a_vector(self):
        kind_bytes = sorted(bytes.fromhex(hex_)[1] for _, hex_ in GOLDEN_VECTORS)
        expected = sorted(
            [int(kind) for kind in wire.WireKind]
            + [kind | wire.NARROW for kind in wire.WireKind if kind not in ONE_WIDTH]
        )
        assert kind_bytes == expected
        assert all(kind < wire.NARROW for kind in wire.WireKind)

    @pytest.mark.parametrize(
        "msg, hex_", GOLDEN_VECTORS,
        ids=[f"{type(m).__name__}-{h[2:4]}" for m, h in GOLDEN_VECTORS],
    )
    def test_encode_and_decode_match_the_vector(self, msg, hex_):
        frame = bytes.fromhex(hex_)
        assert wire.encode(msg) == frame
        assert wire.decode(frame) == (msg, len(frame))


def ids_hex(ids, width: int) -> str:
    """Ids spelled big-endian at ``width`` bytes each."""
    return "".join(f"{i:0{2 * width}x}" for i in ids)


#: Frames of 128 payload bytes or more (a two-byte prefix) for every
#: variable-length peer kind at both widths, and for every kind with a count
#: a frame whose count reaches 128 (a two-byte count varint).  Built from
#: the documented layouts: prefix varint, kind byte, header, tail.
LONG_VECTORS = [
    # -- a 1000-slot bitmap: 125 bytes behind the header
    (wire.BufferMapMsg(sender=7, newest_id=1300, head_id=100, capacity=1000,
                       bitmap=b"\xa5" * 125, seq=9),
     "8801" "81" "0007" "0515" "0064" "03e8" "0009" + "a5" * 125),
    (wire.BufferMapMsg(sender=7, newest_id=70000, head_id=100, capacity=1000,
                       bitmap=b"\xa5" * 125, seq=9),
     "9001" "01" "00000007" "00011170" "00000064" "03e8" "00000009" + "a5" * 125),
    # -- 60 one-bit runs one bit apart, then 130 of them (count 82 01)
    (wire.BufferMapDelta(sender=7, seq=4, newest_id=120, head_id=40, capacity=600,
                         runs=tuple((2 * i + 1, 1) for i in range(60))),
     "8401" "8e" "0007" "0004" "0079" "0028" "0258" "3c" + "0101" * 60),
    (wire.BufferMapDelta(sender=7, seq=65536, newest_id=120, head_id=40, capacity=600,
                         runs=tuple((2 * i + 1, 1) for i in range(60))),
     "8c01" "0e" "00000007" "00010000" "00000078" "00000028" "0258" "3c" + "0101" * 60),
    (wire.BufferMapDelta(sender=7, seq=4, newest_id=120, head_id=40, capacity=600,
                         runs=tuple((2 * i + 1, 1) for i in range(130))),
     "9102" "8e" "0007" "0004" "0079" "0028" "0258" "8201" + "0101" * 130),
    (wire.BufferMapDelta(sender=7, seq=65536, newest_id=120, head_id=40, capacity=600,
                         runs=tuple((2 * i + 1, 1) for i in range(130))),
     "9902" "0e" "00000007" "00010000" "00000078" "00000028" "0258" "8201" + "0101" * 130),
    # -- pull lists: 61 further ids untraced, 13 segments traced, 130 further ids
    (wire.SegmentRequest(sender=7, segment_id=300,
                         more=tuple((sid, 0) for sid in range(301, 362))),
     "8101" "82" "0007" "012c" "04" "3d" + ids_hex(range(301, 362), 2)),
    (wire.SegmentRequest(sender=70000, segment_id=300,
                         more=tuple((sid, 0) for sid in range(301, 362))),
     "ff01" "02" "00011170" "0000012c" "04" "3d" + ids_hex(range(301, 362), 4)),
    (wire.SegmentNack(sender=7, segment_id=300, trace_id=5,
                      more=tuple((sid, 0) for sid in range(301, 313))),
     "8701" "89" "0007" "012c" "06" "0c" + ids_hex(range(301, 313), 2)
     + "0000000000000005" + "00" * 8 * 12),
    (wire.SegmentNack(sender=70000, segment_id=300, trace_id=5,
                      more=tuple((sid, 0) for sid in range(301, 313))),
     "a301" "09" "00011170" "0000012c" "06" "0c" + ids_hex(range(301, 313), 4)
     + "0000000000000005" + "00" * 8 * 12),
    (wire.SegmentRequest(sender=7, segment_id=300,
                         more=tuple((sid, 0) for sid in range(301, 431))),
     "8c02" "82" "0007" "012c" "04" "8201" + ids_hex(range(301, 431), 2)),
    (wire.SegmentNack(sender=70000, segment_id=300, trace_id=5,
                      more=tuple((sid, 0) for sid in range(301, 431))),
     "ac0c" "09" "00011170" "0000012c" "06" "8201" + ids_hex(range(301, 431), 4)
     + "0000000000000005" + "00" * 8 * 130),
    # -- DHT paths of 64 / 60 hops, then 130
    (wire.DhtLookup(origin=7, target_key=4096, segment_id=300, path=tuple(range(64))),
     "8801" "84" "0007" "1000" "012c" "40" + ids_hex(range(64), 2)),
    (wire.DhtLookup(origin=70000, target_key=4096, segment_id=300, path=tuple(range(64))),
     "8e02" "04" "00011170" "00001000" "0000012c" "40" + ids_hex(range(64), 4)),
    (wire.DhtLookup(origin=7, target_key=4096, segment_id=300, path=tuple(range(130))),
     "8d02" "84" "0007" "1000" "012c" "8201" + ids_hex(range(130), 2)),
    (wire.DhtLookup(origin=70000, target_key=4096, segment_id=300, path=tuple(range(130))),
     "9704" "04" "00011170" "00001000" "0000012c" "8201" + ids_hex(range(130), 4)),
    (wire.DhtResponse(responder=9, origin=7, target_key=4096, segment_id=300, has_data=True,
                      rate=12.5, path=tuple(range(60))),
     "8701" "85" "0009" "0007" "1000" "012c" "01" "41480000" "3c" + ids_hex(range(60), 2)),
    (wire.DhtResponse(responder=70000, origin=7, target_key=4096, segment_id=300,
                      has_data=True, rate=12.5, path=tuple(range(60))),
     "8702" "05" "00011170" "00000007" "00001000" "0000012c" "01" "41480000" "3c"
     + ids_hex(range(60), 4)),
    (wire.DhtResponse(responder=9, origin=7, target_key=4096, segment_id=300, has_data=False,
                      rate=12.5, path=tuple(range(130))),
     "9402" "85" "0009" "0007" "1000" "012c" "00" "41480000" "8201" + ids_hex(range(130), 2)),
    (wire.DhtResponse(responder=70000, origin=7, target_key=4096, segment_id=300,
                      has_data=False, rate=12.5, path=tuple(range(130))),
     "a004" "05" "00011170" "00000007" "00001000" "0000012c" "00" "41480000" "8201"
     + ids_hex(range(130), 4)),
    # -- handover stores of 100 ids, then 130
    (wire.Handover(sender=7, segment_bits=30720, segment_ids=tuple(range(300, 400))),
     "ce01" "88" "0007" "7800" "64" + ids_hex(range(300, 400), 2)),
    (wire.Handover(sender=70000, segment_bits=30720, segment_ids=tuple(range(300, 400))),
     "9a03" "08" "00011170" "00007800" "64" + ids_hex(range(300, 400), 4)),
    (wire.Handover(sender=7, segment_bits=30720, segment_ids=tuple(range(300, 430))),
     "8b02" "88" "0007" "7800" "8201" + ids_hex(range(300, 430), 2)),
    (wire.Handover(sender=70000, segment_bits=30720, segment_ids=tuple(range(300, 430))),
     "9304" "08" "00011170" "00007800" "8201" + ids_hex(range(300, 430), 4)),
]


class TestLongFrameVectors:
    """Byte-exact frames past the one-byte prefix and the one-byte count."""

    def test_every_variable_length_peer_kind_has_both_widths(self):
        kinds = {bytes.fromhex(hex_)[2] for _, hex_ in LONG_VECTORS}
        variable = {wire.WireKind.BUFFER_MAP, wire.WireKind.MAP_DELTA,
                    wire.WireKind.SEGMENT_REQUEST, wire.WireKind.SEGMENT_NACK,
                    wire.WireKind.DHT_LOOKUP, wire.WireKind.DHT_RESPONSE,
                    wire.WireKind.HANDOVER}
        assert kinds == {int(k) for k in variable} | {k | wire.NARROW for k in variable}

    @pytest.mark.parametrize(
        "msg, hex_", LONG_VECTORS,
        ids=[f"{type(m).__name__}-{h[4:6]}-{len(h) // 2}B" for m, h in LONG_VECTORS],
    )
    def test_encode_and_decode_match_the_vector(self, msg, hex_):
        frame = bytes.fromhex(hex_)
        assert wire.prologue(frame) == (2, len(frame) - 2)
        assert wire.encode(msg) == frame
        assert wire.decode(frame) == (msg, len(frame))
        assert wire.decode_frame(frame) == (msg,)


RUNTIME_DOC = Path(__file__).resolve().parents[1] / "docs" / "runtime.md"


def doc_table(header: str):
    """The body rows of the docs/runtime.md table under ``header``, as cells."""
    lines = RUNTIME_DOC.read_text(encoding="utf-8").splitlines()
    at = lines.index(header) + 2  # skip the |---| rule
    rows = []
    while at < len(lines) and lines[at].startswith("|"):
        rows.append([cell.strip() for cell in lines[at].strip("|").split("|")])
        at += 1
    return rows


#: A lead id that keeps a frame narrow or forces it wide.
LEADS = {"wide": 70000, "narrow": 7}


def _deltas(lead, r):
    return wire.BufferMapDelta(sender=lead, seq=4, newest_id=120, head_id=40, capacity=600,
                               runs=tuple((3 * i + 1, 1) for i in range(r)))


def _pulls(cls, lead, k):
    return cls(sender=lead, segment_id=300, more=tuple((301 + i, 0) for i in range(k - 1)))


#: The message(s) each row of the frame-size table describes, per width,
#: for one value of the row's variable (*r* runs, *n* hops, *k* segments).
SIZE_ROWS = {
    "`BufferMapMsg` (600 slots)": lambda lead, _: [wire.BufferMapMsg.from_buffer_map(
        lead, 650, BufferMap(head_id=50, capacity=600, bits=(1 << 600) - 1), seq=3)],
    "`BufferMapDelta` (*r* runs)": lambda lead, r: [_deltas(lead, r)],
    "`SegmentRequest` / `SegmentNack`, one segment":
        lambda lead, _: [_pulls(cls, lead, 1) for cls in (wire.SegmentRequest, wire.SegmentNack)],
    "`SegmentRequest` / `SegmentNack`, *k* ≥ 2 segments":
        lambda lead, k: [_pulls(cls, lead, k) for cls in (wire.SegmentRequest, wire.SegmentNack)],
    "`SegmentData`": lambda lead, _: [wire.SegmentData(sender=lead, segment_id=300,
                                                        size_bits=30720, prefetch=True)],
    "`DhtLookup` (*n* hops)": lambda lead, n: [wire.DhtLookup(
        origin=lead, target_key=4096, segment_id=300, path=tuple(range(n)))],
    "`DhtResponse` (*n* hops)": lambda lead, n: [wire.DhtResponse(
        responder=lead, origin=7, target_key=4096, segment_id=300, has_data=True, rate=1.5,
        path=tuple(range(n)))],
    "`Ping` / `Pong`": lambda lead, _: [wire.Ping(sender=lead, nonce=1),
                                         wire.Pong(sender=lead, nonce=1)],
    "`Handover` (*n* ids)": lambda lead, n: [wire.Handover(
        sender=lead, segment_bits=30720, segment_ids=tuple(range(300, 300 + n)))],
    "`CreditGrant`": lambda lead, _: [wire.CreditGrant(sender=lead, credits=4)],
}
#: The values each table variable is checked at.
VARIABLE_VALUES = {"r": (0, 1, 3), "n": (1, 4), "k": (2, 3), None: (None,)}


def doc_size(cell: str, value):
    """Evaluate a size cell: ``95`` or ``21 + 2*r*`` (markdown italics)."""
    match = re.fullmatch(r"(\d+)(?: \+ (\d+)\*([rnk])\*)?", cell)
    assert match, f"unreadable size cell {cell!r}"
    fixed, per, variable = match.groups()
    return variable, int(fixed) + (int(per) * value if per else 0)


#: One small (narrow) message of each class the kind table names.
KIND_SAMPLES = {
    "BufferMapMsg": GOLDEN_VECTORS[0][0],
    "SegmentRequest": wire.SegmentRequest(sender=7, segment_id=300),
    "SegmentData": wire.SegmentData(sender=7, segment_id=300, size_bits=30720),
    "DhtLookup": wire.DhtLookup(origin=7, target_key=4096, segment_id=300, path=(7,)),
    "DhtResponse": GOLDEN_VECTORS[12][0],
    "Ping": wire.Ping(sender=7),
    "Pong": wire.Pong(sender=7),
    "Handover": wire.Handover(sender=7, segment_bits=8, segment_ids=(1,)),
    "SegmentNack": wire.SegmentNack(sender=7, segment_id=300),
    "CreditGrant": wire.CreditGrant(sender=7, credits=4),
    "FrameBatch": wire.FrameBatch(frames=(_PING,)),
    "BufferMapDelta": GOLDEN_VECTORS[2][0],
}


class TestDocTables:
    """docs/runtime.md's wire tables read what the codec writes."""

    def test_every_frame_size_row_matches_the_encoder(self):
        rows = doc_table("| message | wide B | narrow B |")
        assert {row[0] for row in rows} == set(SIZE_ROWS)
        for label, wide_cell, narrow_cell in rows:
            for width, cell in (("wide", wide_cell), ("narrow", narrow_cell)):
                variable, _ = doc_size(cell, 0)
                for value in VARIABLE_VALUES[variable]:
                    expected = doc_size(cell, value)[1]
                    for msg in SIZE_ROWS[label](LEADS[width], value):
                        frame = wire.encode(msg)
                        narrow = frame[wire.prologue(frame)[0]] & wire.NARROW
                        assert bool(narrow) == (width == "narrow"), label
                        assert len(frame) == expected, f"{label} {width} at {variable}={value}"

    def test_every_kind_row_matches_wire_kind_and_narrow(self):
        rows = doc_table("| kind (narrow) | message | body (*w* = u32 wide, u16 narrow) "
                         "| accounted as |")
        named = {}
        for kinds, message, _body, _charge in rows:
            match = re.fullmatch(r"(\d+)(?: \((\d+)\))?", kinds)
            kind, narrow = int(match[1]), match[2] and int(match[2])
            cls = message.strip("`")
            frame = wire.encode(KIND_SAMPLES[cls])
            assert type(wire.decode(frame)[0]).__name__ == cls
            assert frame[wire.prologue(frame)[0]] == (narrow if narrow else kind), cls
            assert kind in set(wire.WireKind)
            if narrow:
                assert narrow == kind | wire.NARROW
            named[cls] = kind
        assert set(named) == set(KIND_SAMPLES)


#: Every kind with a flags byte, at each width: a frame, where its flags
#: byte sits and the bits the kind defines.
FLAGGED_FRAMES = [
    ("SegmentRequest", "06820007012c01", 6, 0x07),
    ("SegmentRequest-wide", "0a02000000070001000001", 10, 0x07),
    ("SegmentNack", "0e890007012c020000000000000005", 6, 0x07),
    ("SegmentNack-wide", "1209000111700000012c020000000000000005", 10, 0x07),
    ("SegmentData", "08830007012c780000", 8, 0x03),
    ("SegmentData-wide", "0e03000000070000012c0001000000", 14, 0x03),
    ("DhtResponse", "1385000900071000012c0141480000" "02" "00070009", 10, 0x01),
    ("DhtResponse-wide", "1f050001117000000007000010000000012c0141480000" "02" "0000000700000009",
     18, 0x01),
    ("RoutedFrame", "0c0c0200000009" "058600070001", 2, 0x03),
]
UNDEFINED_BITS = [
    pytest.param(bytes.fromhex(hex_), at, 1 << bit, id=f"{name}-bit{bit}")
    for name, hex_, at, defined in FLAGGED_FRAMES
    for bit in range(8)
    if not defined & 1 << bit
]


class TestReservedFlagBits:
    """A flag bit a kind does not define is refused, never dropped."""

    @pytest.mark.parametrize("frame, at, bit", UNDEFINED_BITS)
    def test_an_undefined_bit_is_a_wire_error(self, frame, at, bit):
        wire.decode(frame)  # the frame itself is fine
        bad = bytearray(frame)
        bad[at] |= bit
        bad = bytes(bad)
        for reader in (wire.decode, wire.decode_frame, wire.FrameDecoder().feed):
            with pytest.raises(wire.WireError):
                reader(bad)
        batch = wire.encode(wire.FrameBatch(frames=(_PING, bad)))
        with pytest.raises(wire.WireError):
            wire.decode_frame(batch)

    def test_the_reported_data_frame_no_longer_decodes_like_the_clean_one(self):
        clean = bytes.fromhex("08830007012c780000")
        assert wire.decode(clean)[0] == wire.SegmentData(7, 300, 30720)
        with pytest.raises(wire.WireError):
            wire.decode(bytes.fromhex("08830007012c780080"))

    def test_the_defined_bits_still_decode(self):
        for name, hex_, at, defined in FLAGGED_FRAMES:
            frame = bytearray.fromhex(hex_)
            frame[at] |= defined & 0x01  # bit 0 alone never changes the body length
            msg, _ = wire.decode(bytes(frame))
            assert wire.encode(msg) == bytes(frame), name

    @pytest.mark.parametrize("lead", [7, 70000], ids=["narrow", "wide"])
    @pytest.mark.parametrize("make, field, odd, truth", [
        (lambda s, f: wire.SegmentRequest(s, 300, prefetch=f), "prefetch", 2, True),
        (lambda s, f: wire.SegmentRequest(s, 300, prefetch=f, trace_id=9), "prefetch", 2, True),
        (lambda s, f: wire.SegmentNack(s, 300, prefetch=f, more=((301, 0),)), "prefetch", 2, True),
        (lambda s, f: wire.SegmentData(s, 300, 30720, prefetch=f), "prefetch", 2, True),
        (lambda s, f: wire.DhtResponse(s, 2, 3, 4, f, 1.0, (5,)), "has_data", None, False),
    ], ids=["request", "traced-request", "nack-list", "data", "response"])
    def test_a_flag_field_encodes_as_its_truth_value(self, lead, make, field, odd, truth):
        frame = wire.encode(make(lead, odd))
        assert frame == wire.encode(make(lead, truth))
        assert getattr(wire.decode(frame)[0], field) is truth


def with_field(hex_: str, at: int, code: str, value) -> bytes:
    """The frame ``hex_`` with the field at byte ``at`` re-spelled."""
    frame = bytearray.fromhex(hex_)
    struct.pack_into(">" + code, frame, at, value)
    return bytes(frame)


class TestDecodeRanges:
    """Decode refuses the values encode refuses, at either width."""

    WIDE_MAP = GOLDEN_VECTORS[1][1]  # newest_id at bytes 6..10
    WIDE_DELTA = GOLDEN_VECTORS[3][1]  # newest_id at bytes 10..14

    @pytest.mark.parametrize("newest", [-2, -5, -9, -2**31])
    @pytest.mark.parametrize("hex_, at", [(WIDE_MAP, 6), (WIDE_DELTA, 10)], ids=["map", "delta"])
    def test_a_wide_newest_id_below_minus_one_is_refused(self, hex_, at, newest):
        assert wire.decode(with_field(hex_, at, "i", -1))[0].newest_id == -1
        bad = with_field(hex_, at, "i", newest)
        for reader in (wire.decode, wire.decode_frame, wire.FrameDecoder().feed):
            with pytest.raises(wire.WireError, match="newest_id out of range"):
                reader(bad)
        msg = wire.decode(with_field(hex_, at, "i", 0))[0]
        with pytest.raises(wire.WireError, match="newest_id out of range"):
            wire.encode(dataclasses.replace(msg, newest_id=newest))

    @pytest.mark.parametrize("hex_, at, code", [
        (GOLDEN_VECTORS[0][1], 8, "H"),  # narrow map capacity
        (GOLDEN_VECTORS[1][1], 14, "H"),  # wide map capacity
        (GOLDEN_VECTORS[2][1], 10, "H"),  # narrow delta capacity
        ("058a00070004", 4, "H"),  # narrow credit grant
        ("070a000100000004", 6, "H"),  # wide credit grant
        ("0d0b000000020000002a00002000", 4, "H"),  # shard hello's shard count
    ], ids=["map", "map-wide", "delta", "credit", "credit-wide", "hello"])
    def test_a_zero_count_field_is_refused_at_both_ends(self, hex_, at, code):
        bad = with_field(hex_, at, code, 0)
        with pytest.raises(wire.WireError, match="out of range"):
            wire.decode(bad)
        msg = wire.decode(bytes.fromhex(hex_))[0]
        name = next(f.name for f in dataclasses.fields(msg)
                    if f.name in ("capacity", "credits", "num_shards"))
        with pytest.raises(wire.WireError, match=f"{name} out of range"):
            wire.encode(dataclasses.replace(msg, **{name: 0}))
