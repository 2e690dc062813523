"""Hypothesis property tests for the runtime wire codec.

Three properties, each over generated rather than hand-picked inputs:

1. **Round-trip** — every valid frame of every kind decodes back to the
   message that encoded it (``DhtResponse.rate`` is exact because the
   strategy draws float32-representable values, matching the wire width).
2. **Garbage resilience** — feeding arbitrary bytes to a
   :class:`~repro.runtime.wire.FrameDecoder` either yields messages or
   raises :class:`~repro.runtime.wire.WireError` (the documented
   poisoned-stream signal); never any other exception, never an
   unbounded buffer (a hostile length prefix cannot make it allocate
   past one frame).
3. **Truncation at every offset** — a valid frame split at *every* byte
   position decodes once the rest arrives, and arbitrary re-chunkings of
   a frame sequence deliver the same messages in the same order.
"""

import dataclasses

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.runtime import wire  # noqa: E402
from repro.streaming.buffermap import BufferMap  # noqa: E402

#: Drawn often: the edges of both widths (a frame goes wide past 65 535).
EDGES = (0, 2**16 - 1, 2**16, 2**32 - 1)
u32 = st.one_of(st.sampled_from(EDGES), st.integers(0, 2**32 - 1))
u16 = st.integers(0, 2**16 - 1)
#: -1 (fresh stream) and the narrow edge, which sits one lower for
#: ``newest_id`` because a narrow frame carries ``newest_id + 1``.
newest_ids = st.one_of(
    st.sampled_from((-1, 0, 2**16 - 2, 2**16 - 1, 2**31 - 1)), st.integers(-1, 2**31 - 1)
)
#: 0 (untraced, the wire-identical fast path) or any u64 trace id.
trace_ids = st.one_of(st.just(0), st.integers(0, 2**64 - 1))
flags = st.booleans()
#: A pull frame's further ``(segment_id, trace_id)`` pairs: a one-id frame
#: or a list (flag bit 2).
more_pulls = st.one_of(
    st.just(()), st.lists(st.tuples(u32, trace_ids), min_size=1, max_size=12).map(tuple)
)
#: Empty and 7-hop paths (the longest greedy route) beside arbitrary ones.
paths = st.one_of(
    st.just(()),
    st.lists(u32, min_size=7, max_size=7).map(tuple),
    st.lists(u32, max_size=64).map(tuple),
)
rates = st.floats(
    width=32, min_value=0.0, allow_nan=False, allow_infinity=False
)


@st.composite
def buffer_map_msgs(draw):
    capacity = draw(st.integers(1, 700))
    nbytes = (capacity + 7) // 8
    return wire.BufferMapMsg(
        sender=draw(u32),
        newest_id=draw(newest_ids),
        head_id=draw(u32),
        capacity=capacity,
        bitmap=draw(st.binary(min_size=nbytes, max_size=nbytes)),
        seq=draw(u32),
    )


@st.composite
def buffer_map_deltas(draw):
    capacity = draw(st.integers(1, 700))
    # Ascending, disjoint (offset, length) runs inside the window.
    runs = []
    cursor = 0
    for _ in range(draw(st.integers(0, 8))):
        if cursor >= capacity:
            break
        start = draw(st.integers(cursor, capacity - 1))
        length = draw(st.integers(1, capacity - start))
        runs.append((start, length))
        cursor = start + length
    return wire.BufferMapDelta(
        sender=draw(u32),
        seq=draw(u32),
        newest_id=draw(newest_ids),
        head_id=draw(u32),
        capacity=capacity,
        runs=tuple(runs),
    )


_batchable_messages = st.deferred(
    lambda: st.one_of(
        buffer_map_msgs(),
        buffer_map_deltas(),
        st.builds(
            wire.SegmentRequest, sender=u32, segment_id=u32, prefetch=flags,
            trace_id=trace_ids,
        ),
        st.builds(
            wire.SegmentData, sender=u32, segment_id=u32, size_bits=u32,
            prefetch=flags, trace_id=trace_ids,
        ),
        st.builds(wire.Ping, sender=u32, nonce=u32),
        st.builds(wire.CreditGrant, sender=u32, credits=st.integers(1, 2**16 - 1)),
        st.builds(
            wire.RoutedFrame, src=u32, dst=u32,
            payload=st.binary(max_size=64), data=flags,
        ),
    )
)


@st.composite
def frame_batches(draw):
    inner = draw(st.lists(_batchable_messages, min_size=1, max_size=6))
    return wire.FrameBatch(frames=tuple(wire.encode(m) for m in inner))


#: Every kind with a narrow form, each at either width.
peer_messages = st.one_of(
    buffer_map_msgs(),
    buffer_map_deltas(),
    st.builds(
        wire.SegmentRequest, sender=u32, segment_id=u32, prefetch=flags,
        trace_id=trace_ids, more=more_pulls,
    ),
    st.builds(
        wire.SegmentNack, sender=u32, segment_id=u32, prefetch=flags,
        trace_id=trace_ids, more=more_pulls,
    ),
    st.builds(
        wire.SegmentData, sender=u32, segment_id=u32, size_bits=u32, prefetch=flags,
        trace_id=trace_ids,
    ),
    st.builds(
        wire.DhtLookup, origin=u32, target_key=u32, segment_id=u32, path=paths
    ),
    st.builds(
        wire.DhtResponse,
        responder=u32,
        origin=u32,
        target_key=u32,
        segment_id=u32,
        has_data=flags,
        rate=rates,
        path=paths,
    ),
    st.builds(wire.Ping, sender=u32, nonce=u32),
    st.builds(wire.Pong, sender=u32, nonce=u32),
    st.builds(
        wire.Handover,
        sender=u32,
        segment_bits=u32,
        segment_ids=st.lists(u32, max_size=128).map(tuple),
    ),
    st.builds(wire.CreditGrant, sender=u32, credits=st.integers(1, 2**16 - 1)),
)

wire_messages = st.one_of(
    peer_messages,
    st.builds(
        wire.ShardHello,
        shard_index=u16,
        num_shards=st.integers(1, 2**16 - 1),
        token=u32,
        ring_size=u32,
    ),
    # The routed envelope's payload is opaque to the codec (the inner
    # frame is validated by the destination peer's decoder), so any byte
    # string must round-trip — including bytes that are not a valid frame.
    st.builds(
        wire.RoutedFrame,
        src=u32,
        dst=u32,
        payload=st.binary(max_size=512),
        data=flags,
    ),
    frame_batches(),
    # Telemetry payloads are opaque bytes on the wire — arbitrary byte
    # strings (not just valid JSON) must round-trip unchanged.
    st.builds(
        wire.TelemetryFrame,
        shard=u16,
        period=u32,
        payload=st.binary(max_size=256),
    ),
)

#: The fields a narrow frame spells in 16 bits, per kind (a narrow
#: ``newest_id`` rides as ``newest_id + 1``).  Capacities, credits, counts
#: and delta runs are 16 bits at both widths; trace ids are 64.
NARROWED = {
    wire.BufferMapMsg: lambda m: (m.sender, m.newest_id + 1, m.head_id, m.seq),
    wire.BufferMapDelta: lambda m: (m.sender, m.seq, m.newest_id + 1, m.head_id),
    wire.SegmentRequest: lambda m: (m.sender, *[sid for sid, _ in m.pulls()]),
    wire.SegmentNack: lambda m: (m.sender, *[sid for sid, _ in m.pulls()]),
    wire.SegmentData: lambda m: (m.sender, m.segment_id, m.size_bits),
    wire.DhtLookup: lambda m: (m.origin, m.target_key, m.segment_id, *m.path),
    wire.DhtResponse: lambda m: (m.responder, m.origin, m.target_key, m.segment_id, *m.path),
    wire.Ping: lambda m: (m.sender, m.nonce),
    wire.Pong: lambda m: (m.sender, m.nonce),
    wire.Handover: lambda m: (m.sender, m.segment_bits, *m.segment_ids),
    wire.CreditGrant: lambda m: (m.sender,),
}
#: Kinds whose body length does not depend on the message's values (a
#: request or nack may carry an id list, so its length depends on flags).
FIXED_SIZE = (wire.SegmentData, wire.Ping, wire.Pong, wire.CreditGrant)


def wide_frame(msg) -> bytes:
    """``msg`` in the wide layout, whether or not it would fit narrow."""
    return wire._ENCODE[type(msg)][0](msg)


def varint(value: int) -> bytes:
    """Minimal unsigned LEB128: seven bits per byte, low bits first."""
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def with_body(kind: int, body: bytes) -> bytes:
    return varint(1 + len(body)) + bytes([kind]) + body


def kind_at(frame: bytes) -> int:
    """Where a frame's kind byte sits, behind its varint prefix."""
    return wire.prologue(frame)[0]


class TestWidthProperty:
    """Narrow exactly when every integer fits; never longer; never misread."""

    @given(msg=peer_messages)
    @settings(max_examples=400, deadline=None)
    def test_narrow_form_is_chosen_exactly_when_every_integer_fits(self, msg):
        frame = wire.encode(msg)
        fits = all(0 <= value <= 0xFFFF for value in NARROWED[type(msg)](msg))
        assert bool(frame[kind_at(frame)] & wire.NARROW) == fits
        assert wire.decode(frame) == (msg, len(frame))

    @given(msg=peer_messages)
    @settings(max_examples=300, deadline=None)
    def test_the_wide_form_round_trips_and_is_never_shorter(self, msg):
        frame, wide = wire.encode(msg), wide_frame(msg)
        assert wire.decode(wide) == (msg, len(wide))
        if frame[kind_at(frame)] & wire.NARROW:
            assert len(frame) < len(wide)
        else:
            assert frame == wide

    @given(msg=peer_messages)
    @settings(max_examples=300, deadline=None)
    def test_a_narrow_kind_byte_on_a_wide_length_body_is_rejected(self, msg):
        frame, wide = wire.encode(msg), wide_frame(msg)
        at, wide_at = kind_at(frame), kind_at(wide)
        if frame[at] & wire.NARROW:
            # The narrow fields, padded out to the wide body's length.
            padded = with_body(
                frame[at], frame[at + 1:] + bytes(len(wide) - wide_at - len(frame) + at)
            )
            with pytest.raises(wire.WireError):
                wire.decode(padded)
        # The wide body itself under a narrow kind byte: never the message,
        # and always an error where the body length is fixed.
        flipped = with_body(wide[wide_at] | wire.NARROW, wide[wide_at + 1:])
        try:
            decoded, _ = wire.decode(flipped)
        except wire.WireError:
            return
        assert not isinstance(msg, FIXED_SIZE)
        assert decoded != msg

    @given(inner=st.one_of(peer_messages, frame_batches()), src=u32, dst=u32,
           elide=flags, data=flags)
    @settings(max_examples=300, deadline=None)
    def test_routed_frames_round_trip_around_either_width(self, inner, src, dst, elide, data):
        payload = wire.encode(inner)
        leading = None
        if not isinstance(inner, wire.FrameBatch):
            # Every peer message leads with its sender (origin, responder).
            leading = getattr(inner, dataclasses.fields(inner)[0].name)
            if elide:
                src = leading
        routed = wire.RoutedFrame(src=src, dst=dst, payload=payload, data=data)
        frame = wire.encode(routed)
        assert wire.decode(frame) == (routed, len(frame))
        if leading is not None:
            elided = wire.prologue(frame)[1] == 6 + len(payload)
            assert elided == (src == leading)


class TestPullListWidth:
    """A pull list ships at the width of its widest id."""

    @given(
        cls=st.sampled_from((wire.SegmentRequest, wire.SegmentNack)),
        sender=u16,
        pulls=st.lists(st.tuples(u16, trace_ids), min_size=1, max_size=12),
        wide_id=st.integers(2**16, 2**32 - 1),
        prefetch=flags,
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_id_past_16_bits_forces_the_wide_layout(
        self, cls, sender, pulls, wide_id, prefetch, data
    ):
        def frame_of(pulls):
            (first, trace_id), *more = pulls
            msg = cls(sender, first, prefetch, trace_id, tuple(more))
            return msg, wire.encode(msg)

        narrow_msg, narrow = frame_of(pulls)
        assert narrow[kind_at(narrow)] & wire.NARROW
        traced = any(trace_id for _, trace_id in pulls)
        k = len(pulls)
        # prefix, kind, header; a one-byte count and k - 1 ids; the traces
        assert len(narrow) == 7 + (2 * k - 1 if k > 1 else 0) + (8 * k if traced else 0)
        assert wire.decode(narrow) == (narrow_msg, len(narrow))
        at = data.draw(st.integers(0, k), label="position of the wide id")
        pulls.insert(at, (wide_id, 0))
        msg, frame = frame_of(pulls)
        assert not frame[kind_at(frame)] & wire.NARROW
        assert frame == wide_frame(msg)
        assert wire.decode(frame) == (msg, len(frame))
        assert msg.pulls() == tuple(pulls)


class TestRoundTripProperty:
    @given(msg=wire_messages)
    @settings(max_examples=300, deadline=None)
    def test_any_valid_frame_round_trips(self, msg):
        frame = wire.encode(msg)
        decoded, consumed = wire.decode(frame)
        assert consumed == len(frame)
        assert decoded == msg

    @given(msgs=st.lists(wire_messages, min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_concatenated_frames_round_trip_in_order(self, msgs):
        stream = b"".join(wire.encode(m) for m in msgs)
        decoded = wire.FrameDecoder().feed(stream)
        assert decoded == msgs


class TestValueEquality:
    """Messages are slotted (not frozen) dataclasses: equality must still
    be by *class and* field values."""

    @given(sender=u32, nonce=u32)
    def test_ping_and_pong_with_equal_fields_differ(self, sender, nonce):
        assert wire.Ping(sender, nonce) == wire.Ping(sender=sender, nonce=nonce)
        assert wire.Ping(sender, nonce) != wire.Pong(sender, nonce)
        assert wire.Ping(sender, nonce) != (sender, nonce)

    @given(sender=u32, segment_id=u32, prefetch=flags, trace_id=trace_ids)
    def test_request_and_nack_with_equal_fields_differ(
        self, sender, segment_id, prefetch, trace_id
    ):
        request = wire.SegmentRequest(sender, segment_id, prefetch, trace_id)
        nack = wire.SegmentNack(sender, segment_id, prefetch, trace_id)
        assert request != nack
        assert wire.decode(wire.encode(request))[0] == request
        assert wire.decode(wire.encode(nack))[0] == nack
        assert wire.decode(wire.encode(nack))[0] != request

    @given(msg=wire_messages, other=wire_messages)
    @settings(max_examples=200, deadline=None)
    def test_equality_implies_same_class_and_same_bytes(self, msg, other):
        if msg == other:
            assert type(msg) is type(other)
            assert wire.encode(msg) == wire.encode(other)
        else:
            assert type(msg) is not type(other) or wire.encode(msg) != wire.encode(other)


#: How many ids precede the flags byte, per kind with one.
FLAGS_AFTER = {wire.SegmentRequest: 2, wire.SegmentNack: 2, wire.SegmentData: 3,
               wire.DhtResponse: 4}
flagged_messages = st.one_of(
    st.builds(wire.SegmentRequest, sender=u32, segment_id=u32, prefetch=flags,
              trace_id=trace_ids, more=more_pulls),
    st.builds(wire.SegmentNack, sender=u32, segment_id=u32, prefetch=flags,
              trace_id=trace_ids, more=more_pulls),
    st.builds(wire.SegmentData, sender=u32, segment_id=u32, size_bits=u32, prefetch=flags,
              trace_id=trace_ids),
    st.builds(wire.DhtResponse, responder=u32, origin=u32, target_key=u32, segment_id=u32,
              has_data=flags, rate=rates, path=paths),
)


#: Run gaps and lengths that straddle the one-byte varint boundary.
straddling = st.one_of(st.sampled_from((1, 126, 127, 128, 129, 255, 256)), st.integers(1, 300))


@st.composite
def straddling_deltas(draw):
    """Deltas whose first run starts at offset >= 128 and whose gaps and
    lengths straddle 127/128 (a gap of 0 joins two runs end to end)."""
    offset = draw(st.integers(128, 400), label="first offset")
    runs = []
    for _ in range(draw(st.integers(1, 6), label="runs")):
        length = draw(straddling, label="length")
        runs.append((offset, length))
        offset += length + draw(st.one_of(st.just(0), straddling), label="gap")
    end = runs[-1][0] + runs[-1][1]
    return wire.BufferMapDelta(
        sender=draw(u32), seq=draw(u32), newest_id=draw(newest_ids), head_id=draw(u32),
        capacity=end + draw(st.integers(0, 200), label="slack"), runs=tuple(runs),
    )


class TestVarintProperty:
    """Varints: each value has one spelling, and the decoder takes no other."""

    @given(delta=straddling_deltas())
    @settings(max_examples=300, deadline=None)
    def test_deltas_round_trip_with_each_gap_and_length_spelled_minimally(self, delta):
        frame = wire.encode(delta)
        assert wire.decode(frame) == (delta, len(frame))
        values, end = [len(delta.runs)], 0
        for start, length in delta.runs:
            values += (start - end, length)
            end = start + length
        runs = b"".join(varint(value) for value in values)
        assert frame.endswith(runs)
        header = 10 if frame[kind_at(frame)] & wire.NARROW else 18
        assert wire.prologue(frame)[1] == 1 + header + len(runs)

    @given(msg=wire_messages, extra=st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_the_decoder_accepts_only_the_minimal_prefix(self, msg, extra):
        """``encode(decode(f)) == f`` for every spelling ``f`` of a frame's
        length the decoder accepts: the minimal one is the only one."""
        frame = wire.encode(msg)
        start, length = wire.prologue(frame)
        assert wire.encode(wire.decode(frame)[0]) == frame
        spelled = bytearray(frame[:start])
        for _ in range(extra):  # the same value, one more (zero) group each time
            spelled[-1] |= 0x80
            spelled.append(0)
        respelled = bytes(spelled) + frame[start:]
        for reader in (wire.decode, wire.decode_frame, wire.FrameDecoder().feed):
            with pytest.raises(wire.WireError):
                reader(respelled)

    @given(msg=flagged_messages, bit=st.integers(0, 7))
    @settings(max_examples=400, deadline=None)
    def test_a_frame_with_a_flipped_flag_bit_decodes_to_itself_or_not_at_all(self, msg, bit):
        """``encode(decode(f)) == f`` for every frame ``f`` that decodes,
        also once any bit of its flags byte is flipped: a bit the kind
        does not define, or one that disagrees with the body, is refused."""
        frame = bytearray(wire.encode(msg))
        at = kind_at(frame)
        width = 2 if frame[at] & wire.NARROW else 4
        frame[at + 1 + FLAGS_AFTER[type(msg)] * width] ^= 1 << bit
        try:
            decoded, _ = wire.decode(bytes(frame))
        except wire.WireError:
            return
        assert wire.encode(decoded) == bytes(frame)

    @given(msgs=st.lists(_batchable_messages, min_size=1, max_size=6), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_batch_accepts_only_minimal_entry_prefixes(self, msgs, data):
        frames = [wire.encode(m) for m in msgs]
        batch = wire.encode(wire.FrameBatch(frames=tuple(frames)))
        assert wire.encode(wire.decode(batch)[0]) == batch
        victim = data.draw(st.integers(0, len(frames) - 1), label="victim entry")
        start, length = wire.prologue(frames[victim])
        spelled = bytearray(varint(length))
        spelled[-1] |= 0x80
        frames[victim] = bytes(spelled) + b"\x00" + frames[victim][start:]
        respelled = with_body(wire.WireKind.BATCH, varint(len(frames)) + b"".join(frames))
        with pytest.raises(wire.WireError):
            wire.decode(respelled)
        with pytest.raises(wire.WireError):
            wire.decode_frame(respelled)


class TestGarbageResilience:
    @given(garbage=st.binary(max_size=4096))
    @settings(max_examples=300, deadline=None)
    def test_decoder_raises_nothing_but_wire_errors(self, garbage):
        decoder = wire.FrameDecoder()
        try:
            messages = decoder.feed(garbage)
        except wire.WireError:
            return  # poisoned stream: the documented failure mode
        for msg in messages:
            assert wire.encode(msg)  # whatever decoded is a valid message
        # partial trailing bytes stay bounded by one frame
        assert decoder.pending_bytes <= wire.MAX_PREFIX + wire.MAX_FRAME_PAYLOAD

    @given(garbage=st.binary(max_size=512), msg=wire_messages)
    @settings(max_examples=150, deadline=None)
    def test_frames_fed_before_poisoning_are_unaffected(self, garbage, msg):
        decoder = wire.FrameDecoder()
        messages = decoder.feed(wire.encode(msg))
        assert messages == [msg]
        try:
            later = decoder.feed(garbage)
        except wire.WireError:
            return  # poisoning only affects the stream from here on
        for extra in later:
            assert wire.encode(extra)

    @given(prefix=st.binary(min_size=4, max_size=64))
    @settings(max_examples=150, deadline=None)
    def test_hostile_length_prefix_cannot_demand_unbounded_memory(self, prefix):
        decoder = wire.FrameDecoder()
        try:
            decoder.feed(prefix)
        except wire.WireError:
            return
        assert decoder.pending_bytes <= wire.MAX_PREFIX + wire.MAX_FRAME_PAYLOAD


class TestTruncationProperty:
    @given(msg=wire_messages)
    @settings(max_examples=150, deadline=None)
    def test_split_at_every_offset_decodes_after_completion(self, msg):
        frame = wire.encode(msg)
        for offset in range(len(frame) + 1):
            decoder = wire.FrameDecoder()
            first = decoder.feed(frame[:offset])
            rest = decoder.feed(frame[offset:])
            assert first + rest == [msg], f"split at {offset} failed"
            assert decoder.pending_bytes == 0

    @given(msg=wire_messages)
    @settings(max_examples=150, deadline=None)
    def test_decode_of_every_truncation_raises_truncated(self, msg):
        frame = wire.encode(msg)
        for offset in range(len(frame)):
            with pytest.raises(wire.TruncatedFrameError):
                wire.decode(frame[:offset])

    @given(
        msgs=st.lists(wire_messages, min_size=1, max_size=5),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_rechunking_preserves_the_message_sequence(self, msgs, data):
        stream = b"".join(wire.encode(m) for m in msgs)
        cuts = sorted(
            data.draw(
                st.lists(st.integers(0, len(stream)), max_size=10),
                label="chunk boundaries",
            )
        )
        decoder = wire.FrameDecoder()
        decoded = []
        last = 0
        for cut in cuts + [len(stream)]:
            decoded.extend(decoder.feed(stream[last:cut]))
            last = cut
        assert decoded == msgs
        assert decoder.pending_bytes == 0


@st.composite
def buffer_maps(draw, head_id=None, capacity=None):
    if capacity is None:
        capacity = draw(st.integers(1, 256))
    if head_id is None:
        head_id = draw(st.integers(0, 2**20))
    offsets = draw(
        st.sets(st.integers(0, capacity - 1), max_size=min(capacity, 64))
    )
    return BufferMap(
        head_id=head_id, capacity=capacity, bits=sum(1 << o for o in offsets)
    )


class TestBufferMapDeltaProperty:
    """``BufferMapDelta.from_maps`` → wire → ``apply`` reconstructs the map."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_delta_applied_to_base_reconstructs_new_map(self, data):
        capacity = data.draw(st.integers(1, 256), label="capacity")
        base_head = data.draw(st.integers(0, 2**20), label="base head")
        # The window may slide forward between snapshots (or stay put).
        slide = data.draw(st.integers(0, capacity + 8), label="window slide")
        base = data.draw(buffer_maps(head_id=base_head, capacity=capacity))
        new = data.draw(buffer_maps(head_id=base_head + slide, capacity=capacity))
        delta = wire.BufferMapDelta.from_maps(
            sender=1, seq=7, newest_id=0, new=new, base=base
        )
        decoded, consumed = wire.decode(wire.encode(delta))
        assert decoded == delta
        assert decoded.apply(base) == new

    @given(base=buffer_maps(), delta=buffer_map_deltas())
    @settings(max_examples=200, deadline=None)
    def test_apply_tolerates_arbitrary_base_maps(self, base, delta):
        # Applying any well-formed delta to any base map yields a map
        # bounded by the delta's window — desync detection is the *seq*
        # chain's job, apply itself must never corrupt state or raise.
        # (``BufferMap`` itself rejects bits outside its window.)
        rebuilt = delta.apply(base)
        assert rebuilt.head_id == delta.head_id
        assert rebuilt.capacity == delta.capacity


class TestFrameBatchProperty:
    @given(batch=frame_batches())
    @settings(max_examples=200, deadline=None)
    def test_inner_frames_survive_the_envelope_byte_exactly(self, batch):
        decoded, consumed = wire.decode(wire.encode(batch))
        assert decoded == batch
        # every reconstructed inner frame decodes on its own
        for frame in decoded.frames:
            msg, used = wire.decode(frame)
            assert used == len(frame)

    @given(batch=frame_batches())
    @settings(max_examples=100, deadline=None)
    def test_nested_batches_are_rejected_at_encode(self, batch):
        nested = wire.FrameBatch(frames=(wire.encode(batch),))
        with pytest.raises(wire.WireError):
            wire.encode(nested)

    @given(inner=st.lists(_batchable_messages, min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_nested_batches_are_rejected_at_decode(self, inner):
        # Hand-craft a batch whose entry is itself a batch, bypassing the
        # encoder's guard, and check the decoder refuses it.
        legit = wire.encode(
            wire.FrameBatch(frames=tuple(wire.encode(m) for m in inner))
        )
        body = varint(1) + legit  # one entry: the inner batch, verbatim
        frame = with_body(wire.WireKind.BATCH, body)
        with pytest.raises(wire.WireError):
            wire.decode(frame)

    @given(msgs=st.lists(_batchable_messages, min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_encode_batch_preserves_order_and_content(self, msgs):
        frames = [wire.encode(m) for m in msgs]
        packed = wire.encode_batch(frames)
        assert sum(wire.frame_count(f) for f in packed) == len(frames)
        unpacked = []
        for f in packed:
            msg, _ = wire.decode(f)
            if isinstance(msg, wire.FrameBatch):
                unpacked.extend(msg.frames)
            else:
                unpacked.append(f)
        assert unpacked == frames

    @given(msgs=st.lists(_batchable_messages, min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_decode_frame_unwraps_to_the_inner_messages(self, msgs):
        frame = wire.encode(wire.FrameBatch(frames=tuple(wire.encode(m) for m in msgs)))
        assert wire.decode_frame(frame) == msgs
        assert wire.decode_frame(memoryview(frame)) == msgs
        assert [list(wire.decode_frame(wire.encode(m))) for m in msgs] == [[m] for m in msgs]

    @given(
        msgs=st.lists(_batchable_messages, min_size=1, max_size=6),
        damage=st.sampled_from(
            ["trailing byte", "truncated entry", "unknown inner kind", "nested"]
        ),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_malformed_batch_yields_none_of_its_inner_messages(self, msgs, damage, data):
        """All or nothing: whichever entry is bad — the envelope's
        framing or one inner frame, first or last — ``decode_frame``
        raises before returning a single message, so the reader
        dispatches none of them."""
        frames = [wire.encode(m) for m in msgs]
        victim = data.draw(st.integers(0, len(frames) - 1), label="victim entry")
        if damage == "unknown inner kind":
            broken = bytearray(frames[victim])
            broken[kind_at(broken)] = 0xEE
            frames[victim] = bytes(broken)
        entries = b"".join(frames)
        count = len(frames)
        if damage == "trailing byte":
            entries += b"\x00"
        elif damage == "truncated entry":
            entries = entries[:-1]
        elif damage == "nested":
            entries += wire.encode(wire.FrameBatch(frames=(wire.encode(wire.Ping(1, 2)),)))
            count += 1
        frame = with_body(wire.WireKind.BATCH, varint(count) + entries)
        with pytest.raises(wire.WireError):
            wire.decode_frame(frame)

    def test_decode_frame_refuses_anything_but_one_whole_frame(self):
        ping = wire.encode(wire.Ping(1, 2))
        batch = wire.encode(wire.FrameBatch(frames=(ping, ping)))
        assert wire.decode_frame(batch) == [wire.Ping(1, 2), wire.Ping(1, 2)]
        assert wire.decode_frame(ping) == (wire.Ping(1, 2),)
        for bad in (ping + b"\x00", batch + b"\x00", batch[:-1], batch + batch, b"", batch[:4]):
            with pytest.raises(wire.WireError):
                wire.decode_frame(bad)
