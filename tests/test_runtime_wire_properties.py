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

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.runtime import wire  # noqa: E402
from repro.streaming.buffermap import BufferMap  # noqa: E402

u32 = st.integers(0, 2**32 - 1)
u16 = st.integers(0, 2**16 - 1)
#: 0 (untraced, the wire-identical fast path) or any u64 trace id.
trace_ids = st.one_of(st.just(0), st.integers(0, 2**64 - 1))
flags = st.booleans()
paths = st.lists(u32, max_size=64).map(tuple)
rates = st.floats(
    width=32, min_value=0.0, allow_nan=False, allow_infinity=False
)


@st.composite
def buffer_map_msgs(draw):
    capacity = draw(st.integers(1, 700))
    nbytes = (capacity + 7) // 8
    return wire.BufferMapMsg(
        sender=draw(u32),
        newest_id=draw(st.integers(-1, 2**31 - 1)),
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
        newest_id=draw(st.integers(-1, 2**31 - 1)),
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


wire_messages = st.one_of(
    buffer_map_msgs(),
    st.builds(
        wire.SegmentRequest, sender=u32, segment_id=u32, prefetch=flags,
        trace_id=trace_ids,
    ),
    st.builds(
        wire.SegmentNack, sender=u32, segment_id=u32, prefetch=flags,
        trace_id=trace_ids,
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
    buffer_map_deltas(),
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
        assert decoder.pending_bytes <= wire.MAX_FRAME_PAYLOAD + 4

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
        assert decoder.pending_bytes <= wire.MAX_FRAME_PAYLOAD + 4


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
        head_id=head_id,
        capacity=capacity,
        present=frozenset(head_id + o for o in offsets),
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
        rebuilt = decoded.apply(base)
        assert rebuilt.head_id == new.head_id
        assert rebuilt.capacity == new.capacity
        assert rebuilt.present == new.present

    @given(base=buffer_maps(), delta=buffer_map_deltas())
    @settings(max_examples=200, deadline=None)
    def test_apply_tolerates_arbitrary_base_maps(self, base, delta):
        # Applying any well-formed delta to any base map yields a map
        # bounded by the delta's window — desync detection is the *seq*
        # chain's job, apply itself must never corrupt state or raise.
        rebuilt = delta.apply(base)
        assert rebuilt.head_id == delta.head_id
        assert rebuilt.capacity == delta.capacity
        tail = delta.head_id + delta.capacity
        assert all(delta.head_id <= s < tail for s in rebuilt.present)


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
        entry = legit[4:]  # kind + body of the inner batch
        body = (1).to_bytes(2, "big") + len(entry).to_bytes(2, "big") + entry
        frame = (1 + len(body)).to_bytes(4, "big") + bytes([wire.WireKind.BATCH]) + body
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
    def test_decode_batch_unwraps_to_the_inner_messages(self, msgs):
        frame = wire.encode(wire.FrameBatch(frames=tuple(wire.encode(m) for m in msgs)))
        assert wire.decode_batch(frame) == msgs
        assert wire.decode_batch(memoryview(frame)) == msgs

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
        framing or one inner frame, first or last — ``decode_batch``
        raises before returning a single message, so the reader
        dispatches none of them."""
        frames = [wire.encode(m) for m in msgs]
        victim = data.draw(st.integers(0, len(frames) - 1), label="victim entry")
        if damage == "unknown inner kind":
            broken = bytearray(frames[victim])
            broken[4] = 0xEE
            frames[victim] = bytes(broken)
        entries = b"".join(len(f[4:]).to_bytes(2, "big") + f[4:] for f in frames)
        count = len(frames)
        if damage == "trailing byte":
            entries += b"\x00"
        elif damage == "truncated entry":
            entries = entries[:-1]
        elif damage == "nested":
            inner = wire.encode(wire.FrameBatch(frames=(wire.encode(wire.Ping(1, 2)),)))
            entries += len(inner[4:]).to_bytes(2, "big") + inner[4:]
            count += 1
        body = bytes([wire.WireKind.BATCH]) + count.to_bytes(2, "big") + entries
        frame = len(body).to_bytes(4, "big") + body
        with pytest.raises(wire.WireError):
            wire.decode_batch(frame)

    def test_decode_batch_refuses_anything_but_one_whole_batch(self):
        ping = wire.encode(wire.Ping(1, 2))
        batch = wire.encode(wire.FrameBatch(frames=(ping, ping)))
        assert wire.decode_batch(batch) == [wire.Ping(1, 2), wire.Ping(1, 2)]
        for bad in (ping, batch + b"\x00", batch[:-1], batch + batch, b"", batch[:4]):
            with pytest.raises(wire.WireError):
                wire.decode_batch(bad)
