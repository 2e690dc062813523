"""Tests for the buffer-map wire encoding."""

from __future__ import annotations

import pytest

from repro.streaming.buffer import SegmentBuffer
from repro.streaming.buffermap import (
    ANCHOR_BITS,
    BUFFER_MAP_BITS,
    BufferMap,
    buffer_map_bits,
)


class TestSizes:
    def test_default_size_is_620_bits(self):
        """Section 5.4.2: 600 availability bits plus a 20-bit anchor."""
        assert BUFFER_MAP_BITS == 620

    def test_size_scales_with_capacity(self):
        assert buffer_map_bits(100) == 100 + ANCHOR_BITS

    def test_size_requires_positive_capacity(self):
        with pytest.raises(ValueError):
            buffer_map_bits(0)


class TestSnapshot:
    def test_from_buffer(self):
        buffer = SegmentBuffer(capacity=20, head_id=5)
        buffer.update_from([5, 7, 9])
        snapshot = BufferMap.from_buffer(buffer)
        assert snapshot.head_id == 5
        assert snapshot.capacity == 20
        assert snapshot.bits == 0b10101
        assert 7 in snapshot and 6 not in snapshot

    def test_snapshot_is_immutable_view(self):
        buffer = SegmentBuffer(capacity=20)
        buffer.add(1)
        snapshot = BufferMap.from_buffer(buffer)
        buffer.add(2)
        assert 2 not in snapshot

    @pytest.mark.parametrize("bits", [-1, 1 << 10, (1 << 11) - 1])
    def test_ids_outside_the_window_are_unrepresentable(self, bits):
        """What ``in`` answers is what ``to_bytes`` ships: no stray ids."""
        with pytest.raises(ValueError):
            BufferMap(head_id=0, capacity=10, bits=bits)
        assert BufferMap(head_id=0, capacity=10, bits=(1 << 10) - 1).bits.bit_count() == 10


class TestPositionFromTail:
    def test_position_uses_effective_tail(self):
        # Newest held id is 9, so segment 9 is at distance 0 and segment 4 at 5.
        snapshot = BufferMap(head_id=0, capacity=600, bits=(1 << 4) | (1 << 9))
        assert snapshot.position_from_tail(9) == 0
        assert snapshot.position_from_tail(4) == 5

    def test_position_capped_by_window_tail(self):
        snapshot = BufferMap(head_id=0, capacity=10, bits=(1 << 0) | (1 << 9))
        assert snapshot.position_from_tail(0) == 9

    def test_position_unknown_segment_raises(self):
        snapshot = BufferMap(head_id=0, capacity=10, bits=1 << 1)
        with pytest.raises(KeyError):
            snapshot.position_from_tail(2)


class TestWireForm:
    def test_to_bytes_packs_slot_zero_into_the_high_bit(self):
        snapshot = BufferMap(head_id=10, capacity=10, bits=(1 << 0) | (1 << 2) | (1 << 9))
        assert snapshot.to_bytes() == bytes([0b1010_0000, 0b0100_0000])

    def test_round_trip(self):
        original = BufferMap(head_id=50, capacity=8, bits=(1 << 0) | (1 << 3) | (1 << 7))
        assert BufferMap.from_bytes(50, 8, original.to_bytes()) == original

    def test_from_bytes_ignores_padding_and_checks_length(self):
        assert BufferMap.from_bytes(0, 4, b"\xff").bits == 0b1111
        with pytest.raises(ValueError):
            BufferMap.from_bytes(0, 9, b"\xff")
