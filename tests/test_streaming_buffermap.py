"""Tests for the buffer-map wire encoding."""

from __future__ import annotations

import numpy as np
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

    def test_instance_size(self):
        snapshot = BufferMap(head_id=0, capacity=600, present=frozenset())
        assert snapshot.size_bits() == 620


class TestSnapshot:
    def test_from_buffer(self):
        buffer = SegmentBuffer(capacity=20, head_id=5)
        buffer.update_from([5, 7, 9])
        snapshot = BufferMap.from_buffer(buffer)
        assert snapshot.head_id == 5
        assert snapshot.capacity == 20
        assert snapshot.present == frozenset({5, 7, 9})
        assert 7 in snapshot and 6 not in snapshot

    def test_snapshot_is_immutable_view(self):
        buffer = SegmentBuffer(capacity=20)
        buffer.add(1)
        snapshot = BufferMap.from_buffer(buffer)
        buffer.add(2)
        assert 2 not in snapshot


class TestPositionFromTail:
    def test_position_uses_effective_tail(self):
        # Newest held id is 9, so segment 9 is at distance 0 and segment 4 at 5.
        snapshot = BufferMap(head_id=0, capacity=600, present=frozenset({4, 9}))
        assert snapshot.position_from_tail(9) == 0
        assert snapshot.position_from_tail(4) == 5

    def test_position_capped_by_window_tail(self):
        snapshot = BufferMap(head_id=0, capacity=10, present=frozenset({0, 9}))
        assert snapshot.position_from_tail(0) == 9

    def test_position_unknown_segment_raises(self):
        snapshot = BufferMap(head_id=0, capacity=10, present=frozenset({1}))
        with pytest.raises(KeyError):
            snapshot.position_from_tail(2)


class TestBitmapRoundTrip:
    def test_to_bitmap(self):
        snapshot = BufferMap(head_id=10, capacity=5, present=frozenset({10, 12}))
        bitmap = snapshot.to_bitmap()
        assert bitmap.tolist() == [1, 0, 1, 0, 0]
        assert bitmap.dtype == np.uint8

    def test_round_trip(self):
        original = BufferMap(head_id=50, capacity=8, present=frozenset({50, 53, 57}))
        rebuilt = BufferMap.from_bitmap(50, original.to_bitmap())
        assert rebuilt == original

    def test_out_of_window_ids_not_encoded(self):
        snapshot = BufferMap(head_id=0, capacity=4, present=frozenset({0, 99}))
        assert snapshot.to_bitmap().tolist() == [1, 0, 0, 0]
