"""Tests for the FIFO sliding-window segment buffer."""

from __future__ import annotations

import pytest

from repro.streaming.buffer import SegmentBuffer


class TestConstruction:
    def test_requires_positive_capacity(self):
        with pytest.raises(ValueError):
            SegmentBuffer(capacity=0)

    def test_requires_non_negative_head(self):
        with pytest.raises(ValueError):
            SegmentBuffer(capacity=10, head_id=-1)

    def test_window_bounds(self):
        buffer = SegmentBuffer(capacity=10, head_id=5)
        assert buffer.head_id == 5
        assert buffer.tail_id == 15
        assert buffer.add(14) and 14 in buffer and buffer.head_id == 5
        assert not buffer.add(4)


class TestAddAndEvict:
    def test_add_inside_window(self):
        buffer = SegmentBuffer(capacity=10)
        assert buffer.add(3)
        assert 3 in buffer
        assert len(buffer) == 1

    def test_add_expired_rejected(self):
        buffer = SegmentBuffer(capacity=10, head_id=20)
        assert not buffer.add(19)
        assert len(buffer) == 0

    def test_add_beyond_tail_slides_window(self):
        buffer = SegmentBuffer(capacity=5)
        for sid in range(5):
            buffer.add(sid)
        assert buffer.add(7)  # window becomes [3, 8)
        assert buffer.head_id == 3
        assert 0 not in buffer and 1 not in buffer and 2 not in buffer
        assert 3 in buffer and 4 in buffer and 7 in buffer

    def test_advance_head_evicts_fifo(self):
        buffer = SegmentBuffer(capacity=10)
        buffer.update_from(range(6))
        buffer.advance_head(3)
        assert buffer.ids() == [3, 4, 5]
        assert buffer.bits == 0b111

    def test_advance_head_backwards_is_noop(self):
        buffer = SegmentBuffer(capacity=10, head_id=5)
        buffer.add(6)
        buffer.advance_head(3)
        assert buffer.head_id == 5
        assert buffer.ids() == [6]

    def test_discard(self):
        buffer = SegmentBuffer(capacity=10)
        buffer.add(2)
        buffer.discard(2)
        buffer.discard(99)  # no error
        assert 2 not in buffer

    def test_update_from_counts_accepted(self):
        buffer = SegmentBuffer(capacity=10, head_id=5)
        accepted = buffer.update_from([1, 5, 6, 7])  # 1 is expired
        assert accepted == 3
        assert buffer.ids() == [5, 6, 7]


class TestQueries:
    def test_ids_sorted(self):
        buffer = SegmentBuffer(capacity=10)
        buffer.update_from([4, 1, 3])
        assert buffer.ids() == [1, 3, 4]

    def test_bits_are_the_window(self):
        buffer = SegmentBuffer(capacity=10, head_id=4)
        buffer.update_from([4, 6, 13])
        assert buffer.bits == 0b10_0000_0101  # bit j <=> segment 4 + j

    def test_missing_bits(self):
        buffer = SegmentBuffer(capacity=10)
        buffer.update_from([0, 2, 4])
        assert buffer.missing_bits(0, 5) == 0b01010  # 1 and 3
        assert buffer.missing_bits(2, 3) == 0b010  # 3, anchored at 2
        assert buffer.missing_bits(0, 0) == 0

    def test_missing_bits_before_the_head_and_past_the_tail(self):
        buffer = SegmentBuffer(capacity=4, head_id=10)
        buffer.update_from([10, 11, 12, 13])
        assert buffer.missing_bits(8, 4) == 0b0011  # 8 and 9 expired
        assert buffer.missing_bits(12, 4) == 0b1100  # 14 and 15 not yet held
        assert buffer.missing_bits(0, 3) == 0b111  # far before the head

    def test_has_range(self):
        buffer = SegmentBuffer(capacity=10)
        buffer.update_from([3, 4, 5])
        assert buffer.has_range(3, 3)
        assert not buffer.has_range(3, 4)

    def test_oldest_and_newest(self):
        buffer = SegmentBuffer(capacity=10)
        assert buffer.oldest_id() is None
        assert buffer.newest_id() is None
        buffer.update_from([2, 7])
        assert buffer.oldest_id() == 2
        assert buffer.newest_id() == 7
