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
        assert buffer.in_window(5)
        assert buffer.in_window(14)
        assert not buffer.in_window(15)
        assert not buffer.in_window(4)


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
        evicted = buffer.advance_head(3)
        assert evicted == [0, 1, 2]
        assert buffer.ids() == [3, 4, 5]

    def test_advance_head_backwards_is_noop(self):
        buffer = SegmentBuffer(capacity=10, head_id=5)
        assert buffer.advance_head(3) == []
        assert buffer.head_id == 5

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

    def test_id_set_is_a_copy(self):
        buffer = SegmentBuffer(capacity=10)
        buffer.add(1)
        copy = buffer.id_set()
        copy.add(99)
        assert 99 not in buffer

    def test_missing_in_range(self):
        buffer = SegmentBuffer(capacity=10)
        buffer.update_from([0, 2, 4])
        assert buffer.missing_in_range(0, 5) == [1, 3]

    def test_missing_in_range_clamps_negative_start(self):
        buffer = SegmentBuffer(capacity=10)
        assert buffer.missing_in_range(-5, 2) == [0, 1]

    def test_has_range(self):
        buffer = SegmentBuffer(capacity=10)
        buffer.update_from([3, 4, 5])
        assert buffer.has_range(3, 3)
        assert not buffer.has_range(3, 4)

    def test_count_in_range(self):
        buffer = SegmentBuffer(capacity=10)
        buffer.update_from([0, 1, 5])
        assert buffer.count_in_range(0, 6) == 3
        assert buffer.count_in_range(2, 5) == 0

    def test_oldest_and_newest(self):
        buffer = SegmentBuffer(capacity=10)
        assert buffer.oldest_id() is None
        assert buffer.newest_id() is None
        buffer.update_from([2, 7])
        assert buffer.oldest_id() == 2
        assert buffer.newest_id() == 7
