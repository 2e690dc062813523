"""Tests for data segments and the segment store."""

from __future__ import annotations

import pytest

from repro.streaming.segment import DEFAULT_SEGMENT_BITS, Segment, SegmentStore


class TestSegment:
    def test_defaults(self):
        segment = Segment(segment_id=3)
        assert segment.size_bits == DEFAULT_SEGMENT_BITS
        assert segment.origin_time == 0.0

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            Segment(segment_id=-1)

    def test_non_positive_size_rejected(self):
        with pytest.raises(ValueError):
            Segment(segment_id=0, size_bits=0)

    def test_deadline_scales_with_playback_rate(self):
        segment = Segment(segment_id=20)
        assert segment.deadline(playback_rate=10.0) == pytest.approx(2.0)
        assert segment.deadline(playback_rate=20.0) == pytest.approx(1.0)

    def test_deadline_includes_startup_delay(self):
        segment = Segment(segment_id=10, origin_time=5.0)
        assert segment.deadline(10.0, startup_delay=2.0) == pytest.approx(8.0)

    def test_deadline_requires_positive_rate(self):
        with pytest.raises(ValueError):
            Segment(segment_id=1).deadline(0.0)

    def test_segments_are_hashable_and_frozen(self):
        segment = Segment(segment_id=1)
        with pytest.raises(AttributeError):
            segment.segment_id = 2  # type: ignore[misc]
        assert len({segment, Segment(segment_id=1)}) == 1


class TestSegmentStore:
    def test_add_and_get(self):
        store = SegmentStore()
        store.add(Segment(segment_id=4))
        assert 4 in store
        assert store.get(4).segment_id == 4
        assert store.get(5) is None

    def test_len_and_iter(self):
        store = SegmentStore([Segment(segment_id=i) for i in range(3)])
        assert len(store) == 3
        assert sorted(s.segment_id for s in store) == [0, 1, 2]

    def test_add_overwrites_same_id(self):
        store = SegmentStore()
        store.add(Segment(segment_id=1, size_bits=10))
        store.add(Segment(segment_id=1, size_bits=20))
        assert len(store) == 1
        assert store.get(1).size_bits == 20

    def test_remove(self):
        store = SegmentStore([Segment(segment_id=1)])
        removed = store.remove(1)
        assert removed.segment_id == 1
        assert store.remove(1) is None
        assert len(store) == 0

    def test_ids_sorted(self):
        store = SegmentStore([Segment(segment_id=i) for i in (5, 1, 3)])
        assert store.ids() == [1, 3, 5]

    def test_total_bits(self):
        store = SegmentStore(
            [Segment(segment_id=0, size_bits=100), Segment(segment_id=1, size_bits=50)]
        )
        assert store.total_bits() == 150
