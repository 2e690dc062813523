"""Tests for the media source and playback accounting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.streaming.buffer import SegmentBuffer
from repro.streaming.playback import ContinuityTracker, PlaybackState
from repro.streaming.segment import DEFAULT_SEGMENT_BITS
from repro.streaming.source import MediaSource


class TestMediaSource:
    def test_requires_positive_rate(self):
        with pytest.raises(ValueError):
            MediaSource(playback_rate=0)

    def test_nothing_before_start(self):
        source = MediaSource(playback_rate=10, start_time=5.0)
        assert source.segments_available_at(4.0) == 0
        assert source.generate_until(4.0) == []
        assert source.newest_segment_id == -1

    def test_generation_rate(self):
        source = MediaSource(playback_rate=10)
        generated = source.generate_until(1.0)
        # Segments 0..10 exist at t=1.0 (id i is generated at i/10).
        assert generated == list(range(11))
        assert source.newest_segment_id == 10

    def test_generation_is_idempotent(self):
        source = MediaSource(playback_rate=10)
        source.generate_until(1.0)
        assert source.generate_until(1.0) == []

    def test_incremental_generation(self):
        source = MediaSource(playback_rate=10)
        source.generate_until(1.0)
        more = source.generate_until(2.0)
        assert more == list(range(11, 21))

    def test_segment_i_is_generated_at_i_over_p(self):
        source = MediaSource(playback_rate=10, start_time=1.0)
        assert source.generate_until(1.45) == [0, 1, 2, 3, 4]
        assert source.generate_until(1.5) == [5]

    def test_has_segment(self):
        source = MediaSource(playback_rate=10)
        source.generate_until(1.0)
        assert source.has_segment(10)
        assert not source.has_segment(11)
        assert not source.has_segment(-1)

    def test_default_segment_is_30_kbit(self):
        # Section 5.2: a 300 Kbps stream cut into 30 Kbit segments.
        assert DEFAULT_SEGMENT_BITS == 30 * 1024
        assert MediaSource().segment_bits == DEFAULT_SEGMENT_BITS
        assert SystemConfig().segment_bits == DEFAULT_SEGMENT_BITS

    def test_earlier_time_generates_nothing(self):
        source = MediaSource(playback_rate=10)
        source.generate_until(2.0)
        assert source.generate_until(1.0) == []
        assert source.newest_segment_id == 20

    @settings(max_examples=60, deadline=None)
    @given(
        rate=st.sampled_from([1.0, 2.5, 10.0, 30.0]),
        times=st.lists(st.floats(min_value=0.0, max_value=50.0), max_size=8),
    )
    def test_generation_is_gapless_over_any_times(self, rate, times):
        source = MediaSource(playback_rate=rate)
        generated = []
        for time in times:
            generated.extend(source.generate_until(time))
        assert generated == list(range(source.newest_segment_id + 1))
        expected = source.segments_available_at(max(times)) - 1 if times else -1
        assert source.newest_segment_id == expected


class TestPlaybackState:
    def _buffer_with(self, ids, capacity=100):
        buffer = SegmentBuffer(capacity=capacity)
        buffer.update_from(ids)
        return buffer

    def test_not_started_cannot_play(self):
        playback = PlaybackState(playback_rate=10)
        buffer = self._buffer_with(range(20))
        assert not playback.can_play_round(buffer, 1.0)
        assert not playback.advance_round(buffer, 1.0)

    def test_start_clamps_to_zero(self):
        playback = PlaybackState(playback_rate=10)
        playback.start(-5)
        assert playback.started and playback.play_id == 0

    def test_can_play_requires_full_round(self):
        playback = PlaybackState(playback_rate=10)
        playback.start(0)
        assert playback.can_play_round(self._buffer_with(range(10)), 1.0)
        assert not playback.can_play_round(self._buffer_with(range(9)), 1.0)

    def test_continuous_round_advances(self):
        playback = PlaybackState(playback_rate=10)
        playback.start(0)
        assert playback.advance_round(self._buffer_with(range(10)), 1.0)
        assert playback.play_id == 10
        assert playback.segments_played == 10
        assert playback.stall_rounds == 0

    def test_stall_on_miss_keeps_pointer(self):
        playback = PlaybackState(playback_rate=10)
        playback.start(0)
        buffer = self._buffer_with([0, 1, 2])  # missing 3..9
        assert not playback.advance_round(buffer, 1.0)
        assert playback.play_id == 0
        assert playback.stall_rounds == 1

    def test_hard_deadline_mode_skips(self):
        playback = PlaybackState(playback_rate=10, stall_on_miss=False)
        playback.start(0)
        buffer = self._buffer_with([0, 1, 2])
        assert not playback.advance_round(buffer, 1.0)
        assert playback.play_id == 10
        assert playback.segments_missed == 7
        assert playback.segments_played == 3

    def test_pointer_clamped_at_live_edge(self):
        playback = PlaybackState(playback_rate=10)
        playback.start(0)
        buffer = self._buffer_with(range(5))
        # Only 5 segments exist; playing them all is continuous.
        assert playback.advance_round(buffer, 1.0, newest_available_id=4)
        assert playback.play_id == 5

    def test_caught_up_with_live_edge_counts_continuous(self):
        playback = PlaybackState(playback_rate=10)
        playback.start(10)
        buffer = self._buffer_with([])
        assert playback.advance_round(buffer, 1.0, newest_available_id=9)
        assert playback.play_id == 10

    def test_skip_forward(self):
        playback = PlaybackState(playback_rate=10)
        playback.start(0)
        playback.skip_forward_to(50)
        assert playback.play_id == 50
        assert playback.catchup_skips == 1
        playback.skip_forward_to(30)  # backwards: ignored
        assert playback.play_id == 50

    def test_non_stalling_round_counts_played_and_missed(self):
        playback = PlaybackState(playback_rate=10, stall_on_miss=False)
        playback.start(0)
        assert not playback.advance_round(self._buffer_with(range(5)), 1.0)
        assert playback.segments_played == 5
        assert playback.segments_missed == 5

    def test_segments_per_round(self):
        playback = PlaybackState(playback_rate=10)
        assert playback.segments_per_round(1.0) == 10
        assert playback.segments_per_round(0.5) == 5
        assert playback.segments_per_round(0.01) == 1


class TestContinuityTracker:
    def test_record_round_ratio(self):
        tracker = ContinuityTracker()
        value = tracker.record_round(1.0, playing=3, total=4)
        assert value == pytest.approx(0.75)
        assert tracker.continuity == [0.75]
        assert tracker.times == [1.0]

    def test_record_round_empty_population(self):
        tracker = ContinuityTracker()
        assert tracker.record_round(1.0, playing=0, total=0) == 1.0

    def test_stable_phase_uses_tail(self):
        tracker = ContinuityTracker()
        for index, value in enumerate([0.1, 0.2, 0.3, 0.9, 0.9, 0.9]):
            tracker.record_round(float(index), int(value * 10), 10)
        assert tracker.stable_phase_continuity() == pytest.approx(0.9)

    def test_stable_phase_empty_is_zero(self):
        assert ContinuityTracker().stable_phase_continuity() == 0.0

    def test_stable_phase_with_explicit_skip(self):
        tracker = ContinuityTracker()
        for index, value in enumerate([0.0, 1.0]):
            tracker.record_round(float(index), int(value * 10), 10)
        assert tracker.stable_phase_continuity(skip_rounds=1) == pytest.approx(1.0)

    def test_time_to_reach(self):
        tracker = ContinuityTracker()
        for index, value in enumerate([0.2, 0.5, 0.8]):
            tracker.record_round(float(index + 1), int(value * 10), 10)
        assert tracker.time_to_reach(0.5) == 2.0
        assert tracker.time_to_reach(0.99) is None

    def test_as_series(self):
        tracker = ContinuityTracker()
        tracker.record_round(1.0, 5, 10)
        series = tracker.as_series()
        assert series == {"time": [1.0], "continuity": [0.5]}
