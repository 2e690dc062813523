"""Tests for the discrete-event simulation engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import Event, EventQueue, SimulationClock, SimulationError, Simulator


class TestSimulationClock:
    def test_starts_at_zero_by_default(self):
        assert SimulationClock().now == 0.0

    def test_starts_at_given_time(self):
        assert SimulationClock(5.5).now == 5.5

    def test_advances_forward(self):
        clock = SimulationClock()
        clock.advance_to(3.0)
        assert clock.now == 3.0

    def test_advance_to_same_time_is_allowed(self):
        clock = SimulationClock(2.0)
        clock.advance_to(2.0)
        assert clock.now == 2.0

    def test_refuses_to_go_backwards(self):
        clock = SimulationClock(4.0)
        with pytest.raises(SimulationError):
            clock.advance_to(3.0)


class TestEventQueue:
    def test_len_counts_live_events(self):
        queue = EventQueue()
        assert len(queue) == 0
        queue.push(1.0, lambda s, p: None)
        queue.push(2.0, lambda s, p: None)
        assert len(queue) == 2

    def test_pop_returns_events_in_time_order(self):
        queue = EventQueue()
        queue.push(2.0, lambda s, p: None, "late")
        queue.push(1.0, lambda s, p: None, "early")
        assert queue.pop().payload == "early"
        assert queue.pop().payload == "late"

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        queue.push(1.0, lambda s, p: None, "first")
        queue.push(1.0, lambda s, p: None, "second")
        assert queue.pop().payload == "first"
        assert queue.pop().payload == "second"

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda s, p: None, "cancelled")
        queue.push(2.0, lambda s, p: None, "kept")
        queue.cancel(event)
        assert len(queue) == 1
        assert queue.pop().payload == "kept"

    def test_peek_time_ignores_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda s, p: None)
        queue.push(5.0, lambda s, p: None)
        queue.cancel(event)
        assert queue.peek_time() == 5.0

    def test_peek_time_empty_is_none(self):
        assert EventQueue().peek_time() is None

    def test_clear_empties_the_queue(self):
        queue = EventQueue()
        queue.push(1.0, lambda s, p: None)
        queue.clear()
        assert len(queue) == 0
        assert queue.pop() is None

    def test_bool_reflects_liveness(self):
        queue = EventQueue()
        assert not queue
        queue.push(1.0, lambda s, p: None)
        assert queue

    def test_iteration_yields_sorted_live_events(self):
        queue = EventQueue()
        queue.push(3.0, lambda s, p: None, "c")
        queue.push(1.0, lambda s, p: None, "a")
        cancelled = queue.push(2.0, lambda s, p: None, "b")
        queue.cancel(cancelled)
        assert [event.payload for event in queue] == ["a", "c"]


class TestEventQueueCompaction:
    def test_cancelled_count_tracks_lazy_deletions(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda s, p: None) for i in range(4)]
        assert queue.cancelled_count == 0
        queue.cancel(events[0])
        queue.cancel(events[1])
        assert queue.cancelled_count == 2
        assert len(queue) == 2

    def test_pop_and_peek_reclaim_cancelled_slots(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda s, p: None)
        queue.push(2.0, lambda s, p: None, "kept")
        queue.cancel(first)
        assert queue.pop().payload == "kept"
        assert queue.cancelled_count == 0

    def test_heavy_cancellation_compacts_the_heap(self):
        """Regression: lazy deletion must not hold dead entries forever."""
        queue = EventQueue()
        events = [queue.push(float(i), lambda s, p: None, i) for i in range(100)]
        # Cancel far-future events only, so nothing is reclaimed by pop/peek.
        for event in events[40:]:
            queue.cancel(event)
            # Invariant: cancelled entries never outnumber half the heap.
            assert queue.cancelled_count * 2 <= len(queue._heap)
        # Compaction fired at least once, shedding dead entries early.
        assert len(queue._heap) < 100
        assert len(queue) == 40
        assert [queue.pop().payload for _ in range(40)] == list(range(40))
        assert queue.pop() is None

    def test_compaction_preserves_tie_break_order(self):
        queue = EventQueue()
        keep = [queue.push(1.0, lambda s, p: None, f"k{i}") for i in range(3)]
        doomed = [queue.push(0.5, lambda s, p: None) for _ in range(10)]
        for event in doomed:
            queue.cancel(event)
        assert len(queue._heap) < 13  # compacted at least once
        assert [queue.pop().payload for _ in range(3)] == ["k0", "k1", "k2"]
        assert keep[0].seq < keep[1].seq < keep[2].seq

    def test_small_heaps_are_left_alone(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda s, p: None) for i in range(4)]
        for event in events[1:]:
            queue.cancel(event)
        # Below COMPACTION_MIN_SIZE: lazy entries stay until popped past.
        assert queue.cancelled_count == 3
        assert len(queue._heap) == 4

    def test_explicit_compact_is_idempotent(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda s, p: None)
        queue.push(2.0, lambda s, p: None)
        queue.cancel(event)
        queue.compact()
        queue.compact()
        assert queue.cancelled_count == 0
        assert len(queue) == 1

    def test_clear_resets_cancelled_count(self):
        queue = EventQueue()
        queue.cancel(queue.push(1.0, lambda s, p: None))
        queue.clear()
        assert queue.cancelled_count == 0

    def test_direct_event_cancel_updates_queue_bookkeeping(self):
        """Event.cancel() and EventQueue.cancel() must be equivalent."""
        queue = EventQueue()
        events = [queue.push(float(i), lambda s, p: None) for i in range(20)]
        for event in events[5:]:
            event.cancel()  # handle-level cancel, not queue.cancel
        assert len(queue) == 5
        assert queue.cancelled_count * 2 <= len(queue._heap)
        assert len(queue._heap) < 20  # compaction still fires

    def test_detached_event_cancel_still_marks_it(self):
        event = Event(time=1.0, seq=0, callback=lambda s, p: None)
        event.cancel()
        assert event.cancelled

    def test_cancel_after_clear_is_a_no_op(self):
        """Stale handles from before clear() must not corrupt the counters."""
        queue = EventQueue()
        stale = queue.push(1.0, lambda s, p: None)
        queue.clear()
        queue.push(1.0, lambda s, p: None, "a")
        queue.push(2.0, lambda s, p: None, "b")
        queue.cancel(stale)
        assert len(queue) == 2
        assert queue.cancelled_count == 0
        drained = []
        while queue:
            drained.append(queue.pop().payload)
        assert drained == ["a", "b"]

    def test_cancel_after_pop_is_a_no_op(self):
        """Cancelling an already-executed event must not corrupt the counters."""
        queue = EventQueue()
        done = queue.push(1.0, lambda s, p: None)
        queue.push(2.0, lambda s, p: None, "pending")
        assert queue.pop() is done
        queue.cancel(done)  # stale handle: the event already ran
        assert len(queue) == 1
        assert queue.cancelled_count == 0
        assert queue.pop().payload == "pending"


class TestSimulator:
    def test_runs_single_event(self):
        sim = Simulator()
        hits = []
        sim.schedule_at(1.5, lambda s, p: hits.append((s.now, p)), "x")
        sim.run()
        assert hits == [(1.5, "x")]

    def test_schedule_at_past_time_rejected(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda s, p: None)

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(3.0, lambda s, p: order.append("late"))
        sim.schedule_at(1.0, lambda s, p: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        hits = []
        sim.schedule_at(1.0, lambda s, p: hits.append(1))
        sim.schedule_at(10.0, lambda s, p: hits.append(10))
        sim.run(until=5.0)
        assert hits == [1]
        assert sim.now == 5.0
        assert len(sim.queue) == 1

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_run_max_events_limits_processing(self):
        sim = Simulator()
        hits = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda s, p: hits.append(s.now))
        processed = sim.run(max_events=2)
        assert processed == 2
        assert hits == [1.0, 2.0]

    def test_callbacks_can_schedule_more_events(self):
        sim = Simulator()
        hits = []

        def chain(s: Simulator, payload: int) -> None:
            hits.append(payload)
            if payload < 3:
                s.schedule_at(s.now + 1.0, chain, payload + 1)

        sim.schedule_at(0.0, chain, 1)
        sim.run()
        assert hits == [1, 2, 3]
        assert sim.now == 2.0

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        hits = []
        event = sim.schedule_at(1.0, lambda s, p: hits.append("should not run"))
        sim.cancel(event)
        sim.run()
        assert hits == []

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in (1.0, 2.0):
            sim.schedule_at(t, lambda s, p: None)
        sim.run()
        assert sim.events_processed == 2

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_event_ordering_dataclass(self):
        early = Event(time=1.0, seq=0, callback=lambda s, p: None)
        late = Event(time=2.0, seq=1, callback=lambda s, p: None)
        assert early < late
