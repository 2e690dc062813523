"""Minimal discrete-event simulation core.

The rest of the library only needs three things from the engine:

* a monotonically increasing simulated clock,
* an event queue ordered by ``(time, insertion sequence)`` so that ties are
  broken deterministically, and
* a simulator loop that pops events and invokes their callbacks until a time
  horizon or event budget is exhausted.

Events carry an arbitrary callback and payload; cancellation is supported by
marking the event rather than removing it from the heap (lazy deletion),
which keeps :meth:`EventQueue.push` and :meth:`EventQueue.pop` at
``O(log n)``.  So that heavy cancellation churn cannot grow the heap without
bound, the queue compacts itself — rebuilds the heap without the cancelled
entries — whenever cancelled events outnumber live ones
(see :meth:`EventQueue.cancel`).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional


class SimulationError(RuntimeError):
    """Raised when the simulator is driven incorrectly (e.g. time reversal)."""


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Ordering is by ``(time, seq)``: events scheduled for the same instant run
    in the order they were scheduled, which makes simulations reproducible.
    """

    time: float
    seq: int
    callback: Callable[["Simulator", Any], None] = field(compare=False)
    payload: Any = field(compare=False, default=None)
    cancelled: bool = field(compare=False, default=False)
    popped: bool = field(compare=False, default=False)
    _queue: Optional["EventQueue"] = field(compare=False, default=None, repr=False)

    def cancel(self) -> None:
        """Cancel this event so the simulator skips it when popped.

        Delegates to the owning queue (when scheduled) so the queue's
        live/cancelled tallies — and therefore compaction — stay correct no
        matter which cancellation path the caller uses.
        """
        if self._queue is not None:
            self._queue.cancel(self)
        else:
            self.cancelled = True


class SimulationClock:
    """Tracks the current simulated time in seconds."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time``.

        Raises:
            SimulationError: if ``time`` is earlier than the current time.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot move clock backwards from {self._now} to {time}"
            )
        self._now = float(time)


class EventQueue:
    """Binary-heap priority queue of :class:`Event` objects."""

    #: Heaps smaller than this are never compacted (rebuilds would cost more
    #: than the memory they reclaim).
    COMPACTION_MIN_SIZE = 8

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self._live = 0
        self._cancelled = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def cancelled_count(self) -> int:
        """Cancelled events still occupying heap slots (awaiting compaction)."""
        return self._cancelled

    def push(
        self,
        time: float,
        callback: Callable[["Simulator", Any], None],
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback(sim, payload)`` at simulated ``time``."""
        event = Event(time=float(time), seq=next(self._counter), callback=callback,
                      payload=payload, _queue=self)
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """Return the next non-cancelled event, or ``None`` if empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                self._cancelled = max(0, self._cancelled - 1)
                continue
            self._live -= 1
            event.popped = True
            return event
        self._live = 0
        self._cancelled = 0
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, or ``None`` if empty."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
            self._cancelled = max(0, self._cancelled - 1)
        if not self._heap:
            self._live = 0
            self._cancelled = 0
            return None
        return self._heap[0].time

    def cancel(self, event: Event) -> None:
        """Lazily cancel a previously scheduled event.

        When the cancelled entries come to outnumber the live ones (and the
        heap is big enough for a rebuild to pay off), the heap is compacted:
        lazy deletion stays ``O(log n)`` per operation, but a workload that
        cancels most of what it schedules no longer holds the dead entries
        until their pop time.

        Cancelling an event that already ran is a no-op: the event no longer
        occupies a heap slot, so counting it would corrupt the live and
        cancelled tallies.
        """
        if event.popped:
            return
        if not event.cancelled:
            event.cancelled = True
            self._live = max(0, self._live - 1)
            self._cancelled += 1
            if (
                len(self._heap) >= self.COMPACTION_MIN_SIZE
                and self._cancelled * 2 > len(self._heap)
            ):
                self.compact()

    def compact(self) -> None:
        """Rebuild the heap without its cancelled entries."""
        if self._cancelled == 0:
            return
        self._heap = [e for e in self._heap if not e.cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def clear(self) -> None:
        """Drop every pending event.

        Outstanding :class:`Event` handles are invalidated so that a later
        ``cancel()`` through a stale handle cannot corrupt the tallies.
        """
        for event in self._heap:
            event.popped = True
        self._heap.clear()
        self._live = 0
        self._cancelled = 0

    def __iter__(self) -> Iterator[Event]:
        return (e for e in sorted(self._heap) if not e.cancelled)


class Simulator:
    """Event loop tying a :class:`SimulationClock` to an :class:`EventQueue`.

    Example:
        >>> sim = Simulator()
        >>> hits = []
        >>> _ = sim.schedule_at(1.5, lambda s, p: hits.append((s.now, p)), "x")
        >>> sim.run()
        >>> hits
        [(1.5, 'x')]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.clock = SimulationClock(start_time)
        self.queue = EventQueue()
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    def schedule_at(
        self,
        time: float,
        callback: Callable[["Simulator", Any], None],
        payload: Any = None,
    ) -> Event:
        """Schedule an event at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        return self.queue.push(time, callback, payload)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event."""
        self.queue.cancel(event)

    def step(self) -> bool:
        """Process the next event.  Returns ``False`` when the queue is empty."""
        event = self.queue.pop()
        if event is None:
            return False
        self.clock.advance_to(event.time)
        event.callback(self, event.payload)
        self.events_processed += 1
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have been processed.

        Returns:
            The number of events processed by this call.
        """
        processed = 0
        while True:
            if max_events is not None and processed >= max_events:
                break
            next_time = self.queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.clock.advance_to(until)
                break
            if not self.step():
                break
            processed += 1
        if until is not None and self.now < until and self.queue.peek_time() is None:
            self.clock.advance_to(until)
        return processed
