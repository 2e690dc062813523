"""The swarm's one queue of due work — and, on the virtual clock, its time.

Everything a live swarm does in process happens at a loop time: a
loopback flush group lands, a peer's intra-period phase runs, a period
boundary ticks the peers filed for it, the end-of-period step folds
lateness and drives churn.  Each is one ``(time, seq)`` entry of the
swarm's :class:`DeliveryQueue`, and the queue runs them one *instant* at
a time: every entry due within ``_RESOLUTION`` of the head, in
``(time, seq)`` order, then one drain of every peer something landed for.

On the **virtual clock** the queue *is* the clock: :meth:`DeliveryQueue.
advance` sets ``now`` to the head's due time and runs that instant, and
the swarm repeats it until its last period's step ends the run.  No event
loop is involved and nothing else runs, so the whole swarm is one
deterministic sequence: same spec, same seed ⇒ same messages, same drops,
same metrics, bit for bit.  Entries consume no virtual time, so a virtual
swarm can never overload its own schedule; overload physics (and the
throughput ceiling) only exist on the wall clock.

On the **wall clock** the same queue runs on an asyncio loop
(:meth:`DeliveryQueue.bind`): its clock is the loop's, and one timer,
armed at the head and re-armed after each instant, runs what fell due.
``docs/runtime.md`` → *The virtual clock's ordering contract* states the
order every same-seed fingerprint depends on.
"""

from __future__ import annotations

import asyncio
from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, List, Optional, Tuple

#: Entries due within this many seconds of an instant's time run in it
#: (the monotonic clock resolution asyncio uses on Linux).
_RESOLUTION = 1e-9


class DeliveryQueue:
    """A swarm's one queue of due work: ``(time, seq)`` entries run one
    instant at a time.

    An entry is ``callback(arg)`` due at clock time ``when``; ``seq`` is
    the push order, so entries due at equal times run first in, first
    out.  :meth:`run_due` pops every entry due before a horizon —
    including those pushed while it runs — runs each in ``(time, seq)``
    order, then calls ``after()`` once: the swarm drains there every peer
    the instant's entries delivered to.  Nothing here allocates a loop
    handle per entry.
    """

    def __init__(self, after: Callable[[], None]) -> None:
        self._heap: List[Tuple[float, int, Callable[[Any], None], Any]] = []
        self._seq = count()
        self._after = after
        #: Virtual time: the due time of the instant running (or last run).
        self._now = 0.0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: The wall clock's one armed timer and its due time.  A push
        #: earlier than ``_armed_at`` re-arms, so it is ``-inf`` whenever
        #: no timer may be armed: unbound (the virtual clock), closed, and
        #: while an instant runs (its pushes re-arm once, at the end).
        self._timer: Optional[asyncio.TimerHandle] = None
        self._armed_at = float("-inf")

    def __len__(self) -> int:
        return len(self._heap)

    def time(self) -> float:
        """The swarm's clock: virtual ``now``, or the bound loop's time."""
        return self._now

    def push(self, when: float, callback: Callable[[Any], None], arg: Any) -> None:
        """Queue ``callback(arg)`` at clock time ``when``."""
        heappush(self._heap, (when, next(self._seq), callback, arg))
        if when < self._armed_at:
            self._arm(when)

    def run_due(self, horizon: float) -> None:
        """Run every entry due before ``horizon``, then ``after()``."""
        heap = self._heap
        while heap and heap[0][0] < horizon:
            _, _, callback, arg = heappop(heap)
            callback(arg)
        self._after()

    def advance(self) -> None:
        """The virtual clock's step: move ``now`` to the head's due time
        and run that instant."""
        if not self._heap:
            raise RuntimeError(
                "virtual clock stalled: the delivery queue emptied before the "
                "run's last period ended"
            )
        self._now = now = self._heap[0][0]
        self.run_due(now + _RESOLUTION)

    def close(self) -> None:
        """Drop every entry and disarm the timer: the run is over."""
        self._heap.clear()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._armed_at = float("-inf")

    # ----------------------------------------------------------- the wall clock
    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        """Run this queue on ``loop``'s clock (what is queued already included)."""
        self._loop = loop
        self.time = loop.time
        self._armed_at = float("inf")
        if self._heap:
            self._arm(self._heap[0][0])

    def _arm(self, when: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._armed_at = when
        self._timer = self._loop.call_at(when, self._fire)

    def _fire(self) -> None:
        self._timer = None
        self._armed_at = float("-inf")
        try:
            self.run_due(self._loop.time() + _RESOLUTION)
        finally:
            self._armed_at = float("inf")
            if self._heap:
                self._arm(self._heap[0][0])
