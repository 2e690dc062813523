"""The swarm's one queue of due work — and its clock, in simulated seconds.

Everything a live swarm does in process happens at a simulated time: a
loopback flush group lands, a peer's intra-period phase runs, a period
boundary ticks the peers filed for it, the end-of-period step folds
lateness and drives churn.  Each is one ``(time, seq)`` entry of the
swarm's :class:`DeliveryQueue`, and the queue runs them one *instant* at
a time: every entry due within ``_RESOLUTION`` of the instant's time, in
``(time, seq)`` order, then one drain of every peer something landed for.

Both clocks drain the queue the same way; they differ only in when the
next instant runs.  On the **virtual clock** the queue *is* the clock:
:meth:`DeliveryQueue.advance` sets ``now`` to the head's due time and
runs that instant, and the swarm repeats it until its last period's step
ends the run.  No event loop is involved and nothing else runs, so the
whole swarm is one deterministic sequence: same spec, same seed ⇒ same
messages, same drops, same metrics, bit for bit.  Entries consume no
virtual time, so only the wall clock can overload.  There
(:meth:`DeliveryQueue.pace`) time ``t`` falls due at the loop time
``anchor + t·time_scale``, and :meth:`DeliveryQueue.advance_wall` is the
virtual step plus a wait.  ``docs/runtime.md`` → *The virtual clock's
ordering contract* states the order every same-seed fingerprint depends
on.
"""

from __future__ import annotations

import asyncio
from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, List, Optional, Tuple

#: Entries due within this many simulated seconds of an instant's time
#: run in it.
_RESOLUTION = 1e-9


def _resolve(future: asyncio.Future) -> None:
    if not future.done():
        future.set_result(None)


def _stalled(clock: str) -> RuntimeError:
    return RuntimeError(
        f"{clock} clock stalled: the delivery queue emptied before the run's last period ended"
    )


class DeliveryQueue:
    """A swarm's one queue of due work: ``(time, seq)`` entries run one
    instant at a time.

    An entry is ``callback(arg)`` due at simulated time ``when``; ``seq``
    is the push order, so entries due at equal times run first in, first
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
        #: While the wall pacer sleeps: the head time it sleeps towards
        #: (``-inf`` otherwise, so a push never compares true) and the
        #: future a push due earlier resolves to wake it.
        self._sleep_until = float("-inf")
        self._wake: Optional[asyncio.Future] = None

    def __len__(self) -> int:
        return len(self._heap)

    def time(self) -> float:
        """The swarm's clock in simulated seconds: virtual ``now``, or the
        paced loop's time mapped back through the wall anchor."""
        return self._now

    def push(self, when: float, callback: Callable[[Any], None], arg: Any) -> None:
        """Queue ``callback(arg)`` at simulated time ``when``."""
        heappush(self._heap, (when, next(self._seq), callback, arg))
        if when < self._sleep_until:
            _resolve(self._wake)

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
            raise _stalled("virtual")
        self._now = now = self._heap[0][0]
        self.run_due(now + _RESOLUTION)

    def pace(self, loop: asyncio.AbstractEventLoop, anchor: float, time_scale: float) -> None:
        """Run on the wall clock: simulated time ``t`` falls due at
        ``loop``'s time ``anchor + t·time_scale``, and :meth:`time` reads
        the loop's clock back in simulated seconds."""
        self._loop = loop
        self._anchor = anchor
        self._time_scale = time_scale
        self.time = lambda: (loop.time() - anchor) / time_scale

    async def advance_wall(self) -> None:
        """The wall clock's step: sleep until the head's wall instant —
        a push due earlier wakes it — or, if that instant has passed,
        yield once; then run every entry due by now as one instant."""
        if not self._heap:
            raise _stalled("wall")
        loop = self._loop
        head = self._heap[0][0]
        delay = self._anchor + head * self._time_scale - loop.time()
        if delay > 0:
            self._sleep_until = head
            self._wake = wake = loop.create_future()
            timer = loop.call_later(delay, _resolve, wake)
            try:
                await wake
            finally:
                timer.cancel()
                self._sleep_until = float("-inf")
        else:
            await asyncio.sleep(0)
        self.run_due(self.time() + _RESOLUTION)

    def close(self) -> None:
        """Drop every entry and stop the clock: the run is over."""
        self._heap.clear()
        self._now = self.time()
        self.__dict__.pop("time", None)
