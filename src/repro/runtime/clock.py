"""A virtual-clock asyncio event loop for deterministic runtime runs.

The live runtime normally runs on the wall clock: peers sleep real
(scaled) seconds between scheduling periods and frames spend real wall
time "in flight".  That realism is what the throughput benchmark needs —
and exactly what campaigns and regression tests do *not* want, because
wall-clock scheduling makes every run a different interleaving.

:class:`VirtualClockEventLoop` removes the wall clock from the picture:
``loop.time()`` returns a **virtual** timestamp, and whenever nothing is
ready to run the clock jumps straight to the next timer's due time.  The
loop owns no selector and no file descriptor and makes no system call —
the runtime does no real I/O on this clock (loopback transports are
``call_later`` deliveries) — so the whole swarm executes as one
deterministic callback sequence: same spec, same seed ⇒ same messages,
same drops, same metrics, bit for bit.  Callbacks consume no virtual
time, so a virtual-clock swarm can never overload its own schedule;
overload physics (and the throughput ceiling) only exist on the wall
clock.

Every same-seed fingerprint depends on the *order* this loop runs
callbacks in, so the pass (:meth:`VirtualClockEventLoop._run_once`) is a
contract: ``docs/runtime.md`` → *The virtual clock's ordering contract*
states it and says what a later change may alter, and
``tests/test_runtime_clock_equivalence.py`` keeps the loop it replaced —
``SelectorEventLoop`` behind a clock-jumping selector — as the oracle.
"""

from __future__ import annotations

import asyncio
import logging
from asyncio import events
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Deque, List

#: Timers due within this many seconds of ``now`` fire in the same pass
#: (the monotonic clock resolution the stock loop uses on Linux).
_RESOLUTION = 1e-9
#: The longest single clock jump (the stock loop's select-timeout cap).
_MAX_JUMP = 24 * 3600


class _Handle:
    """A ready-queue entry: what ``call_soon`` returns."""

    __slots__ = ("callback", "args", "context")

    def cancel(self) -> None:
        self.callback = self.args = None

    def cancelled(self) -> bool:
        return self.callback is None


class _Timer(float):
    """A timer-heap entry: what ``call_at`` / ``call_later`` return.

    The handle *is* its due time, so ``heapq`` orders timers with the
    C-level float comparison and by ``when`` alone — a ``(when, seq)``
    key would break ties differently and change every same-seed series.
    """

    __slots__ = ("callback", "args", "context", "loop", "scheduled")

    def cancel(self) -> None:
        if self.callback is not None:
            self.callback = self.args = None
            if self.scheduled:
                self.loop._cancelled_timers += 1

    def cancelled(self) -> bool:
        return self.callback is None

    def when(self) -> float:
        return float(self)


def _stop_when_done(future: "asyncio.Future[Any]") -> None:
    future.get_loop().stop()


class VirtualClockEventLoop(asyncio.AbstractEventLoop):
    """An event loop whose clock is virtual time, not the wall.

    Implements the part of the loop contract a socket-free program can
    reach — ``call_soon`` / ``call_later`` / ``call_at``, futures, tasks,
    ``run_until_complete`` — and nothing else: I/O, executors, signals
    and subprocesses raise ``NotImplementedError`` from the abstract
    base.  A ``context=None`` callback is called directly (task steps
    and future callbacks pass their context and run inside it), and an
    exception escaping a plain callback propagates out of
    :meth:`run_forever` instead of being logged and swallowed.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._ready: Deque[Any] = deque()
        self._scheduled: List[_Timer] = []
        #: Cancelled timers still in the heap.  Timers that fire are not
        #: subtracted (the stock loop does not either), so compaction
        #: comes earlier than the name suggests — part of the contract.
        self._cancelled_timers = 0
        self._stopping = False
        self._running = False
        self._closed = False

    # ------------------------------------------------------------- scheduling
    def time(self) -> float:
        """Current virtual time in seconds (starts at 0.0)."""
        return self._now

    def call_soon(self, callback, *args, context=None) -> _Handle:
        if self._closed:
            raise RuntimeError("Event loop is closed")
        handle = _Handle()
        handle.callback = callback
        handle.args = args
        handle.context = context
        self._ready.append(handle)
        return handle

    def call_at(self, when, callback, *args, context=None) -> _Timer:
        if self._closed:
            raise RuntimeError("Event loop is closed")
        timer = _Timer(when)
        timer.callback = callback
        timer.args = args
        timer.context = context
        timer.loop = self
        timer.scheduled = True
        heappush(self._scheduled, timer)
        return timer

    def call_later(self, delay, callback, *args, context=None) -> _Timer:
        return self.call_at(self._now + delay, callback, *args, context=context)

    def create_future(self) -> "asyncio.Future[Any]":
        return asyncio.Future(loop=self)

    def create_task(self, coro, **kwargs) -> "asyncio.Task[Any]":
        return asyncio.Task(coro, loop=self, **kwargs)

    # --------------------------------------------------------------- the pass
    def _run_once(self) -> None:
        """One pass: the four steps of the ordering contract."""
        scheduled = self._scheduled
        count = len(scheduled)
        if count > 100 and self._cancelled_timers / count > 0.5:
            # Mostly dead heap: filter and re-heapify (the stock loop's rule).
            for timer in scheduled:
                timer.scheduled = timer.callback is not None
            self._scheduled = scheduled = [t for t in scheduled if t.scheduled]
            heapify(scheduled)
            self._cancelled_timers = 0
        else:
            while scheduled and scheduled[0].callback is None:
                self._cancelled_timers -= 1
                heappop(scheduled).scheduled = False

        ready = self._ready
        if not ready and not self._stopping:
            if not scheduled:
                raise RuntimeError(
                    "virtual clock stalled: no scheduled timers and no ready "
                    "callbacks — every task is waiting on an event that "
                    "nothing will set"
                )
            jump = scheduled[0] - self._now
            if jump > _MAX_JUMP:
                jump = _MAX_JUMP
            if jump > 0:
                self._now += jump

        horizon = self._now + _RESOLUTION
        while scheduled and scheduled[0] < horizon:
            timer = heappop(scheduled)
            timer.scheduled = False
            ready.append(timer)

        for _ in range(len(ready)):
            handle = ready.popleft()
            callback = handle.callback
            if callback is None:
                continue
            context = handle.context
            if context is None:
                callback(*handle.args)
            else:
                context.run(callback, *handle.args)

    # ---------------------------------------------------------------- running
    def _check_runnable(self) -> None:
        if self._closed:
            raise RuntimeError("Event loop is closed")
        if self._running or events._get_running_loop() is not None:
            raise RuntimeError("cannot run the virtual clock while another loop is running")

    def run_forever(self) -> None:
        self._check_runnable()
        self._running = True
        events._set_running_loop(self)
        try:
            while True:
                self._run_once()
                if self._stopping:
                    break
        finally:
            self._stopping = False
            self._running = False
            events._set_running_loop(None)

    def run_until_complete(self, future) -> Any:
        self._check_runnable()
        future = asyncio.ensure_future(future, loop=self)
        future.add_done_callback(_stop_when_done)
        try:
            self.run_forever()
        finally:
            future.remove_done_callback(_stop_when_done)
        if not future.done():
            raise RuntimeError("Event loop stopped before Future completed.")
        return future.result()

    def stop(self) -> None:
        self._stopping = True

    def is_running(self) -> bool:
        return self._running

    def is_closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._running:
            raise RuntimeError("Cannot close a running event loop")
        self._closed = True
        self._ready.clear()
        self._scheduled.clear()

    # ------------------------------------------------------------ diagnostics
    def get_debug(self) -> bool:
        return False

    def call_exception_handler(self, context) -> None:
        """Log what asyncio's finalizers report (an exception nobody
        retrieved, a pending task destroyed) — nothing else comes here,
        because callbacks that raise propagate instead."""
        logging.getLogger("asyncio").error(
            "%s",
            context.get("message", "unhandled exception on the virtual clock"),
            exc_info=context.get("exception"),
        )


def run_on_virtual_clock(coro) -> Any:
    """Run ``coro`` to completion on a fresh virtual-clock event loop.

    The deterministic sibling of :func:`asyncio.run`: timers fire in
    due-time order with zero wall waiting.  Whatever the run leaves
    behind — after a failure, every peer's period task — is cancelled and
    unwound before the loop is closed, so repeated calls are independent
    and an exception propagates without "task destroyed" noise.
    """
    loop = VirtualClockEventLoop()
    try:
        return loop.run_until_complete(coro)
    finally:
        try:
            # Frames and timers still queued belong to the finished (or
            # failed) run: dropped, not executed during the unwind.
            loop._ready.clear()
            loop._scheduled.clear()
            leftover = asyncio.all_tasks(loop)
            for task in leftover:
                task.cancel()
            if leftover:
                loop.run_until_complete(asyncio.gather(*leftover, return_exceptions=True))
        finally:
            loop.close()
