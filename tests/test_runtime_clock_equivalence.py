"""The virtual clock's ordering contract, pinned against its predecessor.

Until PR 17 the virtual clock was ``asyncio.SelectorEventLoop`` behind a
selector proxy that turned every blocking ``select`` into a clock jump.
:class:`~repro.runtime.clock.VirtualClockEventLoop` is now a purpose-built
loop with no selector at all, and every same-seed fingerprint of the live
runtime depends on it executing **exactly the callback sequence the old
one did**.  The old loop lives on here, verbatim, as the oracle:
hypothesis-generated programs (``call_soon`` / ``call_later`` with tied
and 1e-10-apart delays / ``call_at`` in the past / handle cancellation
before and after firing / sleeping tasks / ``Event`` wake-ups / ``gather``
over cancelled tasks / callbacks that schedule more work / bulk
schedule-and-cancel bursts that trip the heap compaction) run on both
loops and must produce the same trace with the same ``loop.time()``
reading at every step.

The contract itself is written down in ``docs/runtime.md`` → *The virtual
clock's ordering contract*; what a later change may alter (and must then
re-pin) is listed there.
"""

import asyncio
import selectors
from typing import Any, Callable, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime.clock import VirtualClockEventLoop, run_on_virtual_clock

# =========================================================================== #
# The oracle: runtime/clock.py as of the parent commit, verbatim but for the
# loop's class name.
# =========================================================================== #
#: Consecutive zero-timeout selector polls with no ready callbacks and no
#: scheduled timers before the loop declares the program wedged.  A pure
#: loopback workload always has either ready callbacks or timers pending;
#: hitting this means every task is awaiting an event nobody will set.
_STALL_LIMIT = 10_000


class _VirtualSelector:
    """Selector proxy that converts blocking waits into clock jumps.

    The base event loop computes ``timeout = next_timer_due - loop.time()``
    and hands it to ``selector.select``.  Instead of sleeping, this proxy
    advances the owning loop's virtual clock by that timeout and polls the
    real selector non-blockingly (the self-pipe that wakes the loop still
    works), so timers fire "on time" without wall waiting.
    """

    def __init__(self, wrapped: selectors.BaseSelector, loop: "SelectorVirtualClockEventLoop") -> None:
        self._wrapped = wrapped
        self._loop = loop
        self._stalled_polls = 0

    def select(self, timeout: Any = None) -> Any:
        if timeout is not None and timeout > 0:
            self._loop._virtual_now += timeout
            self._stalled_polls = 0
        elif timeout is None:
            # No ready callbacks and no timers: nothing can ever advance
            # the virtual clock.  Poll a bounded number of times (events
            # may still arrive through the self-pipe, e.g. loop.stop())
            # before treating it as a deadlock instead of spinning forever.
            self._stalled_polls += 1
            if self._stalled_polls > _STALL_LIMIT:
                raise RuntimeError(
                    "virtual clock stalled: no scheduled timers and no ready "
                    "callbacks — every task is waiting on an event that "
                    "nothing will set"
                )
        else:
            self._stalled_polls = 0
        return self._wrapped.select(0)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._wrapped, name)


class SelectorVirtualClockEventLoop(asyncio.SelectorEventLoop):
    """An event loop whose clock is virtual time, not the wall."""

    def __init__(self) -> None:
        super().__init__(selectors.DefaultSelector())
        self._virtual_now = 0.0
        self._selector = _VirtualSelector(self._selector, self)

    def time(self) -> float:
        """Current virtual time in seconds (starts at 0.0)."""
        return self._virtual_now


# =========================================================================== #
# A tiny program language, interpreted against whichever loop is running
# =========================================================================== #
#: Delays chosen to collide: exact ties, values 1e-10 apart (inside the
#: 1e-9 firing resolution), values straddling that resolution, zero — and
#: a few (0.2, 0.7, 1.1, 2.3, 7.7) whose sums round differently under
#: ``now += head - now`` than under ``now = head``.
DELAYS = (
    0.0, 1e-10, 5e-10, 1e-9, 2e-9, 0.05, 0.05, 0.05 + 1e-10, 0.05 + 2e-9,
    0.1, 0.1, 0.25, 1.0, 0.2, 0.7, 1.1, 2.3, 7.7,
)
#: ``call_at`` offsets from ``loop.time()`` — some in the past.
AT_OFFSETS = (-1.0, -1e-10, 0.0, 1e-10, 0.05, 0.1)
#: Virtual seconds the driver waits for the program to play out.
HORIZON = 500.0
NUM_EVENTS = 3

Trace = List[Tuple[Any, ...]]


class Interpreter:
    """Executes one generated program on the running loop, tracing it.

    Every callback, task step and wake-up appends ``(what, label,
    repr(loop.time()))``; labels are handed out in *creation* order, so
    two loops produce the same trace only if they create and run things
    in the same order at the same virtual times.
    """

    def __init__(self, trace: Trace) -> None:
        self.loop = asyncio.get_running_loop()
        self.trace = trace
        self.handles: List[Any] = []
        self.tasks: List["asyncio.Task[Any]"] = []
        self.events = [asyncio.Event() for _ in range(NUM_EVENTS)]
        self._labels = 0

    def label(self) -> int:
        self._labels += 1
        return self._labels

    def mark(self, what: str, label: int) -> None:
        self.trace.append((what, label, repr(self.loop.time())))

    def fire(self, label: int, ops) -> None:
        self.mark("fire", label)
        self.run_ops(ops)

    def run_ops(self, ops) -> None:
        loop = self.loop
        for op in ops:
            kind = op[0]
            if kind == "soon":
                self.handles.append(loop.call_soon(self.fire, self.label(), op[1]))
            elif kind == "later":
                self.handles.append(loop.call_later(op[1], self.fire, self.label(), op[2]))
            elif kind == "at":
                self.handles.append(
                    loop.call_at(loop.time() + op[1], self.fire, self.label(), op[2])
                )
            elif kind == "cancel":
                if self.handles:
                    self.handles[op[1] % len(self.handles)].cancel()
            elif kind == "set":
                self.events[op[1]].set()
            elif kind == "clear":
                self.events[op[1]].clear()
            elif kind == "task":
                label = self.label()
                self.tasks.append(loop.create_task(self.run_task(label, op[1])))
            elif kind == "cancel_task":
                if self.tasks:
                    self.tasks[op[1] % len(self.tasks)].cancel()
            elif kind == "bulk":
                # Many timers, most of them cancelled at once: trips the
                # >100 queued / >50 % cancelled heap compaction.
                _, count, delay_picks, keep_every = op
                burst = [
                    loop.call_later(
                        DELAYS[delay_picks[i % len(delay_picks)]], self.fire, self.label(), ()
                    )
                    for i in range(count)
                ]
                for i, handle in enumerate(burst):
                    if i % keep_every:
                        handle.cancel()
            else:  # pragma: no cover - generator bug
                raise AssertionError(f"unknown op {op!r}")

    async def run_task(self, label: int, steps) -> None:
        self.mark("task", label)
        try:
            for step in steps:
                kind = step[0]
                if kind == "sleep":
                    await asyncio.sleep(step[1])
                elif kind == "wait":
                    await self.events[step[1]].wait()
                elif kind == "ops":
                    self.run_ops(step[1])
                elif kind == "gather":
                    await self.gather_children(label, step[1], step[2])
                self.mark("step", label)
        except asyncio.CancelledError:
            self.mark("cancelled", label)
            raise

    async def gather_children(self, label: int, delays, cancel_mask: int) -> None:
        async def child(index: int, delay: float) -> int:
            await asyncio.sleep(delay)
            self.mark("child", label * 1000 + index)
            return index

        children = [
            self.loop.create_task(child(i, delay)) for i, delay in enumerate(delays)
        ]
        for i, task in enumerate(children):
            if cancel_mask >> i & 1:
                task.cancel()
        results = await asyncio.gather(*children, return_exceptions=True)
        self.trace.append(
            ("gathered", label, repr(self.loop.time()), [type(r).__name__ for r in results])
        )


def trace_of(
    loop_factory: Callable[[], asyncio.AbstractEventLoop], program, horizon: float = HORIZON
) -> Trace:
    """Run ``program`` on a fresh loop; the full trace plus the final clock."""
    trace: Trace = []

    async def main() -> None:
        interp = Interpreter(trace)
        interp.run_ops(program)
        await asyncio.sleep(horizon)
        # Wind down: whatever still waits (an event nobody set) is
        # cancelled, so no program can stall the clock.
        for task in interp.tasks:
            task.cancel()
        outcomes = await asyncio.gather(*interp.tasks, return_exceptions=True)
        trace.append(("end", repr(interp.loop.time()), [type(o).__name__ for o in outcomes]))

    loop = loop_factory()
    try:
        loop.run_until_complete(main())
        trace.append(("closed", repr(loop.time())))
    finally:
        loop.close()
    return trace


def assert_same_execution(program, horizon: float = HORIZON) -> Trace:
    expected = trace_of(SelectorVirtualClockEventLoop, program, horizon)
    actual = trace_of(VirtualClockEventLoop, program, horizon)
    assert actual == expected
    return actual


# ------------------------------------------------------------------ strategies
delay_index = st.integers(0, len(DELAYS) - 1)
delays = st.sampled_from(DELAYS)
event_index = st.integers(0, NUM_EVENTS - 1)

leaf_ops = st.one_of(
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("cancel_task"), st.integers(0, 10)),
    st.tuples(st.just("set"), event_index),
    st.tuples(st.just("clear"), event_index),
    st.tuples(st.just("soon"), st.just(())),
    st.tuples(st.just("later"), delays, st.just(())),
    st.tuples(
        st.just("bulk"),
        st.integers(110, 260),
        st.lists(delay_index, min_size=1, max_size=6),
        st.integers(2, 9),
    ),
)


def _extend(ops):
    op_lists = st.lists(ops, max_size=4).map(tuple)
    task_steps = st.lists(
        st.one_of(
            st.tuples(st.just("sleep"), delays),
            st.tuples(st.just("wait"), event_index),
            st.tuples(st.just("ops"), op_lists),
            st.tuples(
                st.just("gather"),
                st.lists(delays, min_size=1, max_size=4).map(tuple),
                st.integers(0, 15),
            ),
        ),
        max_size=5,
    ).map(tuple)
    return st.one_of(
        st.tuples(st.just("soon"), op_lists),
        st.tuples(st.just("later"), delays, op_lists),
        st.tuples(st.just("at"), st.sampled_from(AT_OFFSETS), op_lists),
        st.tuples(st.just("task"), task_steps),
    )


programs = st.lists(st.recursive(leaf_ops, _extend, max_leaves=25), max_size=8).map(tuple)


class TestSameExecutionAsTheSelectorLoop:
    @settings(
        max_examples=250,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(programs)
    def test_generated_programs_trace_identically(self, program):
        assert_same_execution(program)

    def test_tied_timers_fire_in_heap_order_not_insertion_order(self):
        """Forty timers on three tied deadlines with a cancelled third:
        the firing order is heapq's, and both loops agree on it."""
        program = tuple(
            ("later", DELAYS[5 + i % 3], ()) if i % 3 else ("later", 0.05, (("cancel", i),))
            for i in range(40)
        )
        trace = assert_same_execution(program)
        fired = [entry[1] for entry in trace if entry[0] == "fire"]
        assert fired != sorted(fired)  # a (when, seq) key would give sorted

    def test_a_timer_inside_the_resolution_fires_in_the_same_pass(self):
        trace = assert_same_execution((("later", 0.05, ()), ("later", 0.05 + 5e-10, ())))
        times = [entry[2] for entry in trace if entry[0] == "fire"]
        assert times == [repr(0.05), repr(0.05)]  # the clock stopped at the first

    def test_the_clock_is_advanced_by_the_gap_not_set_to_the_deadline(self):
        """``now += head - now`` is not ``now = head`` in floating point:
        after the 1.1 s timer, the 7.7 s one fires at 7.699999999999999."""
        trace = assert_same_execution((("later", 1.1, ()), ("later", 7.7, ())))
        times = [entry[2] for entry in trace if entry[0] == "fire"]
        assert times == [repr(1.1), repr(1.1 + (7.7 - 1.1))]
        assert times[1] != repr(7.7)

    def test_the_clock_advances_by_addition_capped_at_a_day(self):
        """``now += min(head - now, 86400)``: a far timer takes two jumps,
        and the arrival time is the float the additions give."""
        program = (("later", 0.1, (("later", 200_000.0, ()),)),)
        trace = assert_same_execution(program, horizon=300_000.0)
        fired = [entry for entry in trace if entry[0] == "fire"]
        now = 0.1
        when = now + 200_000.0
        while not when < now + 1e-9:  # the contract's steps 2-3, replayed
            now += min(when - now, 86_400.0)
        assert fired[1][2] == repr(now)

    def test_callbacks_run_in_the_pass_after_the_one_that_scheduled_them(self):
        program = (
            ("soon", (("soon", ()), ("later", 0.0, ()))),
            ("soon", ()),
            ("later", 0.0, ()),
        )
        trace = assert_same_execution(program)
        assert [entry[1] for entry in trace if entry[0] == "fire"] == [1, 2, 3, 4, 5]


class TestHeapCompaction:
    def _burst(self, loop, fired, count=300, keep_every=3):
        handles = [
            loop.call_later(DELAYS[5 + i % 4], fired.append, i) for i in range(count)
        ]
        for i, handle in enumerate(handles):
            if i % keep_every:
                handle.cancel()
        return handles

    def test_cancelled_majority_is_compacted_away_in_one_pass(self):
        loop = VirtualClockEventLoop()
        fired: List[int] = []
        seen: List[int] = []

        async def main():
            self._burst(loop, fired)
            assert len(loop._scheduled) == 300
            await asyncio.sleep(0)  # one pass: 200 of 300 cancelled -> heapify
            seen.append(len(loop._scheduled))
            await asyncio.sleep(1.0)

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()
        assert seen == [100]
        assert sorted(fired) == list(range(0, 300, 3))

    def test_compaction_keeps_the_selector_loops_order(self):
        orders = []
        for factory in (SelectorVirtualClockEventLoop, VirtualClockEventLoop):
            loop = factory()
            fired: List[int] = []

            async def main():
                self._burst(loop, fired)
                await asyncio.sleep(0.01)
                self._burst(loop, fired, count=150, keep_every=2)
                await asyncio.sleep(1.0)

            try:
                loop.run_until_complete(main())
            finally:
                loop.close()
            orders.append(fired)
        assert orders[0] == orders[1]
        assert len(orders[0]) == 100 + 75

    def test_cancelling_after_firing_is_not_counted(self):
        loop = VirtualClockEventLoop()

        async def main():
            handle = loop.call_later(0.1, lambda: None)
            await asyncio.sleep(0.2)
            handle.cancel()
            assert handle.cancelled()
            assert loop._cancelled_timers == 0

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()


class TestStallAndReentry:
    def test_a_wedged_program_raises_at_once(self):
        async def waits_forever():
            await asyncio.Event().wait()

        with pytest.raises(RuntimeError, match="virtual clock stalled"):
            run_on_virtual_clock(waits_forever())

    def test_run_on_virtual_clock_is_reentrant_across_calls(self):
        async def sleeper(duration):
            loop = asyncio.get_running_loop()
            start = loop.time()
            await asyncio.sleep(duration)
            return start, loop.time()

        assert run_on_virtual_clock(sleeper(3.0)) == (0.0, 3.0)
        # a fresh clock every call, also after a failed one
        with pytest.raises(RuntimeError, match="stalled"):
            run_on_virtual_clock(asyncio.Event().wait())
        assert run_on_virtual_clock(sleeper(0.5)) == (0.0, 0.5)
        with pytest.raises(RuntimeError):
            asyncio.get_running_loop()  # nothing left running

    def test_a_failed_run_unwinds_the_tasks_it_leaves_behind(self):
        unwound = []

        async def background():
            try:
                await asyncio.sleep(1000.0)
            finally:
                unwound.append("background")

        async def main():
            task = asyncio.get_running_loop().create_task(background())
            await asyncio.sleep(0.1)
            asyncio.get_running_loop().call_soon(lambda: 1 / 0)
            await task

        with pytest.raises(ZeroDivisionError):
            run_on_virtual_clock(main())
        assert unwound == ["background"]

    def test_it_refuses_to_run_inside_a_running_loop(self):
        async def inner():
            return 1  # pragma: no cover - never started

        async def outer():
            coro = inner()
            try:
                with pytest.raises(RuntimeError, match="another loop is running"):
                    run_on_virtual_clock(coro)
            finally:
                coro.close()
            return "outer finished"

        assert run_on_virtual_clock(outer()) == "outer finished"

    def test_a_closed_loop_refuses_new_work(self):
        loop = VirtualClockEventLoop()
        loop.close()
        assert loop.is_closed()
        with pytest.raises(RuntimeError, match="closed"):
            loop.call_soon(print)
        with pytest.raises(RuntimeError, match="closed"):
            loop.call_later(1.0, print)
