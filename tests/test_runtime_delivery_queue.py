"""The swarm's one delivery queue and the order it hands work out in.

Every in-process flush group, intra-period peer phase, period boundary and
end-of-period step is an entry ``(time, seq)`` of
:class:`~repro.runtime.clock.DeliveryQueue`, and on the virtual clock the
queue is the clock.  One instant — every entry due within the clock's
resolution — is handled in one pass: each due entry runs in ``(time, seq)``
order (a group lands in its receiver's inbox, a phase or boundary runs);
then every peer that received something drains once, control lane first
(docs/runtime.md → *The virtual clock's ordering contract*).
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import random
import time

import pytest

from repro.obs import ObsConfig, period_series
from repro.runtime import LiveSwarm, wire
from repro.runtime import peer as peer_module
from repro.runtime.clock import DeliveryQueue
from repro.runtime.transport import TransportConfig
from repro.scenarios import builtin_scenario


def _swarm(nodes: int = 10, rounds: int = 2, **options) -> LiveSwarm:
    spec = builtin_scenario("static").scaled(num_nodes=nodes, rounds=rounds, seed=0)
    return LiveSwarm(spec, clock="virtual", **options).build()


def _flat_latency(swarm: LiveSwarm, monkeypatch) -> None:
    """Every pair 20 ms apart: what one pass sends lands at one instant."""
    monkeypatch.setattr(swarm.manager, "latency_ms", lambda src, dst: 20.0)


def _drain(queue: DeliveryQueue) -> None:
    """Advance the virtual clock instant by instant until nothing is left."""
    while queue:
        queue.advance()


def _on_virtual_clock(swarm: LiveSwarm, body) -> None:
    """Run ``body()`` at virtual time 0, then let every delivery it caused
    fall due."""
    body()
    _drain(swarm.queue)


def _peers(swarm: LiveSwarm, count: int):
    return [p for p in swarm.peers.values() if not p.is_source][:count]


def _deliver(swarm: LiveSwarm, sender, receiver, msg, data: bool) -> None:
    """Ship ``msg`` with its frame, as a sending peer does."""
    swarm.deliver(sender.peer_id, receiver.peer_id, msg, wire.encode(msg), data)


class TestOneInstantOnePass:
    def test_every_group_lands_before_any_peer_drains(self, monkeypatch):
        """At each instant of a whole run, every landing precedes every
        drain, and exactly the peers that received something drain — once."""
        swarm = _swarm(nodes=12, rounds=3)
        _flat_latency(swarm, monkeypatch)
        events = []
        loop_time = swarm.queue.time
        land = swarm.loopback._land_group

        def logged_land(group):
            events.append((loop_time(), "land", group[0][1]))
            land(group)

        drain = peer_module.LivePeer._drain_inbox

        def logged_drain(peer):
            events.append((loop_time(), "drain", peer.peer_id))
            drain(peer)

        monkeypatch.setattr(swarm.loopback, "_land_group", logged_land)
        monkeypatch.setattr(peer_module.LivePeer, "_drain_inbox", logged_drain)
        swarm.run()
        instants = {}
        for when, what, peer_id in events:
            instants.setdefault(when, []).append((what, peer_id))
        crowded = 0
        for when, seq in instants.items():
            kinds = [what for what, _ in seq]
            first_drain = kinds.index("drain") if "drain" in kinds else len(kinds)
            assert "land" not in kinds[first_drain:], f"a group landed after a drain at {when}"
            landed = {peer_id for what, peer_id in seq if what == "land"}
            drained = [peer_id for what, peer_id in seq if what == "drain"]
            assert sorted(drained) == sorted(landed)
            crowded += kinds.count("land") > 1
        assert crowded > 10  # instants where several groups land together

    def test_each_peer_drains_its_control_lane_before_its_data_lane(self, monkeypatch):
        swarm = _swarm()
        _flat_latency(swarm, monkeypatch)
        receiver, sender = _peers(swarm, 2)
        handled = []
        monkeypatch.setitem(
            peer_module._DISPATCH, wire.SegmentData, lambda p, m: handled.append("data")
        )
        monkeypatch.setitem(peer_module._DISPATCH, wire.Ping, lambda p, m: handled.append("ping"))
        data = wire.SegmentData(sender.peer_id, 1, 8)
        ping = wire.Ping(sender=sender.peer_id, nonce=1)

        def body():
            _deliver(swarm, sender, receiver, data, True)
            _deliver(swarm, sender, receiver, data, True)
            _deliver(swarm, sender, receiver, ping, False)

        _on_virtual_clock(swarm, body)
        assert handled == ["ping", "data", "data"]

    def test_equal_times_pop_in_seq_order(self):
        order = []
        queue = DeliveryQueue(after=lambda: order.append("|"))
        for name, delay in [("a", 1.0), ("b", 0.5), ("c", 1.0), ("d", 0.5), ("e", 1.0)]:
            queue.push(delay, order.append, name)
        _drain(queue)
        assert order == ["b", "d", "|", "a", "c", "e", "|"]

    def test_the_virtual_clock_jumps_to_the_queue_head(self):
        seen = []
        queue = DeliveryQueue(after=lambda: None)
        queue.push(0.25, lambda _: seen.append(queue.time()), None)
        queue.push(0.75, lambda _: seen.append(queue.time()), None)
        _drain(queue)
        assert seen == [0.25, 0.75]

    def test_an_entry_pushed_into_its_own_instant_runs_before_the_drain(self):
        order = []
        queue = DeliveryQueue(after=lambda: order.append("|"))
        queue.push(0.5, lambda _: queue.push(queue.time(), order.append, "same"), None)
        queue.push(0.5, order.append, "tied")
        _drain(queue)
        assert order == ["tied", "same", "|"]

    def test_the_wall_clock_runs_due_entries_in_order(self):
        order = []
        queue = DeliveryQueue(after=lambda: None)

        async def main():
            loop = asyncio.get_running_loop()
            anchor = loop.time()
            queue.pace(loop, anchor, 0.1)  # 0.1 wall seconds per simulated second
            for name, when in [("late", 0.3), ("early", 0.1), ("mid", 0.2)]:
                queue.push(when, lambda name: order.append((name, loop.time() - anchor)), name)
            while queue:
                await queue.advance_wall()

        asyncio.run(main())
        assert [name for name, _ in order] == ["early", "mid", "late"]
        # each ran no earlier than its wall instant, anchor + t·time_scale
        for (_, wall), when in zip(order, (0.1, 0.2, 0.3)):
            assert wall >= when * 0.1 - 1e-6
        assert len(queue) == 0

    def test_close_drops_every_entry_and_a_sleeping_pacer_runs_nothing(self):
        ran = []
        queue = DeliveryQueue(after=lambda: None)

        async def main():
            loop = asyncio.get_running_loop()
            queue.pace(loop, loop.time(), 0.01)
            assert queue.time() == pytest.approx(0.0, abs=1.0)
            queue.push(1.0, ran.append, "dropped")
            pacer = asyncio.ensure_future(queue.advance_wall())
            await asyncio.sleep(0)  # the pacer sleeps towards the entry
            queue.close()
            queue.push(queue.time() + 1.0, ran.append, "pushed after close")
            await asyncio.wait_for(pacer, 5.0)  # it wakes and finds nothing due
            await asyncio.sleep(0.03)

        asyncio.run(main())
        assert ran == [] and len(queue) == 1


class TestTheWallClockPacesTheQueue:
    """On the wall clock the queue is drained exactly as on the virtual
    one, paced by the loop: one coroutine sleeps until the head's wall
    instant (an earlier push wakes it), then runs one instant."""

    def test_a_frame_routed_in_lands_at_its_own_due_time(self):
        """A push from outside any instant — a socket read — due before
        the head the pacer sleeps towards wakes it: the frame lands at its
        own due time, not at that head's."""
        ran = []
        queue = DeliveryQueue(after=lambda: None)

        async def main():
            loop = asyncio.get_running_loop()
            queue.pace(loop, loop.time(), 0.01)
            queue.push(5.0, lambda _: ran.append(("head", queue.time())), None)

            def routed_in():
                due = queue.time() + 0.5
                queue.push(due, lambda _: ran.append(("frame", queue.time(), due)), None)

            loop.call_later(0.01, routed_in)
            while queue:
                await queue.advance_wall()

        asyncio.run(main())
        assert [entry[0] for entry in ran] == ["frame", "head"]
        _, landed, due = ran[0]
        assert due <= landed < 5.0

    def test_overdue_entries_run_as_one_pass_with_one_drain(self):
        order = []
        queue = DeliveryQueue(after=lambda: order.append("|"))

        async def main():
            loop = asyncio.get_running_loop()
            queue.pace(loop, loop.time() - 1.0, 1.0)  # a second behind schedule
            for name, when in [("c", 0.3), ("a", 0.1), ("b", 0.2)]:
                queue.push(when, order.append, name)
            queue.push(30.0, order.append, "future")
            await queue.advance_wall()

        asyncio.run(main())
        assert order == ["a", "b", "c", "|"] and len(queue) == 1

    def test_a_queue_that_empties_before_the_last_period_stalls(self, monkeypatch):
        def stop_everyone(swarm, round_index):
            for peer in swarm.peers.values():
                peer.stop()

        monkeypatch.setattr(LiveSwarm, "_step", stop_everyone)
        spec = builtin_scenario("static").scaled(num_nodes=10, rounds=4, seed=0)
        swarm = LiveSwarm(spec, clock="wall", time_scale=0.01)
        with pytest.raises(RuntimeError, match="wall clock stalled"):
            swarm.run()
        assert all(peer.stopped for peer in swarm.peers.values())

    def test_a_slow_build_does_not_make_boundary_zero_late(self, monkeypatch):
        """The wall clock anchors simulated time 0 after the swarm is
        built: a build that takes three periods of wall time neither
        makes boundary 0 late nor dilates the run."""
        spec = builtin_scenario("static").scaled(num_nodes=10, rounds=3, seed=0)
        swarm = LiveSwarm(spec, clock="wall", time_scale=0.2)
        period = swarm.config.scheduling_period
        build = swarm.system.build

        def slow_build():
            build()
            time.sleep(3 * period * swarm.time_scale)

        monkeypatch.setattr(swarm.system, "build", slow_build)
        boundary_zero = []
        file = LiveSwarm.file

        def logged(swarm, peer, tick):
            if tick == 0:
                boundary_zero.append(swarm.queue.time() - swarm.deadline_of(0))
            file(swarm, peer, tick)

        monkeypatch.setattr(LiveSwarm, "file", logged)
        partial = asyncio.run(swarm.run_async())
        assert boundary_zero and max(boundary_zero) < 0.1 * period
        assert partial.result.clock_dilations == 0
        assert partial.worst_lateness_s < 0.1 * period * swarm.time_scale

    @pytest.mark.parametrize("clock", ["virtual", "wall"])
    def test_a_dilation_moves_only_deadlines_not_yet_reached(self, clock, monkeypatch):
        """A forced dilation at period 1's step shifts every later
        boundary by its extra simulated seconds; the entries already
        queued keep their times, and no boundary ticks before its
        deadline."""
        spec = builtin_scenario("static").scaled(num_nodes=10, rounds=5, seed=0)
        swarm = LiveSwarm(spec, clock=clock, time_scale=0.02)
        period = swarm.config.scheduling_period
        seen = {}
        dilate = LiveSwarm._maybe_dilate

        def forced(swarm, worst):
            if seen:
                return dilate(swarm, worst)
            queued = sorted((when, seq) for when, seq, _, _ in swarm.queue._heap)
            before = swarm.deadline_of(3)
            dilate(swarm, max(worst, 0.5 * period))
            seen["extra"] = swarm.deadline_of(3) - before
            seen["queued"] = queued == sorted(
                (when, seq) for when, seq, _, _ in swarm.queue._heap
            )
            seen["now"] = swarm.queue.time()

        ticks = []
        tick = peer_module.LivePeer.tick

        def logged(peer, k):
            ticks.append((k, swarm.queue.time(), swarm.deadline_of(k)))
            tick(peer, k)

        monkeypatch.setattr(LiveSwarm, "_maybe_dilate", forced)
        monkeypatch.setattr(peer_module.LivePeer, "tick", logged)
        swarm.run()
        assert seen["queued"] and seen["extra"] >= 0.25 * period - 1e-9
        for k, when, deadline in ticks:
            assert when >= deadline - 1e-9
            if when < seen["now"]:
                assert deadline == k * period
            else:
                assert deadline >= k * period + seen["extra"] - 1e-9
            if clock == "virtual":
                assert when == pytest.approx(deadline, abs=1e-9)
        assert {k for k, _, _ in ticks} == set(range(6))  # boundary 5 closes period 4


class TestOneClockUnit:
    """The swarm counts simulated seconds; ``time_scale`` paces the wall
    clock only, so nothing a virtual run decides depends on it."""

    @pytest.mark.parametrize("scenario", ["flash-crowd", "static"])
    def test_a_virtual_run_does_not_depend_on_time_scale(self, scenario):
        """Every result field and obs record is equal at any
        ``time_scale``.  The exceptions are what the host timed and the
        wall-second reports (``clock_dilation_s``, ``worst_lateness_s``),
        which are the simulated values times ``time_scale``."""
        spec = builtin_scenario(scenario).scaled(num_nodes=40, rounds=12, seed=0)
        facts = []
        for time_scale in (0.1, 0.37, 1.0):
            swarm = LiveSwarm(
                spec, clock="virtual", time_scale=time_scale, obs=ObsConfig(trace_sample=4)
            )
            result = swarm.run()

            def in_sim_s(wall_s):
                return round(wall_s / time_scale, 9)

            fields = {
                f.name: getattr(result, f.name)
                for f in dataclasses.fields(result)
                if f.name not in ("time_scale", "wall_time_s", "obs")
            }
            fields["clock_dilation_s"] = in_sim_s(result.clock_dilation_s)
            fields["worst_lateness_s"] = in_sim_s(swarm.worst_lateness_s)
            obs = dict(result.obs)
            metrics = obs.pop("metrics")
            gauges = dict(metrics["gauges"])
            gauges["clock_dilation_s"] = in_sim_s(gauges["clock_dilation_s"])
            # The host times the phases (``phase_*_s``), not the swarm.
            series = {
                name: points
                for name, points in period_series(obs.pop("records")).items()
                if not name.startswith("phase_")
            }
            series["clock_dilation_s"] = [
                [k, in_sim_s(value)] for k, value in series["clock_dilation_s"]
            ]
            timed = {name: h["count"] for name, h in metrics["histograms"].items()}
            facts.append((fields, metrics["counters"], gauges, series, timed, obs))
        assert facts[0] == facts[1] == facts[2]
        if scenario == "flash-crowd":
            assert facts[0][0]["clock_dilations"] > 0  # the scaled reports are live


class TestSheddingListEntries:
    def test_watermark_one_sheds_a_group_and_refunds_its_credits(self, monkeypatch):
        """With ``inbox_watermark=1`` the first group of an instant is
        admitted whole and a second one on the same lane is shed whole —
        every shed data frame's credit still comes home."""
        swarm = _swarm(transport=TransportConfig(inbox_watermark=1))
        _flat_latency(swarm, monkeypatch)
        receiver, first, second = _peers(swarm, 3)

        def body():
            for sender in (first, second):
                for sid in (1, 2):
                    segment = wire.SegmentData(sender.peer_id, sid, 8)
                    _deliver(swarm, sender, receiver, segment, True)

        _on_virtual_clock(swarm, body)
        assert receiver.transport_stats.inbox_dropped_data == 2
        assert swarm.messages_dropped == 2
        assert receiver._credit_ledger.owed == {first.peer_id: 2, second.peer_id: 2}

    def test_a_shed_control_group_still_applies_its_credit_grant(self, monkeypatch):
        swarm = _swarm(transport=TransportConfig(inbox_watermark=1, data_window=1))
        _flat_latency(swarm, monkeypatch)
        receiver, granter, other = _peers(swarm, 3)
        segment = wire.SegmentData(receiver.peer_id, 7, 8)
        pending = (segment, wire.encode(segment), None)
        assert receiver.send_windows.acquire(granter.peer_id, pending)
        assert not receiver.send_windows.acquire(granter.peer_id, pending)

        def body():
            _deliver(swarm, other, receiver, wire.Ping(sender=other.peer_id, nonce=1), False)
            _deliver(swarm, granter, receiver, wire.Ping(sender=granter.peer_id, nonce=2), False)
            grant = wire.CreditGrant(sender=granter.peer_id, credits=1)
            _deliver(swarm, granter, receiver, grant, False)

        _on_virtual_clock(swarm, body)
        assert receiver.transport_stats.inbox_dropped_control == 2
        assert receiver.send_windows.pending_count() == 0


class TestPhaseEntries:
    def test_a_phase_entry_from_a_stale_tick_is_dropped(self, monkeypatch):
        swarm = _swarm()
        peer = _peers(swarm, 1)[0]
        ran = []
        monkeypatch.setattr(peer, "_schedule_requests", lambda: ran.append("schedule"))

        def body():
            peer._current_tick = 3
            now = swarm.queue.time()
            swarm.queue.push(now + 0.01, peer._mid_period_when_ready, (2, 0))

        _on_virtual_clock(swarm, body)
        assert ran == [] and len(swarm.queue) == 0
        # the same entry for the open period runs, and chains its rescue
        swarm = _swarm()
        peer = _peers(swarm, 1)[0]
        monkeypatch.setattr(peer, "_schedule_requests", lambda: ran.append("schedule"))
        rescued = []
        monkeypatch.setattr(peer, "_rescue_pass", rescued.append)

        def fresh():
            peer._current_tick = 3
            now = swarm.queue.time()
            swarm.queue.push(now + 0.01, peer._mid_period_when_ready, (3, peer.MAX_RECHECKS))

        _on_virtual_clock(swarm, fresh)
        assert ran == ["schedule"] and rescued == [3]


def _run_facts(spec) -> tuple:
    result = LiveSwarm(spec, clock="virtual").run()
    return (
        result.continuity_series(),
        result.messages_sent,
        result.messages_dropped,
        result.bytes_on_wire,
        result.transport.to_dict(),
        {kind.value: count for kind, count in result.ledger.counts.items()},
    )


@pytest.mark.parametrize("scenario, loss", [("static", None), ("paper-dynamic", 0.02)])
def test_same_seed_virtual_runs_are_identical(scenario, loss):
    spec = builtin_scenario(scenario).scaled(num_nodes=30, rounds=8, seed=1)
    if loss is not None:
        spec = dataclasses.replace(spec, loss_rate=loss)
    assert _run_facts(spec) == _run_facts(spec)


def test_batch_size_is_what_encode_batch_ships():
    """In-process groups are charged ``wire.batch_size`` bytes without
    being batched: it must equal the one envelope ``encode_batch`` makes,
    and say ``None`` exactly when ``encode_batch`` would need more."""
    rng = random.Random(5)
    for _ in range(300):
        count = rng.choice([2, 3, 60, 130, 2000, 9000])
        frames = [
            wire.encode(wire.Ping(sender=rng.randrange(1 << rng.choice([8, 20])), nonce=n))
            for n in range(count)
        ]
        chunks = wire.encode_batch(frames)
        size = wire.batch_size(count, sum(map(len, frames)))
        if len(chunks) == 1:
            assert size == len(chunks[0])
        else:
            assert size is None


def test_a_group_too_big_for_one_envelope_lands_as_encode_batchs_chunks(monkeypatch):
    """Past :data:`wire.MAX_FRAME_PAYLOAD` a group lands as the envelopes
    ``encode_batch`` would ship, each charged its own bytes, in order."""
    swarm = _swarm()
    _flat_latency(swarm, monkeypatch)
    receiver, sender = _peers(swarm, 2)
    handovers = [
        wire.Handover(sender.peer_id, tuple(range(n, n + 3000))) for n in range(12)
    ]
    chunks = wire.encode_batch([wire.encode(msg) for msg in handovers])
    assert len(chunks) > 1
    entries = []
    monkeypatch.setattr(
        receiver, "_drain_inbox", lambda: entries.extend(receiver.inbox.take_batch())
    )

    def body():
        for msg in handovers:
            _deliver(swarm, sender, receiver, msg, False)

    _on_virtual_clock(swarm, body)
    counts = [wire.frame_count(chunk) for chunk in chunks]
    assert [len(messages) for _, messages, _ in entries] == counts
    assert [msg for _, messages, _ in entries for msg in messages] == handovers
    assert swarm.bytes_on_wire == sum(map(len, chunks))


class TestTheQueueIsTheVirtualClock:
    def test_a_virtual_run_inside_a_running_loop_equals_one_outside(self):
        spec = builtin_scenario("paper-dynamic").scaled(num_nodes=20, rounds=6, seed=2)

        async def inside():
            return _run_facts(spec)

        assert asyncio.run(inside()) == _run_facts(spec)

    def test_boundaries_steps_and_groups_run_in_time_seq_order(self, monkeypatch):
        """Every entry of a churning run — boundaries, end-of-period steps,
        flush groups, phases — runs in ``(time, seq)`` order, and each
        instant ends in exactly one drain of the landed peers."""
        rounds = 6
        spec = builtin_scenario("paper-dynamic").scaled(num_nodes=20, rounds=rounds, seed=0)
        swarm = LiveSwarm(spec, clock="virtual")
        queue = swarm.queue
        log = []
        push, after, seqs = queue.push, queue._after, itertools.count()

        def logged_push(when, callback, arg):
            seq = next(seqs)
            name = getattr(callback, "func", callback).__name__

            def logged(arg):
                log.append((queue.time(), (when, seq), name))
                callback(arg)

            push(when, logged, arg)

        def logged_after():
            log.append((queue.time(), None, "drain"))
            after()

        monkeypatch.setattr(queue, "push", logged_push)
        monkeypatch.setattr(queue, "_after", logged_after)
        swarm.run()
        entries = [key for _, key, name in log if name != "drain"]
        assert entries == sorted(entries)
        names = [name for _, _, name in log]
        assert names.count("_step") == rounds
        assert {"_boundary_due", "_land_group", "_mid_period_when_ready"} <= set(names)
        # split at the drains: each instant is one clock reading, ends in
        # its one drain, and the clock only moves forward between them
        instants, current = [], []
        for now, key, name in log:
            current.append(now)
            if name == "drain":
                instants.append(current)
                current = []
        assert current == [] and all(len(set(instant)) == 1 for instant in instants)
        times = [instant[0] for instant in instants]
        assert times == sorted(set(times))

    def test_a_queue_that_empties_before_the_last_period_stalls(self, monkeypatch):
        def stop_everyone(swarm, round_index):
            for peer in swarm.peers.values():
                peer.stop()

        monkeypatch.setattr(LiveSwarm, "_step", stop_everyone)
        spec = builtin_scenario("static").scaled(num_nodes=10, rounds=4, seed=0)
        swarm = LiveSwarm(spec, clock="virtual")
        with pytest.raises(RuntimeError, match="virtual clock stalled"):
            swarm.run()
        assert not swarm._ended
        with pytest.raises(RuntimeError, match="virtual clock stalled"):
            DeliveryQueue(after=lambda: None).advance()
