"""The wire fast path, end to end: batching, delta gossip, byte counters.

The codec-level facts (FrameBatch framing, delta/apply equivalence) live
in ``test_runtime_wire*``; this file pins the *transport* behaviour the
fast path must preserve and the savings it must deliver:

* steady-state delta gossip ships at most half the full-map bytes
  (the tier-1 guard for the PR's headline byte saving);
* the ``--no-batch`` / ``--no-delta`` escape hatches change physical
  bytes only — continuity is unaffected within parity tolerance;
* a shed data *batch* refunds every inner frame's credit, and a shed
  control batch still applies the one-shot frames inside it.
"""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.runtime import peer as peer_module
from repro.runtime import wire
from repro.runtime.swarm import LiveSwarm
from repro.runtime.transport import TransportConfig
from repro.scenarios import builtin_scenario


def _run(batching: bool = True, delta_maps: bool = True, **spec_kw):
    spec = builtin_scenario("static").scaled(
        num_nodes=spec_kw.pop("num_nodes", 20),
        rounds=spec_kw.pop("rounds", 12),
    )
    return LiveSwarm(
        spec,
        clock="virtual",
        batching=batching,
        delta_maps=delta_maps,
        **spec_kw,
    ).run()


class TestDeltaGossip:
    def test_steady_state_delta_bytes_at_most_half_of_full(self):
        """The headline saving: once partners sync, gossip ships deltas
        and the physical gossip bytes drop under half the full-map cost
        on a static (no churn, no loss) steady state."""
        result = _run()
        t = result.transport
        assert t.map_deltas_sent > t.map_fulls_sent
        assert t.gossip_bytes_full > 0
        assert t.gossip_bytes <= 0.5 * t.gossip_bytes_full

    def test_no_delta_ships_full_maps_only(self):
        result = _run(delta_maps=False)
        t = result.transport
        assert t.map_deltas_sent == 0
        assert t.map_fulls_sent > 0
        assert t.gossip_bytes == t.gossip_bytes_full

    def test_delta_toggle_preserves_continuity(self):
        """Delta encoding is a wire-size optimisation: every peer must
        see the same neighbour maps, so continuity cannot move."""
        on = _run(delta_maps=True)
        off = _run(delta_maps=False)
        assert on.stable_continuity() == pytest.approx(
            off.stable_continuity(), abs=0.005
        )
        assert on.segments_delivered() > 0

    def test_desync_heals_through_ping_resync(self):
        """Losing delta chain state mid-run (peer churn resets partner
        links) must resync via PING → full map, not wedge gossip."""
        spec = builtin_scenario("flash-crowd").scaled(num_nodes=24, rounds=12)
        result = LiveSwarm(spec, clock="virtual").run()
        t = result.transport
        # churn forces refills: full maps keep flowing alongside deltas
        assert t.map_fulls_sent > 0
        assert t.map_deltas_sent > 0
        assert result.stable_continuity() > 0.5


class TestBatching:
    def test_batching_toggle_preserves_continuity(self):
        # Batched delivery hands the reader whole bursts, so the exact
        # interleaving (and with it the odd request) shifts slightly —
        # the stream itself must not move beyond parity tolerance.
        on = _run(batching=True)
        off = _run(batching=False)
        assert on.stable_continuity() == pytest.approx(
            off.stable_continuity(), abs=0.005
        )
        assert on.segments_delivered() == pytest.approx(
            off.segments_delivered(), rel=0.02
        )

    def test_fast_path_reduces_bytes_on_wire(self):
        """Batching + delta gossip together must shrink physical bytes
        meaningfully below the loose-frame, full-map baseline."""
        fast = _run(batching=True, delta_maps=True)
        plain = _run(batching=False, delta_maps=False)
        assert fast.bytes_on_wire > 0
        assert plain.bytes_on_wire > 0
        assert fast.bytes_on_wire <= 0.85 * plain.bytes_on_wire

    def test_messages_sent_counts_logical_frames(self):
        """Batching is invisible to the paper-facing message count: the
        same logical traffic flows (within the interleaving wiggle), yet
        the physical bytes drop — the envelope itself is never counted."""
        on = _run(batching=True)
        off = _run(batching=False)
        assert on.messages_sent == pytest.approx(off.messages_sent, rel=0.02)
        assert on.bytes_on_wire < off.bytes_on_wire


class TestBatchShedding:
    def _swarm_and_peers(self, **transport_kw):
        swarm = LiveSwarm(
            builtin_scenario("static").scaled(num_nodes=10, rounds=2),
            transport=TransportConfig(**transport_kw),
            clock="virtual",
        ).build()
        peers = [p for p in swarm.peers.values() if not p.is_source]
        return swarm, peers[0], peers[1]

    def test_shed_data_batch_refunds_every_inner_credit(self):
        """A data batch of k frames shed at a full lane refunds k
        credits — the weighted-inbox analogue of PR 4's refund rule."""
        swarm, receiver, sender = self._swarm_and_peers(inbox_watermark=1)
        frame = wire.encode(
            wire.SegmentData(sender=sender.peer_id, segment_id=1, size_bits=8)
        )
        batch = wire.encode(wire.FrameBatch(frames=(frame, frame, frame)))

        async def deliver():
            # fill the data lane, then land a 3-frame batch on it
            assert receiver.inbox.put(sender.peer_id, frame, control=False)
            swarm.loopback._deliver_now(
                sender.peer_id, receiver.peer_id, batch, data=True
            )

        asyncio.run(deliver())
        stats = receiver.transport_stats
        assert stats.inbox_dropped_data == 3
        assert receiver._credit_ledger.owed.get(sender.peer_id, 0) == 3

    def test_shed_control_batch_applies_one_shot_frames(self):
        """A credit grant inside a shed control batch must still reach
        the window, exactly as it would travelling loose."""
        swarm, receiver, other = self._swarm_and_peers(data_window=1)
        assert receiver.send_windows.acquire(other.peer_id, (b"f1", None))
        assert not receiver.send_windows.acquire(other.peer_id, (b"f2", None))
        assert receiver.send_windows.pending_count() == 1
        grant = wire.encode(wire.CreditGrant(sender=other.peer_id, credits=1))
        ping = wire.encode(wire.Ping(sender=other.peer_id, nonce=9))
        batch = wire.encode(wire.FrameBatch(frames=(ping, grant)))

        async def shed():
            swarm.loop = asyncio.get_running_loop()
            receiver.absorb_shed_control(batch)

        asyncio.run(shed())
        assert receiver.send_windows.pending_count() == 0

    def test_shed_control_decodes_only_the_one_shot_kinds(self):
        """Shedding is the overload path: a kind byte that is not a
        credit, handover or map is skipped without decoding its body —
        here a body-less PING that ``decode`` itself would reject."""
        swarm, receiver, other = self._swarm_and_peers()
        bad_ping = struct.pack(">IB", 1, wire.WireKind.PING)
        with pytest.raises(wire.WireError):
            wire.decode(bad_ping)
        grant = wire.encode(wire.CreditGrant(sender=other.peer_id, credits=2))
        batch = wire.encode(wire.FrameBatch(frames=(bad_ping, grant)))
        link = receiver.send_windows.link(other.peer_id)
        assert receiver.send_windows.acquire(other.peer_id, (b"f1", None))
        assert receiver.send_windows.acquire(other.peer_id, (b"f2", None))
        spent = link.credits

        async def shed():
            swarm.loop = asyncio.get_running_loop()
            receiver.absorb_shed_control(bad_ping)
            receiver.absorb_shed_control(batch)

        asyncio.run(shed())
        assert link.credits == spent + 2

    def test_a_malformed_batch_dispatches_none_of_its_inner_frames(self, monkeypatch):
        """The reader validates a whole batch before acting on any of it:
        two good pings ahead of a corrupt entry are not answered."""
        swarm, receiver, sender = self._swarm_and_peers()
        ping = wire.encode(wire.Ping(sender=sender.peer_id, nonce=1))
        batch = bytearray(wire.encode(wire.FrameBatch(frames=(ping, ping, ping))))
        batch[-len(ping) + 4] = 0xEE  # the last entry's kind byte
        handled = []
        monkeypatch.setitem(
            peer_module._DISPATCH, wire.Ping, lambda peer, msg: handled.append(msg)
        )
        receiver.inbox.put(sender.peer_id, bytes(batch), control=True, weight=3)
        with pytest.raises(wire.WireError):
            receiver._drain_inbox()
        assert handled == []
        # the same batch, undamaged, dispatches all three
        good = wire.encode(wire.FrameBatch(frames=(ping, ping, ping)))
        receiver.inbox.put(sender.peer_id, good, control=True, weight=3)
        receiver._drain_inbox()
        assert handled == [wire.Ping(sender.peer_id, 1)] * 3

    def test_weighted_inbox_admits_then_bounds(self):
        """Check-then-admit: a batch is admitted while the lane is under
        the watermark (bounded overshoot by one batch), and blocks the
        lane for followers until drained."""
        swarm, receiver, sender = self._swarm_and_peers(inbox_watermark=2)
        frame = wire.encode(
            wire.SegmentData(sender=sender.peer_id, segment_id=1, size_bits=8)
        )
        batch = wire.encode(wire.FrameBatch(frames=(frame, frame, frame)))
        inbox = receiver.inbox
        assert inbox.put(sender.peer_id, batch, control=False, weight=3)
        assert len(inbox) == 3
        # the lane is now over its watermark: loose followers shed
        assert not inbox.put(sender.peer_id, frame, control=False)
        assert receiver.transport_stats.inbox_dropped_data == 1
