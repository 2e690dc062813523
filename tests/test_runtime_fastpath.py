"""The wire fast path, end to end: batching, delta gossip, byte counters.

The codec-level facts (FrameBatch framing, delta/apply equivalence) live
in ``test_runtime_wire*``; this file pins the *transport* behaviour the
fast path must preserve and the savings it must deliver:

* steady-state delta gossip ships at most half the full-map bytes
  (the tier-1 guard for the headline byte saving), and a broken delta
  chain heals through the PING resync — a partner's PING is answered
  with the gossiped snapshot, or the live map before the first gossip;
* a shed data *batch* refunds every inner frame's credit, and a shed
  control batch still applies the one-shot frames inside it;
* a pass sends one pull frame per supplier, a supplier serves a pull
  list in order and refuses the rest in one NACK, and a NACK list is
  rerouted id by id.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.net.message import MessageKind
from repro.runtime import peer as peer_module
from repro.runtime import wire
from repro.runtime.swarm import LiveSwarm
from repro.runtime.transport import TransportConfig
from repro.scenarios import builtin_scenario
from repro.streaming.buffermap import BufferMap


class TestDeltaGossip:
    def test_steady_state_delta_bytes_at_most_half_of_full(self):
        """The headline saving: once partners sync, gossip ships deltas
        and the physical gossip bytes drop under half the full-map cost
        on a static (no churn, no loss) steady state."""
        spec = builtin_scenario("static").scaled(num_nodes=20, rounds=12)
        t = LiveSwarm(spec, clock="virtual").run().transport
        assert t.map_deltas_sent > t.map_fulls_sent
        assert t.gossip_bytes_full > 0
        assert t.gossip_bytes <= 0.5 * t.gossip_bytes_full

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


class TestPingResync:
    """A partner's PING is answered with a full map that anchors its chain."""

    def _peer_partner_outbox(self, monkeypatch):
        """A built peer, one partner, and the ``(dst, frame)`` pairs the
        peer puts on the wire."""
        swarm = LiveSwarm(
            builtin_scenario("static").scaled(num_nodes=10, rounds=2), clock="virtual"
        ).build()
        peer = next(p for p in swarm.peers.values() if not p.is_source and p.node.neighbors)
        partner = next(iter(peer.node.neighbors))
        sent = []
        monkeypatch.setattr(
            swarm, "deliver", lambda src, dst, frame, data=False: sent.append((dst, frame))
        )
        return peer, partner, sent

    def test_before_first_gossip_the_reply_is_the_live_map(self, monkeypatch):
        peer, partner, sent = self._peer_partner_outbox(monkeypatch)
        assert peer._last_gossip is None
        peer._on_ping(wire.Ping(sender=partner, nonce=7))
        expected = wire.BufferMapMsg.from_buffer_map(
            peer.peer_id, peer.known_newest, peer.node.buffer_map()
        )
        assert sent == [
            (partner, wire.encode(wire.Pong(sender=peer.peer_id, nonce=7))),
            (partner, wire.encode(expected)),
        ]
        assert peer.ledger.count_of(MessageKind.BUFFER_MAP) == 1
        # no gossiped snapshot yet, so no delta chain is anchored
        assert partner not in peer._map_synced
        stats = peer.transport_stats
        assert stats.map_fulls_sent == 1
        assert stats.gossip_bytes == stats.gossip_bytes_full == len(wire.encode(expected))

    def test_after_gossip_the_reply_is_the_gossiped_snapshot(self, monkeypatch):
        peer, partner, sent = self._peer_partner_outbox(monkeypatch)
        snapshot = peer.node.buffer_map()
        peer._last_gossip = (4, snapshot)
        peer._on_ping(wire.Ping(sender=partner, nonce=1))
        (_, reply) = sent[-1]
        assert reply == wire.encode(
            wire.BufferMapMsg.from_buffer_map(peer.peer_id, peer.known_newest, snapshot, seq=4)
        )
        # the next periodic delta (seq 5) now applies at the partner
        assert peer._map_synced[partner] == 4

    def test_a_stranger_gets_only_a_pong(self, monkeypatch):
        peer, _, sent = self._peer_partner_outbox(monkeypatch)
        stranger = next(
            pid for pid in peer.swarm.peers
            if pid != peer.peer_id and pid not in peer.node.neighbors
        )
        peer._on_ping(wire.Ping(sender=stranger, nonce=3))
        assert sent == [(stranger, wire.encode(wire.Pong(sender=peer.peer_id, nonce=3)))]
        assert peer.transport_stats.map_fulls_sent == 0


class TestPullLists:
    """One ``SegmentRequest`` per supplier per pass, one ``SegmentNack``
    per refused request: the same pulls, in the same order, in fewer frames."""

    def _peer(self, monkeypatch, partners=1):
        """A built peer with ``partners`` partners and the ``(dst, message,
        data)`` triples it puts on the wire."""
        swarm = LiveSwarm(
            builtin_scenario("static").scaled(num_nodes=10, rounds=2), clock="virtual"
        ).build()
        peer = next(
            p for p in swarm.peers.values()
            if not p.is_source and len(p.node.neighbors) >= partners
        )
        sent = []

        def deliver(src, dst, frame, data=False):
            assert src == peer.peer_id
            sent.extend((dst, msg, data) for msg in wire.decode_frame(frame))

        monkeypatch.setattr(swarm, "deliver", deliver)
        return peer, sent

    def test_supplier_ships_what_its_tokens_allow_then_refuses_the_rest_at_once(
        self, monkeypatch
    ):
        supplier, sent = self._peer(monkeypatch)
        requester = next(pid for pid in supplier.swarm.peers if pid != supplier.peer_id)
        for sid in range(1, 6):
            supplier.node.buffer.add(sid)
        supplier.outbound_tokens = 2.0
        supplier._on_segment_request(
            wire.SegmentRequest(sender=requester, segment_id=1, trace_id=7,
                                more=((2, 0), (3, 8), (4, 0), (5, 0)))
        )
        bits = supplier.config.segment_bits
        assert sent == [
            (requester, wire.SegmentData(supplier.peer_id, 1, bits, trace_id=7), True),
            (requester, wire.SegmentData(supplier.peer_id, 2, bits), True),
            (requester, wire.SegmentNack(supplier.peer_id, 3, trace_id=8,
                                         more=((4, 0), (5, 0))), False),
        ]
        assert supplier.outbound_tokens == 0.0

    def test_a_missing_segment_is_refused_while_later_ones_are_served(self, monkeypatch):
        supplier, sent = self._peer(monkeypatch)
        requester = next(pid for pid in supplier.swarm.peers if pid != supplier.peer_id)
        supplier.node.buffer.add(2)
        supplier._on_segment_request(
            wire.SegmentRequest(sender=requester, segment_id=1, more=((2, 0), (3, 0)))
        )
        assert sent == [
            (requester, wire.SegmentData(supplier.peer_id, 2, supplier.config.segment_bits), True),
            (requester, wire.SegmentNack(supplier.peer_id, 1, more=((3, 0),)), False),
        ]

    def test_a_nack_list_reroutes_each_id_grouped_by_fallback(self, monkeypatch):
        peer, sent = self._peer(monkeypatch, partners=3)
        refuser, first, second = list(peer.node.neighbors)[:3]
        peer.neighbor_maps = {
            refuser: BufferMap(0, 16, bits=0b1110),  # segments 1, 2, 3
            first: BufferMap(0, 16, bits=0b1010),  # 1, 3
            second: BufferMap(0, 16, bits=0b0100),  # 2
        }
        peer._on_segment_nack(
            wire.SegmentNack(sender=refuser, segment_id=1, more=((2, 0), (3, 5)))
        )
        assert sent == [
            (first, wire.SegmentRequest(peer.peer_id, 1, more=((3, 5),)), False),
            (second, wire.SegmentRequest(peer.peer_id, 2), False),
        ]
        assert peer._nack_tried == {1: {refuser}, 2: {refuser}, 3: {refuser}}

    def test_a_scheduling_pass_sends_one_frame_per_supplier(self, monkeypatch):
        peer, sent = self._peer(monkeypatch, partners=3)
        node = peer.node
        peer.neighbor_maps = {n: BufferMap(0, 60, bits=(1 << 40) - 1) for n in node.neighbors}
        peer.known_newest = 39
        plans = []
        plan = node.plan_requests
        monkeypatch.setattr(
            node, "plan_requests", lambda *args: plans.append(plan(*args)) or plans[-1]
        )
        peer._schedule_requests()
        by_supplier = {}
        for request in plans[0]:
            by_supplier.setdefault(request.supplier_id, []).append((request.segment_id, 0))
        assert max(len(pulls) for pulls in by_supplier.values()) > 1
        assert [(dst, msg.pulls()) for dst, msg, _ in sent] == [
            (dst, tuple(pulls)) for dst, pulls in by_supplier.items()
        ]
        assert all(isinstance(msg, wire.SegmentRequest) for _, msg, _ in sent)


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

    @pytest.mark.parametrize("batched", [False, True], ids=["loose", "batched"])
    def test_shed_narrow_credit_map_and_delta_are_absorbed(self, batched):
        """Narrow frames (kind byte with the width bit) are absorbed like
        wide ones: a credit reaches the window, a full map anchors the
        sender's gossip chain and the delta after it applies."""
        swarm, receiver, other = self._swarm_and_peers(data_window=1)
        assert receiver.send_windows.acquire(other.peer_id, (b"f1", None))
        assert not receiver.send_windows.acquire(other.peer_id, (b"f2", None))
        base = BufferMap(head_id=0, capacity=600, bits=0b1011)
        new = BufferMap(head_id=2, capacity=600, bits=0b1110)
        frames = [
            wire.encode(wire.CreditGrant(sender=other.peer_id, credits=1)),
            wire.encode(wire.BufferMapMsg.from_buffer_map(other.peer_id, 5, base, seq=1)),
            wire.encode(wire.BufferMapDelta.from_maps(other.peer_id, 2, 7, new, base)),
        ]
        assert all(frame[wire.prologue(frame)[0]] & wire.NARROW for frame in frames)
        if batched:
            frames = [wire.encode(wire.FrameBatch(frames=tuple(frames)))]

        async def shed():
            swarm.loop = asyncio.get_running_loop()
            for frame in frames:
                receiver.absorb_shed_control(frame)

        asyncio.run(shed())
        assert receiver.send_windows.pending_count() == 0
        assert receiver.neighbor_maps[other.peer_id] == new
        assert receiver.transport_stats.map_desyncs == 0
        assert receiver.known_newest == 7

    def test_shed_control_decodes_only_the_one_shot_kinds(self):
        """Shedding is the overload path: a kind byte that is not a
        credit, handover or map is skipped without decoding its body —
        here a body-less PING that ``decode`` itself would reject."""
        swarm, receiver, other = self._swarm_and_peers()
        bad_ping = bytes([1, wire.WireKind.PING])  # a one-byte payload: the kind alone
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
        batch[-len(ping) + 1] = 0xEE  # the last entry's kind byte, after its prefix
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
