"""The wire fast path, end to end: batching, delta gossip, byte counters.

The codec-level facts (FrameBatch framing, delta/apply equivalence) live
in ``test_runtime_wire*``; this file pins the *transport* behaviour the
fast path must preserve and the savings it must deliver:

* steady-state delta gossip ships at most half the full-map bytes
  (the tier-1 guard for the headline byte saving), and a broken delta
  chain heals through the PING resync — a partner's PING is answered
  with the gossiped snapshot, or the live map before the first gossip;
* a shed data group refunds every inner frame's credit, and a shed
  control group still applies the one-shot messages inside it;
* a pass sends one pull frame per supplier, a supplier serves a pull
  list in order and refuses the rest in one NACK, and a NACK list is
  rerouted id by id.
"""

from __future__ import annotations

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
            swarm, "deliver", lambda src, dst, msg, frame, data=False: sent.append((dst, frame))
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

        def deliver(src, dst, msg, frame, data=False):
            assert src == peer.peer_id
            assert wire.decode_frame(frame) == (msg,)
            sent.append((dst, msg, data))

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

    @staticmethod
    def _pending(receiver, sender):
        """A segment ``receiver`` would ship to ``sender``: a pending item."""
        segment = wire.SegmentData(sender=receiver.peer_id, segment_id=1, size_bits=8)
        return (segment, wire.encode(segment), None)

    def _starve(self, receiver, other):
        """Spend the one credit towards ``other`` and park a segment."""
        assert receiver.send_windows.acquire(other.peer_id, self._pending(receiver, other))
        assert not receiver.send_windows.acquire(other.peer_id, self._pending(receiver, other))
        assert receiver.send_windows.pending_count() == 1

    def test_shed_data_batch_refunds_every_inner_credit(self):
        """A data group of k frames shed at a full lane refunds k
        credits — the weighted-inbox analogue of PR 4's refund rule."""
        swarm, receiver, sender = self._swarm_and_peers(inbox_watermark=1)
        msg = wire.SegmentData(sender=sender.peer_id, segment_id=1, size_bits=8)
        frame = wire.encode(msg)
        batch = wire.encode(wire.FrameBatch(frames=(frame, frame, frame)))

        # fill the data lane, then land a 3-frame group on it
        assert receiver.inbox.put(sender.peer_id, [msg], control=False)
        swarm.loopback._land(sender.peer_id, receiver.peer_id, [msg] * 3, True, len(batch))
        stats = receiver.transport_stats
        assert stats.inbox_dropped_data == 3
        assert receiver._credit_ledger.owed.get(sender.peer_id, 0) == 3
        assert swarm.bytes_on_wire == len(batch)

    def test_shed_control_batch_applies_one_shot_frames(self):
        """A credit grant inside a shed control group must still reach
        the window, exactly as it would travelling loose."""
        swarm, receiver, other = self._swarm_and_peers(data_window=1)
        self._starve(receiver, other)
        grant = wire.CreditGrant(sender=other.peer_id, credits=1)
        ping = wire.Ping(sender=other.peer_id, nonce=9)

        receiver.absorb_shed_control([ping, grant])
        assert receiver.send_windows.pending_count() == 0

    @pytest.mark.parametrize("batched", [False, True], ids=["loose", "batched"])
    def test_shed_narrow_credit_map_and_delta_are_absorbed(self, batched):
        """Messages whose frames are narrow are absorbed like any other:
        a credit reaches the window, a full map anchors the sender's
        gossip chain and the delta after it applies — shed one per entry
        or all in one group."""
        swarm, receiver, other = self._swarm_and_peers(data_window=1)
        self._starve(receiver, other)
        base = BufferMap(head_id=0, capacity=600, bits=0b1011)
        new = BufferMap(head_id=2, capacity=600, bits=0b1110)
        messages = [
            wire.CreditGrant(sender=other.peer_id, credits=1),
            wire.BufferMapMsg.from_buffer_map(other.peer_id, 5, base, seq=1),
            wire.BufferMapDelta.from_maps(other.peer_id, 2, 7, new, base),
        ]
        frames = [wire.encode(msg) for msg in messages]
        assert all(frame[wire.prologue(frame)[0]] & wire.NARROW for frame in frames)
        entries = [messages] if batched else [[msg] for msg in messages]

        for entry in entries:
            receiver.absorb_shed_control(entry)
        assert receiver.send_windows.pending_count() == 0
        assert receiver.neighbor_maps[other.peer_id] == new
        assert receiver.transport_stats.map_desyncs == 0
        assert receiver.known_newest == 7

    def test_shed_control_applies_only_the_absorbed_kinds(self, monkeypatch):
        """Shedding is the overload path: a shed PING is not answered and
        a shed request is not served, while the credit beside them is
        applied."""
        swarm, receiver, other = self._swarm_and_peers()
        handled = []
        for kind in (wire.Ping, wire.SegmentRequest):
            monkeypatch.setitem(
                peer_module._DISPATCH, kind, lambda peer, msg: handled.append(msg)
            )
        link = receiver.send_windows.link(other.peer_id)
        assert receiver.send_windows.acquire(other.peer_id, self._pending(receiver, other))
        assert receiver.send_windows.acquire(other.peer_id, self._pending(receiver, other))
        spent = link.credits

        receiver.absorb_shed_control([
            wire.Ping(sender=other.peer_id, nonce=1),
            wire.SegmentRequest(sender=other.peer_id, segment_id=3),
            wire.CreditGrant(sender=other.peer_id, credits=2),
        ])
        assert handled == []
        assert link.credits == spent + 2

    def test_a_malformed_batch_dispatches_none_of_its_inner_frames(self, monkeypatch):
        """A routed batch is decoded whole on arrival, before any of it
        lands: two good pings ahead of a corrupt entry are not answered."""
        swarm, receiver, sender = self._swarm_and_peers()
        ping = wire.encode(wire.Ping(sender=sender.peer_id, nonce=1))
        batch = bytearray(wire.encode(wire.FrameBatch(frames=(ping, ping, ping))))
        batch[-len(ping) + 1] = 0xEE  # the last entry's kind byte, after its prefix
        handled = []
        monkeypatch.setitem(
            peer_module._DISPATCH, wire.Ping, lambda peer, msg: handled.append(msg)
        )

        def route(frame):
            swarm.loopback.send_routed(sender.peer_id, receiver.peer_id, frame, False)
            swarm.queue.run_due(float("inf"))

        with pytest.raises(wire.WireError):
            route(bytes(batch))
        assert handled == [] and len(swarm.queue) == 0
        # the same batch, undamaged, dispatches all three
        route(wire.encode(wire.FrameBatch(frames=(ping, ping, ping))))
        assert handled == [wire.Ping(sender.peer_id, 1)] * 3

    def test_weighted_inbox_admits_then_bounds(self):
        """Check-then-admit: a group is admitted while the lane is under
        the watermark (bounded overshoot by one group), and blocks the
        lane for followers until drained."""
        swarm, receiver, sender = self._swarm_and_peers(inbox_watermark=2)
        msg = wire.SegmentData(sender=sender.peer_id, segment_id=1, size_bits=8)
        inbox = receiver.inbox
        assert inbox.put(sender.peer_id, [msg] * 3, control=False, weight=3)
        assert len(inbox) == 3
        # the lane is now over its watermark: loose followers shed
        assert not inbox.put(sender.peer_id, [msg], control=False)
        assert receiver.transport_stats.inbox_dropped_data == 1
