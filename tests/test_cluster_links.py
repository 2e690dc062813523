"""Unit tests for the cluster's interchangeable links.

:class:`~repro.runtime.cluster.links.SocketLink` is exercised over real
localhost TCP streams inside a single event loop (two fake hosts, one
accepting side, one dialing side), so framing, the hello exchange, the
bounded outbound queue and the disconnect → refund → reconnect →
presume-dead ladder are all tested against genuine sockets — no mocks of
the transport itself.  What a socket delivers is decoded once, on arrival
at the receiving shard's :class:`~repro.runtime.cluster.links.LoopbackLink`
(``TestRoutedArrivals``).
"""

import asyncio
import dataclasses

import pytest

from repro.runtime import LiveSwarm, wire
from repro.runtime.cluster.links import (
    LinkConfig,
    SocketLink,
    dial_shard,
    read_handshake,
    validate_hello,
)
from repro.runtime.transport import TransportConfig
from repro.scenarios import builtin_scenario
from repro.streaming.buffermap import BufferMap

HELLO_A = wire.ShardHello(shard_index=0, num_shards=2, token=42, ring_size=8192)
HELLO_B = wire.ShardHello(shard_index=1, num_shards=2, token=42, ring_size=8192)

#: A valid inner frame to route around (content is irrelevant to links).
PING_FRAME = wire.encode(wire.Ping(sender=7, nonce=1))
DATA_FRAME = wire.encode(wire.SegmentData(sender=7, segment_id=3, size_bits=64))
CREDIT_FRAME = wire.encode(wire.CreditGrant(sender=7, credits=2))


class FakeHost:
    """Records every callback a SocketLink makes on its owning shard."""

    def __init__(self):
        self.routed = []
        self.interrupted = []
        self.restored = []
        self.lost = []
        self.undeliverable = []

    def receive_routed(self, src, dst, payload, data):
        self.routed.append((src, dst, payload, data))

    def on_link_interrupted(self, shard):
        self.interrupted.append(shard)

    def on_link_restored(self, shard):
        self.restored.append(shard)

    def on_link_lost(self, shard):
        self.lost.append(shard)

    def note_undeliverable(self, src, dst, data):
        self.undeliverable.append((src, dst, data))


async def _wait_until(predicate, timeout=5.0, what="condition"):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        await asyncio.sleep(0.01)


async def _make_pair(host_a, host_b, config):
    """A handshaken A(accepts, shard 0) <-> B(dials, shard 1) link pair."""
    link_a = SocketLink(host_a, 1, config=config, hello=HELLO_A)
    link_b = SocketLink(host_b, 0, config=config, hello=HELLO_B)

    async def on_conn(reader, writer):
        msg, decoder, extras = await read_handshake(reader, 5.0)
        validate_hello(msg, HELLO_A, expect_shard=1)
        writer.write(wire.encode(HELLO_A))
        await writer.drain()
        link_a.attach(reader, writer, decoder, tuple(extras))

    server = await asyncio.start_server(on_conn, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    link_b.dial_address = ("127.0.0.1", port)
    reader, writer, decoder, backlog = await dial_shard(
        ("127.0.0.1", port), HELLO_B, expect_shard=0, timeout=5.0
    )
    link_b.attach(reader, writer, decoder, tuple(backlog))
    await _wait_until(lambda: link_a.is_up and link_b.is_up, what="links up")
    return server, link_a, link_b


class TestSocketLinkTransport:
    def test_frames_cross_in_both_directions_with_lane_flags(self):
        async def scenario():
            host_a, host_b = FakeHost(), FakeHost()
            server, link_a, link_b = await _make_pair(host_a, host_b, LinkConfig())
            link_b.send(10, 20, PING_FRAME, data=False)
            link_b.send(11, 21, DATA_FRAME, data=True)
            link_a.send(30, 40, DATA_FRAME, data=True)
            await _wait_until(lambda: len(host_a.routed) == 2 and len(host_b.routed) == 1)
            assert host_a.routed == [
                (10, 20, PING_FRAME, False),
                (11, 21, DATA_FRAME, True),
            ]
            assert host_b.routed == [(30, 40, DATA_FRAME, True)]
            assert link_b.stats.frames_out == 2
            assert link_a.stats.frames_in == 2
            assert link_a.stats.bytes_in == link_b.stats.bytes_out
            link_a.close()
            link_b.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_full_queue_sheds_data_but_never_credit_frames(self):
        async def scenario():
            host = FakeHost()
            # Unattached link (still connecting): everything queues.
            link = SocketLink(host, 1, config=LinkConfig(queue_limit=2), hello=HELLO_A)
            for _ in range(5):
                link.send(1, 2, DATA_FRAME, data=True)
            assert len(host.undeliverable) == 3  # sheds past the limit
            assert link.stats.sheds == 3
            # One-shot control state always queues, even past the limit.
            link.send(1, 2, CREDIT_FRAME, data=False)
            handover = wire.encode(
                wire.Handover(sender=1, segment_ids=(1, 2))
            )
            link.send(1, 2, handover, data=False)
            assert len(host.undeliverable) == 3
            link.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize("sender", [7, 70000], ids=["narrow", "wide"])
    def test_full_queue_takes_one_shot_frames_at_either_width(self, sender):
        """The unsheddable test reads the kind through the codec: a narrow
        credit grant or handover (kind byte with the width bit set) must
        queue past the limit exactly like a wide one."""
        one_shot = [
            wire.encode(wire.CreditGrant(sender=sender, credits=2)),
            wire.encode(wire.Handover(sender=sender, segment_ids=(1, 2))),
        ]
        assert all(
            bool(f[wire.prologue(f)[0]] & wire.NARROW) == (sender < 2**16) for f in one_shot
        )

        async def scenario():
            host = FakeHost()
            link = SocketLink(host, 1, config=LinkConfig(queue_limit=1), hello=HELLO_A)
            link.send(1, 2, DATA_FRAME, data=True)
            link.send(1, 2, PING_FRAME, data=False)  # past the limit: shed
            for frame in one_shot:
                link.send(1, 2, frame, data=False)
            assert host.undeliverable == [(1, 2, False)]
            assert [entry[0] for entry in link._queue] == [DATA_FRAME, *one_shot]
            link.close()

        asyncio.run(scenario())

    def test_dead_link_refunds_every_data_frame(self):
        async def scenario():
            host = FakeHost()
            link = SocketLink(host, 1, config=LinkConfig(), hello=HELLO_A)
            link.close()
            link.send(5, 6, DATA_FRAME, data=True)
            link.send(5, 6, PING_FRAME, data=False)
            assert host.undeliverable == [(5, 6, True), (5, 6, False)]

        asyncio.run(scenario())


class TestSocketLinkRecovery:
    def test_disconnect_refunds_then_reconnect_restores(self):
        async def scenario():
            host_a, host_b = FakeHost(), FakeHost()
            config = LinkConfig(reconnect_attempts=5, reconnect_delay_s=0.05,
                                reconnect_grace_s=2.0)
            server, link_a, link_b = await _make_pair(host_a, host_b, config)
            # Tear the TCP stream down abruptly from A's side.
            link_a._writer.transport.abort()
            await _wait_until(
                lambda: host_b.interrupted == [0] and host_a.interrupted == [1],
                what="both sides refunding",
            )
            # B redials (the server is still up) and both sides recover.
            await _wait_until(
                lambda: link_a.is_up and link_b.is_up, what="links restored"
            )
            assert host_b.restored == [0]
            assert host_b.lost == [] and host_a.lost == []
            assert link_b.stats.reconnects == 1
            # The healed stream carries frames again.
            link_b.send(1, 2, PING_FRAME, data=False)
            await _wait_until(lambda: len(host_a.routed) == 1)
            link_a.close()
            link_b.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_down_link_refunds_data_frames_instead_of_queueing_them(self):
        """Credits must come home even for frames sent during a redial.

        A frame queued while the link is down would be discarded by the
        reconnect (its credit leaking from the freshly reset window), so
        the link must refund data frames immediately in that state —
        while still queueing the one-shot control frames it may never
        lose.
        """

        async def scenario():
            host_a, host_b = FakeHost(), FakeHost()
            config = LinkConfig(reconnect_attempts=5, reconnect_delay_s=0.2,
                                reconnect_grace_s=5.0)
            server, link_a, link_b = await _make_pair(host_a, host_b, config)
            link_a._writer.transport.abort()
            await _wait_until(lambda: host_b.interrupted == [0], what="link down")
            # Down, not dead: data refunds now, one-shot control queues.
            link_b.send(1, 2, DATA_FRAME, data=True)
            assert host_b.undeliverable == [(1, 2, True)]
            link_b.send(1, 2, CREDIT_FRAME, data=False)
            assert len(link_b._queue) == 1
            # The queued credit grant survives the reconnect and crosses.
            await _wait_until(lambda: link_b.is_up, what="link restored")
            await _wait_until(
                lambda: link_a.stats.frames_in >= 1, what="queued frame flushed"
            )
            link_a.close()
            link_b.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_exhausted_reconnects_presume_the_shard_lost(self):
        async def scenario():
            host_a, host_b = FakeHost(), FakeHost()
            config = LinkConfig(reconnect_attempts=2, reconnect_delay_s=0.02,
                                reconnect_grace_s=0.1)
            server, link_a, link_b = await _make_pair(host_a, host_b, config)
            # Kill the server first so redials cannot succeed.
            server.close()
            await server.wait_closed()
            link_a._writer.transport.abort()
            await _wait_until(
                lambda: host_b.lost == [0] and host_a.lost == [1],
                what="both sides presuming the shard dead",
            )
            # Late sends are refused with a refund, not queued forever.
            link_b.send(9, 8, DATA_FRAME, data=True)
            assert host_b.undeliverable[-1] == (9, 8, True)
            link_a.close()
            link_b.close()

        asyncio.run(scenario())


class TestShardHandshake:
    def test_validate_hello_accepts_the_matching_peer(self):
        assert validate_hello(HELLO_B, HELLO_A, expect_shard=1) == HELLO_B

    @pytest.mark.parametrize(
        "bad",
        [
            wire.Ping(sender=1, nonce=2),  # not a hello at all
            wire.ShardHello(shard_index=1, num_shards=2, token=43, ring_size=8192),
            wire.ShardHello(shard_index=1, num_shards=3, token=42, ring_size=8192),
            wire.ShardHello(shard_index=1, num_shards=2, token=42, ring_size=4096),
            wire.ShardHello(shard_index=0, num_shards=2, token=42, ring_size=8192),
            wire.ShardHello(shard_index=5, num_shards=2, token=42, ring_size=8192),
        ],
        ids=["wrong-type", "token", "num-shards", "ring-size", "self", "out-of-range"],
    )
    def test_validate_hello_rejects_mismatches(self, bad):
        with pytest.raises(wire.WireError):
            validate_hello(bad, HELLO_A)

    def test_wrong_expected_shard_is_rejected(self):
        with pytest.raises(wire.WireError):
            validate_hello(HELLO_B, HELLO_A, expect_shard=0)

    def test_dialer_rejects_an_acceptor_from_another_run(self):
        async def scenario():
            async def imposter(reader, writer):
                await read_handshake(reader, 5.0)
                writer.write(
                    wire.encode(
                        wire.ShardHello(
                            shard_index=0, num_shards=2, token=999, ring_size=8192
                        )
                    )
                )
                await writer.drain()

            server = await asyncio.start_server(imposter, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            with pytest.raises(wire.WireError):
                await dial_shard(("127.0.0.1", port), HELLO_B, expect_shard=0, timeout=5.0)
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())


class TestStartAnchor:
    """The coordinator's start instant comes from the ready barrier's
    measured control-pipe deliveries, not from a fixed margin."""

    @pytest.mark.parametrize(
        "deliveries",
        [[], [0.0], [0.0004, 0.0011], [0.3, 0.02, 0.7], [-0.001, 0.002]],
    )
    def test_the_anchor_is_never_earlier_than_a_measured_delivery(self, deliveries):
        from repro.runtime.cluster.coordinator import START_FLOOR_S, start_anchor

        now = 1234.5
        anchor = start_anchor(now, deliveries)
        assert all(anchor >= now + delivery for delivery in deliveries)
        assert anchor >= now + START_FLOOR_S
        assert anchor == now + max([0.0, *deliveries]) + START_FLOOR_S


class TestRoutedArrivals:
    """A frame that crossed a socket is decoded once, on arrival at the
    receiving shard's loopback link, and lands as messages."""

    class _Draws:
        """A loss stream that answers from a script."""

        def __init__(self, draws):
            self.draws = list(draws)

        def random(self):
            return self.draws.pop(0)

    def _swarm(self, loss_rate=0.0, **transport_kw):
        spec = builtin_scenario("static").scaled(num_nodes=10, rounds=2)
        swarm = LiveSwarm(
            dataclasses.replace(spec, loss_rate=loss_rate),
            transport=TransportConfig(**transport_kw),
            clock="virtual",
        ).build()
        receiver, sender = [p for p in swarm.peers.values() if not p.is_source][:2]
        # What lands is under test here, not what the receiver makes of it.
        receiver._drain_inbox = lambda: None
        landed = []
        put = receiver.inbox.put

        def tapped_put(src, payload, control, weight=1):
            landed.append((src, list(payload), control, weight))
            return put(src, payload, control, weight)

        receiver.inbox.put = tapped_put
        return swarm, receiver, sender, landed

    @staticmethod
    def _route(swarm, src, dst, payload, data):
        """Hand ``payload`` to the receiving shard and let it land."""
        swarm.receive_routed(src, dst, payload, data)
        swarm.queue.run_due(float("inf"))

    def test_a_batch_under_loss_lands_its_survivors_charged_as_their_own_batch(self):
        swarm, receiver, sender, landed = self._swarm(loss_rate=0.5)
        segments = [wire.SegmentData(sender.peer_id, sid, 64) for sid in range(1, 6)]
        frames = [wire.encode(msg) for msg in segments]
        batch = wire.encode(wire.FrameBatch(frames=tuple(frames)))
        # frames 0 and 3 are lost (a draw below the loss rate)
        swarm.loss_rng = self._Draws([0.1, 0.9, 0.9, 0.2, 0.9])
        self._route(swarm, sender.peer_id, receiver.peer_id, batch, True)
        survivors = [segments[i] for i in (1, 2, 4)]
        assert landed == [(sender.peer_id, survivors, False, 3)]
        assert swarm.bytes_on_wire == len(
            wire.encode(wire.FrameBatch(frames=tuple(frames[i] for i in (1, 2, 4))))
        )
        assert swarm.messages_dropped == 2
        # each lost frame's credit came home on the network's behalf
        assert receiver._credit_ledger.owed == {sender.peer_id: 2}

    def test_a_lone_survivor_is_charged_as_a_loose_frame(self):
        swarm, receiver, sender, landed = self._swarm(loss_rate=0.5)
        segments = [wire.SegmentData(sender.peer_id, sid, 64) for sid in (1, 2)]
        frames = [wire.encode(msg) for msg in segments]
        swarm.loss_rng = self._Draws([0.9, 0.1])
        batch = wire.encode(wire.FrameBatch(frames=tuple(frames)))
        self._route(swarm, sender.peer_id, receiver.peer_id, batch, True)
        assert landed == [(sender.peer_id, segments[:1], False, 1)]
        assert swarm.bytes_on_wire == len(frames[0])

    def test_a_loose_frame_lands_as_one_message_charged_its_length(self):
        swarm, receiver, sender, landed = self._swarm()
        ping = wire.Ping(sender=sender.peer_id, nonce=4)
        self._route(swarm, sender.peer_id, receiver.peer_id, wire.encode(ping), False)
        assert landed == [(sender.peer_id, [ping], True, 1)]
        assert swarm.bytes_on_wire == len(wire.encode(ping))

    def test_a_shed_control_batch_still_applies_credits_and_map_gossip(self):
        swarm, receiver, sender, landed = self._swarm(inbox_watermark=1, data_window=1)
        segment = wire.SegmentData(receiver.peer_id, 9, 64)
        item = (segment, wire.encode(segment), None)
        assert receiver.send_windows.acquire(sender.peer_id, item)
        assert not receiver.send_windows.acquire(sender.peer_id, item)
        # the control lane is full: whatever lands on it next is shed
        assert receiver.inbox.put(sender.peer_id, [wire.Ping(sender.peer_id, 1)], True)
        snapshot = BufferMap(head_id=0, capacity=600, bits=0b101)
        gossip = wire.BufferMapMsg.from_buffer_map(sender.peer_id, 2, snapshot, seq=1)
        batch = wire.encode(wire.FrameBatch(frames=(
            wire.encode(wire.Ping(sender.peer_id, 2)),
            wire.encode(wire.CreditGrant(sender=sender.peer_id, credits=1)),
            wire.encode(gossip),
        )))
        sent = []
        swarm.deliver = lambda src, dst, msg, frame, data=False: sent.append(msg)
        self._route(swarm, sender.peer_id, receiver.peer_id, batch, False)
        assert receiver.transport_stats.inbox_dropped_control == 3
        # the grant released the parked segment; the ping went unanswered
        assert receiver.send_windows.pending_count() == 0
        assert sent == [segment]
        assert receiver.neighbor_maps[sender.peer_id] == snapshot
        assert receiver.known_newest == 2
