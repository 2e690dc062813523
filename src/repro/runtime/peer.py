"""The live peer: period-boundary and inbox callbacks for one overlay node.

A :class:`LivePeer` adapts the passive :class:`~repro.core.node.StreamingNode`
state machine (and its ContinuStreaming specialisation) to an event-driven
life: instead of a global round barrier, each peer owns

* a **bounded inbox** (:class:`~repro.runtime.transport.BoundedInbox`) of
  wire messages — control on a priority lane ahead of segment data —
  drained once at the end of every instant something landed in it (the
  swarm's delivery queue, see :class:`~repro.runtime.clock.
  DeliveryQueue`); nothing decodes here: an entry is the list of messages
  one group landed (a sender in this process hands over the message it
  encoded, a frame that crossed a socket was decoded by the link), and
  each message is dispatched and credit-accounted individually;
* a **credit-gated send window per link**
  (:class:`~repro.runtime.transport.SendWindowSet`): at most
  ``data_window`` unconsumed segments in flight towards any one receiver;
  further segments wait in a bounded pending queue until the receiver
  returns credits with :class:`~repro.runtime.wire.CreditGrant` control
  frames (batched as it consumes data, flushed at period boundaries);
* a **period tick** (:meth:`LivePeer.tick`) that the swarm's boundary
  entry calls once every scheduling period ``τ`` (scaled by the swarm's
  time factor; peers tick in a drawn order, see :meth:`~repro.runtime.
  swarm.LiveSwarm.file`) and that performs the same work the round
  pipeline's phases do for it in the simulator — playback, buffer-map
  gossip, data scheduling, urgent-line prediction — except that
  everything leaves the peer as serialized wire messages and everything
  arrives asynchronously whenever the (latency-delayed) transport delivers
  it;
* a **send budget**: a per-period token bucket refilled to
  ``outbound_rate · τ``, which paces segment uploads exactly like the
  simulator's per-period outbound budgets;
* a private :class:`~repro.net.message.MessageLedger` charged via
  :func:`~repro.runtime.wire.ledger_entry`, merged swarm-wide only after
  shutdown (no shared mutable state between peers).

The peer reuses the node's decision logic verbatim: ``plan_requests`` runs
the paper's Algorithm 1 over the *received* buffer-map messages (which are
genuine snapshots — a segment delivered mid-period only becomes visible to
neighbours in the next gossip), and ``predict_missed`` runs the urgent-line
prediction whose missed segments the peer then locates by routing real
DHT lookup frames hop by hop through the other peers.
"""

from __future__ import annotations

import itertools
import time
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.continu import ContinuStreamingNode
from repro.core.node import StreamingNode
from repro.core.phases.ondemand import Lookup
from repro.dht.routing import next_hop
from repro.net.message import MessageLedger
from repro.runtime import wire
from repro.runtime.transport import (
    BoundedInbox,
    CreditLedger,
    Payload,
    SendWindowSet,
    TransportStats,
)
from repro.streaming.buffermap import BufferMap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.runtime.swarm import LiveSwarm


class LivePeer:
    """One overlay peer: callbacks the swarm's delivery queue calls
    (period boundaries, phases, the drain of what landed).

    Args:
        node: the protocol node (built by the
            :class:`~repro.core.overlay.OverlayManager`, so topology,
            bandwidth and peer tables match the simulator's construction).
        swarm: the orchestrator, providing transport, clocking and the
            shared latency/overhearing services.
        first_tick: global period index at which this peer starts living
            (0 for the boot population, the join period for churned-in
            peers) — a peer tallies its playback under the global tick,
            so the swarm counts continuity per period.
    """

    def __init__(self, node: StreamingNode, swarm: "LiveSwarm", first_tick: int = 0) -> None:
        self.node = node
        self.peer_id: int = node.node_id
        self.is_source: bool = node.is_source
        self.swarm = swarm
        self.config = swarm.config
        self.first_tick = int(first_tick)
        self.ledger = MessageLedger()
        transport = swarm.transport
        self.transport_stats = TransportStats()
        self.inbox = BoundedInbox(transport.inbox_watermark, self.transport_stats)
        # Files this peer for the drain that ends the current instant.
        self.inbox.bind_ready(partial(swarm.landed.append, self))
        self.send_windows = SendWindowSet(transport, self.transport_stats)
        self._credit_ledger = CreditLedger(transport.credit_batch)
        self.neighbor_maps: Dict[int, BufferMap] = {}
        #: Gossip sequence number of each partner's stored map — a
        #: :class:`~repro.runtime.wire.BufferMapDelta` with ``seq = s``
        #: only applies when the stored map is at ``s - 1``.
        self._neighbor_map_seq: Dict[int, int] = {}
        #: Monotone counter over this peer's own gossip snapshots.
        self._gossip_seq = 0
        #: The last gossiped ``(seq, snapshot)`` — the base the next
        #: period's delta is diffed against (``None`` before first gossip).
        self._last_gossip: Optional[Tuple[int, BufferMap]] = None
        #: Per-partner last snapshot seq we shipped them (full or via an
        #: unbroken delta chain); a partner not at ``seq - 1`` gets a full
        #: map instead of a delta.
        self._map_synced: Dict[int, int] = {}
        #: Partners whose buffer map arrived since this period's boundary —
        #: the readiness signal the adaptive mid-period phasing waits on.
        self._maps_this_period: set = set()
        self.known_newest: int = -1
        period = self.config.scheduling_period
        self.outbound_tokens: float = node.outbound_rate * period
        #: The period currently open (set at each boundary); deferred
        #: mid-period/rescue callbacks from an earlier period abandon
        #: themselves when a newer boundary has passed.
        self._current_tick = -1
        #: Length of the currently open period — normally the scheduling
        #: period, but shorter when the boundary ran late (a joiner
        #: admitted mid-period, an overloaded loop): the intra-period
        #: chain compresses into what actually remains.
        self._period_span = self.config.scheduling_period
        self._delivered: Dict[int, int] = {}
        self._requested: set = set()
        self._nack_tried: Dict[int, set] = {}
        #: In-flight DHT location steps by segment id.
        self._dht_pending: Dict[int, Lookup] = {}
        self._prefetch_deadlines: Dict[int, float] = {}
        self._ping_nonce = itertools.count(1)
        self.stopped = False
        #: The swarm's observability plane (the no-op ``NULL_OBS`` when
        #: disabled — every instrumented site guards on ``obs.enabled`` /
        #: ``obs.tracing`` so the disabled cost is one attribute read).
        self.obs = swarm.obs
        #: Requester-side journey state of sampled traces, keyed by
        #: segment id: resolved to play/miss at the period boundary.
        self._trace_live: Dict[int, Dict[str, Any]] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "source" if self.is_source else "peer"
        return f"<LivePeer {role} id={self.peer_id} tick={self._current_tick}>"

    # ----------------------------------------------------------------- lifecycle
    def tick(self, tick: int) -> None:
        """Period boundary ``tick``: close the previous period (unless
        ``tick`` is this peer's first) and open the next one.  The swarm's
        boundary entry calls it (:meth:`~repro.runtime.swarm.LiveSwarm.file`)."""
        if tick > self.first_tick:
            self._period_end(tick - 1)
        self._period_start(tick)

    def stop(self) -> None:
        """Leave the swarm: a boundary, drain or phase still queued for
        this peer finds ``stopped`` set and drops its work."""
        self.stopped = True

    def announce_join(self) -> None:
        """Membership traffic of a newly joined peer: PING every neighbour."""
        for nbr in self.node.neighbors:
            self._send(nbr, wire.Ping(sender=self.peer_id, nonce=next(self._ping_nonce)))

    def send_handover(self) -> None:
        """Graceful leave: ship the VoD backup to the successor over the wire."""
        if not isinstance(self.node, ContinuStreamingNode):
            return
        successor = self.swarm.successor_of(self.peer_id)
        if successor is None:
            return
        self._send(
            successor,
            wire.Handover(
                sender=self.peer_id,
                segment_ids=tuple(self.node.handover_backup()),
            ),
        )

    # ------------------------------------------------------------------- sending
    def _send(self, dst: int, msg: wire.WireMessage) -> None:
        """Encode and ship one control message (never credit-gated)."""
        self._ship(dst, msg, wire.encode(msg), wire.ledger_entry(msg), False)

    def _send_segment(self, dst: int, msg: wire.SegmentData) -> None:
        """Encode and ship one segment, respecting the link's flow control.

        Segment data must hold a link credit first — without one it waits
        in the bounded pending queue and is only charged when it actually
        leaves (:meth:`_on_credit` releases it), so shed segments never
        distort the overhead metrics.
        """
        entry = wire.ledger_entry(msg)
        frame = wire.encode(msg)
        if not self.send_windows.acquire(dst, (msg, frame, entry)):
            if msg.trace_id and self.obs.tracing:
                # Credit-starved: parked in the pending queue; the
                # deliver span's gap attributes the wait.
                self.obs.span("queue", msg.trace_id, self.peer_id, msg.segment_id, dst=dst)
            return
        if msg.trace_id and self.obs.tracing:
            via = self.swarm.shard_of(dst)
            if via == self.swarm.shard_index:
                self.obs.span("ship", msg.trace_id, self.peer_id, msg.segment_id, dst=dst)
            else:
                self.obs.span(
                    "ship", msg.trace_id, self.peer_id, msg.segment_id,
                    dst=dst, via_shard=via,
                )
        self._ship(dst, msg, frame, entry, True)

    def _ship(self, dst: int, msg: wire.WireMessage, frame: bytes, entry, data: bool) -> None:
        """Charge and hand over one message with the frame encoded for it."""
        if data:
            # The uplink budget is spent when a segment actually leaves —
            # a frame parked in the pending queue (and possibly shed
            # there) must not burn this period's tokens, or the supplier
            # under-counts its own capacity and NACKs requests it could
            # in fact serve (the simulator charges the serving round's
            # budget the same way).
            self.outbound_tokens -= 1.0
        if entry is not None:
            self.ledger.record(entry[0], entry[1])
        self.swarm.deliver(self.peer_id, dst, msg, frame, data)

    # ------------------------------------------------------------------ receiving
    def _drain_inbox(self) -> None:
        """Dispatch everything queued, control lane first.

        The swarm calls it once at the end of each instant something
        landed in.  Every entry is a list of messages.  An exception from
        a handler is not caught here: it fails the run (see
        ``LiveSwarm.run_async``) instead of leaving this peer deaf.
        """
        if self.stopped:
            return
        node = self.node
        handler_of = _DISPATCH.get
        for src, messages, was_control in self.inbox.take_batch():
            for msg in messages:
                if node.alive:
                    # Anything unhandled (PONG liveness confirmations)
                    # is ignored.
                    handler = handler_of(type(msg))
                    if handler is not None:
                        handler(self, msg)
                if not was_control:
                    # One data frame consumed: owe its sender a credit
                    # and return a batch once enough have accumulated.
                    self._consume_data_credit(src)

    def _consume_data_credit(self, src: int) -> None:
        if self._credit_ledger.consume(src):
            self._grant_credits(src)

    def note_shed_data(self, src: int, count: int = 1) -> None:
        """The transport shed ``count`` data frames bound for this peer.

        The credits the sender spent on them must still flow back, or the
        link would wedge with the window permanently short; a shed frame
        counts exactly like a consumed one for flow control.  A shed
        :class:`~repro.runtime.wire.FrameBatch` refunds every inner data
        frame's credit (``count`` > 1).
        """
        for _ in range(count):
            self._consume_data_credit(src)

    def refund_data_credit(self, dst: int) -> None:
        """A data frame towards ``dst`` died before any receiver saw it.

        The cluster transport calls this when a socket link sheds or
        drops an outbound segment (full queue, dead shard): the receiver
        that would normally count the frame as consumed and grant the
        credit back no longer exists for it, so the sender refunds
        itself.  Applied as a self-granted credit, which also releases
        the next pending segment (that one may meet the same fate — the
        chain terminates because every step permanently drains the
        bounded pending queue).
        """
        self._on_credit(wire.CreditGrant(sender=dst, credits=1))

    def reset_partner_link(self, dst: int) -> None:
        """Forget all per-link state towards ``dst`` (departure or drop).

        Resets the credit window (refunding in-flight credits, counted in
        ``link_resets``) *and* the delta-gossip sync mark: whatever map
        snapshot ``dst`` held is gone or stale, so the next gossip towards
        that ring id must ship a full map, not a delta.
        """
        self.send_windows.reset(dst)
        self._map_synced.pop(dst, None)

    def absorb_shed_control(self, messages: Payload) -> None:
        """Control messages bound for this peer were shed at the inbox.

        Requests and probes are safe to lose (they repeat), but some
        frames carry state that exists nowhere else: a :class:`~repro.
        runtime.wire.CreditGrant` (the granting side already reset its
        owed balance, so losing it would shrink this peer's send window
        to that receiver forever), a :class:`~repro.runtime.wire.
        Handover` (the gracefully leaving sender stops right after
        shipping its backup store), and the buffer-map gossip family
        (delta gossip is *stateful*: full maps are the chain anchors,
        deltas the links — see :data:`~repro.runtime.wire.ABSORBED_TYPES`).
        Those are applied as if delivered (the loopback stand-in for a
        real transport's reliable control channel); everything else just
        stays dropped.
        """
        for msg in messages:
            if type(msg) in wire.ABSORBED_TYPES:
                _DISPATCH[type(msg)](self, msg)

    def _grant_credits(self, src: int) -> None:
        self._emit_grant(src, self._credit_ledger.take(src))

    def _emit_grant(self, src: int, owed: int) -> None:
        if owed > 0:
            self.transport_stats.credits_granted += 1
            self._send(src, wire.CreditGrant(sender=self.peer_id, credits=owed))

    def _flush_credits(self) -> None:
        """Period-boundary flush of sub-batch credit balances.

        Without it, a sender whose last few segments were consumed just
        under the batch threshold would wait for credits that never come.
        """
        for src, owed in self._credit_ledger.drain().items():
            self._emit_grant(src, owed)

    def _on_ping(self, msg: wire.Ping) -> None:
        self._send(msg.sender, wire.Pong(sender=self.peer_id, nonce=msg.nonce))
        if msg.sender not in self.node.neighbors:
            return
        # A PING from a partner is a joiner announcing itself (see
        # announce_join) or a delta receiver asking for a resync: reply
        # with a full buffer map so the partner can schedule within this
        # period — the live analogue of the simulator's joiners seeing
        # all partner snapshots in their first round.
        if self._last_gossip is not None:
            # Ship the *gossiped snapshot* (not the live buffer): the
            # next periodic delta is diffed against that snapshot, so
            # anchoring the partner anywhere else would break its chain.
            seq, snapshot = self._last_gossip
            reply = wire.BufferMapMsg.from_buffer_map(
                self.peer_id, self.known_newest, snapshot, seq=seq
            )
            self._map_synced[msg.sender] = seq
        else:
            reply = wire.BufferMapMsg.from_buffer_map(
                self.peer_id, self.known_newest, self.node.buffer_map()
            )
        frame = wire.encode(reply)
        stats = self.transport_stats
        stats.map_fulls_sent += 1
        stats.gossip_bytes += len(frame)
        stats.gossip_bytes_full += len(frame)
        self._ship(msg.sender, reply, frame, wire.ledger_entry(reply), False)

    def _on_credit(self, msg: wire.CreditGrant) -> None:
        """Returned link credits: ship the pending segments they unblock."""
        for segment, frame, entry in self.send_windows.grant(msg.sender, msg.credits):
            self._ship(msg.sender, segment, frame, entry, True)

    def _on_buffer_map(self, msg: wire.BufferMapMsg) -> None:
        self.neighbor_maps[msg.sender] = msg.buffer_map()
        self._neighbor_map_seq[msg.sender] = msg.seq
        self._maps_this_period.add(msg.sender)
        if msg.newest_id > self.known_newest:
            self.known_newest = msg.newest_id

    def _on_map_delta(self, msg: wire.BufferMapDelta) -> None:
        base = self.neighbor_maps.get(msg.sender)
        if base is None or self._neighbor_map_seq.get(msg.sender) != msg.seq - 1:
            # Out of sync: the base snapshot this delta chains off is not
            # the one we hold (a shed gossip frame, a link reset, or we
            # only just met).  Drop the delta and PING the sender — its
            # PING handler replies with a full map that re-anchors the
            # chain within the period.
            self.transport_stats.map_desyncs += 1
            self._send(
                msg.sender, wire.Ping(sender=self.peer_id, nonce=next(self._ping_nonce))
            )
            return
        self.neighbor_maps[msg.sender] = msg.apply(base)
        self._neighbor_map_seq[msg.sender] = msg.seq
        self._maps_this_period.add(msg.sender)
        if msg.newest_id > self.known_newest:
            self.known_newest = msg.newest_id

    def _on_segment_request(self, msg: wire.SegmentRequest) -> None:
        """Serve the pulled segments in order, each as its own data frame
        (the credit window counts data frames), and refuse the rest in
        one :class:`~repro.runtime.wire.SegmentNack`."""
        node = self.node
        obs = self.obs
        serves = node.serves_segment if msg.prefetch else node.has_segment
        refused = []
        for sid, tid in msg.pulls():
            if tid and obs.tracing:
                obs.span("recv_request", tid, self.peer_id, sid, requester=msg.sender)
            if not serves(sid) or self.outbound_tokens < 1.0:
                # Saturated uplink (or stale advertisement): refuse
                # explicitly so the requester can reroute within the
                # period to its next best partner
                # (``StreamingNode.best_partner_for``).  A traced pull's
                # id rides the refusal back so the journey records the
                # cause.
                refused.append((sid, tid))
                continue
            self._send_segment(
                msg.sender,
                wire.SegmentData(self.peer_id, sid, self.config.segment_bits, msg.prefetch, tid),
            )
        if refused:
            (sid, tid), *more = refused
            self._send(
                msg.sender,
                wire.SegmentNack(self.peer_id, sid, msg.prefetch, tid, tuple(more)),
            )

    def _on_segment_data(self, msg: wire.SegmentData) -> None:
        node = self.node
        now = self.swarm.sim_now()
        if msg.trace_id and self.obs.tracing:
            self.obs.span(
                "deliver", msg.trace_id, self.peer_id, msg.segment_id,
                supplier=msg.sender,
            )
            state = self._trace_live.get(msg.segment_id)
            if state is not None and state["tid"] == msg.trace_id:
                state["state"] = "delivered"
                state["t_deliver"] = now
        accepted = node.receive_segment(msg.segment_id, prefetched=msg.prefetch)
        if msg.prefetch and isinstance(node, ContinuStreamingNode):
            deadline = self._prefetch_deadlines.pop(
                msg.segment_id, now + self.config.scheduling_period
            )
            node.record_prefetch(msg.segment_id, arrival_time=now, deadline=deadline)
        elif not msg.prefetch:
            self._delivered[msg.sender] = self._delivered.get(msg.sender, 0) + 1
        if accepted and isinstance(node, ContinuStreamingNode):
            node.consider_backup(msg.segment_id)

    def _on_segment_nack(self, msg: wire.SegmentNack) -> None:
        """Reroute each refused pull to the best untried partner advertising it."""
        node = self.node
        obs = self.obs
        reroutes = []
        for sid, tid in msg.pulls():
            if tid and obs.tracing:
                obs.span("nack", tid, self.peer_id, sid, supplier=msg.sender)
                state = self._trace_live.get(sid)
                if state is not None and state["tid"] == tid:
                    state["state"] = "nacked"
                    state["nacks"] = state.get("nacks", 0) + 1
            if msg.prefetch:
                # The located holder refused (budget spent); the next
                # period's prediction re-triggers the lookup if the
                # segment still matters.
                self._prefetch_deadlines.pop(sid, None)
                continue
            if node.has_segment(sid):
                continue
            tried = self._nack_tried.setdefault(sid, set())
            tried.add(msg.sender)
            fallback = node.best_partner_for(sid, self.neighbor_maps, tried)
            if fallback is None:
                continue
            # The reroute keeps the original journey's trace id, so the
            # whole request → nack → retry → deliver chain reads as one
            # trace.
            if tid and obs.tracing:
                obs.span("reroute", tid, self.peer_id, sid, dst=fallback)
            reroutes.append((fallback, sid, tid))
        self._send_pulls(reroutes)

    def _on_handover(self, msg: wire.Handover) -> None:
        if isinstance(self.node, ContinuStreamingNode):
            self.node.absorb_handover(msg.segment_ids)

    # --------------------------------------------------------------- DHT routing
    def _closer_hop(self, target_key: int, exclude: Tuple[int, ...]) -> Optional[int]:
        """The routing candidate clockwise-closest to ``target_key``.

        The greedy rule of :func:`~repro.dht.routing.next_hop`: forward only
        to a peer strictly closer than this node; ``None`` means the walk
        terminates here.  Dead peers are skipped — the stand-in for the probe
        a real node would fail.
        """
        size = self.swarm.ring.size
        return next_hop(
            self.peer_id,
            target_key % size,
            self.swarm.routing_peers(self.node),
            size,
            exclude,
        )

    def _on_dht_lookup(self, msg: wire.DhtLookup) -> None:
        self.swarm.overhear(self.node.peer_table, msg.path)
        nxt = self._closer_hop(msg.target_key, msg.path)
        path = msg.path + (self.peer_id,)
        if nxt is not None:
            self._send(nxt, wire.DhtLookup(msg.origin, msg.target_key, msg.segment_id, path))
            return
        # Terminal node: this peer is responsible for the key — answer the
        # origin directly with whether it can serve the segment and at what
        # rate (the requester's Lookup picks the supplier, Algorithm 2).
        node = self.node
        self._send(msg.origin, wire.DhtResponse(
            responder=self.peer_id, origin=msg.origin, target_key=msg.target_key,
            segment_id=msg.segment_id, has_data=node.serves_segment(msg.segment_id),
            rate=wire.f32(node.available_sending_rate(self.outbound_tokens)), path=path,
        ))

    def _on_dht_response(self, msg: wire.DhtResponse) -> None:
        self.swarm.overhear(self.node.peer_table, msg.path)
        lookup = self._dht_pending.get(msg.segment_id)
        if lookup is None:
            return
        lookup.answer(msg.target_key, msg.responder, msg.has_data, msg.rate)
        if lookup.unanswered() and not lookup.found():
            return  # a late answer to a key the rescue pass walked past
        if not lookup.walk(self.node.has_segment(lookup.segment_id), self._send_walk):
            supplier = self._decide_lookup(lookup.segment_id)
            if supplier is not None:
                self._request([(supplier, lookup.segment_id)], "prefetch", prefetch=True)

    def _start_lookup(self, segment_id: int) -> None:
        if segment_id in self._dht_pending or self.node.has_segment(segment_id):
            return
        lookup = Lookup(self.peer_id, segment_id, self.config.backup_replicas, self.swarm.id_space)
        if lookup.walk(False, self._send_walk):
            self._dht_pending[segment_id] = lookup

    def _send_walk(self, segment_id: int, key: int) -> bool:
        """Send one key's walk; False if this peer is itself responsible."""
        nxt = self._closer_hop(key, (self.peer_id,))
        if nxt is None:
            return False
        self._send(nxt, wire.DhtLookup(self.peer_id, key, segment_id, (self.peer_id,)))
        return True

    def _decide_lookup(self, segment_id: int) -> Optional[int]:
        """Close one lookup; return the supplier to pre-fetch from, if any."""
        lookup = self._dht_pending.pop(segment_id)
        node = self.node
        assert isinstance(node, ContinuStreamingNode)  # only these predict misses
        outcome, supplier = lookup.decide(node.has_segment(segment_id))
        node.record_lookup(outcome, lookup.walks)
        if supplier is not None:
            self._prefetch_deadlines[segment_id] = node.deadline_of(
                segment_id, now=self.swarm.sim_now()
            )
        return supplier

    def _sweep_lookups(self) -> None:
        """Decide every lookup of the last period with whatever answers
        arrived (the timeout; this period's lookups start after it)."""
        pulls = []
        for segment_id in list(self._dht_pending):
            supplier = self._decide_lookup(segment_id)
            if supplier is not None:
                pulls.append((supplier, segment_id))
        self._request(pulls, "prefetch", prefetch=True)

    # ---------------------------------------------------------- the period work
    #: Fraction of a period after which scheduling runs, leaving link
    #: latency enough headroom for the boundary's buffer-map gossip to
    #: arrive first — the live analogue of the simulator's "scheduler sees
    #: this round's snapshots" (one dissemination hop per period, not two).
    SCHEDULE_PHASE = 0.4

    #: Fraction of a period after which the deadline-rescue pass runs: a
    #: DHT lookup still waiting on its last walked key walks the next one,
    #: and segments the player needs within two periods that a partner
    #: advertises but that are still missing get re-requested.  Live
    #: transfers and answers land mid-period with jitter (or never), where
    #: the simulator's synchronous rounds settle every request within its
    #: round; this pass keeps that tail from turning into deadline misses.
    RESCUE_PHASE = 0.8

    #: Fraction of this peer's partners whose fresh buffer map must have
    #: arrived before the mid-period scheduling pass runs.  On a healthy
    #: swarm the maps cross well before the 40% mark and the pass runs at
    #: its nominal phase; on an overloaded event loop — where all peers'
    #: boundary entries run spread across real time and gossip drains
    #: slowly — the pass defers (re-checking each :data:`RECHECK_PHASE`)
    #: until the snapshots actually arrived, instead of scheduling
    #: against last period's stale maps.  This arrival-conditioned
    #: phasing is half of the 200-peer bench-anomaly fix (the other half
    #: is the swarm's coherent clock dilation).
    MAP_QUORUM = 0.8

    #: Re-check interval (fraction of a period) while waiting for the map
    #: quorum, and the deferral ceiling in re-checks.  The ceiling keeps
    #: the whole chain inside its own period (0.4 + 5 × 0.1 = 90% of a
    #: period): when the quorum still isn't met there, scheduling runs
    #: with whatever maps arrived — late scheduling beats none, and a
    #: chain that outlives its period is abandoned (a stale chain
    #: double-running against the next period's would double-spend
    #: requests and supplier credits).
    RECHECK_PHASE = 0.1
    MAX_RECHECKS = 5

    def _period_end(self, tick: int) -> None:
        """Boundary work closing period ``tick``: playback and feedback."""
        if self.is_source:
            return
        node = self.node
        cfg = self.config
        now = self.swarm.sim_now()
        if isinstance(node, ContinuStreamingNode):
            node.settle_prefetches(now)
        if not node.playback.started:
            node.maybe_start_playback(
                cfg.startup_segments, newest_available_id=self._newest_or_none()
            )
        continuous = node.playback.started and node.can_play_round()
        node.play_round(newest_available_id=self._newest_or_none())
        self.swarm.tally_playback(tick, continuous)
        node.observe_deliveries(self._delivered)
        self._delivered = {}
        if self._trace_live and self.obs.tracing:
            self._settle_traces(now)

    def _settle_traces(self, now: float) -> None:
        """Resolve sampled journeys the playback pointer has passed.

        A traced segment behind ``play_id`` either played (delivered in
        time) or missed its deadline; a miss carries the requester-side
        attribution the journey's spans support: ``credit_starvation``
        (the supplier NACKed and no retry landed), ``delivered_late``
        (the data arrived after the deadline — queueing), or
        ``lost_or_queued`` (requested, never answered: the frame or its
        reply died on the wire or sat in a queue past the period).
        """
        node = self.node
        if not node.playback.started:
            return
        play_id = node.playback.play_id
        obs = self.obs
        for sid in [s for s in self._trace_live if s < play_id]:
            state = self._trace_live.pop(sid)
            tid = state["tid"]
            if state["state"] == "delivered":
                deadline = state.get("deadline")
                t_deliver = state.get("t_deliver", now)
                if deadline is not None and t_deliver > deadline:
                    obs.span(
                        "miss", tid, self.peer_id, sid,
                        cause="delivered_late", late_s=round(t_deliver - deadline, 4),
                    )
                else:
                    obs.span("play", tid, self.peer_id, sid)
            elif state["state"] == "nacked":
                obs.span("miss", tid, self.peer_id, sid, cause="credit_starvation")
            else:
                obs.span("miss", tid, self.peer_id, sid, cause="lost_or_queued")

    def _period_start(self, tick: int) -> None:
        """Boundary work opening period ``tick``: budgets and gossip.

        Data scheduling and urgent-line prediction run a fraction of a
        period later (:meth:`_mid_period_when_ready`), once the neighbours' boundary
        buffer maps have crossed the wire.
        """
        node = self.node
        cfg = self.config
        self._current_tick = tick
        self._flush_credits()
        if self.is_source:
            for segment_id in self.swarm.source.generate_until(
                (tick + 1) * cfg.scheduling_period
            ):
                node.buffer.add(segment_id)
            self.known_newest = max(
                self.known_newest, self.swarm.source.newest_segment_id
            )
            self.outbound_tokens = node.outbound_rate * cfg.scheduling_period
            self._timed("phase_gossip_s", self._gossip_buffer_map)
            return
        node.begin_round()
        self._nack_tried = {}
        self._requested = set()
        self._maps_this_period = set()
        self.outbound_tokens = node.outbound_rate * cfg.scheduling_period
        self._timed("phase_gossip_s", self._gossip_buffer_map)
        period = cfg.scheduling_period
        now = self.swarm.queue.time()
        remaining = self.swarm.deadline_of(tick + 1) - now
        self._period_span = max(min(period, remaining), 0.05 * period)
        self.swarm.queue.push(
            now + self.SCHEDULE_PHASE * self._period_span, self._mid_period_when_ready, (tick, 0)
        )

    def _map_quorum_met(self) -> bool:
        """Have enough partners' fresh buffer maps arrived to schedule on?"""
        partners = [n for n in self.node.neighbors if self.swarm.is_alive(n)]
        if not partners:
            return True
        fresh = sum(1 for n in partners if n in self._maps_this_period)
        return fresh >= self.MAP_QUORUM * len(partners)

    def _mid_period_when_ready(self, phase: Tuple[int, int]) -> None:
        """Mid-period work, once this period's gossip has arrived: Algorithm 1
        scheduling, the lookup sweep and the urgent-line lookups.

        Defers (bounded) while the fresh-map quorum is missing, so an
        overloaded event loop schedules against this period's snapshots
        late rather than against last period's snapshots on time.  The
        rescue pass is chained relative to when scheduling actually ran,
        preserving the schedule → transfer → rescue ordering.  A chain
        whose period has already closed (``tick`` is stale) abandons
        itself — the newer boundary scheduled its own chain, and running
        both would double-spend requests and supplier credits.

        ``phase`` is ``(tick, rechecks)``: the period the chain belongs to
        and the quorum re-checks it has made.
        """
        tick, rechecks = phase
        node = self.node
        if self.stopped or not node.alive or tick != self._current_tick:
            return
        span = self._period_span
        queue = self.swarm.queue
        now = queue.time()
        if rechecks < self.MAX_RECHECKS and not self._map_quorum_met():
            queue.push(
                now + self.RECHECK_PHASE * span, self._mid_period_when_ready, (tick, rechecks + 1)
            )
            return
        self._timed("phase_schedule_s", self._schedule_requests)
        self._sweep_lookups()
        if self.swarm.prediction_enabled and isinstance(node, ContinuStreamingNode):
            if self.known_newest >= 0:
                prediction = node.predict_missed(self.known_newest)
                if prediction.triggered:
                    for sid in prediction.missed_segment_ids:
                        self._start_lookup(sid)
        queue.push(
            now + (self.RESCUE_PHASE - self.SCHEDULE_PHASE) * span,
            partial(self._timed, "phase_rescue_s", self._rescue_pass),
            tick,
        )

    def _timed(self, metric: str, phase: Callable[..., None], *args: Any) -> None:
        """Run one phase, timed into ``metric`` when obs is enabled."""
        obs = self.obs
        if not obs.enabled:
            phase(*args)
            return
        t0 = time.perf_counter()
        phase(*args)
        obs.observe(metric, time.perf_counter() - t0)

    def _rescue_pass(self, tick: int) -> None:
        """Late-period rescue: a lookup still waiting on its last walked key
        walks the next one (:meth:`Lookup.unanswered`), and imminently
        needed segments a partner advertises are re-requested."""
        node = self.node
        if self.stopped or not node.alive or tick != self._current_tick:
            return  # a stale tick: the period this rescue belonged to has closed
        for lookup in self._dht_pending.values():
            if lookup.unanswered():
                lookup.walk(node.has_segment(lookup.segment_id), self._send_walk)
        if not node.playback.started or self.known_newest < 0:
            return
        spr = node.playback.segments_per_round(self.config.scheduling_period)
        lo = node.playback.play_id
        hi = min(lo + 2 * spr - 1, self.known_newest)
        pulls = []
        for sid in range(lo, hi + 1):
            if sid in node.buffer or sid in self._requested:
                continue
            best = node.best_partner_for(sid, self.neighbor_maps)
            if best is None:
                continue
            self._requested.add(sid)
            pulls.append((best, sid))
        self._request(pulls, "rescue")

    def _newest_or_none(self) -> Optional[int]:
        return self.known_newest if self.known_newest >= 0 else None

    def _gossip_buffer_map(self) -> None:
        """Boundary gossip: advertise this peer's buffer map to partners.

        Partners whose stored snapshot is in sync (they received the
        previous gossip, full or via an unbroken delta chain) get a
        :class:`~repro.runtime.wire.BufferMapDelta` — the changed-bit
        runs against the previous snapshot — while everyone else (first
        contact, reset link, missed gossip) gets the full map.  A delta
        that would not beat the full encoding falls back to the full map
        for every partner.  Either form is ledger-charged as a full
        ``capacity + 20``-bit map (the paper's Section 5.4 cost); the
        physical savings show up in the ``gossip_bytes`` counters.
        """
        targets = self.node.neighbors
        bm = self.node.buffer_map()
        stats = self.transport_stats
        seq = self._gossip_seq = self._gossip_seq + 1
        prev = self._last_gossip
        self._last_gossip = (seq, bm)
        full_msg = wire.BufferMapMsg.from_buffer_map(
            self.peer_id, self.known_newest, bm, seq=seq
        )
        entry = wire.ledger_entry(full_msg)
        full_frame = wire.encode(full_msg)
        delta = None
        prev_seq = -1
        if prev is not None:
            prev_seq, prev_map = prev
            delta_msg = wire.BufferMapDelta.from_maps(
                self.peer_id, seq, self.known_newest, bm, prev_map
            )
            delta_frame = wire.encode(delta_msg)
            if len(delta_frame) < len(full_frame):
                delta = (delta_msg, delta_frame)
        synced = self._map_synced
        for dst in targets:
            if delta is not None and synced.get(dst) == prev_seq:
                msg, frame = delta
                stats.map_deltas_sent += 1
            else:
                msg, frame = full_msg, full_frame
                stats.map_fulls_sent += 1
            stats.gossip_bytes += len(frame)
            stats.gossip_bytes_full += len(full_frame)
            synced[dst] = seq
            self._ship(dst, msg, frame, entry, False)

    def _schedule_requests(self) -> None:
        node = self.node
        if self.known_newest < 0:
            return
        partners = set(node.neighbors)
        maps = {
            nbr: bm for nbr, bm in self.neighbor_maps.items() if nbr in partners
        }
        if not maps:
            return
        requests = node.plan_requests(
            maps, self.known_newest, self.config.scheduling_window
        )
        pulls = []
        for request in requests:
            self._delivered.setdefault(request.supplier_id, 0)
            self._requested.add(request.segment_id)
            pulls.append((request.supplier_id, request.segment_id))
        self._request(pulls, "schedule")

    def _request(
        self, pulls: Sequence[Tuple[int, int]], cause: str, prefetch: bool = False
    ) -> None:
        """Originate ``(supplier, segment id)`` pulls, sampling each into
        the trace plane, and send them (:meth:`_send_pulls`).

        A sampled pull opens a journey: the trace id rides the frame (and
        the supplier's reply), the requester tracks the journey's state,
        and the period boundary resolves it to play/miss with a cause
        (:meth:`_settle_traces`).  Sampling is counter-based — no RNG
        draw — so traced runs stay deterministic on the virtual clock.
        """
        obs = self.obs
        traced = []
        for dst, sid in pulls:
            tid = obs.sample_trace(self.peer_id) if obs.tracing else 0
            if tid:
                node = self.node
                deadline = (
                    node.deadline_of(sid, now=self.swarm.sim_now())
                    if isinstance(node, ContinuStreamingNode)
                    else None
                )
                live = self._trace_live
                live[sid] = {"tid": tid, "state": "requested", "deadline": deadline}
                if len(live) > 512:
                    live.pop(min(live))
                obs.span(
                    "request", tid, self.peer_id, sid,
                    dst=dst, cause=cause, deadline=deadline,
                )
            traced.append((dst, sid, tid))
        self._send_pulls(traced, prefetch)

    def _send_pulls(
        self, pulls: Sequence[Tuple[int, int, int]], prefetch: bool = False
    ) -> None:
        """Send ``(supplier, segment id, trace id)`` pulls as one
        :class:`~repro.runtime.wire.SegmentRequest` per supplier, suppliers
        in first-occurrence order and each supplier's segments in order.

        The link delivers a sender's frames to one receiver in the order
        they were sent, so the supplier handles the same pulls in the
        same order as when each travelled alone.
        """
        by_supplier: Dict[int, List[Tuple[int, int]]] = {}
        for dst, sid, tid in pulls:
            by_supplier.setdefault(dst, []).append((sid, tid))
        for dst, group in by_supplier.items():
            (sid, tid), *more = group
            self._send(dst, wire.SegmentRequest(self.peer_id, sid, prefetch, tid, tuple(more)))


#: Inbox dispatch table, keyed by message type.  PONG is deliberately
#: absent — liveness confirmations need no handling — and FrameBatch never
#: reaches here (a link unwraps what crossed a socket).
_DISPATCH = {
    wire.BufferMapMsg: LivePeer._on_buffer_map,
    wire.BufferMapDelta: LivePeer._on_map_delta,
    wire.SegmentRequest: LivePeer._on_segment_request,
    wire.SegmentData: LivePeer._on_segment_data,
    wire.SegmentNack: LivePeer._on_segment_nack,
    wire.DhtLookup: LivePeer._on_dht_lookup,
    wire.DhtResponse: LivePeer._on_dht_response,
    wire.Ping: LivePeer._on_ping,
    wire.Handover: LivePeer._on_handover,
    wire.CreditGrant: LivePeer._on_credit,
}
