"""The live peer actor: one period task and one inbox callback per overlay node.

A :class:`LivePeer` adapts the passive :class:`~repro.core.node.StreamingNode`
state machine (and its ContinuStreaming specialisation) to an event-driven
life: instead of a global round barrier, each peer owns

* a **bounded inbox** (:class:`~repro.runtime.transport.BoundedInbox`) of
  raw wire frames — control frames on a priority lane ahead of segment
  data — drained by a plain callback the inbox schedules with one
  ``loop.call_soon`` per burst; frames decode in place (links deliver
  complete frames, so no stream reassembly happens here; a
  :class:`~repro.runtime.wire.FrameBatch` entry is unwrapped and each
  inner message dispatched and credit-accounted individually);
* a **credit-gated send window per link**
  (:class:`~repro.runtime.transport.SendWindowSet`): at most
  ``data_window`` unconsumed segments in flight towards any one receiver;
  further segments wait in a bounded pending queue until the receiver
  returns credits with :class:`~repro.runtime.wire.CreditGrant` control
  frames (batched as it consumes data, flushed at period boundaries);
* a **period loop** that fires every scheduling period ``τ`` on the peer's
  *own* clock (scaled by the swarm's time factor) and performs the same
  work the round pipeline's phases do for it in the simulator — playback,
  buffer-map gossip, data scheduling, urgent-line prediction — except that
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

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.continu import ContinuStreamingNode
from repro.core.node import StreamingNode
from repro.dht.hashing import backup_keys
from repro.dht.routing import next_hop
from repro.net.message import MessageLedger
from repro.runtime import wire
from repro.runtime.transport import (
    BoundedInbox,
    CreditLedger,
    SendWindowSet,
    TransportStats,
)
from repro.streaming.buffermap import BufferMap
from repro.streaming.segment import Segment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.runtime.swarm import LiveSwarm

_BATCH_KIND = int(wire.WireKind.BATCH)


@dataclass
class _PendingLookup:
    """Bookkeeping for one segment's in-flight DHT location step."""

    segment_id: int
    expected: int
    started_tick: int
    responses: List[wire.DhtResponse] = field(default_factory=list)
    decided: bool = False


@dataclass
class PlaybackSample:
    """What one peer's playback did during one global period."""

    started: bool
    continuous: bool


class LivePeer:
    """One concurrently running overlay peer.

    Args:
        node: the protocol node (built by the
            :class:`~repro.core.overlay.OverlayManager`, so topology,
            bandwidth and peer tables match the simulator's construction).
        swarm: the orchestrator, providing transport, clocking and the
            shared latency/overhearing services.
        first_tick: global period index at which this peer starts living
            (0 for the boot population, the join period for churned-in
            peers) — playback samples are keyed by global tick so the
            swarm can aggregate continuity per period.
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
        self.playback_log: Dict[int, PlaybackSample] = {}
        #: The period currently open (set at each boundary); deferred
        #: mid-period/rescue callbacks from an earlier period abandon
        #: themselves when a newer boundary has passed.
        self._current_tick = -1
        #: Wall length of the currently open period — normally the scaled
        #: scheduling period, but shorter when the boundary ran late (a
        #: joiner admitted mid-period, an overloaded loop): the intra-
        #: period chain compresses into what actually remains.
        self._period_span = self.config.scheduling_period * swarm.time_scale
        self._delivered: Dict[int, int] = {}
        self._requested: set = set()
        self._nack_tried: Dict[int, set] = {}
        self._dht_pending: Dict[int, _PendingLookup] = {}
        self._prefetch_deadlines: Dict[int, float] = {}
        self._ping_nonce = itertools.count(1)
        self._task: Optional[asyncio.Task] = None
        self.ticks_run = 0
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
        return f"<LivePeer {role} id={self.peer_id} ticks={self.ticks_run}>"

    # ----------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Arm the inbox drain and spawn the period task on the swarm's loop."""
        loop = self.swarm.loop
        self.inbox.bind_ready(partial(loop.call_soon, self._drain_inbox))
        self._task = loop.create_task(self._period_loop(), name=f"peer-{self.peer_id}-tick")

    async def stop(self) -> None:
        """Cancel the period task and wait for it to unwind; a drain
        still scheduled finds ``stopped`` set and drops its burst."""
        self.stopped = True
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)

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
        segments = self.node.handover_backup()
        self._send(
            successor,
            wire.Handover(
                sender=self.peer_id,
                segment_bits=self.config.segment_bits,
                segment_ids=tuple(seg.segment_id for seg in segments),
            ),
        )

    # ------------------------------------------------------------------- sending
    def _send(self, dst: int, msg: wire.WireMessage) -> None:
        """Encode and ship one control message (never credit-gated)."""
        self._ship(dst, wire.encode(msg), wire.ledger_entry(msg), False)

    def _send_segment(self, dst: int, msg: wire.SegmentData) -> None:
        """Encode and ship one segment, respecting the link's flow control.

        Segment data must hold a link credit first — without one it waits
        in the bounded pending queue and is only charged when it actually
        leaves (:meth:`_on_credit` releases it), so shed segments never
        distort the overhead metrics.
        """
        entry = wire.ledger_entry(msg)
        frame = wire.encode(msg)
        if not self.send_windows.acquire(dst, (frame, entry)):
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
        self._ship(dst, frame, entry, True)

    def _ship(self, dst: int, frame: bytes, entry, data: bool) -> None:
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
        self.swarm.deliver(self.peer_id, dst, frame, data)

    def _broadcast(self, dsts, msg: wire.WireMessage) -> None:
        """Send one control message to many peers, encoding it only once."""
        entry = wire.ledger_entry(msg)
        frame = wire.encode(msg)
        for dst in dsts:
            self._ship(dst, frame, entry, False)

    # ------------------------------------------------------------------ receiving
    def _drain_inbox(self) -> None:
        """Decode and dispatch everything queued — the inbox's burst callback.

        Runs one ``call_soon`` hop after the first frame of a burst
        landed.  Inbox entries are complete frames (the links guarantee
        it), so they decode directly — no stream reassembly buffer on
        this path.  An exception from a handler is not caught here: it
        fails the run (see ``LiveSwarm.run_async``) instead of leaving
        this peer deaf.
        """
        if self.stopped:
            return
        node = self.node
        handler_of = _DISPATCH.get
        for src, chunk, was_control in self.inbox.take_batch():
            if chunk[4] == _BATCH_KIND:
                messages = wire.decode_batch(chunk)
            else:
                messages = (wire.decode(chunk)[0],)
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

    def absorb_shed_control(self, frame: bytes) -> None:
        """A control frame bound for this peer was shed at the inbox.

        Requests and probes are safe to lose (they repeat), but some
        frames carry state that exists nowhere else: a :class:`~repro.
        runtime.wire.CreditGrant` (the granting side already reset its
        owed balance, so losing it would shrink this peer's send window
        to that receiver forever), a :class:`~repro.runtime.wire.
        Handover` (the gracefully leaving sender stops right after
        shipping its backup store), and the buffer-map gossip family
        (under delta encoding gossip is *stateful*: full maps are the
        chain anchors, deltas the links — see ``_ABSORBED_KINDS``).
        Those are applied as if delivered (the loopback stand-in for a
        real transport's reliable control channel); everything else just
        stays dropped.  A shed :class:`~repro.runtime.wire.FrameBatch`
        is unwrapped so any one-shot frames *inside* it survive too.
        """
        # Shedding means overload: peek the kind byte, decode only those.
        if frame[4] == _BATCH_KIND:
            messages = wire.decode_batch(frame, only=_ABSORBED_KINDS)
        elif frame[4] in _ABSORBED_KINDS:
            messages = (wire.decode(frame)[0],)
        else:
            return
        for msg in messages:
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
        if self.swarm.delta_maps and self._last_gossip is not None:
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
        frame_len = len(wire.encode(reply))
        stats = self.transport_stats
        stats.map_fulls_sent += 1
        stats.gossip_bytes += frame_len
        stats.gossip_bytes_full += frame_len
        self._send(msg.sender, reply)

    def _on_credit(self, msg: wire.CreditGrant) -> None:
        """Returned link credits: ship the pending segments they unblock."""
        for frame, entry in self.send_windows.grant(msg.sender, msg.credits):
            self._ship(msg.sender, frame, entry, True)

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
        node = self.node
        if msg.trace_id and self.obs.tracing:
            self.obs.span(
                "recv_request", msg.trace_id, self.peer_id, msg.segment_id,
                requester=msg.sender,
            )
        if msg.prefetch and isinstance(node, ContinuStreamingNode):
            available = node.serves_segment(msg.segment_id)
        else:
            available = node.has_segment(msg.segment_id)
        if not available or self.outbound_tokens < 1.0:
            # Saturated uplink (or stale advertisement): refuse explicitly
            # so the requester can reroute within the period, like the
            # simulator's fallback-supplier pass.  A traced request's id
            # rides the refusal back so the journey records the cause.
            self._send(
                msg.sender,
                wire.SegmentNack(
                    sender=self.peer_id,
                    segment_id=msg.segment_id,
                    prefetch=msg.prefetch,
                    trace_id=msg.trace_id,
                ),
            )
            return
        self._send_segment(
            msg.sender,
            wire.SegmentData(
                self.peer_id,
                msg.segment_id,
                self.config.segment_bits,
                msg.prefetch,
                msg.trace_id,
            ),
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
            node.consider_backup(self.swarm.segment_payload(msg.segment_id))

    def _on_segment_nack(self, msg: wire.SegmentNack) -> None:
        """Reroute a refused pull to the best untried partner advertising it."""
        node = self.node
        sid = msg.segment_id
        if msg.trace_id and self.obs.tracing:
            self.obs.span("nack", msg.trace_id, self.peer_id, sid, supplier=msg.sender)
            state = self._trace_live.get(sid)
            if state is not None and state["tid"] == msg.trace_id:
                state["state"] = "nacked"
                state["nacks"] = state.get("nacks", 0) + 1
        if msg.prefetch:
            # The located holder refused (budget spent); the next period's
            # prediction re-triggers the lookup if the segment still matters.
            self._prefetch_deadlines.pop(sid, None)
            return
        if node.has_segment(sid):
            return
        tried = self._nack_tried.setdefault(sid, set())
        tried.add(msg.sender)
        partners = set(node.neighbors)
        fallback = None
        best_rate = -1.0
        for nbr, neighbor_map in self.neighbor_maps.items():
            if nbr in tried or nbr not in partners or sid not in neighbor_map.present:
                continue
            rate = node.rate_controller.rate_of(nbr)
            if rate > best_rate:
                best_rate, fallback = rate, nbr
        if fallback is None:
            return
        # The reroute keeps the original journey's trace id, so the whole
        # request → nack → retry → deliver chain reads as one trace.
        if msg.trace_id and self.obs.tracing:
            self.obs.span("reroute", msg.trace_id, self.peer_id, sid, dst=fallback)
        self._send(
            fallback,
            wire.SegmentRequest(
                sender=self.peer_id, segment_id=sid, trace_id=msg.trace_id
            ),
        )

    def _on_handover(self, msg: wire.Handover) -> None:
        node = self.node
        if not isinstance(node, ContinuStreamingNode):
            return
        node.absorb_handover(
            [
                Segment(segment_id=sid, size_bits=msg.segment_bits)
                for sid in msg.segment_ids
            ]
        )

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
        if nxt is not None:
            self._send(
                nxt,
                wire.DhtLookup(
                    origin=msg.origin,
                    target_key=msg.target_key,
                    segment_id=msg.segment_id,
                    path=msg.path + (self.peer_id,),
                ),
            )
            return
        # Terminal node: this peer is responsible for the key — answer the
        # origin directly with whether it can serve the segment and at what
        # rate (the requester picks the fastest holder, Algorithm 2).
        node = self.node
        if isinstance(node, ContinuStreamingNode):
            has_data = node.serves_segment(msg.segment_id)
        else:
            has_data = node.has_segment(msg.segment_id)
        self._send(
            msg.origin,
            wire.DhtResponse(
                responder=self.peer_id,
                origin=msg.origin,
                target_key=msg.target_key,
                segment_id=msg.segment_id,
                has_data=has_data,
                rate=max(0.0, min(node.outbound_rate, self.outbound_tokens)),
                path=msg.path + (self.peer_id,),
            ),
        )

    def _on_dht_response(self, msg: wire.DhtResponse) -> None:
        self.swarm.overhear(self.node.peer_table, msg.path)
        pending = self._dht_pending.get(msg.segment_id)
        if pending is None or pending.decided:
            return
        pending.responses.append(msg)
        if len(pending.responses) >= pending.expected:
            self._decide_lookup(pending)

    def _start_lookup(self, segment_id: int) -> None:
        if segment_id in self._dht_pending or self.node.has_segment(segment_id):
            return
        keys = backup_keys(segment_id, self.config.backup_replicas, self.swarm.id_space)
        pending = _PendingLookup(
            segment_id=segment_id, expected=0, started_tick=self.ticks_run
        )
        launched = 0
        for key in keys:
            nxt = self._closer_hop(key, (self.peer_id,))
            if nxt is None:
                continue  # this peer is itself responsible — nobody to ask
            launched += 1
            self._send(
                nxt,
                wire.DhtLookup(
                    origin=self.peer_id,
                    target_key=key,
                    segment_id=segment_id,
                    path=(self.peer_id,),
                ),
            )
        if launched == 0:
            return
        pending.expected = launched
        self._dht_pending[segment_id] = pending

    def _decide_lookup(self, pending: _PendingLookup) -> None:
        """Pick the fastest responding holder and request the download."""
        pending.decided = True
        self._dht_pending.pop(pending.segment_id, None)
        node = self.node
        if not isinstance(node, ContinuStreamingNode):
            return
        if node.has_segment(pending.segment_id):
            # Delivered by gossip while the lookup was in flight — the
            # paper's "repeated data" case; the urgent ratio shrinks.
            node.stats.prefetch_repeated += 1
            node.urgent_line.record_repeated(1)
            return
        holders = {}
        for resp in pending.responses:
            if resp.has_data and resp.rate > 0.0:
                prev = holders.get(resp.responder)
                if prev is None or resp.rate > prev:
                    holders[resp.responder] = resp.rate
        if not holders:
            return
        supplier = max(holders, key=lambda h: (holders[h], -h))
        now = self.swarm.sim_now()
        self._prefetch_deadlines[pending.segment_id] = node.deadline_of(
            pending.segment_id, now=now
        )
        self._traced_request(supplier, pending.segment_id, "prefetch", prefetch=True)

    def _sweep_lookups(self) -> None:
        """Decide stale lookups with whatever responses arrived (timeout)."""
        for pending in list(self._dht_pending.values()):
            if self.ticks_run - pending.started_tick >= 1:
                self._decide_lookup(pending)

    # ------------------------------------------------------------ the period loop
    #: Fraction of a period after which scheduling runs, leaving link
    #: latency enough headroom for the boundary's buffer-map gossip to
    #: arrive first — the live analogue of the simulator's "scheduler sees
    #: this round's snapshots" (one dissemination hop per period, not two).
    SCHEDULE_PHASE = 0.4

    #: Fraction of a period after which the deadline-rescue pass runs:
    #: segments the player needs within the next two periods that are
    #: advertised by a partner but still missing get re-requested.  The
    #: simulator's synchronous rounds deliver every granted request within
    #: its own round; live transfers land mid-period with jitter, and this
    #: pass is what keeps the tail of that distribution from turning into
    #: deadline misses.
    RESCUE_PHASE = 0.8

    #: Fraction of this peer's partners whose fresh buffer map must have
    #: arrived before the mid-period scheduling pass runs.  On a healthy
    #: swarm the maps cross well before the 40% mark and the pass runs at
    #: its nominal phase; on an overloaded event loop — where all peers'
    #: boundary timers fire spread across real time and gossip drains
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

    async def _period_loop(self) -> None:
        scaled = self.config.scheduling_period * self.swarm.time_scale
        loop = self.swarm.loop
        tick = self.first_tick
        while not self.stopped:
            # Deadlines come from the swarm's shared clock every
            # iteration, so when the swarm dilates time under overload
            # every peer shifts by the same amount and the overlay stays
            # phase-aligned — drifting apart (each peer re-anchoring its
            # own clock) is what used to collapse continuity at
            # aggressive time scales.
            deadline = self.swarm.wall_deadline_of(tick)
            delay = deadline - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
                if self.swarm.wall_deadline_of(tick) - loop.time() > 1e-9:
                    # The swarm dilated its schedule while we slept;
                    # re-align to the shifted boundary before ticking.
                    continue
            else:
                self.swarm.note_lateness(-delay)
            if tick > self.first_tick:
                self._period_end(tick - 1)
            self._period_start(tick)
            tick += 1
            self.ticks_run += 1
            # Guarantee a sliver of wall time before the next boundary so
            # an overrunning peer still interleaves with frame delivery
            # instead of ticking back-to-back.
            next_deadline = self.swarm.wall_deadline_of(tick)
            if next_deadline - loop.time() <= 0:
                await asyncio.sleep(0.05 * scaled)

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
        self.playback_log[tick] = PlaybackSample(
            started=node.playback.started, continuous=continuous
        )
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
        period later (:meth:`_mid_period`), once the neighbours' boundary
        buffer maps have crossed the wire.
        """
        node = self.node
        cfg = self.config
        self._current_tick = tick
        self._flush_credits()
        if self.is_source:
            for segment in self.swarm.source.generate_until(
                (tick + 1) * cfg.scheduling_period
            ):
                node.buffer.add(segment.segment_id)
            self.known_newest = max(
                self.known_newest, self.swarm.source.newest_segment_id
            )
            self.outbound_tokens = node.outbound_rate * cfg.scheduling_period
            self._timed_gossip()
            return
        node.begin_round()
        self._nack_tried = {}
        self._requested = set()
        self._maps_this_period = set()
        self.outbound_tokens = node.outbound_rate * cfg.scheduling_period
        self._timed_gossip()
        loop = self.swarm.loop
        scaled = cfg.scheduling_period * self.swarm.time_scale
        remaining = self.swarm.wall_deadline_of(tick + 1) - loop.time()
        self._period_span = max(min(scaled, remaining), 0.05 * scaled)
        loop.call_later(
            self.SCHEDULE_PHASE * self._period_span,
            self._mid_period_when_ready,
            tick,
            0,
        )

    def _map_quorum_met(self) -> bool:
        """Have enough partners' fresh buffer maps arrived to schedule on?"""
        partners = [n for n in self.node.neighbors if self.swarm.is_alive(n)]
        if not partners:
            return True
        fresh = sum(1 for n in partners if n in self._maps_this_period)
        return fresh >= self.MAP_QUORUM * len(partners)

    def _mid_period_when_ready(self, tick: int, rechecks: int) -> None:
        """Run the mid-period pass once this period's gossip has arrived.

        Defers (bounded) while the fresh-map quorum is missing, so an
        overloaded event loop schedules against this period's snapshots
        late rather than against last period's snapshots on time.  The
        rescue pass is chained relative to when scheduling actually ran,
        preserving the schedule → transfer → rescue ordering.  A chain
        whose period has already closed (``tick`` is stale) abandons
        itself — the newer boundary scheduled its own chain, and running
        both would double-spend requests and supplier credits.
        """
        if self.stopped or not self.node.alive or tick != self._current_tick:
            return
        span = self._period_span
        loop = self.swarm.loop
        if rechecks < self.MAX_RECHECKS and not self._map_quorum_met():
            loop.call_later(
                self.RECHECK_PHASE * span,
                self._mid_period_when_ready,
                tick,
                rechecks + 1,
            )
            return
        self._mid_period()
        loop.call_later(
            (self.RESCUE_PHASE - self.SCHEDULE_PHASE) * span,
            self._rescue_pass,
            tick,
        )

    def _timed_gossip(self) -> None:
        """Boundary gossip, with the phase timed when obs is enabled."""
        obs = self.obs
        if not obs.enabled:
            self._gossip_buffer_map()
            return
        t0 = time.perf_counter()
        self._gossip_buffer_map()
        obs.observe("phase_gossip_s", time.perf_counter() - t0)

    def _mid_period(self) -> None:
        """Mid-period work: Algorithm 1 scheduling + urgent-line lookups."""
        node = self.node
        if self.stopped or not node.alive:
            return
        obs = self.obs
        if obs.enabled:
            t0 = time.perf_counter()
            self._schedule_requests()
            obs.observe("phase_schedule_s", time.perf_counter() - t0)
        else:
            self._schedule_requests()
        self._sweep_lookups()
        if self.swarm.prediction_enabled and isinstance(node, ContinuStreamingNode):
            if self.known_newest >= 0:
                prediction = node.predict_missed(self.known_newest)
                if prediction.triggered:
                    for sid in prediction.missed_segment_ids:
                        self._start_lookup(sid)

    def _rescue_pass(self, tick: int) -> None:
        """Late-period rescue, with the phase timed when obs is enabled."""
        obs = self.obs
        if not obs.enabled:
            self._rescue_body(tick)
            return
        t0 = time.perf_counter()
        self._rescue_body(tick)
        obs.observe("phase_rescue_s", time.perf_counter() - t0)

    def _rescue_body(self, tick: int) -> None:
        """Late-period rescue of imminently needed, partner-held segments."""
        node = self.node
        if self.stopped or not node.alive or not node.playback.started:
            return
        if tick != self._current_tick:
            return  # the period this rescue belonged to has closed
        if self.known_newest < 0:
            return
        spr = node.playback.segments_per_round(self.config.scheduling_period)
        lo = node.playback.play_id
        hi = min(lo + 2 * spr - 1, self.known_newest)
        partners = set(node.neighbors)
        for sid in range(lo, hi + 1):
            if sid in node.buffer or sid in self._requested:
                continue
            best = None
            best_rate = -1.0
            for nbr, neighbor_map in self.neighbor_maps.items():
                if nbr not in partners or sid not in neighbor_map.present:
                    continue
                rate = node.rate_controller.rate_of(nbr)
                if rate > best_rate:
                    best_rate, best = rate, nbr
            if best is None:
                continue
            self._requested.add(sid)
            self._traced_request(best, sid, "rescue")

    def _newest_or_none(self) -> Optional[int]:
        return self.known_newest if self.known_newest >= 0 else None

    def _gossip_buffer_map(self) -> None:
        """Boundary gossip: advertise this peer's buffer map to partners.

        With delta encoding on, partners whose stored snapshot is in sync
        (they received the previous gossip, full or via an unbroken delta
        chain) get a :class:`~repro.runtime.wire.BufferMapDelta` — the
        changed-bit runs against the previous snapshot — while everyone
        else (first contact, reset link, missed gossip) gets the full
        map.  A delta that would not beat the full encoding falls back to
        the full map for every partner.  Either form is ledger-charged as
        a full ``capacity + 20``-bit map (the paper's Section 5.4 cost);
        the physical savings show up in the ``gossip_bytes`` counters.
        """
        targets = self.node.neighbors
        bm = self.node.buffer_map()
        stats = self.transport_stats
        if not self.swarm.delta_maps:
            msg = wire.BufferMapMsg.from_buffer_map(
                self.peer_id, self.known_newest, bm
            )
            frame_len = len(wire.encode(msg))
            count = len(targets)
            stats.map_fulls_sent += count
            stats.gossip_bytes += count * frame_len
            stats.gossip_bytes_full += count * frame_len
            self._broadcast(targets, msg)
            return
        seq = self._gossip_seq = self._gossip_seq + 1
        prev = self._last_gossip
        self._last_gossip = (seq, bm)
        full_msg = wire.BufferMapMsg.from_buffer_map(
            self.peer_id, self.known_newest, bm, seq=seq
        )
        entry = wire.ledger_entry(full_msg)
        full_frame = wire.encode(full_msg)
        delta_frame = None
        prev_seq = -1
        if prev is not None:
            prev_seq, prev_map = prev
            candidate = wire.encode(
                wire.BufferMapDelta.from_maps(
                    self.peer_id, seq, self.known_newest, bm, prev_map
                )
            )
            if len(candidate) < len(full_frame):
                delta_frame = candidate
        synced = self._map_synced
        for dst in targets:
            if delta_frame is not None and synced.get(dst) == prev_seq:
                frame = delta_frame
                stats.map_deltas_sent += 1
            else:
                frame = full_frame
                stats.map_fulls_sent += 1
            stats.gossip_bytes += len(frame)
            stats.gossip_bytes_full += len(full_frame)
            synced[dst] = seq
            self._ship(dst, frame, entry, False)

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
        for request in requests:
            self._delivered.setdefault(request.supplier_id, 0)
            self._requested.add(request.segment_id)
            self._traced_request(request.supplier_id, request.segment_id, "schedule")

    def _traced_request(
        self, dst: int, sid: int, cause: str, prefetch: bool = False
    ) -> None:
        """Originate one segment request, sampling it into the trace plane.

        A sampled request opens a journey: the trace id rides the frame
        (and the supplier's reply), the requester tracks the journey's
        state, and the period boundary resolves it to play/miss with a
        cause (:meth:`_settle_traces`).  Sampling is counter-based — no
        RNG draw — so traced runs stay deterministic on the virtual clock.
        """
        tid = 0
        obs = self.obs
        if obs.tracing:
            tid = obs.sample_trace(self.peer_id)
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
        self._send(
            dst,
            wire.SegmentRequest(
                sender=self.peer_id, segment_id=sid, prefetch=prefetch, trace_id=tid
            ),
        )


#: Inbox dispatch table, keyed by decoded message type.  PONG is
#: deliberately absent — liveness confirmations need no handling — and
#: FrameBatch never reaches here (the drain unwraps envelopes).
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

#: The control messages that carry one-shot state and therefore must
#: survive an inbox shed (:meth:`LivePeer.absorb_shed_control`): credit
#: grants (window state the granting side already reset), graceful-leave
#: handovers (the sender dies right after sending), and full buffer maps
#: — under delta gossip a full map is no longer repeated every period but
#: the *anchor* every subsequent delta is decoded against, so losing one
#: breaks the chain until a desync round-trip completes.  Deltas ride
#: along: an absorbed in-sequence delta applies normally, an
#: out-of-sequence one triggers the usual PING resync — whereas silently
#: dropping it would leave this peer's view of the sender a full desync
#: round-trip staler than the old repeat-every-period full maps ever were.
_ABSORBED_KINDS = frozenset(
    wire.WireKind[name] for name in ("CREDIT", "HANDOVER", "BUFFER_MAP", "MAP_DELTA")
)
