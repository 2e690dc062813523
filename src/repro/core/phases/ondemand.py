"""Phase 5 — on-demand DHT retrieval of predicted-missed segments (Algorithm 2).

For each predicted-missed segment the node walks the DHT to the holders of
its ``k`` backup keys, one key at a time; every holder answers whether it
has the segment and at what rate it can send it.  Probing stops at the
first holder with the data and a rate of at least one segment, and the
best holder answered so far becomes the on-demand supplier.  That policy
is :class:`Lookup` — no clock, socket or ledger — and the simulator and the
runtime both run it: the phase fills the answers synchronously from the
greedy router, and :class:`~repro.runtime.peer.LivePeer` fills them from
``DhtResponse`` frames.  Section 5.4.3's cost per segment,
:func:`~repro.analysis.theory.expected_routing_messages`, is the bound for
a lookup that walks all ``k`` keys.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple

from repro.core.continu import ContinuStreamingNode
from repro.core.node import LOCATED, NO_HOLDER, NO_RATE, REPEATED
from repro.core.phases.base import Phase, PhaseReport, RoundContext
from repro.dht.hashing import backup_keys
from repro.net.message import ROUTING_MESSAGE_BITS, MessageKind

#: One holder's answer to one routing message: ``(holder, has_data, rate)``.
Answer = Tuple[int, bool, float]


class Lookup:
    """One segment's location step: the backup keys and one answer per key.

    ``answers[i]`` is the answer for ``keys[i]``, or ``None`` while it has
    not arrived (a key not walked yet, a lost frame, a timeout, a dead
    holder).  Keys may collide on a small ring; :meth:`answer` fills the
    first open slot of a key.  ``walked`` is the walk cursor — the keys
    taken so far, in order — and ``walks`` counts the DHT walks actually
    sent for them.
    """

    __slots__ = ("origin", "segment_id", "keys", "answers", "walked", "walks")

    def __init__(self, origin: int, segment_id: int, replicas: int, id_space: int) -> None:
        self.origin = origin
        self.segment_id = segment_id
        self.keys = backup_keys(segment_id, replicas, id_space)
        self.answers: List[Optional[Answer]] = [None] * len(self.keys)
        self.walked = 0
        self.walks = 0

    def answer(self, key: int, holder: int, has_data: bool, rate: float) -> None:
        """Record ``holder``'s answer for backup key ``key``."""
        for index, wanted in enumerate(self.keys):
            if wanted == key and self.answers[index] is None:
                self.answers[index] = (holder, has_data, rate)
                return

    def _offers(self) -> Iterator[Answer]:
        """Each holder's first answer in key order; the origin is skipped."""
        seen = {self.origin}
        for answer in self.answers:
            if answer is not None and answer[0] not in seen:
                seen.add(answer[0])
                yield answer

    def supplier(self) -> Optional[int]:
        """The on-demand supplier, or ``None`` if no holder can serve.

        The answers are walked in key order.  The origin and any holder
        already seen are skipped; among holders with the data, the first
        strictly higher rate wins, so a zero rate never does and an exact
        tie keeps the earlier key's holder.
        """
        best: Optional[int] = None
        best_rate = 0.0
        for holder, has_data, rate in self._offers():
            if has_data and rate > best_rate:
                best_rate = rate
                best = holder
        return best

    def found(self) -> bool:
        """True once a holder other than the origin offers the data at a
        rate of at least one segment."""
        return any(has_data and rate >= 1.0 for _, has_data, rate in self._offers())

    def probing(self, has_segment: bool) -> bool:
        """Algorithm 2's stop rule: whether to walk ``keys[walked]`` next.

        Probing goes on only while no holder was :meth:`found`, the
        requester still lacks the segment (``has_segment`` false) and keys
        remain.
        """
        return self.walked < len(self.keys) and not has_segment and not self.found()

    def walk(self, has_segment: bool, send: Callable[[int, int], bool]) -> bool:
        """Advance the cursor: walk the next key while :meth:`probing` allows.

        ``send(segment_id, key)`` starts one key's walk, or returns False
        when the requester owns the key itself (that key is passed over).
        True if a walk left, False if probing stopped first."""
        while self.probing(has_segment):
            key = self.keys[self.walked]
            self.walked += 1
            if send(self.segment_id, key):
                self.walks += 1
                return True
        return False

    def unanswered(self) -> bool:
        """True while the last key walked has no answer (a lost frame, a dead
        holder): the driver passes it over and walks the next (:meth:`walk`)."""
        return self.walked > 0 and self.answers[self.walked - 1] is None

    def decide(self, has_segment: bool) -> Tuple[str, Optional[int]]:
        """Close the lookup: its outcome and, when ``LOCATED``, the supplier.

        ``REPEATED`` when the requester already has the segment; otherwise
        ``LOCATED`` with :meth:`supplier`, ``NO_RATE`` when holders have the
        data but none offers a positive rate, and ``NO_HOLDER`` otherwise.
        """
        if has_segment:
            return REPEATED, None
        supplier = self.supplier()
        if supplier is not None:
            return LOCATED, supplier
        if any(has_data for _, has_data, _ in self._offers()):
            return NO_RATE, None
        return NO_HOLDER, None


class OnDemandRetrievalPhase(Phase):
    """Locate and download the urgent segments gossip is about to miss.

    The phase runs right after the data scheduler in the same period.  The
    DHT lookups are in flight while gossip delivers, so the scheduler's
    transfers are already in the buffers when a lookup closes; the fetch
    itself is timed by arithmetic, landing at ``round_start + t_fetch``
    (eq. (7)).  Triggered nodes retrieve one after another, in a per-round
    random order.

    Per node, every missed segment is located first (ascending id), its
    backup keys walked in turn until :meth:`Lookup.probing` stops; then
    each :class:`Lookup` pays the routing cost of the walks it made and
    lets the nodes on their paths overhear each other, is dropped as
    "repeated data" when gossip delivered the segment meanwhile (``α``
    shrinks), and otherwise downloads from its supplier within the shared
    per-period budgets.
    """

    name = "on-demand-retrieval"

    def execute(self, ctx: RoundContext) -> PhaseReport:
        if not ctx.predictions:
            return self.report(nodes_triggered=0)
        order = list(ctx.predictions)
        ctx.rng.shuffle(order)
        assert ctx.manager is not None, "on-demand retrieval needs an OverlayManager"
        for nid in order:
            self._retrieve_for_node(ctx, nid)
        return self.report(nodes_triggered=len(order))

    # ------------------------------------------------------------- internals
    def _retrieve_for_node(self, ctx: RoundContext, nid: int) -> None:
        """Run Algorithm 2 for one triggered node and execute the downloads."""
        manager = ctx.manager
        assert manager is not None
        cfg = ctx.config
        node = ctx.nodes[nid]
        assert isinstance(node, ContinuStreamingNode)
        nodes = ctx.nodes
        outbound = ctx.outbound_budget
        route = manager.router.route
        id_space = manager.router.ring.size
        # Locate every segment before acting on any: overhearing the paths
        # and the downloads below must not steer the walks or the answers.
        located = []

        def send(segment_id: int, key: int) -> bool:
            # Walks one key of the ``lookup`` in hand (bound per segment below).
            path = route(nid, key).path
            # A key the node owns itself routes nowhere: nothing is sent.
            if len(path) < 2:
                return False
            paths.append(path)
            holder_id = path[-1]
            holder = nodes.get(holder_id)
            if holder is not None and holder.alive:
                rate = holder.available_sending_rate(outbound.get(holder_id, 0.0))
                has_data = holder.serves_segment(segment_id)
                lookup.answers[lookup.walked - 1] = (holder_id, has_data, rate)
            return True

        for sid in sorted(ctx.predictions[nid]):
            lookup = Lookup(nid, sid, cfg.backup_replicas, id_space)
            paths: List[Tuple[int, ...]] = []
            # The first walk leaves before the node looks at its buffer: the
            # lookup is in flight while gossip delivers (REPEATED below).
            has_segment = False
            while lookup.walk(has_segment, send):
                has_segment = sid in node.buffer
            if paths:
                located.append((lookup, paths))
        overhear = manager.overhearing.overhear_path
        counts = ctx.lookups
        for lookup, paths in located:
            # Each hop of a walk is one routing message; the final reply
            # back to the requester is one more (the "+1" of Section 5.4.3).
            messages = sum(len(path) for path in paths)
            ctx.ledger.record(
                MessageKind.DHT_ROUTING, messages * ROUTING_MESSAGE_BITS, count=messages
            )
            # Every alive node on a routing path overhears the others on it.
            for path in paths:
                overhear(path)
            sid = lookup.segment_id
            # REPEATED: the data scheduler delivered the segment while the
            # DHT lookup was in flight; the routing cost was already paid
            # and the duplicate download is skipped.
            outcome, supplier = lookup.decide(sid in node.buffer)
            node.record_lookup(outcome, lookup.walks)
            counts[outcome] += 1
            counts["lookup_walks"] += lookup.walks
            if supplier is None or ctx.inbound_budget.get(nid, 0.0) < 1.0:
                continue
            if outbound.get(supplier, 0.0) < 1.0:
                continue
            ctx.inbound_budget[nid] -= 1.0
            outbound[supplier] -= 1.0
            arrival = ctx.round_start + manager.fetch_time_s
            deadline = node.deadline_of(sid, now=ctx.round_start)
            node.receive_segment(sid, prefetched=True)
            node.record_prefetch(sid, arrival, deadline)
            ctx.consider_backup(node, sid)
            ctx.ledger.record(MessageKind.DATA_PREFETCH, cfg.segment_bits)
            ctx.segments_prefetched += 1
        # Settle at the end of the period: everything launched this period
        # has either met or missed its deadline by then.
        node.settle_prefetches(ctx.round_end)
