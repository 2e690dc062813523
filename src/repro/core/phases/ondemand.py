"""Phase 5 — on-demand DHT retrieval of predicted-missed segments (Alg. 2)."""

from __future__ import annotations

from functools import partial
from typing import Any

from repro.core.continu import ContinuStreamingNode
from repro.core.ondemand import OnDemandRetriever, PrefetchPlan
from repro.core.phases.base import Phase, PhaseReport, RoundContext
from repro.net.message import MessageKind
from repro.sim.engine import Simulator


class OnDemandRetrievalPhase(Phase):
    """Locate and download the urgent segments gossip is about to miss.

    The phase fires at the start of the period (the lookups run *in
    parallel* with the data scheduler) but the actual per-node retrieval is
    scheduled as a follow-up event on the discrete-event engine at the
    expected DHT fetch-completion time ``t_fetch`` (eq. (7)), capped at the
    end of the period.  Triggered nodes are visited in a per-round random
    order; because their events share one timestamp, the engine's
    deterministic tie-breaking preserves that order.

    Per node, each :class:`~repro.core.ondemand.PrefetchPlan`:

    * pays its DHT routing cost and lets every node on the routing paths
      overhear the others (peer-table maintenance for free);
    * is dropped as "repeated data" when the data scheduler delivered the
      segment while the lookup was in flight — the urgent ratio ``α``
      shrinks;
    * otherwise downloads from the located backup holder, subject to the
      shared per-period budgets, and the overdue/on-time outcome feeds the
      ``α`` adaptation when the node settles its pre-fetches at period end.
    """

    name = "on-demand-retrieval"

    def execute(self, ctx: RoundContext) -> PhaseReport:
        if not ctx.predictions:
            return self.report(nodes_triggered=0)
        order = list(ctx.predictions)
        ctx.rng.shuffle(order)
        # One retriever serves every triggered node of the round; its origin
        # is set per node in ``_retrieve_for_node``.
        assert ctx.manager is not None, "on-demand retrieval needs an OverlayManager"
        retriever = OnDemandRetriever(
            node_id=ctx.source_id,
            router=ctx.manager.router,
            replicas=ctx.config.backup_replicas,
            has_segment=partial(self._holder_has_segment, ctx),
            available_rate=partial(self._holder_rate, ctx),
        )
        if ctx.sim is None:
            # Minimal synthetic contexts (unit tests) run inline.
            for nid in order:
                self._retrieve_for_node(ctx, nid, retriever)
        else:
            delay = min(self._fetch_time(ctx), ctx.period)
            for nid in order:
                ctx.sim.schedule_at(
                    ctx.round_start + delay, self._retrieve_event, (ctx, nid, retriever)
                )
        return self.report(nodes_triggered=len(order))

    # ------------------------------------------------------------- internals
    def _retrieve_event(self, sim: Simulator, payload: Any) -> None:
        self._retrieve_for_node(*payload)

    def _fetch_time(self, ctx: RoundContext) -> float:
        if ctx.manager is not None:
            return ctx.manager.fetch_time_s
        return ctx.config.expected_fetch_time(0.05)

    def _retrieve_for_node(
        self, ctx: RoundContext, nid: int, retriever: OnDemandRetriever
    ) -> None:
        """Run Algorithm 2 for one triggered node and execute the downloads."""
        manager = ctx.manager
        assert manager is not None
        cfg = ctx.config
        node = ctx.nodes[nid]
        assert isinstance(node, ContinuStreamingNode)
        retriever.node_id = nid
        plans = retriever.retrieve(ctx.predictions[nid])
        for plan in plans:
            ctx.ledger.record(
                MessageKind.DHT_ROUTING,
                plan.routing_bits(),
                count=plan.routing_messages,
            )
            self._overhear_paths(ctx, plan)
            if plan.segment_id in node.buffer:
                # The data scheduler delivered the segment while the DHT
                # lookup was in flight — the paper's "repeated data" case.
                # The routing cost was already paid; the duplicate
                # download is skipped and the urgent ratio shrinks.
                node.stats.prefetch_repeated += 1
                node.urgent_line.record_repeated(1)
                continue
            if not plan.located:
                continue
            supplier = plan.supplier_id
            assert supplier is not None
            if ctx.inbound_budget.get(nid, 0.0) < 1.0:
                continue
            if ctx.outbound_budget.get(supplier, 0.0) < 1.0:
                continue
            ctx.inbound_budget[nid] -= 1.0
            ctx.outbound_budget[supplier] -= 1.0
            arrival = ctx.round_start + manager.fetch_time_s
            deadline = node.deadline_of(plan.segment_id, now=ctx.round_start)
            node.receive_segment(plan.segment_id, prefetched=True)
            node.record_prefetch(plan.segment_id, arrival, deadline)
            ctx.consider_backup(node, plan.segment_id)
            ctx.ledger.record(MessageKind.DATA_PREFETCH, cfg.segment_bits)
            ctx.segments_prefetched += 1
        # Settle at the end of the period: everything launched this period
        # has either met or missed its deadline by then.
        node.settle_prefetches(ctx.round_end)

    @staticmethod
    def _holder_has_segment(ctx: RoundContext, holder_id: int, segment_id: int) -> bool:
        holder = ctx.nodes.get(holder_id)
        if holder is None or not holder.alive:
            return False
        if isinstance(holder, ContinuStreamingNode):
            return holder.serves_segment(segment_id)
        return holder.has_segment(segment_id)

    @staticmethod
    def _holder_rate(ctx: RoundContext, holder_id: int) -> float:
        holder = ctx.nodes.get(holder_id)
        if holder is None or not holder.alive:
            return 0.0
        return max(
            0.0,
            min(holder.outbound_rate, ctx.outbound_budget.get(holder_id, 0.0)),
        )

    @staticmethod
    def _overhear_paths(ctx: RoundContext, plan: PrefetchPlan) -> None:
        """Every node on a routing path overhears the other nodes on it."""
        assert ctx.manager is not None
        overhear = ctx.manager.overhearing.overhear_path
        nodes = ctx.nodes
        for path in plan.routing_paths:
            for hop in path:
                node = nodes.get(hop)
                if node is not None and node.alive:
                    overhear(node.peer_table, path, now=ctx.round_start)
