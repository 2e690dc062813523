"""Phase 4 — data scheduling (Algorithm 1) and the transfers it triggers."""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.core.phases.base import Phase, PhaseReport, RoundContext
from repro.net.message import MessageKind
from repro.streaming.buffermap import BufferMap, buffer_map_bits


class DataSchedulingPhase(Phase):
    """Every consumer plans its pull requests and executes the transfers.

    Consumers are visited in a per-round random order (no node is
    systematically first at the shared uplinks).  Each visit:

    1. fetches the buffer-map snapshot of every partner (control traffic
       charged per map);
    2. runs the node's scheduling policy over the snapshots (urgency+rarity
       for ContinuStreaming, rarest-first for the baseline);
    3. executes the requests against the shared per-period budgets,
       rerouting to a fallback supplier when the chosen uplink is already
       saturated this period;
    4. feeds the per-supplier delivery counts back into the node's
       receive-rate estimator.
    """

    name = "data-scheduling"

    def execute(self, ctx: RoundContext) -> PhaseReport:
        cfg = ctx.config
        map_bits = buffer_map_bits(cfg.buffer_capacity)
        delivered_total = 0
        order = list(ctx.consumers)
        ctx.rng.shuffle(order)
        for nid in order:
            node = ctx.nodes[nid]
            neighbor_maps = {
                nbr: ctx.snapshots[nbr]
                for nbr in node.neighbors
                if nbr in ctx.snapshots
            }
            # Control traffic: fetching the buffer map of each neighbour.
            if neighbor_maps:
                ctx.ledger.record(
                    MessageKind.BUFFER_MAP,
                    map_bits * len(neighbor_maps),
                    count=len(neighbor_maps),
                )
            if not neighbor_maps or ctx.newest_segment_id < 0:
                continue
            requests = node.plan_requests(
                neighbor_maps, ctx.newest_segment_id, cfg.scheduling_window
            )
            # Only suppliers we actually request from get a rate observation;
            # a requested supplier that delivers nothing decays, the others
            # keep their estimate.
            delivered_per_neighbor: Dict[int, int] = {
                request.supplier_id: 0 for request in requests
            }
            for request in requests:
                supplier = request.supplier_id
                if ctx.inbound_budget.get(nid, 0.0) < 1.0:
                    break
                if ctx.outbound_budget.get(supplier, 0.0) < 1.0:
                    # The chosen supplier's uplink is saturated this period;
                    # re-request the segment from any other partner that
                    # advertises it and still has capacity (a pull protocol
                    # retries within the period rather than dropping the
                    # segment on the floor).
                    supplier = self._fallback_supplier(
                        request.segment_id, neighbor_maps, ctx.outbound_budget
                    )
                    if supplier is None:
                        continue
                ctx.inbound_budget[nid] -= 1.0
                ctx.outbound_budget[supplier] -= 1.0
                node.receive_segment(request.segment_id)
                ctx.consider_backup(node, request.segment_id)
                delivered_per_neighbor[supplier] = (
                    delivered_per_neighbor.get(supplier, 0) + 1
                )
            delivered = sum(delivered_per_neighbor.values())
            if delivered:
                # One ledger row per consumer: segment sizes are whole bits,
                # so the float total equals the per-segment running sum.
                ctx.ledger.record(
                    MessageKind.DATA_SCHEDULED,
                    cfg.segment_bits * delivered,
                    count=delivered,
                )
                delivered_total += delivered
            node.observe_deliveries(delivered_per_neighbor)
        ctx.segments_scheduled = delivered_total
        return self.report(segments_delivered=delivered_total)

    @staticmethod
    def _fallback_supplier(
        segment_id: int,
        neighbor_maps: Mapping[int, BufferMap],
        outbound_budget: Mapping[int, float],
    ) -> Optional[int]:
        """Another partner that advertises ``segment_id`` and has uplink left."""
        best: Optional[int] = None
        best_budget = 1.0
        for neighbor_id, neighbor_map in neighbor_maps.items():
            if segment_id not in neighbor_map.present:
                continue
            budget = outbound_budget.get(neighbor_id, 0.0)
            if budget >= best_budget:
                best, best_budget = neighbor_id, budget
        return best
