"""Phase 7 — churn and membership maintenance (period end)."""

from __future__ import annotations

from repro.core.phases.base import Phase, PhaseReport, RoundContext


class ChurnMaintenancePhase(Phase):
    """Apply the round's departures/arrivals, then repair the overlay.

    In dynamic environments the configured churn process removes a fraction
    of the population (graceful leavers hand their VoD backup to the
    counter-clockwise closest neighbour, abrupt failures do not) and admits
    newcomers through the Rendezvous Point.  In every environment, the
    repair pass drops dead partners, refills neighbour slots from overheard
    nodes, and keeps partnerships symmetric.  All overlay surgery lives on
    the :class:`~repro.core.overlay.OverlayManager`; this phase only decides
    *when* it happens.
    """

    name = "churn-maintenance"

    def execute(self, ctx: RoundContext) -> PhaseReport:
        assert ctx.manager is not None, "churn maintenance needs an OverlayManager"
        manager = ctx.manager
        joined = left = 0
        if not manager.churn.is_static:
            event = manager.churn.step(
                ctx.round_index,
                manager.alive_node_ids(),
                manager.streams.get("churn"),
            )
            for nid in event.leaving:
                manager.remove_node(nid, ctx.rng)
            for _ in event.joining:
                manager.admit_node(ctx.rng, now=ctx.round_start)
            joined, left = len(event.joining), len(event.leaving)
        manager.repair_neighbors()
        ctx.nodes_joined = joined
        ctx.nodes_left = left
        return self.report(nodes_joined=joined, nodes_left=left)
