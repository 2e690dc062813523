"""Scenario-specific pipeline phases.

These plug into the standard round pipeline through the
``StreamingSystem(config, pipeline=...)`` hook — scenario features that
would otherwise require core-code branches become ordinary
:class:`~repro.core.phases.base.Phase` objects inserted by
:meth:`~repro.scenarios.spec.ScenarioSpec.build_pipeline`.
"""

from __future__ import annotations

from repro.core.phases.base import Phase, PhaseReport, RoundContext


class LossyNetworkPhase(Phase):
    """Throughput-level model of a lossy network.

    Real pull-based streaming runs over TCP, where a packet-loss rate ``q``
    shows up as a throughput reduction (retransmissions and congestion
    backoff eat goodput) rather than as missing segments.  This phase
    therefore scales every node's per-period inbound and outbound budget by
    ``1 - loss_rate`` after the gossip phase computes them and before the
    scheduler spends them.

    It must sit between :class:`~repro.core.phases.gossip.BufferMapGossipPhase`
    (which fills ``ctx.inbound_budget`` / ``ctx.outbound_budget``) and
    :class:`~repro.core.phases.scheduling.DataSchedulingPhase` (which
    consumes them); :meth:`ScenarioSpec.build_pipeline` inserts it there.
    """

    name = "lossy-network"

    def __init__(self, loss_rate: float) -> None:
        if not (0.0 <= loss_rate < 1.0):
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate!r}")
        self.loss_rate = float(loss_rate)

    def execute(self, ctx: RoundContext) -> PhaseReport:
        factor = 1.0 - self.loss_rate
        for node_id in ctx.inbound_budget:
            ctx.inbound_budget[node_id] *= factor
        for node_id in ctx.outbound_budget:
            ctx.outbound_budget[node_id] *= factor
        return self.report(
            loss_rate=self.loss_rate,
            nodes_throttled=float(len(ctx.inbound_budget)),
        )
