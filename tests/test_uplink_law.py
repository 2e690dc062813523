"""The uplink law: a supplier ships at most ⌊outbound_rate · τ⌋ data
segments per period and never overdraws its budget — in both drivers.

Simulator half: two taps go in through the ``pipeline=`` hook: one just
before ``data-scheduling`` records every supplier's budget as the scheduler
finds it (after gossip set it and any loss throttled it), one at the end of
the pipeline records what is left after the scheduler and the on-demand
retrievals spent it.  Their difference is what the supplier shipped.

Runtime half: a tap on ``LivePeer._ship`` counts every data segment a live
peer hands to its link, by the period the peer has open.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter

import pytest

from repro.core.phases import Phase, PhaseReport, RoundContext
from repro.runtime import LiveSwarm
from repro.runtime.peer import LivePeer
from repro.scenarios import BUILTIN_SCENARIOS, builtin_scenario


class BudgetTap(Phase):
    """Records ``ctx.outbound_budget`` (and each supplier's full-rate bound)
    every period."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.periods = []

    def execute(self, ctx: RoundContext) -> PhaseReport:
        self.periods.append(
            {
                nid: (budget, math.floor(ctx.nodes[nid].outbound_rate * ctx.period))
                for nid, budget in ctx.outbound_budget.items()
            }
        )
        return self.report()


def law_spec(scenario: str, system: str = "continustreaming"):
    spec = builtin_scenario(scenario).scaled(num_nodes=40, rounds=12, system=system)
    if scenario == "paper-dynamic":
        # The dynamic environment as the benchmark's churn workload runs it:
        # 5 %/5 % churn plus 2 % loss, so the lossy throttle is in the path.
        spec = dataclasses.replace(spec, loss_rate=0.02)
    return spec


def run_with_taps(scenario: str, system: str):
    spec = law_spec(scenario, system)
    before, after = BudgetTap("budget-before"), BudgetTap("budget-after")
    pipeline = list(spec.build_pipeline())
    pipeline.insert([phase.name for phase in pipeline].index("data-scheduling"), before)
    pipeline.append(after)
    streaming = spec.build_system()  # hetero-swarm's class-mix bandwidth too
    streaming.pipeline = tuple(pipeline)
    result = streaming.run()
    return before.periods, after.periods, result


@pytest.mark.parametrize("system", ["continustreaming", "coolstreaming"])
@pytest.mark.parametrize("scenario", sorted(BUILTIN_SCENARIOS))
def test_no_supplier_ships_more_than_its_uplink(scenario, system):
    before, after, result = run_with_taps(scenario, system)
    assert len(before) == len(after) == len(result.rounds) == 12
    if scenario in ("paper-dynamic", "diurnal"):
        assert sum(r.nodes_left for r in result.rounds) > 0
    shipped_total = 0.0
    for start, end in zip(before, after):
        assert start.keys() == end.keys()
        for nid, (budget, bound) in start.items():
            left = end[nid][0]
            assert left >= 0.0, f"supplier {nid} overdrew its budget: {left}"
            shipped = budget - left
            assert shipped <= bound + 1e-9, f"supplier {nid} shipped {shipped} > {bound}"
            shipped_total += shipped
    # The taps saw the period's real traffic: every segment the scheduler
    # delivered or a retrieval fetched was charged to some supplier.
    delivered = sum(r.segments_scheduled + r.segments_prefetched for r in result.rounds)
    assert delivered > 0
    assert shipped_total == pytest.approx(delivered)


@pytest.mark.parametrize("scenario", sorted(BUILTIN_SCENARIOS))
def test_no_live_peer_ships_more_than_its_uplink_in_a_period(scenario, monkeypatch):
    shipped = Counter()
    ship = LivePeer._ship

    def tapped(peer, dst, msg, frame, entry, data):
        if data:
            shipped[peer, peer._current_tick] += 1
        ship(peer, dst, msg, frame, entry, data)

    monkeypatch.setattr(LivePeer, "_ship", tapped)
    result = LiveSwarm(law_spec(scenario), clock="virtual").run()
    period = result.config.scheduling_period
    over = {
        (peer.peer_id, tick): (count, math.floor(peer.node.outbound_rate * period))
        for (peer, tick), count in shipped.items()
        if count > math.floor(peer.node.outbound_rate * period)
    }
    assert over == {}, f"(peer, period): (shipped, bound) {over}"
    # The tap saw every data frame the run charged.
    assert sum(shipped.values()) == result.segments_delivered() > 0
