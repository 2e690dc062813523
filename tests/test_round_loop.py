"""The simulator's round: one loop over the pipeline per scheduling period.

``StreamingSystem.step_round`` builds one ``RoundContext`` for the period
starting at ``round_index · τ``, runs every phase of the pipeline once, in
pipeline order, and folds the context into a ``RoundReport``; ``run(n)`` is
``step_round()`` repeated ``n`` times.  These tests pin that contract with
taps spliced in through the ``pipeline=`` hook.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import asdict

import pytest

from repro.core.phases import OnDemandRetrievalPhase, Phase, PhaseReport, RoundContext
from repro.core.system import StreamingSystem
from repro.scenarios import builtin_scenario

SYSTEMS = ("continustreaming", "coolstreaming")
SCENARIOS = ("static", "paper-dynamic")
ROUNDS = 8


def toy_spec(scenario: str, system: str):
    spec = builtin_scenario(scenario).scaled(num_nodes=40, rounds=ROUNDS, system=system)
    if scenario == "paper-dynamic":
        # Churn plus loss, so the lossy phase is in the pipeline too.
        spec = dataclasses.replace(spec, loss_rate=0.02)
    return spec


def system_with(spec, pipeline) -> StreamingSystem:
    return StreamingSystem(spec.to_config(), system=spec.system, pipeline=pipeline)


class Tap(Phase):
    """Calls ``probe(ctx)`` and keeps what it returns, one entry per period."""

    def __init__(self, name: str, probe) -> None:
        self.name = name
        self.probe = probe
        self.seen = []

    def execute(self, ctx: RoundContext) -> PhaseReport:
        self.seen.append(self.probe(ctx))
        return self.report()


class Boom(Phase):
    name = "boom"

    def execute(self, ctx: RoundContext) -> PhaseReport:
        raise RuntimeError("boom")


def trace(system: StreamingSystem):
    """Everything a run leaves behind, in comparable form."""
    return (
        [asdict(report) for report in system.reports],
        list(system.tracker.continuity),
        system.traffic.times,
        [(dict(l.bits), dict(l.counts)) for l in system.traffic.rounds],
    )


class TestRunIsStepRoundRepeated:
    @pytest.mark.parametrize("system", SYSTEMS)
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_run_equals_stepping_every_period(self, scenario, system):
        spec = toy_spec(scenario, system)
        ran = spec.build_system()
        ran.run()
        stepped = spec.build_system()
        reports = [stepped.step_round() for _ in range(ROUNDS)]
        assert reports == stepped.reports
        assert trace(ran) == trace(stepped)

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_run_resumes_where_the_steps_left_off(self, system):
        spec = toy_spec("paper-dynamic", system)
        whole = spec.build_system()
        whole.run()
        split = spec.build_system()
        for _ in range(3):
            split.step_round()
        result = split.run(ROUNDS - 3)
        assert [r.round_index for r in result.rounds] == list(range(ROUNDS))
        assert trace(split) == trace(whole)


class TestPipelineOrder:
    @pytest.mark.parametrize("system", SYSTEMS)
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_phase_runs_once_per_period_in_order(self, scenario, system):
        spec = toy_spec(scenario, system)
        pipeline = list(spec.build_pipeline())
        names = [phase.name for phase in pipeline]
        if scenario == "paper-dynamic":
            assert "lossy-network" in names
        tap = Tap("order-tap", lambda ctx: [r.phase for r in ctx.phase_reports])
        system_with(spec, [*pipeline, tap]).run()
        assert tap.seen == [names] * ROUNDS

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_a_tap_sees_the_reports_of_the_phases_before_it(self, where):
        spec = toy_spec("static", "continustreaming")
        pipeline = list(spec.build_pipeline())
        names = [phase.name for phase in pipeline]
        index = {"first": 0, "middle": len(pipeline) // 2, "last": len(pipeline)}[where]
        tap = Tap("position-tap", lambda ctx: [r.phase for r in ctx.phase_reports])
        pipeline.insert(index, tap)
        system_with(spec, pipeline).run()
        assert tap.seen == [names[:index]] * ROUNDS

    def test_a_failing_phase_leaves_the_period_unrun(self, tiny_config):
        system = StreamingSystem(tiny_config, pipeline=[Boom()])
        with pytest.raises(RuntimeError, match="boom"):
            system.step_round()
        assert (system.round_index, system.now) == (0, 0.0)
        assert system.reports == [] and system.traffic.rounds == []

    def test_an_empty_pipeline_only_advances_time(self, tiny_config):
        system = StreamingSystem(tiny_config, pipeline=[])
        result = system.run(3)
        tau = tiny_config.scheduling_period
        assert [r.time for r in result.rounds] == [tau, 2 * tau, 3 * tau]
        for report in result.rounds:
            assert report.segments_scheduled == report.segments_prefetched == 0
            assert report.nodes_total == report.nodes_playing == 0
        assert all(l.total_bits() == 0 for l in system.traffic.rounds)


class TestOneContextPerPeriod:
    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_context_spans_exactly_one_period(self, tiny_config, tau):
        config = dataclasses.replace(tiny_config, scheduling_period=tau)
        tap = Tap("clock-tap", lambda ctx: (ctx.round_index, ctx.round_start, ctx.round_end))
        default = StreamingSystem(config).pipeline
        system = StreamingSystem(config, pipeline=[tap, *default])
        result = system.run()
        assert tap.seen == [(i, i * tau, (i + 1) * tau) for i in range(config.rounds)]
        assert [r.time for r in result.rounds] == [(i + 1) * tau for i in range(config.rounds)]
        assert system.now == pytest.approx(config.rounds * tau)

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_each_period_starts_from_a_fresh_context(self, system):
        spec = toy_spec("paper-dynamic", system)
        first = Tap(
            "first-tap",
            lambda ctx: (
                id(ctx),
                ctx.phase_reports == [],
                ctx.segments_scheduled + ctx.segments_prefetched + ctx.prefetch_triggers,
                sum(ctx.lookups.values()),
                ctx.outbound_budget == {} and ctx.predictions == {},
            ),
        )
        last = Tap("last-tap", id)
        system_with(spec, [first, *spec.build_pipeline(), last]).run()
        for (ctx_id, no_reports, counted, looked_up, no_budgets), end_id in zip(
            first.seen, last.seen
        ):
            assert ctx_id == end_id  # every phase of the period saw this context
            assert no_reports and counted == 0 and looked_up == 0 and no_budgets

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_the_report_is_the_context_folded(self, system):
        spec = toy_spec("paper-dynamic", system)
        tap = Tap(
            "fold-tap",
            lambda ctx: dict(
                round_index=ctx.round_index,
                time=ctx.round_end,
                continuity=ctx.continuity,
                nodes_playing=ctx.nodes_playing,
                nodes_total=len(ctx.consumers),
                segments_scheduled=ctx.segments_scheduled,
                segments_prefetched=ctx.segments_prefetched,
                prefetch_triggers=ctx.prefetch_triggers,
                nodes_joined=ctx.nodes_joined,
                nodes_left=ctx.nodes_left,
                **ctx.lookups,
            ),
        )
        result = system_with(spec, [*spec.build_pipeline(), tap]).run()
        assert tap.seen == [asdict(report) for report in result.rounds]
        assert sum(r.nodes_left for r in result.rounds) > 0

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_one_ledger_per_period_stamped_at_its_end(self, system):
        spec = toy_spec("static", system)
        tap = Tap("ledger-tap", lambda ctx: (ctx.ledger, ctx.round_end))
        run = system_with(spec, [*spec.build_pipeline(), tap])
        run.run()
        assert len(run.traffic.rounds) == ROUNDS
        for (ledger, end), logged, stamp in zip(tap.seen, run.traffic.rounds, run.traffic.times):
            assert logged is ledger and stamp == end
        assert len({id(ledger) for ledger, _ in tap.seen}) == ROUNDS


class RecordingRetrieval(OnDemandRetrievalPhase):
    """Algorithm 2 unchanged, with the order of its per-node retrievals kept."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = []

    def _retrieve_for_node(self, ctx: RoundContext, nid: int) -> None:
        self.calls[-1].append(nid)
        super()._retrieve_for_node(ctx, nid)

    def execute(self, ctx: RoundContext) -> PhaseReport:
        self.calls.append([])
        return super().execute(ctx)


class TestOnDemandInline:
    def test_retrievals_follow_one_shuffle_of_the_triggered_nodes(self):
        spec = toy_spec("paper-dynamic", "continustreaming").scaled(num_nodes=60)
        pipeline = list(spec.build_pipeline())
        at = [phase.name for phase in pipeline].index("on-demand-retrieval")
        retrieval = RecordingRetrieval()
        before = Tap(
            "before-retrieval",
            lambda ctx: (list(ctx.predictions), copy.deepcopy(ctx.rng)),
        )
        pipeline[at : at + 1] = [before, retrieval]
        result = system_with(spec, pipeline).run()
        assert sum(r.prefetch_triggers for r in result.rounds) > 0
        assert len(before.seen) == len(retrieval.calls) == ROUNDS
        assert any(len(calls) > 1 for calls in retrieval.calls)
        for (triggered, rng), calls in zip(before.seen, retrieval.calls):
            # The phase shuffles the triggered nodes with the round stream
            # and retrieves for each one, once, in that order.
            expected = list(triggered)
            if expected:
                rng.shuffle(expected)
            assert calls == expected
            assert sorted(calls) == sorted(triggered)
