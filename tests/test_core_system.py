"""Integration-level tests for the StreamingSystem orchestration."""

from __future__ import annotations

import gc
import weakref
from dataclasses import asdict, replace

import pytest

from repro.core.continu import ContinuStreamingNode
from repro.core.node import StreamingNode
from repro.core.phases import Phase, PhaseReport, ProtocolRegistry, RoundContext
from repro.core.system import StreamingSystem
from repro.net.message import MessageKind
from repro.scenarios.cell import Cell, run_cell


class TestBuild:
    def test_unknown_system_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            StreamingSystem(tiny_config, system="bittorrent")

    def test_build_creates_all_nodes(self, tiny_config):
        system = StreamingSystem(tiny_config).build()
        assert len(system.nodes) == tiny_config.num_nodes
        assert system.source_id in system.nodes
        assert system.nodes[system.source_id].is_source

    def test_build_is_idempotent(self, tiny_config):
        system = StreamingSystem(tiny_config)
        system.build()
        node_ids = set(system.nodes)
        system.build()
        assert set(system.nodes) == node_ids

    def test_node_classes_match_system(self, tiny_config):
        conti = StreamingSystem(tiny_config, system="continustreaming").build()
        cool = StreamingSystem(tiny_config, system="coolstreaming").build()
        assert all(isinstance(n, ContinuStreamingNode) for n in conti.nodes.values())
        assert all(
            type(n) is StreamingNode and n.scheduler.policy == "rarest_first"
            for n in cool.nodes.values()
        )

    def test_partnerships_are_symmetric(self, tiny_config):
        system = StreamingSystem(tiny_config).build()
        for nid, node in system.nodes.items():
            for neighbor in node.neighbors:
                assert system.nodes[neighbor].peer_table.has_neighbor(nid)

    def test_every_node_has_partners(self, tiny_config):
        system = StreamingSystem(tiny_config).build()
        for node in system.nodes.values():
            assert len(node.neighbors) >= 1

    def test_source_has_zero_inbound_and_large_outbound(self, tiny_config):
        system = StreamingSystem(tiny_config).build()
        source = system.nodes[system.source_id]
        assert source.inbound_rate == 0.0
        assert source.outbound_rate == tiny_config.source_outbound

    def test_dht_fingers_point_at_level_intervals(self, tiny_config):
        system = StreamingSystem(tiny_config).build()
        ring = system.ring
        for node in list(system.nodes.values())[:10]:
            for level, (peer, _) in node.peer_table.dht_peers.items():
                start, end = ring.level_interval(node.node_id, level)
                assert ring.in_clockwise_interval(peer, start, end)

    def test_seed_pairing_gives_identical_topology(self, tiny_config):
        a = StreamingSystem(tiny_config, system="coolstreaming").build()
        b = StreamingSystem(tiny_config, system="continustreaming").build()
        assert sorted(a.nodes) == sorted(b.nodes)
        assert a.source_id == b.source_id
        for nid in a.nodes:
            assert a.nodes[nid].inbound_rate == pytest.approx(b.nodes[nid].inbound_rate)


class TestRounds:
    def test_step_round_advances_time(self, tiny_config):
        system = StreamingSystem(tiny_config).build()
        report = system.step_round()
        assert system.now == pytest.approx(tiny_config.scheduling_period)
        assert report.round_index == 0
        assert report.nodes_total == tiny_config.num_nodes - 1

    def test_run_produces_one_report_per_round(self, tiny_config):
        result = StreamingSystem(tiny_config).run()
        assert len(result.rounds) == tiny_config.rounds
        assert len(result.continuity_series()) == tiny_config.rounds

    def test_data_flows_from_the_source(self, tiny_config):
        system = StreamingSystem(tiny_config).build()
        for _ in range(5):
            system.step_round()
        received = sum(
            len(node.buffer)
            for nid, node in system.nodes.items()
            if nid != system.source_id
        )
        assert received > 0

    def test_continuity_improves_over_time(self, small_config):
        result = StreamingSystem(small_config, system="continustreaming").run()
        series = result.continuity_series()
        assert max(series[-5:]) > max(series[:3])

    def test_traffic_is_recorded(self, tiny_config):
        result = StreamingSystem(tiny_config).run()
        totals = result.traffic.cumulative()
        assert totals.bits_of(MessageKind.BUFFER_MAP) > 0
        assert totals.bits_of(MessageKind.DATA_SCHEDULED) > 0

    def test_coolstreaming_never_prefetches(self, tiny_config):
        result = StreamingSystem(tiny_config, system="coolstreaming").run()
        totals = result.traffic.cumulative()
        assert totals.bits_of(MessageKind.DATA_PREFETCH) == 0
        assert totals.bits_of(MessageKind.DHT_ROUTING) == 0
        assert result.prefetch_overhead() == 0.0

    def test_continustreaming_prefetch_traffic_appears(self, small_config):
        result = StreamingSystem(small_config, system="continustreaming").run()
        totals = result.traffic.cumulative()
        assert totals.bits_of(MessageKind.DHT_ROUTING) > 0

    def test_prefetch_limit_zero_disables_prefetch(self, tiny_config):
        config = replace(tiny_config, prefetch_limit=0)
        result = StreamingSystem(config, system="continustreaming").run()
        assert result.traffic.cumulative().bits_of(MessageKind.DATA_PREFETCH) == 0

    def test_run_is_reproducible(self, tiny_config):
        a = StreamingSystem(tiny_config, system="continustreaming").run()
        b = StreamingSystem(tiny_config, system="continustreaming").run()
        assert a.continuity_series() == b.continuity_series()
        assert a.prefetch_overhead() == pytest.approx(b.prefetch_overhead())

    def test_different_seeds_differ(self, tiny_config):
        a = StreamingSystem(tiny_config.with_seed(1)).run()
        b = StreamingSystem(tiny_config.with_seed(2)).run()
        assert a.continuity_series() != b.continuity_series()

    def test_bandwidth_budgets_respected(self, tiny_config):
        """No node may receive more segments per round than its inbound budget."""
        system = StreamingSystem(tiny_config).build()
        before = {
            nid: node.stats.segments_received_scheduled
            + node.stats.segments_received_prefetch
            for nid, node in system.nodes.items()
        }
        system.step_round()
        for nid, node in system.nodes.items():
            received = (
                node.stats.segments_received_scheduled
                + node.stats.segments_received_prefetch
                - before[nid]
            )
            budget = node.inbound_rate * tiny_config.scheduling_period
            assert received <= budget + 1e-9


class TestChurn:
    def test_static_run_keeps_population(self, tiny_config):
        system = StreamingSystem(tiny_config).build()
        for _ in range(5):
            system.step_round()
        assert len(system.alive_node_ids()) == tiny_config.num_nodes

    def test_dynamic_run_changes_membership(self, tiny_config):
        config = tiny_config.dynamic_variant(0.1)
        system = StreamingSystem(config).build()
        initial_ids = set(system.alive_node_ids())
        for _ in range(6):
            report = system.step_round()
        assert report.nodes_left > 0 or report.nodes_joined > 0
        final_ids = set(system.alive_node_ids())
        assert final_ids != initial_ids

    def test_source_survives_churn(self, tiny_config):
        config = tiny_config.dynamic_variant(0.2)
        system = StreamingSystem(config).build()
        for _ in range(8):
            system.step_round()
        assert system.nodes[system.source_id].alive

    def test_departed_nodes_are_marked_dead(self, tiny_config):
        config = tiny_config.dynamic_variant(0.1)
        system = StreamingSystem(config).build()
        for _ in range(6):
            system.step_round()
        dead = [nid for nid, node in system.nodes.items() if not node.alive]
        assert dead
        alive = set(system.alive_node_ids())
        assert not (alive & set(dead))

    def test_joined_nodes_get_partners_and_bandwidth(self, tiny_config):
        config = tiny_config.dynamic_variant(0.1)
        system = StreamingSystem(config).build()
        initial = set(system.nodes)
        for _ in range(6):
            system.step_round()
        joiners = [nid for nid in system.alive_node_ids() if nid not in initial]
        assert joiners
        for nid in joiners:
            node = system.nodes[nid]
            assert node.neighbors, "joiner must have connected neighbours"
            assert nid in system.bandwidth

    def test_alive_partner_lists_stay_alive_after_repair(self, tiny_config):
        config = tiny_config.dynamic_variant(0.1)
        system = StreamingSystem(config).build()
        for _ in range(6):
            system.step_round()
        for nid in system.alive_node_ids():
            for neighbor in system.nodes[nid].peer_table.neighbor_ids():
                assert system.nodes[neighbor].alive


class TestDeterminism:
    """Two runs from the same seed must be byte-identical (guards the
    pipeline refactor against ordering regressions)."""

    @pytest.mark.parametrize("system", ["coolstreaming", "continustreaming"])
    def test_same_seed_gives_identical_round_reports(self, tiny_config, system):
        a = StreamingSystem(tiny_config, system=system).run()
        b = StreamingSystem(tiny_config, system=system).run()
        assert repr(a.rounds) == repr(b.rounds)
        assert [asdict(r) for r in a.rounds] == [asdict(r) for r in b.rounds]

    @pytest.mark.parametrize("system", ["coolstreaming", "continustreaming"])
    def test_same_seed_identical_under_churn(self, tiny_config, system):
        config = tiny_config.dynamic_variant(0.1)
        a = StreamingSystem(config, system=system).run()
        b = StreamingSystem(config, system=system).run()
        assert repr(a.rounds) == repr(b.rounds)
        assert a.control_overhead() == pytest.approx(b.control_overhead())
        assert a.prefetch_overhead() == pytest.approx(b.prefetch_overhead())


class TestNoReferenceCycles:
    """A dropped system is freed by reference counting alone: nothing in it
    points back at the overlay or the facade, so its nodes do not wait for
    the cycle collector (the benchmark drops several set-up builds)."""

    @pytest.mark.parametrize("system", ["coolstreaming", "continustreaming"])
    @pytest.mark.parametrize("dynamic", [False, True])
    def test_built_and_run_systems_free_at_once(self, tiny_config, system, dynamic):
        config = tiny_config.dynamic_variant(0.1) if dynamic else tiny_config
        built = StreamingSystem(config, system=system).build()
        ran = StreamingSystem(config, system=system)
        result = ran.run()
        refs = [weakref.ref(obj) for obj in (built, built.manager, ran, ran.manager, result)]
        gc.disable()
        try:
            del built, ran, result
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()


class TestRoundClock:
    """Time advances one period per ``step_round``; nothing else moves it."""

    def test_each_step_is_one_period(self, tiny_config):
        system = StreamingSystem(tiny_config).build()
        tau = tiny_config.scheduling_period
        assert system.now == 0.0
        first = system.step_round()
        assert (system.round_index, system.now, first.time) == (1, tau, tau)
        second = system.step_round()
        assert (system.round_index, system.now, second.time) == (2, 2 * tau, 2 * tau)

    def test_every_triggered_retrieval_runs_inside_its_round(self, small_config):
        seen = []

        class PhaseOrderTap(Phase):
            name = "phase-order-tap"

            def execute(self, ctx: RoundContext) -> PhaseReport:
                seen.append((ctx.prefetch_triggers, list(ctx.phase_reports)))
                return self.report()

        default = ProtocolRegistry.get("continustreaming").build_pipeline()
        system = StreamingSystem(small_config, pipeline=[*default, PhaseOrderTap()])
        system.run()
        assert sum(triggers for triggers, _ in seen) > 0
        names = [phase.name for phase in default]
        for triggers, reports in seen:
            # Every phase ran once, in pipeline order, before the tap.
            assert [report.phase for report in reports] == names
            ondemand = reports[names.index("on-demand-retrieval")]
            # One retrieval per triggered node, all within the period.
            assert ondemand.details["nodes_triggered"] == triggers

    def test_run_ends_at_the_configured_duration(self, tiny_config):
        system = StreamingSystem(tiny_config)
        result = system.run()
        tau = tiny_config.scheduling_period
        assert system.round_index == tiny_config.rounds
        assert system.now == pytest.approx(tiny_config.duration)
        assert [r.time for r in result.rounds] == [
            (i + 1) * tau for i in range(tiny_config.rounds)
        ]


class TestHeadlineComparison:
    def test_continustreaming_beats_coolstreaming_static(self, small_config):
        # The paired A/B: both systems on one scenario from one seed.
        cool, conti = (
            run_cell(Cell("static", "sim", small_config.num_nodes, small_config.rounds,
                          system, small_config.seed))
            for system in ("coolstreaming", "continustreaming")
        )
        assert cool.result.config == conti.result.config == small_config
        assert conti.metrics["stable_continuity"] > cool.metrics["stable_continuity"]

    def test_prefetch_overhead_is_small(self, small_config):
        result = StreamingSystem(small_config, system="continustreaming").run()
        assert 0.0 < result.prefetch_overhead() < 0.15

    def test_control_overhead_is_small(self, small_config):
        for system in ("coolstreaming", "continustreaming"):
            result = StreamingSystem(small_config, system=system).run()
            assert 0.0 < result.control_overhead() < 0.1
