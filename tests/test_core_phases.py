"""Unit tests for the round pipeline: phases, context, registry, hooks.

Each extracted phase is exercised in isolation against a minimal synthetic
:class:`~repro.core.phases.base.RoundContext` — no full overlay build — plus
integration tests for the ``pipeline=`` hook and third-party protocol
registration (which must work without touching ``repro.core.system``).
"""

from __future__ import annotations

from typing import Dict

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.continu import ContinuStreamingNode
from repro.core.node import StreamingNode
from repro.core.overlay import OverlayManager
from repro.core.scheduler import ScheduledRequest
from repro.core.phases import (
    BufferMapGossipPhase,
    ChurnMaintenancePhase,
    ContinuStreamingProtocol,
    DataSchedulingPhase,
    OnDemandRetrievalPhase,
    Phase,
    PhaseReport,
    PlaybackPhase,
    ProtocolRegistry,
    RoundContext,
    SourceGenerationPhase,
    UrgentLinePredictionPhase,
)
from repro.core.system import StreamingSystem
from repro.dht.ring import IdRing
from repro.net.message import MessageKind, MessageLedger
from repro.sim.rng import RngStreams
from repro.streaming.source import MediaSource


CONFIG = SystemConfig(
    num_nodes=4,
    rounds=5,
    buffer_capacity=60,
    playback_lag_segments=20,
    scheduling_window=30,
    startup_segments=5,
    seed=7,
)

RING = IdRing(1024)


def make_node(
    node_id: int,
    cls=ContinuStreamingNode,
    *,
    is_source: bool = False,
    inbound: float = 15.0,
    outbound: float = 15.0,
) -> StreamingNode:
    kwargs = dict(
        buffer_capacity=CONFIG.buffer_capacity,
        playback_rate=CONFIG.playback_rate,
        period=CONFIG.scheduling_period,
        inbound_rate=inbound,
        outbound_rate=outbound,
        max_neighbors=CONFIG.connected_neighbors,
        overheard_capacity=CONFIG.overheard_capacity,
        playback_lag=CONFIG.playback_lag_segments,
        is_source=is_source,
    )
    if cls is ContinuStreamingNode:
        kwargs.update(
            backup_replicas=CONFIG.backup_replicas,
            prefetch_limit=CONFIG.prefetch_limit,
            hop_latency=0.05,
            fetch_time=0.2,
        )
    return cls(node_id, RING, **kwargs)


def make_ctx(nodes: Dict[int, StreamingNode], source_id: int, **overrides) -> RoundContext:
    defaults = dict(
        config=CONFIG,
        protocol="continustreaming",
        round_index=0,
        round_start=0.0,
        period=CONFIG.scheduling_period,
        rng=np.random.default_rng(99),
        ledger=MessageLedger(),
        nodes=nodes,
        source=MediaSource(
            playback_rate=CONFIG.playback_rate, segment_bits=CONFIG.segment_bits
        ),
        source_id=source_id,
    )
    defaults.update(overrides)
    return RoundContext(**defaults)


#: The two registered systems of the paper.
SYSTEMS = ("continustreaming", "coolstreaming")


def pipeline_names(system: str):
    return [phase.name for phase in ProtocolRegistry.get(system).build_pipeline()]


def partner(a: StreamingNode, b: StreamingNode) -> None:
    """Minimal symmetric partnership for synthetic contexts."""
    a.peer_table.add_neighbor(b.node_id, 20.0)
    b.peer_table.add_neighbor(a.node_id, 20.0)
    a.rate_controller.register_neighbor(b.node_id, b.outbound_rate, 1)
    b.rate_controller.register_neighbor(a.node_id, a.outbound_rate, 1)


class TestSourceGenerationPhase:
    def test_generates_one_period_of_segments(self):
        source = make_node(1, is_source=True)
        ctx = make_ctx({1: source}, source_id=1)
        report = SourceGenerationPhase().execute(ctx)
        assert ctx.newest_segment_id >= CONFIG.segments_per_round - 1
        assert len(source.buffer) == ctx.newest_segment_id + 1
        assert report.details["segments_generated"] == ctx.newest_segment_id + 1

    def test_second_round_continues_the_stream(self):
        source = make_node(1, is_source=True)
        ctx = make_ctx({1: source}, source_id=1)
        SourceGenerationPhase().execute(ctx)
        first_newest = ctx.newest_segment_id
        ctx2 = make_ctx({1: source}, source_id=1, round_start=1.0, source=ctx.source)
        SourceGenerationPhase().execute(ctx2)
        assert ctx2.newest_segment_id == first_newest + CONFIG.segments_per_round


class TestBufferMapGossipPhase:
    def test_census_snapshots_and_budgets(self):
        source = make_node(1, is_source=True, inbound=0.0, outbound=100.0)
        peer = make_node(2)
        dead = make_node(3)
        dead.mark_departed()
        source.buffer.add(0)
        ctx = make_ctx({1: source, 2: peer, 3: dead}, source_id=1)
        report = BufferMapGossipPhase().execute(ctx)
        assert ctx.alive_ids == [1, 2]
        assert ctx.consumers == [2]
        assert 0 in ctx.snapshots[1]
        assert ctx.inbound_budget[2] == pytest.approx(15.0)
        assert ctx.outbound_budget[1] == pytest.approx(100.0)
        assert report.details["nodes_alive"] == 2

    def test_snapshots_are_start_of_period_state(self):
        node = make_node(1)
        ctx = make_ctx({1: node}, source_id=99)
        BufferMapGossipPhase().execute(ctx)
        node.buffer.add(7)  # delivered mid-round
        assert 7 not in ctx.snapshots[1]


class TestUrgentLinePredictionPhase:
    def test_matches_node_level_prediction(self):
        node = make_node(2)
        # Playing at segment 0 with a gap right ahead: urgent and missing.
        for sid in (0, 2, 3):
            node.buffer.add(sid)
        node.maybe_start_playback(1, newest_available_id=10)
        ctx = make_ctx({2: node}, source_id=1, newest_segment_id=10)
        ctx.consumers = [2]
        report = UrgentLinePredictionPhase().execute(ctx)
        expected = node.predict_missed(10)
        if expected.triggered:
            assert ctx.predictions[2] == list(expected.missed_segment_ids)
            assert ctx.prefetch_triggers == 1
        else:
            assert 2 not in ctx.predictions
        assert report.details["triggers"] == ctx.prefetch_triggers

    def test_complete_buffer_never_triggers(self):
        node = make_node(2)
        for sid in range(10):
            node.buffer.add(sid)
        ctx = make_ctx({2: node}, source_id=1, newest_segment_id=9)
        ctx.consumers = [2]
        UrgentLinePredictionPhase().execute(ctx)
        assert ctx.predictions == {}

    def test_coolstreaming_nodes_are_skipped(self):
        node = make_node(2, cls=StreamingNode)
        ctx = make_ctx({2: node}, source_id=1, newest_segment_id=50)
        ctx.consumers = [2]
        UrgentLinePredictionPhase().execute(ctx)
        assert ctx.predictions == {}
        assert ctx.prefetch_triggers == 0


class TestDataSchedulingPhase:
    def _scheduling_ctx(self):
        supplier = make_node(1, is_source=True, inbound=0.0, outbound=100.0)
        consumer = make_node(2)
        partner(supplier, consumer)
        for sid in range(10):
            supplier.buffer.add(sid)
        ctx = make_ctx({1: supplier, 2: consumer}, source_id=1)
        BufferMapGossipPhase().execute(ctx)
        ctx.newest_segment_id = 9
        return ctx, supplier, consumer

    def test_segments_flow_and_traffic_is_charged(self):
        ctx, _, consumer = self._scheduling_ctx()
        report = DataSchedulingPhase().execute(ctx)
        assert ctx.segments_scheduled > 0
        assert report.details["segments_delivered"] == ctx.segments_scheduled
        assert len(consumer.buffer) == ctx.segments_scheduled
        assert ctx.ledger.bits_of(MessageKind.BUFFER_MAP) > 0
        assert ctx.ledger.bits_of(MessageKind.DATA_SCHEDULED) > 0

    def test_budgets_are_spent(self):
        ctx, supplier, consumer = self._scheduling_ctx()
        DataSchedulingPhase().execute(ctx)
        spent = ctx.segments_scheduled
        assert ctx.inbound_budget[2] == pytest.approx(15.0 - spent)
        assert ctx.outbound_budget[1] == pytest.approx(100.0 - spent)

    def test_no_newest_segment_means_no_requests(self):
        ctx, _, consumer = self._scheduling_ctx()
        ctx.newest_segment_id = -1
        DataSchedulingPhase().execute(ctx)
        assert ctx.segments_scheduled == 0
        assert len(consumer.buffer) == 0


class TestDataSchedulingReroute:
    """A supplier whose uplink is spent this period cannot serve the pull;
    the simulator reroutes it to the advertising partner with the most
    uplink left (``DataSchedulingPhase._fallback_supplier``)."""

    SEGMENT = 4

    def _ctx(self, budgets: Dict[int, float]):
        """Consumer 2 and suppliers 3, 4, 5 advertising every segment at
        estimated rates 3, 9 and 6; Algorithm 1 asks supplier 3 for one
        segment, and ``budgets`` overrides the suppliers' uplinks."""
        consumer = make_node(2)
        nodes: Dict[int, StreamingNode] = {2: consumer}
        for nid, outbound in ((3, 3.0), (4, 9.0), (5, 6.0)):
            supplier = make_node(nid, inbound=0.0, outbound=outbound)
            for sid in range(10):
                supplier.buffer.add(sid)
            partner(supplier, consumer)
            nodes[nid] = supplier
        ctx = make_ctx(nodes, source_id=1)
        BufferMapGossipPhase().execute(ctx)
        ctx.newest_segment_id = 9
        ctx.outbound_budget.update(budgets)
        consumer.plan_requests = lambda *args: [ScheduledRequest(self.SEGMENT, 3, 0.1, 1.0)]
        return ctx, consumer

    def test_spent_supplier_goes_to_the_advertiser_with_most_uplink_left(self):
        # Supplier 5 has more uplink left, though supplier 4's rate is higher.
        ctx, consumer = self._ctx({3: 0.0, 4: 2.0})
        DataSchedulingPhase().execute(ctx)
        assert self.SEGMENT in consumer.buffer
        assert ctx.outbound_budget[4] == pytest.approx(2.0)
        assert ctx.outbound_budget[5] == pytest.approx(5.0)
        assert ctx.inbound_budget[2] == pytest.approx(14.0)

    def test_less_than_one_segment_of_uplink_is_spent(self):
        ctx, consumer = self._ctx({3: 0.0, 4: 0.5, 5: 1.0})
        DataSchedulingPhase().execute(ctx)
        assert self.SEGMENT in consumer.buffer
        assert ctx.outbound_budget[4] == pytest.approx(0.5)
        assert ctx.outbound_budget[5] == pytest.approx(0.0)

    def test_no_advertiser_with_budget_skips_the_segment(self):
        ctx, consumer = self._ctx({3: 0.0, 4: 0.0, 5: 0.9})
        DataSchedulingPhase().execute(ctx)
        assert self.SEGMENT not in consumer.buffer
        assert ctx.segments_scheduled == 0
        assert ctx.inbound_budget[2] == pytest.approx(15.0)
        assert ctx.outbound_budget[5] == pytest.approx(0.9)


class TestOnDemandRetrievalPhase:
    def _manager_ctx(self, nodes: Dict[int, StreamingNode], **overrides):
        manager = OverlayManager(config=CONFIG, streams=RngStreams(seed=3))
        manager.nodes.update(nodes)
        ctx = make_ctx(nodes, source_id=1, manager=manager, **overrides)
        BufferMapGossipPhase().execute(ctx)
        return ctx

    def test_no_predictions_is_a_cheap_no_op(self):
        node = make_node(2)
        ctx = self._manager_ctx({2: node})
        report = OnDemandRetrievalPhase().execute(ctx)
        assert report.details["nodes_triggered"] == 0
        assert ctx.segments_prefetched == 0

    def test_retrieval_runs_after_the_scheduler_in_the_same_period(self):
        node, holder = make_node(2), make_node(3)
        partner(node, holder)  # node 3 holds every backup key node 2 walks
        node.buffer.add(5)  # the scheduler delivered it while the DHT looked
        ctx = self._manager_ctx({2: node, 3: holder})
        ctx.predictions = {2: [5]}
        report = OnDemandRetrievalPhase().execute(ctx)
        assert report.details["nodes_triggered"] == 1
        assert node.stats.prefetch_repeated == 1
        assert ctx.segments_prefetched == 0

    def test_fetch_lands_at_round_start_plus_fetch_time(self):
        node, holder = make_node(2), make_node(3)
        partner(node, holder)
        holder.buffer.add(5)
        ctx = self._manager_ctx({2: node, 3: holder}, round_start=7.0)
        ctx.predictions = {2: [5]}
        fetches = []
        node.record_prefetch = lambda sid, arrival, deadline: fetches.append((sid, arrival))
        OnDemandRetrievalPhase().execute(ctx)
        assert 5 in node.buffer and ctx.segments_prefetched == 1
        assert fetches == [(5, 7.0 + ctx.manager.fetch_time_s)]

    def test_segment_held_after_the_first_walk_is_charged_that_walk_only(self):
        node, holder = make_node(2), make_node(3)
        partner(node, holder)
        node.buffer.add(5)
        ctx = self._manager_ctx({2: node, 3: holder})
        ctx.predictions = {2: [5]}
        OnDemandRetrievalPhase().execute(ctx)
        # One walk 2 -> 3 and the reply: two routing messages, not 4 x 2.
        assert ctx.ledger.count_of(MessageKind.DHT_ROUTING) == 2
        assert (node.stats.lookup_walks, node.stats.lookups_repeated) == (1, 1)
        assert (ctx.lookups["lookup_walks"], ctx.lookups["lookups_repeated"]) == (1, 1)

    def test_keys_the_node_owns_itself_cost_nothing(self):
        node = make_node(2)  # alone: it owns every key, so nothing is sent
        ctx = self._manager_ctx({2: node})
        ctx.predictions = {2: [5]}
        OnDemandRetrievalPhase().execute(ctx)
        assert ctx.ledger.count_of(MessageKind.DHT_ROUTING) == 0
        assert node.stats.lookup_walks == node.stats.prefetch_repeated == 0


class TestPlaybackPhase:
    def test_playing_node_counts_toward_continuity(self):
        node = make_node(2)
        for sid in range(30):
            node.buffer.add(sid)
        ctx = make_ctx({2: node}, source_id=1, newest_segment_id=29)
        ctx.consumers = [2]
        report = PlaybackPhase().execute(ctx)
        assert node.playback.started
        assert ctx.nodes_playing == 1
        assert ctx.continuity == pytest.approx(1.0)
        assert report.details["continuity"] == pytest.approx(1.0)

    def test_starved_node_does_not_count(self):
        node = make_node(2)
        ctx = make_ctx({2: node}, source_id=1, newest_segment_id=50)
        ctx.consumers = [2]
        PlaybackPhase().execute(ctx)
        assert ctx.nodes_playing == 0
        assert ctx.continuity == pytest.approx(0.0)

    def test_runs_at_period_end(self):
        # Playback is the second-to-last phase of both registered pipelines,
        # so it samples the period after every transfer and retrieval.
        for system in SYSTEMS:
            assert pipeline_names(system)[-2] == PlaybackPhase.name


class TestChurnMaintenancePhase:
    def test_static_config_changes_nothing(self):
        node = make_node(2)
        manager = OverlayManager(config=CONFIG, streams=RngStreams(seed=3))
        manager.nodes[2] = node
        ctx = make_ctx({2: node}, source_id=1, manager=manager)
        report = ChurnMaintenancePhase().execute(ctx)
        assert (ctx.nodes_joined, ctx.nodes_left) == (0, 0)
        assert report.details["nodes_left"] == 0
        assert node.alive

    def test_runs_at_period_end(self):
        # Churn closes both registered pipelines, right after playback.
        for system in SYSTEMS:
            assert pipeline_names(system)[-2:] == ["playback", "churn-maintenance"]


class TestPipelineHook:
    def test_custom_tap_phase_sees_every_round(self, tiny_config):
        taps = []

        class MetricsTapPhase(Phase):
            name = "metrics-tap"

            def execute(self, ctx: RoundContext) -> PhaseReport:
                taps.append((ctx.round_index, ctx.segments_scheduled))
                return self.report(rounds_seen=len(taps))

        system = StreamingSystem(tiny_config)
        pipeline = list(system.protocol.build_pipeline()) + [MetricsTapPhase()]
        result = StreamingSystem(tiny_config, pipeline=pipeline).run()
        assert len(taps) == tiny_config.rounds
        assert [index for index, _ in taps] == list(range(tiny_config.rounds))
        assert sum(count for _, count in taps) == sum(
            r.segments_scheduled for r in result.rounds
        )

    def test_ablating_a_phase_switches_off_its_traffic(self, tiny_config):
        default = StreamingSystem(tiny_config)
        pipeline = [
            phase
            for phase in default.protocol.build_pipeline()
            if phase.name not in ("urgent-line-prediction", "on-demand-retrieval")
        ]
        result = StreamingSystem(tiny_config, pipeline=pipeline).run()
        totals = result.traffic.cumulative()
        assert totals.bits_of(MessageKind.DHT_ROUTING) == 0
        assert totals.bits_of(MessageKind.DATA_PREFETCH) == 0

    def test_default_pipeline_comes_from_the_registry(self, tiny_config):
        conti = StreamingSystem(tiny_config, system="continustreaming")
        cool = StreamingSystem(tiny_config, system="coolstreaming")
        conti_names = [phase.name for phase in conti.pipeline]
        cool_names = [phase.name for phase in cool.pipeline]
        assert "on-demand-retrieval" in conti_names
        assert "on-demand-retrieval" not in cool_names
        assert conti_names[-1] == cool_names[-1] == "churn-maintenance"


class TestProtocolRegistry:
    @pytest.fixture(autouse=True)
    def isolated_registry(self, monkeypatch):
        """Registrations made by a test vanish with it (the registry is global)."""
        monkeypatch.setattr(ProtocolRegistry, "_protocols", dict(ProtocolRegistry._protocols))

    def test_unknown_protocol_raises(self):
        with pytest.raises(ValueError, match="unknown system"):
            ProtocolRegistry.get("bittorrent")

    def test_builtins_are_registered(self):
        assert ProtocolRegistry.known("continustreaming")
        assert ProtocolRegistry.known("coolstreaming")

    @pytest.mark.parametrize(
        "system, node_class, policy",
        [
            ("continustreaming", ContinuStreamingNode, "continustreaming"),
            ("coolstreaming", StreamingNode, "rarest_first"),
        ],
    )
    def test_builtin_builds_every_node_with_its_policy(
        self, tiny_config, system, node_class, policy
    ):
        nodes = StreamingSystem(tiny_config, system=system).build().nodes
        assert nodes
        assert {type(node) for node in nodes.values()} == {node_class}
        assert {node.scheduler.policy for node in nodes.values()} == {policy}

    def test_coolstreaming_never_prefetches(self, tiny_config):
        """The baseline is a plain node: no miss prediction, no DHT fetch."""
        result = StreamingSystem(tiny_config, system="coolstreaming").run()
        totals = result.traffic.cumulative()
        assert totals.bits_of(MessageKind.DATA_PREFETCH) == 0
        assert totals.bits_of(MessageKind.DHT_ROUTING) == 0
        assert totals.bits_of(MessageKind.DATA_SCHEDULED) > 0

    def test_alias_registration_does_not_relabel_the_original(self):
        from repro.core.phases.registry import CoolStreamingProtocol

        ProtocolRegistry.register("cool-alias")(CoolStreamingProtocol)
        assert ProtocolRegistry.get("cool-alias").name == "cool-alias"
        assert ProtocolRegistry.get("coolstreaming").name == "coolstreaming"

    def test_third_protocol_registers_without_touching_system(self, tiny_config):
        """A no-prefetch ablation variant plugs in from one file/test."""

        @ProtocolRegistry.register("noprefetch")
        class NoPrefetchProtocol(ContinuStreamingProtocol):
            def build_pipeline(self):
                return tuple(
                    phase
                    for phase in super().build_pipeline()
                    if phase.name
                    not in ("urgent-line-prediction", "on-demand-retrieval")
                )

        result = StreamingSystem(tiny_config, system="noprefetch").run()
        assert result.system == "noprefetch"
        totals = result.traffic.cumulative()
        assert totals.bits_of(MessageKind.DHT_ROUTING) == 0
        assert totals.bits_of(MessageKind.DATA_PREFETCH) == 0
        assert totals.bits_of(MessageKind.DATA_SCHEDULED) > 0
