"""Tests for the latency, bandwidth, message-ledger and churn models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.bandwidth import BandwidthModel, NodeBandwidth
from repro.net.churn import ChurnEvent, ChurnProcess, ConstantChurn
from repro.net.latency import LatencyModel
from repro.net.message import (
    MessageKind,
    MessageLedger,
    ROUTING_MESSAGE_BITS,
    RoundTrafficLog,
)


class TestLatencyModel:
    def test_one_way_is_half_ping_difference(self):
        model = LatencyModel({1: 100.0, 2: 40.0}, floor_ms=5.0)
        assert model.one_way_ms(1, 2) == pytest.approx(30.0)

    def test_floor_applies_to_similar_pings(self):
        model = LatencyModel({1: 100.0, 2: 101.0}, floor_ms=5.0)
        assert model.one_way_ms(1, 2) == 5.0

    def test_same_node_zero(self):
        model = LatencyModel({1: 100.0})
        assert model.one_way_ms(1, 1) == 0.0

    def test_add_remove_node(self):
        model = LatencyModel({1: 50.0})
        model.add_node(2, 70.0)
        assert 2 in model
        assert model.one_way_ms(1, 2) == pytest.approx(10.0)
        model.remove_node(2)
        assert 2 not in model
        model.remove_node(2)  # no error

    def test_unknown_node_raises(self):
        model = LatencyModel({1: 50.0})
        with pytest.raises(KeyError):
            model.one_way_ms(1, 99)

    def test_negative_floor_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel({}, floor_ms=-1.0)

    def test_mean_hop_latency(self, rng):
        pings = {i: float(p) for i, p in enumerate(rng.lognormal(np.log(100), 0.6, 200))}
        model = LatencyModel(pings)
        mean = model.mean_hop_latency_ms(rng=rng)
        assert 10.0 <= mean <= 200.0

    def test_mean_hop_latency_single_node(self):
        model = LatencyModel({1: 50.0}, floor_ms=5.0)
        assert model.mean_hop_latency_ms() == 5.0


class TestBandwidthModel:
    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            BandwidthModel(mean_rate=5, min_rate=10, max_rate=33)

    def test_homogeneous_assignment(self, rng):
        model = BandwidthModel(mean_rate=15, heterogeneous=False)
        model.assign(range(10), rng)
        assert all(model.inbound(i) == 15 for i in range(10))
        assert all(model.outbound(i) == 15 for i in range(10))

    def test_heterogeneous_assignment_bounds_and_mean(self, rng):
        model = BandwidthModel(mean_rate=15, min_rate=10, max_rate=33)
        model.assign(range(500), rng)
        rates = [model.inbound(i) for i in range(500)]
        assert all(10 <= r <= 33 for r in rates)
        assert np.mean(rates) == pytest.approx(15, abs=1.0)

    def test_source_overrides(self, rng):
        model = BandwidthModel(source_outbound=100)
        model.assign(range(5), rng, source_id=3)
        assert model.inbound(3) == 0.0
        assert model.outbound(3) == 100.0

    def test_assign_one_and_remove(self, rng):
        model = BandwidthModel()
        capacity = model.assign_one(7, rng)
        assert isinstance(capacity, NodeBandwidth)
        assert 7 in model
        model.remove(7)
        assert 7 not in model
        with pytest.raises(KeyError):
            model.of(7)

    def test_mean_inbound(self, rng):
        model = BandwidthModel(heterogeneous=False, mean_rate=12)
        model.assign(range(4), rng)
        assert model.mean_inbound() == pytest.approx(12)
        assert BandwidthModel().mean_inbound() == 0.0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            NodeBandwidth(inbound=-1, outbound=5)


class TestMessageLedger:
    def test_record_and_totals(self):
        ledger = MessageLedger()
        ledger.record(MessageKind.BUFFER_MAP, 620, count=1)
        ledger.record(MessageKind.DATA_SCHEDULED, 30 * 1024, count=1)
        assert ledger.bits_of(MessageKind.BUFFER_MAP) == 620
        assert ledger.count_of(MessageKind.DATA_SCHEDULED) == 1
        assert ledger.data_bits() == 30 * 1024

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            MessageLedger().record(MessageKind.BUFFER_MAP, -1)

    def test_control_overhead_definition(self):
        ledger = MessageLedger()
        ledger.record(MessageKind.DATA_SCHEDULED, 30 * 1024 * 10)
        ledger.record(MessageKind.BUFFER_MAP, 620 * 5)
        expected = (620 * 5) / (30 * 1024 * 10)
        assert ledger.control_overhead() == pytest.approx(expected)

    def test_prefetch_overhead_definition(self):
        ledger = MessageLedger()
        ledger.record(MessageKind.DATA_SCHEDULED, 100_000)
        ledger.record(MessageKind.DHT_ROUTING, ROUTING_MESSAGE_BITS * 10)
        ledger.record(MessageKind.DATA_PREFETCH, 30 * 1024)
        expected = (ROUTING_MESSAGE_BITS * 10 + 30 * 1024) / 100_000
        assert ledger.prefetch_overhead() == pytest.approx(expected)

    def test_overheads_zero_without_data(self):
        ledger = MessageLedger()
        ledger.record(MessageKind.BUFFER_MAP, 620)
        assert ledger.control_overhead() == 0.0
        assert ledger.prefetch_overhead() == 0.0

    def test_merge_and_snapshot(self):
        a = MessageLedger()
        a.record(MessageKind.DATA_SCHEDULED, 100)
        snapshot = a.snapshot()
        a.record(MessageKind.DATA_SCHEDULED, 50)
        assert snapshot.bits_of(MessageKind.DATA_SCHEDULED) == 100
        b = MessageLedger()
        b.merge(a)
        assert b.bits_of(MessageKind.DATA_SCHEDULED) == 150

    def test_totals_sum_every_kind(self):
        ledger = MessageLedger()
        ledger.record(MessageKind.BUFFER_MAP, 620, count=2)
        ledger.record(MessageKind.DHT_ROUTING, 160, count=2)
        ledger.record(MessageKind.MEMBERSHIP, 80)
        assert ledger.total_bits() == 620 + 160 + 80
        assert ledger.total_count() == 5
        assert MessageLedger().total_bits() == 0.0
        assert MessageLedger().total_count() == 0

    def test_merged_per_peer_ledgers_equal_one_global_ledger(self):
        # The live runtime's accumulation model: every peer records into
        # its own ledger (no shared mutable state), and the swarm reduces
        # them with merge afterwards — totals must match a single global
        # ledger that saw the same traffic, in any reduction order.
        traffic = [
            (MessageKind.BUFFER_MAP, 620.0, 3),
            (MessageKind.DATA_SCHEDULED, 30 * 1024.0, 2),
            (MessageKind.DHT_ROUTING, 80.0, 7),
            (MessageKind.MEMBERSHIP, 80.0, 1),
            (MessageKind.DATA_PREFETCH, 30 * 1024.0, 1),
        ]
        per_peer = []
        global_ledger = MessageLedger()
        for i, (kind, bits, count) in enumerate(traffic * 3):
            peer = MessageLedger()
            peer.record(kind, bits * (i + 1), count=count)
            global_ledger.record(kind, bits * (i + 1), count=count)
            per_peer.append(peer)
        forward = MessageLedger.merged(per_peer)
        backward = MessageLedger.merged(list(reversed(per_peer)))
        for kind in MessageKind:
            assert forward.bits_of(kind) == pytest.approx(global_ledger.bits_of(kind))
            assert backward.bits_of(kind) == pytest.approx(global_ledger.bits_of(kind))
            assert forward.count_of(kind) == global_ledger.count_of(kind)
        # the inputs are untouched by the reduction
        assert per_peer[0].total_count() == traffic[0][2]

    def test_snapshot_is_detached_in_both_directions(self):
        live = MessageLedger()
        live.record(MessageKind.BUFFER_MAP, 620)
        frozen = live.snapshot()
        live.record(MessageKind.BUFFER_MAP, 620)
        frozen.record(MessageKind.MEMBERSHIP, 80)
        assert frozen.bits_of(MessageKind.BUFFER_MAP) == 620
        assert live.bits_of(MessageKind.BUFFER_MAP) == 1240
        assert live.bits_of(MessageKind.MEMBERSHIP) == 0.0

    def test_reset(self):
        ledger = MessageLedger()
        ledger.record(MessageKind.MEMBERSHIP, 80)
        ledger.reset()
        assert ledger.bits_of(MessageKind.MEMBERSHIP) == 0.0
        assert ledger.count_of(MessageKind.MEMBERSHIP) == 0

    def test_round_traffic_log(self):
        log = RoundTrafficLog()
        for round_index in range(3):
            ledger = MessageLedger()
            ledger.record(MessageKind.DATA_SCHEDULED, 1000)
            ledger.record(MessageKind.BUFFER_MAP, 10 * (round_index + 1))
            log.append(float(round_index), ledger)
        series = log.control_overhead_series()
        assert len(series) == 3
        assert series[0] < series[2]
        cumulative = log.cumulative()
        assert cumulative.bits_of(MessageKind.DATA_SCHEDULED) == 3000


class TestChurnProcess:
    def test_static_process(self, rng):
        churn = ChurnProcess()
        assert churn.is_static
        event = churn.step(0, [1, 2, 3], rng)
        assert event.is_empty

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            ChurnProcess(schedule=ConstantChurn(leave_fraction=1.0))
        with pytest.raises(ValueError):
            ChurnProcess(schedule=ConstantChurn(join_fraction=-0.1))

    def test_join_fraction_upper_bound(self):
        with pytest.raises(ValueError, match="join_fraction"):
            ChurnProcess(schedule=ConstantChurn(join_fraction=1.5))
        # Exactly a population doubling per round is the permitted maximum.
        churn = ChurnProcess(schedule=ConstantChurn(join_fraction=1.0))
        assert churn.schedule.fractions(0) == (0.0, 1.0)

    def test_protected_population_mismatch_rejected(self, rng):
        churn = ChurnProcess(schedule=ConstantChurn(0.1), protected={99})
        with pytest.raises(ValueError, match="protected node ids \\[99\\]"):
            churn.step(0, [0, 1, 2, 3], rng)

    def test_static_process_skips_protected_check(self, rng):
        # A static process never mutates membership, so a stale protected
        # set is harmless and must not raise.
        churn = ChurnProcess(protected={99})
        assert churn.step(0, [0, 1, 2], rng).is_empty

    def test_leave_and_join_counts(self, rng):
        churn = ChurnProcess(schedule=ConstantChurn(0.1, 0.1), next_node_id=1000)
        event = churn.step(0, list(range(100)), rng)
        assert len(event.leaving) == 10
        assert len(event.joining) == 10
        assert all(node >= 1000 for node in event.joining)

    def test_protected_nodes_never_leave(self, rng):
        churn = ChurnProcess(schedule=ConstantChurn(0.5), protected={0})
        for _ in range(20):
            event = churn.step(0, [0, 1, 2, 3], rng)
            assert 0 not in event.leaving

    def test_join_ids_are_unique_across_rounds(self, rng):
        churn = ChurnProcess(schedule=ConstantChurn(0.05, 0.05), next_node_id=50)
        seen = set()
        for round_index in range(10):
            event = churn.step(round_index, list(range(40)), rng)
            for node in event.joining:
                assert node not in seen
                seen.add(node)

    def test_reserve_ids(self, rng):
        churn = ChurnProcess(schedule=ConstantChurn(join_fraction=0.5))
        churn.reserve_ids([5, 90, 12])
        event = churn.step(0, list(range(10)), rng)
        assert all(node >= 91 for node in event.joining)

    def test_event_is_empty_property(self):
        assert ChurnEvent(0, (), ()).is_empty
        assert not ChurnEvent(0, (1,), ()).is_empty
