"""Tests for the Urgent Line mechanism and the on-demand retrieval (Algorithm 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ondemand import OnDemandRetriever, PrefetchPlan
from repro.core.urgent_line import UrgentLine
from repro.dht.hashing import backup_keys
from repro.dht.network import DhtNetwork
from repro.net.message import ROUTING_MESSAGE_BITS


def make_line(**overrides) -> UrgentLine:
    params = dict(
        buffer_capacity=600,
        playback_rate=10.0,
        period=1.0,
        hop_latency=0.05,
        fetch_time=0.4,
        prefetch_limit=5,
    )
    params.update(overrides)
    return UrgentLine(**params)


class TestUrgentLineAlpha:
    def test_initial_alpha_is_lower_bound(self):
        line = make_line()
        # max(tau, t_fetch) = 1 s -> alpha = p/B = 1/60.
        assert line.alpha == pytest.approx(10 / 600)
        assert line.alpha_floor == pytest.approx(10 / 600)

    def test_initial_alpha_uses_fetch_time_when_larger(self):
        line = make_line(fetch_time=3.0)
        assert line.alpha == pytest.approx(10 * 3.0 / 600)

    def test_explicit_alpha_respected(self):
        line = make_line(alpha=0.1)
        assert line.alpha == 0.1

    def test_alpha_step_matches_paper(self):
        line = make_line()
        assert line.alpha_step == pytest.approx(10 * 0.05 / 600)

    def test_overdue_increases_alpha(self):
        line = make_line()
        before = line.alpha
        line.record_overdue(2)
        assert line.alpha == pytest.approx(before + 2 * line.alpha_step)
        assert line.adjustments == 2

    def test_repeated_decreases_but_not_below_floor(self):
        line = make_line()
        line.record_overdue(3)
        line.record_repeated(100)
        assert line.alpha == pytest.approx(line.alpha_floor)

    def test_zero_counts_do_nothing(self):
        line = make_line()
        before = line.alpha
        line.update(overdue=0, repeated=0)
        assert line.alpha == before
        assert line.adjustments == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            make_line(buffer_capacity=0)
        with pytest.raises(ValueError):
            make_line(hop_latency=-1)

    def test_urgent_span_and_id(self):
        line = make_line()
        assert line.urgent_span() == 10
        assert line.urgent_id(100) == 110


class TestUrgentLinePrediction:
    def test_no_missing_segments_not_triggered(self):
        line = make_line()
        prediction = line.predict(
            head_id=100, held_ids=range(90, 200), newest_available_id=300
        )
        assert prediction.missed_segment_ids == ()
        assert not prediction.triggered

    def test_small_miss_count_triggers(self):
        line = make_line()
        held = set(range(100, 111)) - {103, 107}
        prediction = line.predict(100, held, newest_available_id=300)
        assert prediction.missed_segment_ids == (103, 107)
        assert prediction.triggered

    def test_large_miss_count_not_triggered(self):
        line = make_line(prefetch_limit=3)
        prediction = line.predict(100, set(), newest_available_id=300)
        assert len(prediction.missed_segment_ids) > 3
        assert not prediction.triggered

    def test_never_predicts_ungenerated_segments(self):
        line = make_line()
        prediction = line.predict(100, set(), newest_available_id=102)
        assert max(prediction.missed_segment_ids) <= 102

    def test_already_scheduled_excluded_when_requested(self):
        line = make_line()
        held = set(range(100, 111)) - {103, 107}
        prediction = line.predict(
            100, held, newest_available_id=300, already_scheduled={103}
        )
        assert prediction.missed_segment_ids == (107,)

    def test_missed_ids_ascending(self):
        line = make_line()
        prediction = line.predict(100, {104, 101}, newest_available_id=300)
        assert list(prediction.missed_segment_ids) == sorted(
            prediction.missed_segment_ids
        )


class TestOnDemandRetriever:
    @pytest.fixture
    def dht(self) -> DhtNetwork:
        network = DhtNetwork(id_space=2048, rng=np.random.default_rng(8))
        network.populate(150)
        return network

    def _retriever(self, dht, origin, holders_with_data, rates=None):
        rates = rates or {}
        return OnDemandRetriever(
            node_id=origin,
            router=dht.router,
            replicas=4,
            has_segment=lambda holder, sid: holder in holders_with_data,
            available_rate=lambda holder: rates.get(holder, 5.0),
        )

    def test_validation(self, dht):
        with pytest.raises(ValueError):
            OnDemandRetriever(
                node_id=1, router=dht.router, replicas=0,
                has_segment=lambda h, s: True, available_rate=lambda h: 1.0,
            )

    def test_locates_holder_that_has_the_segment(self, dht):
        origin = dht.node_ids()[0]
        segment_id = 42
        holders = {
            dht.responsible_node(key) for key in backup_keys(segment_id, 4, 2048)
        }
        retriever = self._retriever(dht, origin, holders)
        plan = retriever.locate(segment_id)
        assert plan.located
        assert plan.supplier_id in holders
        assert plan.holders_with_data >= 1
        assert plan.routing_messages > 0

    def test_no_holder_has_data(self, dht):
        origin = dht.node_ids()[0]
        retriever = self._retriever(dht, origin, holders_with_data=set())
        plan = retriever.locate(7)
        assert not plan.located
        assert plan.holders_with_data == 0
        # Routing cost is still paid.
        assert plan.routing_bits() == plan.routing_messages * ROUTING_MESSAGE_BITS

    def test_picks_highest_rate_holder(self, dht):
        origin = dht.node_ids()[0]
        segment_id = 99
        holders = {
            dht.responsible_node(key) for key in backup_keys(segment_id, 4, 2048)
        }
        holders.discard(origin)
        if len(holders) >= 2:
            holders = set(holders)
            rates = {holder: 1.0 for holder in holders}
            best = max(holders)
            rates[best] = 50.0
            retriever = self._retriever(dht, origin, holders, rates)
            plan = retriever.locate(segment_id)
            assert plan.supplier_id == best

    def test_zero_rate_holders_excluded(self, dht):
        origin = dht.node_ids()[0]
        segment_id = 13
        holders = {
            dht.responsible_node(key) for key in backup_keys(segment_id, 4, 2048)
        }
        retriever = self._retriever(dht, origin, holders, rates={h: 0.0 for h in holders})
        plan = retriever.locate(segment_id)
        assert not plan.located

    def test_retrieve_batch_sorted(self, dht):
        origin = dht.node_ids()[0]
        retriever = self._retriever(dht, origin, holders_with_data=set())
        plans = retriever.retrieve([9, 3, 7])
        assert [plan.segment_id for plan in plans] == [3, 7, 9]
        assert plans == [retriever.locate(segment_id) for segment_id in (3, 7, 9)]

    def test_expected_costs_match_section_5_4_3(self):
        # k(log2(n)/2 + 1) + 1 messages per located segment.
        messages = OnDemandRetriever.expected_routing_messages(4, 8000)
        assert messages == pytest.approx(4 * (np.log2(8000) / 2 + 1) + 1)

    def test_prefetch_plan_routing_bits(self):
        plan = PrefetchPlan(
            segment_id=1, supplier_id=None, routing_messages=10,
            routing_paths=(), holders_probed=0, holders_with_data=0,
        )
        assert plan.routing_bits() == 10 * ROUTING_MESSAGE_BITS
        assert not plan.located
