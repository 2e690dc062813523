"""Tests for the priority computations (equations (1)-(3)) and Algorithm 1."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scheduler import (
    DataScheduler,
    MAX_URGENCY,
    bucket_priority,
    schedule_requests,
)
from repro.streaming.buffermap import BufferMap


def _map(*present, head=0, capacity=600):
    """A neighbour's map; its largest id sets the tail ``p_ij`` is measured from."""
    return BufferMap(head_id=head, capacity=capacity, present=frozenset(present))


def _plan(maps, missing, rates, play_id=0, inbound_rate=10.0, **scheduler):
    params = dict(playback_rate=10.0, buffer_capacity=600, period=1.0, quantize_priorities=False)
    params.update(scheduler)
    return DataScheduler(**params).schedule(maps, missing, rates.__getitem__, play_id, inbound_rate)


class TestPriorities:
    """Eqs. (1)-(3), read back from the priority each request carries."""

    def test_urgency_matches_equation_1(self):
        # t = (id - id_play)/p - 1/R = (20-0)/10 - 1/5 = 1.8 -> urgency = 1/1.8;
        # the rarity (21-20)/600 is far below it.
        (request,) = _plan({1: _map(20, 21)}, [20], {1: 5.0})
        assert request.priority == pytest.approx(1 / 1.8)

    def test_no_slack_gives_max_urgency(self):
        (request,) = _plan({1: _map(1, 2)}, [1], {1: 2.0})  # 0.1 s left, 0.5 s to fetch
        assert request.priority == MAX_URGENCY

    def test_closer_deadline_is_more_urgent(self):
        requests = _plan({1: _map(20, 100, 101)}, [20, 100], {1: 5.0})
        assert [r.segment_id for r in requests] == [20, 100]
        assert requests[0].priority > requests[1].priority

    def test_rarity_matches_equation_2(self):
        # (550-100)/600 * (580-100)/600 = 0.75 * 0.8, above the urgency 1/9.8.
        maps = {1: _map(100, 550), 2: _map(100, 580)}
        (request,) = _plan(maps, [100], {1: 5.0, 2: 5.0})
        assert request.priority == 0.75 * 0.8

    def test_more_suppliers_reduce_rarity(self):
        one = _plan({1: _map(100, 550)}, [100], {1: 5.0})[0].priority
        two = _plan({1: _map(100, 550), 2: _map(100, 550)}, [100], {1: 5.0, 2: 5.0})[0].priority
        assert two < one

    def test_positions_clamped_to_buffer(self):
        # p_ij beyond this node's B counts as B/B; a segment past a
        # supplier's tail counts as 0.
        (request,) = _plan({1: _map(100, 550)}, [100], {1: 5.0}, buffer_capacity=300)
        assert request.priority == 1.0
        (request,) = _plan({1: _map(150, 300, capacity=200)}, [300], {1: 5.0})
        assert request.priority == pytest.approx(1 / 29.8)  # rarity 0 < urgency

    def test_rarest_first_uses_supplier_count(self):
        maps = {n: _map(5, 6) if n == 1 else _map(6) for n in (1, 2, 3, 4)}
        requests = _plan(maps, [5, 6], dict.fromkeys(maps, 5.0), policy="rarest_first")
        assert {r.segment_id: r.priority for r in requests} == {5: 1.0, 6: 0.25}

    def test_quantization_rounds_down_to_a_band(self):
        maps = {1: _map(100, 550), 2: _map(100, 580)}
        (exact,) = _plan(maps, [100], {1: 5.0, 2: 5.0})
        (banded,) = _plan(maps, [100], {1: 5.0, 2: 5.0}, quantize_priorities=True)
        assert banded.priority == bucket_priority(exact.priority) == 1 / 8

    def test_bucket_priority_bands(self):
        assert bucket_priority(MAX_URGENCY) == MAX_URGENCY
        assert bucket_priority(0.0) == 0.0
        assert bucket_priority(1.0, base=8) == 1.0
        assert bucket_priority(0.9, base=8) == pytest.approx(1 / 8)
        assert bucket_priority(0.13, base=8) == pytest.approx(1 / 8)
        assert bucket_priority(0.12, base=8) == pytest.approx(1 / 64)
        with pytest.raises(ValueError):
            bucket_priority(0.5, base=1.0)


class TestAlgorithm1:
    def test_validation(self):
        with pytest.raises(ValueError):
            schedule_requests({}, {}, {}, inbound_rate=10, period=0)
        with pytest.raises(ValueError):
            schedule_requests({}, {}, {}, inbound_rate=-1, period=1)

    def test_schedules_in_priority_order(self):
        requests = schedule_requests(
            {1: 0.1, 2: 0.9}, {1: [10], 2: [10]}, {10: 5.0}, inbound_rate=10, period=1.0
        )
        assert [r.segment_id for r in requests] == [2, 1]

    def test_inbound_cap_limits_request_count(self):
        requests = schedule_requests(
            dict.fromkeys(range(20), 1.0),
            {i: [10] for i in range(20)},
            {10: 100.0},
            inbound_rate=5,
            period=1.0,
        )
        assert len(requests) == 5

    def test_zero_inbound_schedules_nothing(self):
        assert schedule_requests({1: 1.0}, {1: [10]}, {10: 10.0}, inbound_rate=0, period=1.0) == []

    def test_queueing_spreads_load_across_suppliers(self):
        """With two equally fast suppliers, consecutive segments alternate."""
        requests = schedule_requests(
            {i: 1.0 - i * 0.01 for i in range(4)},
            {i: [1, 2] for i in range(4)},
            {1: 2.0, 2: 2.0},
            inbound_rate=10,
            period=2.0,
        )
        assert [r.supplier_id for r in requests] == [1, 2, 1, 2]

    def test_period_constraint_limits_per_supplier(self):
        """A single supplier only gets as many transfers as fit in the period
        under Algorithm 1's strict ``t_trans + tau(j) < tau`` condition."""
        priorities = dict.fromkeys(range(10), 1.0)
        suppliers = {i: [1] for i in range(10)}
        # Transfers take 0.5 s each: the first completes at 0.5 (< 1.0), the
        # second would complete exactly at 1.0, which the strict inequality
        # rejects, so only one fits in a 1-second period...
        requests = schedule_requests(priorities, suppliers, {1: 2.0}, inbound_rate=20, period=1.0)
        assert len(requests) == 1
        # ...while a slightly longer period admits the second transfer.
        requests = schedule_requests(priorities, suppliers, {1: 2.0}, inbound_rate=20, period=1.1)
        assert [r.expected_time for r in requests] == [0.5, 1.0]

    def test_unschedulable_segment_skipped(self):
        requests = schedule_requests(
            {1: 0.9, 2: 0.5},
            {1: [1], 2: [2]},
            {1: 0.5, 2: 5.0},  # supplier 1 takes 2 s > period
            inbound_rate=10,
            period=1.0,
        )
        assert [r.segment_id for r in requests] == [2]

    def test_non_positive_rates_ignored(self):
        rates = {1: 0.0, 2: -3.0}
        assert schedule_requests({1: 1.0}, {1: [1, 2]}, rates, inbound_rate=10, period=1.0) == []

    def test_picks_fastest_supplier(self):
        requests = schedule_requests(
            {1: 1.0}, {1: [1, 2]}, {1: 1.5, 2: 8.0}, inbound_rate=10, period=1.0
        )
        assert requests[0].supplier_id == 2
        assert requests[0].expected_time == 1 / 8.0

    def test_equally_early_suppliers_tie_break_by_column_order(self):
        for column in ([1, 2], [2, 1]):
            (request,) = schedule_requests(
                {1: 1.0}, {1: column}, {1: 4.0, 2: 4.0}, inbound_rate=10, period=1.0
            )
            assert request.supplier_id == column[0]

    def test_deterministic_tiebreak_by_segment_id(self):
        requests = schedule_requests(
            {5: 1.0, 3: 1.0, 4: 1.0},
            {i: [1] for i in (3, 4, 5)},
            {1: 10.0},
            inbound_rate=3,
            period=1.0,
        )
        assert [r.segment_id for r in requests] == [3, 4, 5]

    def test_random_tiebreak_changes_order_but_not_set(self):
        priorities = dict.fromkeys(range(10), 1.0)
        suppliers = {i: [1] for i in range(10)}
        orders = set()
        for seed in range(5):
            requests = schedule_requests(
                priorities, suppliers, {1: 20.0}, inbound_rate=10, period=1.0,
                tiebreak_rng=np.random.default_rng(seed),
            )
            assert {r.segment_id for r in requests} == set(range(10))
            orders.add(tuple(r.segment_id for r in requests))
        assert len(orders) > 1


class TestDataScheduler:
    @pytest.mark.parametrize(
        "bad",
        [dict(policy="bogus"), dict(playback_rate=0.0), dict(buffer_capacity=0)],
    )
    def test_invalid_parameters_rejected(self, bad):
        params = dict(playback_rate=10, buffer_capacity=600, period=1.0)
        params.update(bad)
        with pytest.raises(ValueError):
            DataScheduler(**params)

    def test_only_missing_segments_are_fresh(self):
        requests = _plan({1: _map(4, 5, 6, 7)}, [5, 7, 9], {1: 5.0})
        assert sorted(r.segment_id for r in requests) == [5, 7]

    def test_schedule_end_to_end(self):
        maps = {1: _map(5, 60, 505), 2: _map(60, 360)}
        requests = _plan(maps, [5, 60], {1: 5.0, 2: 5.0}, quantize_priorities=True)
        assert {r.segment_id for r in requests} <= {5, 60}
        assert requests[0].segment_id == 5  # imminent segment first
