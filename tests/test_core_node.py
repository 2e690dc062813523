"""Tests for the streaming node state machines (base, baseline, ContinuStreaming)."""

from __future__ import annotations

import pytest

from repro.core.continu import ContinuStreamingNode
from repro.core.node import StreamingNode
from repro.dht.peer_table import NeighborEntry
from repro.dht.ring import IdRing
from repro.streaming.buffermap import BufferMap
from repro.streaming.segment import Segment


RING = IdRing(4096)


def make_node(node_class=StreamingNode, node_id=100, **overrides):
    params = dict(
        buffer_capacity=200,
        playback_rate=10.0,
        period=1.0,
        inbound_rate=15.0,
        outbound_rate=15.0,
        max_neighbors=5,
        playback_lag=50,
    )
    params.update(overrides)
    if node_class is ContinuStreamingNode:
        params.setdefault("backup_replicas", 4)
        params.setdefault("prefetch_limit", 5)
        params.setdefault("hop_latency", 0.05)
        params.setdefault("fetch_time", 0.4)
    return node_class(node_id, RING, **params)


def neighbor_map(head_id, present, capacity=200):
    return BufferMap(head_id=head_id, capacity=capacity, present=frozenset(present))


class TestPolicies:
    def test_base_and_continu_use_paper_policy(self):
        assert make_node().scheduler.policy == "continustreaming"
        assert make_node(ContinuStreamingNode).scheduler.policy == "continustreaming"

    def test_baseline_uses_rarest_first(self):
        assert make_node(policy="rarest_first").scheduler.policy == "rarest_first"

    def test_unknown_policy_is_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            make_node(policy="fifo")


class TestReceiveAndBookkeeping:
    def test_receive_counts_by_path(self):
        node = make_node()
        assert node.receive_segment(5)
        assert node.receive_segment(6, prefetched=True)
        assert node.stats.segments_received_scheduled == 1
        assert node.stats.segments_received_prefetch == 1
        assert 6 in node.prefetch_tagged
        assert 5 in node.scheduled_deliveries

    def test_begin_round_resets_per_round_state(self):
        node = make_node()
        node.pending_requests = {1}
        node.scheduled_deliveries = {2}
        node.begin_round()
        assert node.pending_requests == set()
        assert node.scheduled_deliveries == set()
        assert node.stats.rounds_participated == 1

    def test_buffer_map_reflects_buffer(self):
        node = make_node()
        node.receive_segment(3)
        assert 3 in node.buffer_map()
        assert node.has_segment(3)


class TestPlaybackLifecycle:
    def test_source_never_starts_playback(self):
        node = make_node(is_source=True)
        node.buffer.update_from(range(50))
        assert not node.maybe_start_playback(10, newest_available_id=100)

    def test_needs_enough_buffered_segments(self):
        node = make_node()
        node.buffer.update_from(range(5))
        assert not node.maybe_start_playback(10, newest_available_id=100)
        node.buffer.update_from(range(5, 12))
        assert node.maybe_start_playback(10, newest_available_id=100)

    def test_starts_at_oldest_buffered(self):
        node = make_node()
        node.buffer.update_from(range(40, 55))
        node.maybe_start_playback(10, newest_available_id=100)
        assert node.playback.play_id == 40

    def test_does_not_start_before_startup_delay_worth_of_stream(self):
        node = make_node()
        node.buffer.update_from(range(0, 15))
        assert not node.maybe_start_playback(30, newest_available_id=20)

    def test_follow_id_override_capped_near_live_edge(self):
        node = make_node()
        node.buffer.update_from(range(0, 20))
        node.maybe_start_playback(10, follow_id=95, newest_available_id=100)
        assert node.playback.play_id == 90  # newest - startup

    def test_play_round_consumes_and_reports(self):
        node = make_node()
        node.buffer.update_from(range(0, 30))
        node.maybe_start_playback(10, newest_available_id=100)
        assert node.can_play_round()
        assert node.play_round(newest_available_id=100)
        assert node.playback.play_id == 10

    def test_play_round_stalls_on_missing_data(self):
        node = make_node()
        node.buffer.update_from(range(0, 30))
        node.maybe_start_playback(10, newest_available_id=100)
        node.buffer.discard(5)
        assert not node.play_round(newest_available_id=100)
        assert node.playback.play_id == 0

    def test_catchup_skip_when_too_far_behind(self):
        node = make_node(buffer_capacity=100, playback_lag=50)
        node.buffer.update_from(range(0, 30))
        node.maybe_start_playback(10, newest_available_id=60)
        # The live edge races ahead far beyond the buffer capacity.
        node.play_round(newest_available_id=500)
        assert node.playback.play_id >= 500 - 50
        assert node.playback.catchup_skips == 1


class TestInterestWindowAndCandidates:
    def test_window_for_started_node_begins_at_play_id(self):
        node = make_node()
        node.buffer.update_from(range(0, 20))
        node.maybe_start_playback(10, newest_available_id=100)
        lo, hi = node.interest_window(newest_available_id=100, window=50)
        assert lo == node.playback.play_id
        assert hi == min(100, lo + 49)

    def test_window_for_new_node_anchors_behind_live_edge(self):
        node = make_node(playback_lag=50)
        lo, hi = node.interest_window(newest_available_id=200, window=80)
        assert lo == 150
        assert hi == 200

    def test_window_clamped_to_live_edge(self):
        node = make_node(playback_lag=50)
        lo, hi = node.interest_window(newest_available_id=30, window=80)
        assert lo == 0
        assert hi == 30

    def test_held_segments_are_not_requested(self):
        node = make_node(playback_lag=50)
        node.buffer.update_from([150, 151])
        node.rate_controller.register_neighbor(7, 15.0, 1)
        maps = {7: neighbor_map(0, range(140, 160))}
        requests = node.plan_requests(maps, newest_available_id=200, window=80)
        # The window starts at 150; the held 150 and 151 are not fresh.
        assert sorted(r.segment_id for r in requests) == list(range(152, 160))

    def test_offers_from_every_neighbour_are_considered(self):
        node = make_node(playback_lag=50)
        node.rate_controller.register_neighbor(7, 10.0, 1)
        node.rate_controller.register_neighbor(8, 2.0, 1)
        maps = {
            7: neighbor_map(0, {155}),
            8: neighbor_map(0, {155, 156}),
        }
        requests = node.plan_requests(maps, newest_available_id=200, window=80)
        # 155 goes to the faster of its two suppliers, 156 to its only one.
        assert {r.segment_id: r.supplier_id for r in requests} == {155: 7, 156: 8}

    def test_plan_requests_tracks_pending(self):
        node = make_node(playback_lag=50)
        node.rate_controller.register_neighbor(7, 15.0, 1)
        maps = {7: neighbor_map(0, range(150, 170))}
        requests = node.plan_requests(maps, newest_available_id=200, window=80)
        assert requests
        assert node.pending_requests == {request.segment_id for request in requests}
        assert node.stats.segments_scheduled == len(requests)

    def test_plan_requests_without_fresh_segments(self):
        node = make_node(playback_lag=50)
        node.buffer.update_from(range(150, 170))
        maps = {7: neighbor_map(0, range(150, 170))}
        assert node.plan_requests(maps, newest_available_id=169, window=80) == []
        assert node.pending_requests == set()

    def test_observe_deliveries_feeds_the_rate_estimate(self):
        node = make_node()
        node.peer_table.add_neighbor(NeighborEntry(peer_id=7, latency_ms=5))
        node.rate_controller.register_neighbor(7, 15.0, 3)  # prior min(15, 15/3) = 5
        node.observe_deliveries({7: 9})
        assert node.rate_controller.rate_of(7) == pytest.approx(0.5 * 5.0 + 0.5 * 9.0)
        assert node.peer_table.neighbors[7] == NeighborEntry(peer_id=7, latency_ms=5)


class TestContinuSpecifics:
    def test_predict_missed_uses_play_position(self):
        node = make_node(ContinuStreamingNode)
        node.buffer.update_from(range(0, 30))
        node.maybe_start_playback(10, newest_available_id=100)
        node.buffer.discard(3)
        prediction = node.predict_missed(newest_available_id=100)
        assert 3 in prediction.missed_segment_ids

    def test_predict_missed_can_exclude_scheduled(self):
        node = make_node(ContinuStreamingNode)
        node.buffer.update_from(range(0, 30))
        node.maybe_start_playback(10, newest_available_id=100)
        node.buffer.discard(3)
        node.pending_requests = {3}
        included = node.predict_missed(100, exclude_scheduled=False)
        excluded = node.predict_missed(100, exclude_scheduled=True)
        assert 3 in included.missed_segment_ids
        assert 3 not in excluded.missed_segment_ids

    def test_consider_backup_stores_only_responsible_segments(self):
        node = make_node(ContinuStreamingNode, node_id=10)
        node.peer_table.set_dht_peer(11, 1.0)  # successor = 11, owns only id 10
        stored = 0
        for segment_id in range(200):
            if node.consider_backup(Segment(segment_id=segment_id)):
                stored += 1
        assert stored == len(node.backup)
        assert stored < 200  # responsibility is selective

    def test_serves_segment_from_buffer_or_backup(self):
        node = make_node(ContinuStreamingNode)
        node.receive_segment(5)
        node.backup.force_store(Segment(segment_id=9))
        assert node.serves_segment(5)
        assert node.serves_segment(9)
        assert not node.serves_segment(7)

    def test_prefetch_settlement_overdue(self):
        node = make_node(ContinuStreamingNode)
        node.buffer.update_from(range(0, 30))
        node.maybe_start_playback(10, newest_available_id=100)
        alpha_before = node.urgent_line.alpha
        node.record_prefetch(40, arrival_time=5.0, deadline=1.0)
        overdue, repeated = node.settle_prefetches(now=6.0)
        assert (overdue, repeated) == (1, 0)
        assert node.urgent_line.alpha > alpha_before
        assert node.stats.prefetch_overdue == 1

    def test_prefetch_settlement_repeated(self):
        node = make_node(ContinuStreamingNode)
        node.buffer.update_from(range(0, 30))
        node.maybe_start_playback(10, newest_available_id=100)
        node.record_prefetch(12, arrival_time=0.5, deadline=2.0)
        node.receive_segment(12)  # delivered by the scheduler too
        overdue, repeated = node.settle_prefetches(now=1.0)
        assert (overdue, repeated) == (0, 1)
        assert node.stats.prefetch_repeated == 1

    def test_prefetch_in_flight_not_settled_early(self):
        node = make_node(ContinuStreamingNode)
        node.record_prefetch(12, arrival_time=5.0, deadline=9.0)
        assert node.settle_prefetches(now=1.0) == (0, 0)
        node.receive_segment(12)  # the scheduler delivers it meanwhile
        # Still pending at the first settlement, so it settles now as repeated.
        assert node.settle_prefetches(now=6.0) == (0, 1)

    def test_deadline_of(self):
        node = make_node(ContinuStreamingNode)
        node.buffer.update_from(range(0, 30))
        node.maybe_start_playback(10, newest_available_id=100)
        # Segment 20 is 20 segments ahead of play_id=0 -> 2 s from now.
        assert node.deadline_of(20, now=4.0) == pytest.approx(6.0)
        # A passed segment is due immediately.
        assert node.deadline_of(0, now=4.0) == pytest.approx(4.0)

    def test_deadline_before_playback_started(self):
        node = make_node(ContinuStreamingNode)
        assert node.deadline_of(50, now=2.0) == pytest.approx(3.0)

    def test_backup_handover_round_trip(self):
        leaver = make_node(ContinuStreamingNode, node_id=10)
        heir = make_node(ContinuStreamingNode, node_id=9)
        leaver.backup.force_store(Segment(segment_id=77))
        assert heir.absorb_handover(leaver.handover_backup()) == 1
        assert heir.serves_segment(77)

    def test_available_sending_rate_respects_budget(self):
        node = make_node(ContinuStreamingNode, outbound_rate=12.0)
        assert node.available_sending_rate(100.0) == 12.0
        assert node.available_sending_rate(3.0) == 3.0
        assert node.available_sending_rate(0.0) == 0.0
