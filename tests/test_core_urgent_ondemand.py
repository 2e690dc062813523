"""Tests for the Urgent Line mechanism and the on-demand retrieval (Algorithm 2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.theory import expected_routing_messages
from repro.core.phases.ondemand import LOCATED, NO_HOLDER, NO_RATE, REPEATED, Lookup
from repro.core.urgent_line import UrgentLine
from repro.dht.hashing import backup_keys
from repro.dht.network import DhtNetwork
from repro.runtime import LiveSwarm, wire
from repro.scenarios import builtin_scenario


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


class TestLookup:
    """Algorithm 2's supplier rule, answered from real greedy walks."""

    @pytest.fixture
    def dht(self) -> DhtNetwork:
        network = DhtNetwork(id_space=2048, rng=np.random.default_rng(8))
        network.populate(150)
        return network

    def _locate(self, dht, origin, segment_id, holders_with_data, rates=None):
        """A lookup answered the way the simulator answers it: one walk per key."""
        rates = rates or {}
        lookup = Lookup(origin, segment_id, 4, 2048)
        for key in lookup.keys:
            holder = dht.router.route(origin, key).final_node
            lookup.answer(key, holder, holder in holders_with_data, rates.get(holder, 5.0))
        return lookup

    def test_validation(self):
        with pytest.raises(ValueError):
            Lookup(1, 5, 0, 2048)

    def test_locates_holder_that_has_the_segment(self, dht):
        origin = dht.node_ids()[0]
        segment_id = 42
        holders = {
            dht.responsible_node(key) for key in backup_keys(segment_id, 4, 2048)
        }
        lookup = self._locate(dht, origin, segment_id, holders)
        assert lookup.keys == backup_keys(segment_id, 4, 2048)
        assert None not in lookup.answers
        assert lookup.supplier() in holders

    def test_no_holder_has_data(self, dht):
        origin = dht.node_ids()[0]
        assert self._locate(dht, origin, 7, holders_with_data=set()).supplier() is None

    def test_picks_highest_rate_holder(self, dht):
        origin = dht.node_ids()[0]
        segment_id = 99
        holders = {
            dht.responsible_node(key) for key in backup_keys(segment_id, 4, 2048)
        }
        holders.discard(origin)
        assert len(holders) >= 2
        rates = {holder: 1.0 for holder in holders}
        best = max(holders)
        rates[best] = 50.0
        assert self._locate(dht, origin, segment_id, holders, rates).supplier() == best

    def test_zero_rate_holders_excluded(self, dht):
        origin = dht.node_ids()[0]
        segment_id = 13
        holders = {
            dht.responsible_node(key) for key in backup_keys(segment_id, 4, 2048)
        }
        lookup = self._locate(dht, origin, segment_id, holders, {h: 0.0 for h in holders})
        assert lookup.supplier() is None

    def test_exact_tie_keeps_the_earlier_key(self):
        lookup = Lookup(1, 5, 3, 2048)
        lookup.answers[:] = [(30, True, 4.0), (20, True, 4.0), (10, True, 4.0)]
        assert lookup.supplier() == 30

    def test_first_answer_of_a_holder_counts(self):
        # A holder reached by two keys answers twice; its first answer in
        # key order stands, even when the later one offers more.
        lookup = Lookup(1, 5, 3, 2048)
        lookup.answers[:] = [(20, False, 9.0), (30, True, 2.0), (20, True, 8.0)]
        assert lookup.supplier() == 30

    def test_origin_and_missing_answers_are_skipped(self):
        lookup = Lookup(1, 5, 3, 2048)
        lookup.answers[:] = [(1, True, 9.0), None, (40, True, 0.5)]
        assert lookup.supplier() == 40

    def test_answer_fills_the_first_open_slot_of_its_key(self):
        lookup = Lookup(1, 5, 3, 2048)
        lookup.keys = (100, 200, 100)  # colliding keys on a small ring
        lookup.answer(100, 7, True, 1.0)
        lookup.answer(100, 8, True, 2.0)
        lookup.answer(100, 9, True, 3.0)  # no open slot left: dropped
        lookup.answer(555, 9, True, 3.0)  # not one of this lookup's keys
        assert lookup.answers == [(7, True, 1.0), None, (8, True, 2.0)]

    def test_origin_with_the_data_does_not_stop_probing(self):
        lookup = Lookup(1, 5, 3, 2048)
        lookup.walked, lookup.answers[0] = 1, (1, True, 9.0)
        assert lookup.probing(has_segment=False)
        lookup.walked, lookup.answers[1] = 2, (40, True, 1.0)
        assert lookup.found() and not lookup.probing(has_segment=False)

    def test_rate_below_one_probes_on_and_falls_back_to_the_supplier(self):
        lookup = Lookup(1, 5, 2, 2048)
        lookup.walked, lookup.answers[0] = 1, (40, True, 0.5)
        assert lookup.probing(has_segment=False)
        lookup.walked, lookup.answers[1] = 2, (50, False, 9.0)
        assert not lookup.probing(has_segment=False)  # keys ran out
        assert lookup.decide(has_segment=False) == (LOCATED, 40)

    def test_walk_passes_over_keys_that_route_nowhere(self):
        lookup = Lookup(1, 5, 3, 2048)
        asked = []

        def send(segment_id, key):
            asked.append(key)
            return len(asked) > 1  # the first key is the requester's own

        assert lookup.walk(False, send)
        assert asked == list(lookup.keys[:2])
        assert (lookup.walked, lookup.walks) == (2, 1)
        assert lookup.unanswered()
        lookup.answer(lookup.keys[1], 40, True, 0.5)
        assert not lookup.unanswered()
        assert not lookup.walk(True, send)  # the requester holds it now
        assert lookup.walked == 2

    def test_decide_names_one_outcome(self):
        lookup = Lookup(1, 5, 3, 2048)
        assert lookup.decide(has_segment=False) == (NO_HOLDER, None)
        lookup.answers[:] = [(20, True, 0.0), (1, True, 9.0), None]
        assert lookup.decide(has_segment=False) == (NO_RATE, None)
        assert lookup.decide(has_segment=True) == (REPEATED, None)

    def test_expected_costs_match_section_5_4_3(self):
        # k(log2(n)/2 + 1) + 1 messages per located segment.
        messages = expected_routing_messages(4, 8000)
        assert messages == pytest.approx(4 * (np.log2(8000) / 2 + 1) + 1)
        assert expected_routing_messages(4, 1) == expected_routing_messages(4, 2)


def _reference_supplier(answers, origin):
    """The supplier rule written out plainly: each holder's first answer
    in key order, origin skipped, the first strictly higher positive rate."""
    best, best_rate, seen = None, 0.0, {origin}
    for holder, has_data, rate in answers:
        if holder in seen:
            continue
        seen.add(holder)
        if has_data and rate > best_rate:
            best, best_rate = holder, rate
    return best


class TestProbingRule:
    """Algorithm 2 probes backup keys in turn and stops at the first holder
    that has the data at a rate of at least one segment."""

    ORIGIN = 1

    @settings(max_examples=400, deadline=None)
    @given(
        # Few holders (the origin among them) so duplicates are common;
        # few rates so exact ties are too.
        answers=st.lists(
            st.tuples(
                st.sampled_from([1, 20, 30, 40]),
                st.booleans(),
                st.sampled_from([0.0, 0.5, 1.0, 3.0]),
            ),
            min_size=1,
            max_size=6,
        ),
        arrives_after=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    )
    def test_stop_rule(self, answers, arrives_after):
        lookup = Lookup(self.ORIGIN, 5, len(answers), 2048)

        def send(segment_id, key):
            lookup.answers[lookup.walked - 1] = answers[lookup.walked - 1]
            return True

        has_segment = False
        while lookup.walk(has_segment, send):
            has_segment = arrives_after is not None and lookup.walked >= arrives_after
        walked = lookup.walked
        assert lookup.walks == walked
        # The expected stop: right after the first key whose holder's first
        # answer offers the data at rate >= 1, or when the segment arrived,
        # or when the keys ran out.
        stop, seen = len(answers), {self.ORIGIN}
        for index, (holder, has_data, rate) in enumerate(answers):
            if holder in seen:
                continue
            seen.add(holder)
            if has_data and rate >= 1.0:
                stop = index + 1
                break
        if arrives_after is not None:
            stop = min(stop, arrives_after)
        assert walked == stop
        # Whatever was walked, the supplier is the unchanged rule over it.
        supplier = _reference_supplier(answers[:walked], self.ORIGIN)
        assert lookup.supplier() == supplier
        outcome, chosen = lookup.decide(has_segment)
        if has_segment:
            assert (outcome, chosen) == (REPEATED, None)
        elif supplier is not None:
            assert (outcome, chosen) == (LOCATED, supplier)
        else:
            assert chosen is None and outcome in (NO_HOLDER, NO_RATE)
        if outcome == LOCATED and walked < len(answers):
            # Probing stopped on a holder: the one chosen can send.
            first_rate = {}
            for holder, _, rate in answers[:walked]:
                first_rate.setdefault(holder, rate)
            assert first_rate[chosen] >= 1.0


class TestLivePeerLookup:
    """The live peer drives the same :class:`Lookup` from frames, one walk
    at a time."""

    def test_adequate_answer_decides_at_once(self, monkeypatch):
        peer, sent = _live_peer(monkeypatch)
        segment_id, walk = _launch(peer, sent)
        assert peer._dht_pending[segment_id].walks == 1
        peer._on_dht_response(_response(peer, walk, segment_id, rate=3.0))
        assert segment_id not in peer._dht_pending
        assert segment_id in peer._prefetch_deadlines
        ((dst, request),) = sent  # the download request, and no further walk
        assert dst == walk[0]
        assert isinstance(request, wire.SegmentRequest) and request.prefetch
        assert request.segment_id == segment_id
        assert peer.node.stats.lookups_located == 1
        assert peer.node.stats.lookup_walks == 1
        # A late answer for a closed lookup is ignored.
        peer._on_dht_response(_response(peer, walk, segment_id))
        assert len(sent) == 1

    def test_inadequate_answer_walks_the_next_key(self, monkeypatch):
        peer, sent = _live_peer(monkeypatch)
        segment_id, walk = _launch(peer, sent, walkable=2)
        peer._on_dht_response(_response(peer, walk, segment_id, rate=0.5))
        ((_, nxt),) = sent
        assert isinstance(nxt, wire.DhtLookup) and nxt.segment_id == segment_id
        assert nxt.target_key != walk[1].target_key
        assert peer._dht_pending[segment_id].walks == 2

    def test_segment_arriving_mid_lookup_stops_probing(self, monkeypatch):
        peer, sent = _live_peer(monkeypatch)
        node = peer.node
        segment_id, walk = _launch(peer, sent, walkable=2)
        node.urgent_line.record_overdue(3)
        alpha, adjustments = node.urgent_line.alpha, node.urgent_line.adjustments
        assert node.receive_segment(segment_id)  # gossip delivered it meanwhile
        # This answer alone would have sent the next key's walk.
        peer._on_dht_response(_response(peer, walk, segment_id, has_data=False))
        assert segment_id not in peer._dht_pending
        assert sent == []  # no further walk, and the duplicate download is skipped
        assert node.stats.prefetch_repeated == node.stats.lookups_repeated == 1
        assert node.urgent_line.adjustments == adjustments + 1
        assert node.urgent_line.alpha == pytest.approx(alpha - node.urgent_line.alpha_step)

    def test_unanswered_walk_passes_to_the_next_key_at_the_rescue_tick(self, monkeypatch):
        peer, sent = _live_peer(monkeypatch)
        segment_id, walk = _launch(peer, sent, walkable=2)
        peer._rescue_pass(peer._current_tick - 1)  # a closed period's rescue
        assert sent == []
        peer._rescue_pass(peer._current_tick)
        ((_, nxt),) = sent
        assert isinstance(nxt, wire.DhtLookup) and nxt.segment_id == segment_id
        assert nxt.target_key != walk[1].target_key
        assert peer._dht_pending[segment_id].walks == 2

    def test_sweep_decides_no_holder_when_no_key_answers(self, monkeypatch):
        peer, sent = _live_peer(monkeypatch)
        segment_id, _ = _launch(peer, sent)
        lookup = peer._dht_pending[segment_id]
        while True:  # every rescue tick passes the silent key over
            sent.clear()
            peer._rescue_pass(peer._current_tick)
            if not sent:
                break
        assert segment_id in peer._dht_pending  # keys ran out: left to the sweep
        peer._sweep_lookups()
        assert segment_id not in peer._dht_pending
        assert sent == []
        assert peer.node.stats.lookups_no_holder == 1
        assert peer.node.stats.lookup_walks == lookup.walks >= 1

    def test_answered_walk_is_not_rewalked(self, monkeypatch):
        peer, sent = _live_peer(monkeypatch)
        segment_id, walk = _launch(peer, sent, walkable=2)
        lookup = peer._dht_pending[segment_id]
        # An answer is in for the last key walked: nothing is passed over.
        lookup.answer(walk[1].target_key, walk[0], True, 0.5)
        peer._rescue_pass(peer._current_tick)
        assert sent == []
        assert (lookup.walks, segment_id in peer._dht_pending) == (1, True)

    def test_late_answer_after_a_rescue_walk_waits_for_the_walk_in_flight(self, monkeypatch):
        peer, sent = _live_peer(monkeypatch)
        segment_id, first = _launch(peer, sent, walkable=3)
        peer._rescue_pass(peer._current_tick)  # the first answer is only late
        (second,) = sent
        sent.clear()
        peer._on_dht_response(_response(peer, first, segment_id, rate=0.5))
        assert sent == []  # no third walk while the second is in flight
        assert segment_id in peer._dht_pending  # and nothing decided yet
        peer._on_dht_response(_response(peer, second, segment_id, rate=0.5))
        ((_, third),) = sent  # the walk in flight answered: probing goes on
        assert isinstance(third, wire.DhtLookup)
        assert third.target_key not in (first[1].target_key, second[1].target_key)

    def test_late_adequate_answer_after_a_rescue_walk_decides_at_once(self, monkeypatch):
        peer, sent = _live_peer(monkeypatch)
        segment_id, first = _launch(peer, sent, walkable=2)
        peer._rescue_pass(peer._current_tick)
        sent.clear()
        peer._on_dht_response(_response(peer, first, segment_id, rate=3.0))
        assert segment_id not in peer._dht_pending
        ((dst, request),) = sent
        assert dst == first[0] and isinstance(request, wire.SegmentRequest)


def _live_peer(monkeypatch):
    """A built (not running) virtual-clock peer whose sends are recorded."""
    swarm = LiveSwarm(
        builtin_scenario("static").scaled(num_nodes=10, rounds=2), clock="virtual"
    ).build()
    monkeypatch.setattr(swarm, "sim_now", lambda: 1.0)
    peer = next(p for p in swarm.peers.values() if not p.is_source)
    sent = []
    monkeypatch.setattr(peer, "_send", lambda dst, msg: sent.append((dst, msg)))
    return peer, sent


def _launch(peer, sent, walkable=1):
    """Start the lookup of the first segment with ``walkable`` keys that
    this peer does not own itself; return it and its one walk."""
    for segment_id in range(1, 200):
        keys = Lookup(
            peer.peer_id, segment_id, peer.config.backup_replicas, peer.swarm.id_space
        ).keys
        if sum(peer._closer_hop(key, (peer.peer_id,)) is not None for key in keys) < walkable:
            continue
        sent.clear()
        peer._start_lookup(segment_id)
        (walk,) = sent
        assert isinstance(walk[1], wire.DhtLookup)
        sent.clear()
        return segment_id, walk
    raise AssertionError("no segment has enough walkable keys")


def _response(peer, walk, segment_id, has_data=True, rate=3.0):
    dst, msg = walk
    return wire.DhtResponse(
        responder=dst, origin=peer.peer_id, target_key=msg.target_key,
        segment_id=segment_id, has_data=has_data, rate=rate, path=(peer.peer_id, dst),
    )
