"""The protocol core's hot paths against their straightforward references.

``core/``, ``dht/``, ``streaming/`` and ``membership/`` spell Algorithm 1,
the greedy DHT walk, eq. (5) and the overheard list for speed (see
``docs/architecture.md`` → *Hot paths and the invariants that make them safe
to optimise*).  This module keeps the plain spellings they replaced as
**oracles** — they exist only here — and checks three things:

* every fast path returns exactly what its oracle returns on random inputs
  (hypothesis), draws the same random numbers and leaves the generator in
  the same state;
* every cache equals the from-scratch recomputation after any sequence of
  mutations, in unit sequences and inside churning simulator/runtime runs;
* same-seed runs hash to the golden fingerprints captured on the commit
  *before* the fast paths were written, so the speed-up is provably not a
  behaviour change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backup import VodBackupStore
from repro.core.config import SystemConfig
from repro.core.node import StreamingNode
from repro.core.scheduler import (
    MAX_URGENCY,
    ScheduledRequest,
    bucket_priority,
    schedule_requests,
)
from repro.core.system import StreamingSystem
from repro.dht.hashing import backup_keys, is_backup_responsible, segment_hash
from repro.dht.peer_table import NeighborEntry, PeerTable
from repro.dht.ring import IdRing
from repro.dht.routing import GreedyRouter, RouteOutcome, next_hop
from repro.membership.overhearing import OverhearingService
from repro.net.latency import LatencyModel
from repro.obs import ObsConfig
from repro.runtime import LiveSwarm
from repro.scenarios import builtin_scenario
from repro.streaming.buffermap import BufferMap


# =========================================================================== #
# Oracles: the plain spellings the fast paths replaced
# =========================================================================== #
class SupplierOffer(NamedTuple):
    """One neighbour's offer of one segment: ``p_ij`` and the rate ``R_ij``."""

    supplier_id: int
    position_from_tail: int
    rate: float


class SegmentCandidate(NamedTuple):
    """A fresh segment together with every neighbour able to supply it."""

    segment_id: int
    offers: Tuple[SupplierOffer, ...]

    def supplier_ids(self) -> List[int]:
        return [offer.supplier_id for offer in self.offers]

    def best_rate(self) -> float:
        return max((offer.rate for offer in self.offers), default=0.0)


class PriorityBreakdown(NamedTuple):
    segment_id: int
    urgency: float
    rarity: float
    priority: float


def compute_urgency(segment_id: int, play_id: int, playback_rate: float, best_rate: float) -> float:
    """Eq. (1): ``1 / t_i`` with ``t_i = (id_i - id_play) / p - 1 / R_i``."""
    if playback_rate <= 0:
        raise ValueError("playback_rate must be positive")
    if best_rate <= 0:
        return MAX_URGENCY
    slack = (segment_id - play_id) / playback_rate - 1.0 / best_rate
    if slack <= 0:
        return MAX_URGENCY
    return 1.0 / slack


def compute_rarity(positions_from_tail: Sequence[int], buffer_capacity: int) -> float:
    """Eq. (2): ``∏_j (p_ij / B)``, each position clamped to ``[0, B]``."""
    if buffer_capacity <= 0:
        raise ValueError("buffer_capacity must be positive")
    rarity = 1.0
    for position in positions_from_tail:
        rarity *= min(max(position, 0), buffer_capacity) / buffer_capacity
    return rarity


def compute_priority(urgency: float, rarity: float) -> float:
    """Eq. (3): ``max(urgency, rarity)``."""
    return max(urgency, rarity)


def rarest_first_priority(supplier_count: int) -> float:
    """The CoolStreaming baseline ``1 / n_i``."""
    if supplier_count <= 0:
        return MAX_URGENCY
    return 1.0 / supplier_count


def ref_position_from_tail(buffer_map: BufferMap, segment_id: int) -> int:
    if segment_id not in buffer_map.present:
        raise KeyError(segment_id)
    effective_tail = min(buffer_map.tail_id - 1, max(buffer_map.present))
    return effective_tail - segment_id


def ref_build_candidates(
    node: StreamingNode,
    neighbor_maps: Mapping[int, BufferMap],
    newest_available_id: int,
    window: int,
) -> List[SegmentCandidate]:
    """Window x neighbours set probes, one ``max(present)`` per offer."""
    lo, hi = node.interest_window(newest_available_id, window)
    if hi < lo:
        return []
    rates = {
        neighbor_id: node.rate_controller.rate_of(neighbor_id)
        for neighbor_id in neighbor_maps
    }
    candidates: List[SegmentCandidate] = []
    for segment_id in range(lo, hi + 1):
        if segment_id in node.buffer:
            continue
        offers: List[SupplierOffer] = []
        for neighbor_id, neighbor_map in neighbor_maps.items():
            if segment_id in neighbor_map.present:
                offers.append(
                    SupplierOffer(
                        supplier_id=neighbor_id,
                        position_from_tail=ref_position_from_tail(
                            neighbor_map, segment_id
                        ),
                        rate=rates[neighbor_id],
                    )
                )
        if offers:
            candidates.append(
                SegmentCandidate(segment_id=segment_id, offers=tuple(offers))
            )
    return candidates


def ref_prioritize_candidates(
    candidates: Sequence[SegmentCandidate],
    play_id: int,
    playback_rate: float,
    buffer_capacity: int,
) -> List[PriorityBreakdown]:
    """Eqs. (1)-(3) through the scalar definitions, one call each."""
    breakdown: List[PriorityBreakdown] = []
    for candidate in candidates:
        urgency = compute_urgency(
            candidate.segment_id, play_id, playback_rate, candidate.best_rate()
        )
        rarity = compute_rarity(
            [offer.position_from_tail for offer in candidate.offers],
            buffer_capacity,
        )
        breakdown.append(
            PriorityBreakdown(
                segment_id=candidate.segment_id,
                urgency=urgency,
                rarity=rarity,
                priority=compute_priority(urgency, rarity),
            )
        )
    return breakdown


def ref_schedule_requests(
    candidates: Sequence[SegmentCandidate],
    priorities: Mapping[int, float],
    inbound_rate: float,
    period: float,
    tiebreak_rng: Optional[np.random.Generator] = None,
) -> List[ScheduledRequest]:
    """Algorithm 1 with one scalar tie-break draw per candidate."""
    if tiebreak_rng is None:
        tiebreak = {c.segment_id: float(c.segment_id) for c in candidates}
    else:
        tiebreak = {c.segment_id: float(tiebreak_rng.random()) for c in candidates}
    ordered = sorted(
        candidates,
        key=lambda c: (
            -priorities.get(c.segment_id, 0.0),
            tiebreak[c.segment_id],
            c.segment_id,
        ),
    )
    max_requests = min(len(ordered), int(inbound_rate * period))
    queue_time: Dict[int, float] = {}
    requests: List[ScheduledRequest] = []
    for candidate in ordered[:max_requests] if max_requests else []:
        best_time = math.inf
        best_supplier: Optional[int] = None
        for offer in candidate.offers:
            if offer.rate <= 0:
                continue
            transfer_time = 1.0 / offer.rate
            ready_at = transfer_time + queue_time.get(offer.supplier_id, 0.0)
            if ready_at < best_time and ready_at < period:
                best_time = ready_at
                best_supplier = offer.supplier_id
        if best_supplier is not None:
            queue_time[best_supplier] = best_time
            requests.append(
                ScheduledRequest(
                    segment_id=candidate.segment_id,
                    supplier_id=best_supplier,
                    expected_time=best_time,
                    priority=priorities.get(candidate.segment_id, 0.0),
                )
            )
    return requests


def ref_plan(
    node: StreamingNode,
    neighbor_maps: Mapping[int, BufferMap],
    newest_available_id: int,
    window: int,
    tiebreak_rng: Optional[np.random.Generator],
) -> List[ScheduledRequest]:
    """candidates -> eqs. (1)-(3) or ``1 / n_i`` -> Algorithm 1, record by record."""
    scheduler = node.scheduler
    candidates = ref_build_candidates(node, neighbor_maps, newest_available_id, window)
    if scheduler.policy == "rarest_first":
        priorities = {c.segment_id: rarest_first_priority(len(c.offers)) for c in candidates}
    else:
        play_ref = node.playback.play_id if node.playback.started else node.buffer.head_id
        breakdown = ref_prioritize_candidates(
            candidates, play_ref, scheduler.playback_rate, scheduler.buffer_capacity
        )
        priorities = {
            b.segment_id: bucket_priority(b.priority) if scheduler.quantize_priorities
            else b.priority
            for b in breakdown
        }
    return ref_schedule_requests(
        candidates, priorities, node.inbound_rate, scheduler.period, tiebreak_rng
    )


def ref_route(
    ring: IdRing,
    peers_of: Callable[[int], Sequence[int]],
    max_hops: int,
    origin: int,
    target_key: int,
    responsible: Optional[int] = None,
) -> RouteOutcome:
    """The greedy walk through ``IdRing.normalize`` / ``clockwise_distance``."""
    target_key = ring.normalize(target_key)
    current = ring.normalize(origin)
    path: List[int] = [current]
    visited = {current}
    for _ in range(max_hops):
        current_dist = ring.clockwise_distance(current, target_key)
        if current_dist == 0:
            break
        best: Optional[int] = None
        best_dist = current_dist
        for peer in peers_of(current):
            peer = ring.normalize(peer)
            if peer in visited:
                continue
            dist = ring.clockwise_distance(peer, target_key)
            if dist < best_dist:
                best, best_dist = peer, dist
        if best is None:
            break
        current = best
        visited.add(current)
        path.append(current)
    else:
        return RouteOutcome(target_key=target_key, path=tuple(path), success=False)
    if responsible is not None:
        success = path[-1] == ring.normalize(responsible)
    else:
        success = True
    return RouteOutcome(target_key=target_key, path=tuple(path), success=success)


def ref_closer_hop(
    peer_id: int,
    size: int,
    candidates: Sequence[int],
    is_alive: Callable[[int], bool],
    target_key: int,
    exclude: Sequence[int],
) -> Optional[int]:
    """The live peer's former private copy of the next-hop rule."""
    target = target_key % size
    current_dist = (target - peer_id) % size
    if current_dist == 0:
        return None
    best: Optional[int] = None
    best_dist = current_dist
    excluded = set(exclude)
    for peer in candidates:
        if peer in excluded or not is_alive(peer):
            continue
        dist = (target - peer) % size
        if dist < best_dist:
            best, best_dist = peer, dist
    return best


def ref_record_overheard(
    overheard: List[Tuple[int, float]], peer_id: int, latency_ms: float, owner_id: int, cap: int
) -> List[Tuple[int, float]]:
    """The overheard list rebuilt by comprehension on every single entry."""
    if peer_id == owner_id:
        return overheard
    overheard = [e for e in overheard if e[0] != peer_id]
    overheard.append((peer_id, latency_ms))
    if len(overheard) > cap:
        overheard = overheard[-cap:]
    return overheard


def ref_overhear_path(
    lists: Dict[int, List[Tuple[int, float]]],
    path: Sequence[int],
    owners: Sequence[int],
    is_alive: Callable[[int], bool],
    latency_of: Callable[[int, int], float],
    cap: int,
) -> None:
    """Each owner records each alive path node: one liveness check and one
    latency per (owner, node), and a trim after every entry."""
    for owner in owners:
        for node_id in path:
            if node_id == owner or not is_alive(node_id):
                continue
            lists[owner] = ref_record_overheard(
                lists[owner], node_id, latency_of(owner, node_id), owner, cap
            )


def ref_is_responsible(
    ring: IdRing, node_id: int, replicas: int, segment_id: int, successor_id: Optional[int]
) -> bool:
    """``VodBackupStore.is_responsible`` as it re-hashed the keys per call."""
    if successor_id is None or successor_id == node_id:
        return True
    for i in range(1, replicas + 1):
        key = segment_hash(segment_id * i, ring.size)
        if ring.in_clockwise_interval(key, node_id, successor_id):
            return True
    return False


def ref_routing_candidates(table: PeerTable) -> tuple:
    ids = {entry.peer_id for entry in table.dht_peers.values()}
    ids.update(table.neighbors)
    ids.discard(table.owner_id)
    return tuple(sorted(ids))


# =========================================================================== #
# K1 — availability: the effective tail
# =========================================================================== #
@st.composite
def buffer_maps(draw, lo: int = 0, hi: int = 400):
    """Maps incl. empty ones, ids outside any window, holes at the tail."""
    head = draw(st.integers(min_value=lo, max_value=hi))
    capacity = draw(st.integers(min_value=1, max_value=120))
    present = draw(
        st.frozensets(st.integers(min_value=max(0, head - 20), max_value=head + capacity + 20), max_size=80)
    )
    return BufferMap(head_id=head, capacity=capacity, present=present)


class TestEffectiveTail:
    @given(buffer_map=buffer_maps())
    @settings(max_examples=150, deadline=None)
    def test_position_matches_the_per_offer_max(self, buffer_map):
        for segment_id in buffer_map.present:
            assert buffer_map.position_from_tail(segment_id) == ref_position_from_tail(
                buffer_map, segment_id
            )

    def test_empty_map_raises_keyerror_before_valueerror(self):
        empty = BufferMap(head_id=0, capacity=10, present=frozenset())
        with pytest.raises(KeyError):
            empty.position_from_tail(3)
        with pytest.raises(ValueError):
            empty.effective_tail  # noqa: B018 - the access is the test

    def test_tail_is_not_part_of_equality_or_repr(self):
        a = BufferMap(head_id=0, capacity=10, present=frozenset({1, 4}))
        b = BufferMap(head_id=0, capacity=10, present=frozenset({1, 4}))
        assert a.effective_tail == 4
        assert a == b and "effective_tail" not in repr(a)
        assert dataclasses.replace(a, capacity=3).effective_tail == 2


def _node(buffer_capacity: int = 120, **kwargs) -> StreamingNode:
    return StreamingNode(
        7,
        IdRing(1024),
        buffer_capacity=buffer_capacity,
        playback_rate=10.0,
        period=1.0,
        inbound_rate=15.0,
        outbound_rate=15.0,
        **kwargs,
    )


class TestScalarEquations:
    """The oracles themselves: eqs. (1)-(3) and ``1 / n_i`` as written."""

    def test_values(self):
        # t = (20 - 0)/10 - 1/5 = 1.8; rarity = (300/600) * (150/600)
        assert compute_urgency(20, 0, 10.0, 5.0) == pytest.approx(1 / 1.8)
        assert compute_urgency(1, 0, 10.0, 2.0) == MAX_URGENCY  # no slack left
        assert compute_urgency(50, 0, 10.0, 0.0) == MAX_URGENCY  # no rate
        assert compute_rarity([300, 150], 600) == pytest.approx(0.125)
        assert compute_rarity([], 600) == 1.0
        assert compute_rarity([900], 600) == 1.0 and compute_rarity([-5], 600) == 0.0
        assert rarest_first_priority(4) == 0.25 and rarest_first_priority(0) == MAX_URGENCY

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_urgency(10, 0, 0.0, 5.0)
        with pytest.raises(ValueError):
            compute_rarity([1], 0)

    @given(
        segment_id=st.integers(min_value=0, max_value=10_000),
        play_id=st.integers(min_value=0, max_value=10_000),
        rate=st.floats(min_value=0.01, max_value=100.0),
        positions=st.lists(st.integers(min_value=-10, max_value=900), max_size=8),
    )
    def test_ranges(self, segment_id, play_id, rate, positions):
        urgency = compute_urgency(segment_id, play_id, 10.0, rate)
        rarity = compute_rarity(positions, 600)
        assert urgency > 0 and 0.0 <= rarity <= 1.0
        assert compute_priority(urgency, rarity) in (urgency, rarity)
        assert compute_priority(urgency, rarity) >= max(urgency, rarity)


# =========================================================================== #
# K1 + K2 — the column pass: candidates, eqs. (1)-(3) and Algorithm 1
# =========================================================================== #
class TestColumnPass:
    @given(
        data=st.data(),
        held=st.frozensets(st.integers(min_value=0, max_value=420), max_size=150),
        started=st.booleans(),
        window=st.integers(min_value=0, max_value=160),
        capacity=st.sampled_from([30, 120, 600]),
        policy=st.sampled_from(["continustreaming", "rarest_first"]),
        quantize=st.booleans(),
        seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
    )
    @settings(max_examples=400, deadline=None)
    def test_plan_equals_the_record_chain(
        self, data, held, started, window, capacity, policy, quantize, seed
    ):
        """``plan_requests`` == ref_build_candidates -> ref_prioritize_candidates
        -> ref_schedule_requests, with the same generator state afterwards."""
        node = _node(buffer_capacity=capacity, playback_lag=min(50, capacity - 10), policy=policy)
        node.buffer.update_from(held)
        newest = data.draw(st.integers(min_value=-1, max_value=430))
        if started:
            play_id = data.draw(st.integers(min_value=0, max_value=400))
            node.playback.start(play_id)
            newest = play_id + data.draw(st.integers(min_value=-10, max_value=200))
        neighbor_ids = data.draw(
            st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=6, unique=True)
        )
        # Most maps overlap the interest window, so segments have several
        # suppliers; some are arbitrary (incl. empty) maps.
        lo, hi = node.interest_window(newest, window)
        lo, hi = max(0, lo), max(0, lo, hi)
        near_window = st.builds(
            BufferMap,
            head_id=st.integers(min_value=max(0, lo - 40), max_value=hi),
            capacity=st.integers(min_value=1, max_value=200),
            present=st.frozensets(
                st.integers(min_value=max(0, lo - 10), max_value=hi + 10), max_size=60
            ),
        )
        maps = {
            nid: data.draw(st.one_of(near_window, near_window, near_window, buffer_maps()))
            for nid in neighbor_ids
        }
        for nid in neighbor_ids:  # incl. zero and negative rate estimates
            if data.draw(st.booleans()):
                node.rate_controller._estimates[nid] = data.draw(
                    st.floats(min_value=-5.0, max_value=40.0)
                )
        node.inbound_rate = data.draw(st.sampled_from([0.0, 3.0, 15.0, 40.0]))
        node.scheduler.quantize_priorities = quantize
        ref_rng = None if seed is None else np.random.default_rng(seed)
        node.scheduler.tiebreak_rng = None if seed is None else np.random.default_rng(seed)

        expected = ref_plan(node, maps, newest, window, ref_rng)
        assert node.plan_requests(maps, newest, window) == expected
        if seed is not None:
            assert (
                node.scheduler.tiebreak_rng.bit_generator.state == ref_rng.bit_generator.state
            )

    def test_supplier_order_is_neighbour_order(self):
        """Two equally fast suppliers: the first in mapping order wins, so the
        column must keep the order the maps are walked in."""
        for order in ([3, 9], [9, 3]):
            node = _node(playback_lag=20)
            maps = {nid: BufferMap(head_id=0, capacity=120, present=frozenset({90})) for nid in order}
            for nid in order:
                node.rate_controller.register_neighbor(nid, 15.0, 1)
            (request,) = node.plan_requests(maps, newest_available_id=100, window=40)
            assert request.supplier_id == order[0]


@st.composite
def columns(draw):
    """Algorithm 1's inputs: priorities (incl. ties), supplier columns in any
    order, one rate per supplier incl. zero and negative ones."""
    ids = draw(st.lists(st.integers(0, 500), max_size=30, unique=True))
    priorities = {sid: draw(st.sampled_from([0.0, 0.125, 1.0, 1.0e9])) for sid in ids}
    suppliers = {
        sid: draw(st.lists(st.integers(min_value=0, max_value=5), max_size=5, unique=True))
        for sid in ids
    }
    rates = {
        supplier: draw(
            st.one_of(
                st.sampled_from([0.0, -1.0, 0.1, 10.0]),
                st.floats(min_value=0.05, max_value=40.0),
            )
        )
        for supplier in range(6)
    }
    return priorities, suppliers, rates


class TestAlgorithm1:
    @given(
        world=columns(),
        inbound=st.floats(min_value=0.0, max_value=40.0),
        period=st.sampled_from([0.5, 1.0, 2.0]),
        seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
    )
    @settings(max_examples=300, deadline=None)
    def test_assignment_and_generator_state_match(self, world, inbound, period, seed):
        priorities, suppliers, rates = world
        candidates = [
            SegmentCandidate(sid, tuple(SupplierOffer(s, 0, rates[s]) for s in suppliers[sid]))
            for sid in priorities
        ]
        ref_rng = fast_rng = None
        if seed is not None:
            ref_rng, fast_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = ref_schedule_requests(
            candidates, priorities, inbound, period, tiebreak_rng=ref_rng
        )
        got = schedule_requests(priorities, suppliers, rates, inbound, period, fast_rng)
        assert got == expected
        if seed is not None:
            # Exactly len(priorities) draws, and the same generator afterwards.
            counted = np.random.default_rng(seed)
            for _ in priorities:
                counted.random()
            assert fast_rng.bit_generator.state == counted.bit_generator.state
            assert fast_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_vector_draw_is_the_scalar_stream(self):
        """``Generator.random(n)`` == ``n`` x ``Generator.random()`` on PCG64."""
        for n in (0, 1, 2, 7, 150):
            vector, scalar = np.random.default_rng(99), np.random.default_rng(99)
            assert vector.random(n).tolist() == [float(scalar.random()) for _ in range(n)]
            assert vector.bit_generator.state == scalar.bit_generator.state


# =========================================================================== #
# K3 — the DHT table: next hop, eq. (5), overheard list, caches
# =========================================================================== #
@st.composite
def routing_worlds(draw):
    """A ring (often not a power of two), tables with dead and stray ids."""
    size = draw(st.sampled_from([2, 3, 17, 100, 128, 1000, 1024]))
    members = draw(
        st.lists(st.integers(0, size - 1), min_size=1, max_size=25, unique=True)
    )
    any_id = st.integers(min_value=-size, max_value=3 * size)  # not normalised
    tables = {
        member: draw(st.lists(st.one_of(st.sampled_from(members), any_id), max_size=8))
        for member in members
    }
    return size, members, tables


class TestNextHop:
    @given(world=routing_worlds(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_route_equals_the_reference_walk(self, world, data):
        size, members, tables = world
        ring = IdRing(size)
        peers_of = lambda nid: tables.get(nid, ())  # noqa: E731 - dead ids have no table
        max_hops = data.draw(st.sampled_from([None, 1, 3]))
        router = GreedyRouter(ring, peers_of, max_hops=max_hops)
        origin = data.draw(st.one_of(st.sampled_from(members), st.integers(-size, 2 * size)))
        target = data.draw(st.integers(min_value=-size, max_value=2 * size))
        responsible = data.draw(st.one_of(st.none(), st.sampled_from(members)))
        assert router.route(origin, target, responsible) == ref_route(
            ring, peers_of, router.max_hops, origin, target, responsible
        )

    @given(world=routing_worlds(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_live_peer_hop_equals_its_former_private_copy(self, world, data):
        size, members, tables = world
        peer_id = data.draw(st.sampled_from(members))
        candidates = sorted({p % size for p in tables[peer_id]})
        dead = data.draw(st.frozensets(st.sampled_from(candidates), max_size=4)) if candidates else frozenset()
        is_alive = lambda p: p not in dead  # noqa: E731
        visited = tuple(data.draw(st.lists(st.sampled_from(members), max_size=4)))
        target_key = data.draw(st.integers(min_value=0, max_value=3 * size))
        alive = tuple(p for p in candidates if is_alive(p))  # what the overlay caches
        assert next_hop(peer_id, target_key % size, alive, size, visited) == ref_closer_hop(
            peer_id, size, candidates, is_alive, target_key, visited
        )


class TestBackupRule:
    @given(
        size=st.sampled_from([2, 3, 100, 1000, 8192]),
        replicas=st.integers(min_value=1, max_value=6),
        segment_id=st.integers(min_value=0, max_value=10**7),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_rule_for_store_and_hashing(self, size, replicas, segment_id, data):
        ring = IdRing(size)
        node_id = data.draw(st.integers(0, size - 1))
        successor = data.draw(st.one_of(st.none(), st.integers(0, size - 1)))
        store = VodBackupStore(node_id=node_id, ring=ring, replicas=replicas)
        expected = ref_is_responsible(ring, node_id, replicas, segment_id, successor)
        assert store.is_responsible(segment_id, successor) == expected
        if successor is not None:
            assert is_backup_responsible(segment_id, replicas, size, node_id, successor) == expected

    @given(
        segment_id=st.integers(min_value=0, max_value=10**9),
        replicas=st.integers(min_value=1, max_value=8),
        size=st.integers(min_value=2, max_value=10**6),
    )
    def test_memoised_keys_equal_the_uncached_computation(self, segment_id, replicas, size):
        assert backup_keys(segment_id, replicas, size) == backup_keys.__wrapped__(
            segment_id, replicas, size
        )

    def test_key_cache_is_bounded_and_does_not_cache_errors(self):
        assert backup_keys.cache_info().maxsize == 4096
        for _ in range(2):
            with pytest.raises(ValueError):
                backup_keys(-1, 4, 8192)


class TestOverheardList:
    @given(
        cap=st.integers(min_value=1, max_value=6),
        batches=st.lists(
            st.lists(st.integers(min_value=0, max_value=12), max_size=8), max_size=12
        ),
        dead=st.frozensets(st.integers(min_value=0, max_value=12), max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_batch_trim_equals_per_entry_trim(self, cap, batches, dead):
        """Recording a batch and trimming once == recording and trimming one
        entry at a time (repeats, the owner 5 and over-full batches included)."""
        table = PeerTable(owner_id=5, ring=IdRing(64), max_overheard=cap)
        reference: List[Tuple[int, float]] = []
        for step, batch in enumerate(batches):
            heard = [(peer, float(step * 100 + i)) for i, peer in enumerate(batch)]
            table.record_overheard(heard)
            for peer, latency in heard:
                reference = ref_record_overheard(reference, peer, latency, 5, cap)
            assert list(table.overheard.items()) == reference
        table.purge(lambda peer: peer not in dead)
        assert list(table.overheard.items()) == [e for e in reference if e[0] not in dead]


def _latency(a: int, b: int) -> float:
    """Symmetric, like ``LatencyModel.one_way_ms``, and distinct per pair."""
    return 0.0 if a == b else abs(a - b) * 1.5 + min(a, b) / 7.0


class TestWholePathOverhearing:
    @given(
        cap=st.integers(min_value=1, max_value=6),
        prefill=st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=40
        ),
        paths=st.lists(
            st.lists(st.integers(min_value=0, max_value=15), max_size=7), max_size=10
        ),
        dead=st.frozensets(st.integers(min_value=0, max_value=15), max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_per_hop_per_node_recording(self, cap, prefill, paths, dead):
        """Every table's overheard dict, in order and in value, equals the
        per-(hop, node) reference: dead hops hear nothing, dead nodes are not
        heard, an owner on its own path is skipped, full lists trim."""
        ring = IdRing(64)
        tables = {nid: PeerTable(owner_id=nid, ring=ring, max_overheard=cap) for nid in range(16)}
        lists: Dict[int, List[Tuple[int, float]]] = {nid: [] for nid in range(16)}
        for owner, peer in prefill:  # start from full, mixed lists
            tables[owner].record_overheard([(peer, -1.0)])
            lists[owner] = ref_record_overheard(lists[owner], peer, -1.0, owner, cap)
        is_alive = lambda nid: nid not in dead  # noqa: E731
        latency_calls: List[Tuple[int, int]] = []
        liveness_calls: List[int] = []

        def latency_of(a: int, b: int) -> float:
            latency_calls.append((a, b))
            return _latency(a, b)

        def counted_is_alive(nid: int) -> bool:
            liveness_calls.append(nid)
            return is_alive(nid)

        service = OverhearingService(
            latency_of=latency_of, is_alive=counted_is_alive, table_of=tables.__getitem__
        )
        for path in paths:
            unique_path = list(dict.fromkeys(path))  # routing walks never revisit
            latency_calls.clear()
            liveness_calls.clear()
            service.overhear_path(unique_path)
            alive = [nid for nid in unique_path if is_alive(nid)]
            ref_overhear_path(lists, unique_path, alive, is_alive, _latency, cap)
            assert liveness_calls == unique_path  # once per path node
            assert len(latency_calls) == len(alive) * (len(alive) - 1) // 2  # once per pair
        for nid, table in tables.items():
            assert list(table.overheard.items()) == lists[nid]

    @given(
        owner=st.integers(min_value=0, max_value=15),
        path=st.lists(st.integers(min_value=0, max_value=15), max_size=7),
        dead=st.frozensets(st.integers(min_value=0, max_value=15), max_size=6),
        cap=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_table_equals_per_node_recording(self, owner, path, dead, cap):
        """The live peer's case: one table hears the path passing by."""
        table = PeerTable(owner_id=owner, ring=IdRing(64), max_overheard=cap)
        is_alive = lambda nid: nid not in dead  # noqa: E731
        service = OverhearingService(latency_of=_latency, is_alive=is_alive)
        lists: Dict[int, List[Tuple[int, float]]] = {owner: []}
        service.overhear_path(path, table)
        ref_overhear_path(lists, path, [owner], is_alive, _latency, cap)
        assert list(table.overheard.items()) == lists[owner]

    @given(
        pings=st.dictionaries(
            st.integers(0, 20), st.floats(min_value=0.0, max_value=1500.0), max_size=8
        ),
        a=st.integers(0, 22),
        b=st.integers(0, 22),
    )
    def test_latency_is_symmetric(self, pings, a, b):
        """What computing each pair once relies on, for the model and for
        the overlay's wrapper (unmodelled ends read 50 ms both ways)."""
        model = LatencyModel(pings)
        if a in pings and b in pings:
            assert model.one_way_ms(a, b) == model.one_way_ms(b, a)
        config = SystemConfig(num_nodes=12, rounds=2, seed=0).static_variant()
        manager = StreamingSystem(config, system="continustreaming").manager
        manager.latency = model
        assert manager.latency_ms(a, b) == manager.latency_ms(b, a)


_ALIVE = frozenset(range(0, 40, 3)) | {1, 2}

_table_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 40), st.booleans()),
        st.tuples(st.just("remove"), st.integers(0, 40)),
        st.tuples(st.just("replace"), st.integers(0, 40), st.integers(0, 40)),
        st.tuples(st.just("set"), st.integers(0, 63)),
        st.tuples(st.just("unset"), st.integers(0, 63)),
        st.tuples(st.just("hear"), st.lists(st.integers(0, 63), max_size=6)),
        st.tuples(st.just("refresh")),
        st.tuples(st.just("adopt"), st.integers(0, 3)),
        st.tuples(st.just("purge")),
        st.tuples(st.just("clear")),
    ),
    max_size=40,
)


class TestPeerTableCaches:
    @given(ops=_table_ops)
    @settings(max_examples=300, deadline=None)
    def test_candidates_equal_recomputation_after_any_mutation(self, ops):
        ring = IdRing(64)
        table = PeerTable(owner_id=10, ring=ring, max_neighbors=3, max_overheard=4)
        donors = []
        for owner in (20, 30, 40, 50):
            donor = PeerTable(owner_id=owner, ring=ring)
            donor.set_dht_peer(owner + 1, 1.0)
            donor.set_dht_peer(owner + 9, 1.0)
            donor.add_neighbor(NeighborEntry(peer_id=owner + 3, latency_ms=1.0))
            donors.append(donor)
        for op in ops:
            table.routing_candidates()  # fill the cache the mutation must drop
            kind = op[0]
            if kind == "add":
                table.add_neighbor(NeighborEntry(peer_id=op[1], latency_ms=1.0), allow_overflow=op[2])
            elif kind == "remove":
                table.remove_neighbor(op[1])
            elif kind == "replace":
                table.replace_neighbor(op[1], NeighborEntry(peer_id=op[2], latency_ms=1.0))
            elif kind == "set":
                table.set_dht_peer(op[1], 1.0)
            elif kind == "unset":
                table.remove_dht_peer(op[1])
            elif kind == "hear":
                table.record_overheard([(peer, 1.0) for peer in op[1]])
            elif kind == "refresh":
                table.refresh_dht_peers_from_overheard()
            elif kind == "adopt":
                table.adopt_base_table(donors[op[1]])
            elif kind == "purge":
                table.purge(_ALIVE.__contains__)
                assert set(table.routing_candidates()) <= _ALIVE
                assert set(table.overheard) <= _ALIVE
            elif kind == "clear":
                table.clear_dht_peers()
            after = table.routing_candidates()
            assert after == ref_routing_candidates(table)
            assert table.routing_candidates() is after  # same object until mutated
            assert len(table.overheard) <= 4

    def test_views_cannot_be_mutated_from_outside(self):
        table = PeerTable(owner_id=1, ring=IdRing(64))
        table.set_dht_peer(2, 1.0)
        table.add_neighbor(NeighborEntry(peer_id=9, latency_ms=1.0))
        with pytest.raises(TypeError):
            del table.dht_peers[1]  # type: ignore[misc]
        with pytest.raises(TypeError):
            table.neighbors[3] = NeighborEntry(peer_id=3, latency_ms=1.0)  # type: ignore[index]
        table.overheard[4] = 1.0  # a copy
        assert table.overheard == {}


def _checked_alive_routing_peers(manager, calls: List[int]):
    """Wrap the overlay's cached lookup: every use is checked from scratch."""
    cached_lookup = manager.alive_routing_peers

    def checked(node):
        got = cached_lookup(node)
        candidates = ref_routing_candidates(node.peer_table)
        assert node.peer_table.routing_candidates() == candidates
        assert got == tuple(p for p in candidates if manager.is_alive(p))
        calls.append(1)
        return got

    manager.alive_routing_peers = checked


class TestCachesUnderChurn:
    def test_simulator_joins_and_leaves(self):
        config = SystemConfig(num_nodes=60, rounds=20, seed=4).dynamic_variant()
        system = StreamingSystem(config, system="continustreaming").build()
        calls: List[int] = []
        _checked_alive_routing_peers(system.manager, calls)
        result = system.run()
        assert sum(r.nodes_left for r in result.rounds) > 0
        assert sum(r.nodes_joined for r in result.rounds) > 0
        assert len(calls) > 1000

    def test_runtime_joins_leaves_handovers_and_link_resets(self):
        spec = dataclasses.replace(
            builtin_scenario("paper-dynamic").scaled(num_nodes=40, rounds=20, seed=3),
            loss_rate=0.02,
        )
        swarm = LiveSwarm(spec, clock="virtual").build()
        calls: List[int] = []
        _checked_alive_routing_peers(swarm.manager, calls)
        result = swarm.run()
        assert result.peers_joined > 0 and result.peers_left > 0
        assert result.transport.link_resets > 0
        assert len(calls) > 1000


# =========================================================================== #
# Golden fingerprints (captured on the parent commit, before any fast path)
# =========================================================================== #
def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _ledger(ledger) -> dict:
    return {
        "bits": {kind.value: repr(bits) for kind, bits in ledger.bits.items()},
        "counts": {kind.value: count for kind, count in ledger.counts.items()},
    }


def sim_fingerprint(system: str, dynamic: bool = False) -> str:
    config = SystemConfig(num_nodes=60, rounds=25, seed=0)
    config = config.dynamic_variant() if dynamic else config.static_variant()
    result = StreamingSystem(config, system=system).run()
    return _digest(
        {
            "continuity": [repr(c) for c in result.continuity_series()],
            "rounds": [
                [r.segments_scheduled, r.segments_prefetched, r.prefetch_triggers]
                for r in result.rounds
            ],
            "ledger": _ledger(result.traffic.cumulative()),
        }
    )


def _runtime_spec(scenario: str, nodes: int, loss_rate: Optional[float]):
    spec = builtin_scenario(scenario).scaled(num_nodes=nodes, rounds=20, seed=0)
    if loss_rate is not None:
        spec = dataclasses.replace(spec, loss_rate=loss_rate)
    return spec


def runtime_fingerprint(scenario: str, nodes: int, loss_rate: Optional[float]) -> str:
    result = LiveSwarm(_runtime_spec(scenario, nodes, loss_rate), clock="virtual").run()
    return _digest(
        {
            "continuity": [repr(c) for c in result.continuity_series()],
            "ledger": _ledger(result.ledger),
            "per_peer": {
                str(peer): _ledger(ledger)
                for peer, ledger in sorted(result.per_peer_ledgers.items())
            },
            "messages_sent": result.messages_sent,
            "bytes_on_wire": result.bytes_on_wire,
        }
    )


#: Transport-level facts pinned beside the fingerprints: a reordering of
#: deliveries that leaves the continuity series alone still moves these.
TRANSPORT_FACTS = (
    "credits_granted", "inbox_high_watermark", "send_stalls", "map_desyncs", "link_resets",
)


def runtime_transport_facts(scenario: str, nodes: int, loss_rate: Optional[float]) -> dict:
    result = LiveSwarm(_runtime_spec(scenario, nodes, loss_rate), clock="virtual").run()
    return {
        "messages_dropped": result.messages_dropped,
        **{name: getattr(result.transport, name) for name in TRANSPORT_FACTS},
    }


def traced_runtime_fingerprint(scenario: str, nodes: int, loss_rate: Optional[float]) -> str:
    """One obs-enabled run (every 4th request traced): the trace ids ride
    the frames, so bytes differ from the untraced golden — and the span
    stream, stamped with virtual time, pins the order things happened in."""
    result = LiveSwarm(
        _runtime_spec(scenario, nodes, loss_rate), clock="virtual", obs=ObsConfig(trace_sample=4)
    ).run()
    spans = [
        {key: repr(value) if isinstance(value, float) else value for key, value in span.items()}
        for span in result.obs["spans"]
    ]
    return _digest(
        {
            "continuity": [repr(c) for c in result.continuity_series()],
            "messages_sent": result.messages_sent,
            "messages_dropped": result.messages_dropped,
            "bytes_on_wire": result.bytes_on_wire,
            "transport": result.transport.to_dict(),
            "spans": spans,
        }
    )


class TestGoldenFingerprints:
    """Continuity series, per-round scheduled/prefetched counts, ledger bits
    and counts by kind, ``messages_sent`` and ``bytes_on_wire`` — hashed.

    Captured with numpy 2.4 / CPython 3.11 at commit ``ea4537c``.  A mismatch
    means the protocol took a different decision somewhere; it is a behaviour
    change whichever way continuity moved.
    """

    @pytest.mark.parametrize(
        "system, golden",
        [
            ("coolstreaming", "dc5bdc6d9660f99f864ac1714f64bc39cca67c3dc2b82185b1d817c337e75711"),
            ("continustreaming", "8527a400e8e833866da2753ff0a92efefd8c1d2ed0881038524103ff5e8cf39d"),
        ],
    )
    def test_simulator_60x25(self, system, golden):
        assert sim_fingerprint(system) == golden

    # Captured at commit ``115327b`` (the parent of the column-pass
    # Algorithm 1 and the whole-path overheard list), before any edit.  The
    # static goldens never read the overheard list back; under churn it
    # feeds ``lowest_latency_overheard`` (neighbour replacement), ``purge``,
    # the finger refresh and ``adopt_base_table`` (joins).
    @pytest.mark.parametrize(
        "system, golden",
        [
            ("coolstreaming", "d1012685131bf35b9b2c860212ee59c3d598afea4adfb5abe85b5a87ee3c02ab"),
            ("continustreaming", "58bc0152ec80be9c629e25d2561b2bc4e9f7617ca0bc5c1ca6e49ee5c2b81cde"),
        ],
    )
    def test_simulator_dynamic_60x25(self, system, golden):
        assert sim_fingerprint(system, dynamic=True) == golden

    def test_runtime_static_50x20(self):
        assert runtime_fingerprint("static", 50, None) == (
            "532790213a2eb75c6de45e18cd24120cd6cdb4fc1797a3e2e7946a47daf52a44"
        )

    def test_runtime_paper_dynamic_with_loss_40x20(self):
        assert runtime_fingerprint("paper-dynamic", 40, 0.02) == (
            "b4462e0902fcb8d86025da3c2179491be58aa648d5ab8b9bd847ff993fe50363"
        )

    # The three below were captured at commit ``669309f`` (the parent of
    # the purpose-built virtual-clock loop), before any edit.
    def test_runtime_static_50x20_transport_facts(self):
        assert runtime_transport_facts("static", 50, None) == {
            "messages_dropped": 0,
            "credits_granted": 2594,
            "inbox_high_watermark": 24,
            "send_stalls": 0,
            "map_desyncs": 0,
            "link_resets": 0,
        }

    def test_runtime_paper_dynamic_with_loss_40x20_transport_facts(self):
        assert runtime_transport_facts("paper-dynamic", 40, 0.02) == {
            "messages_dropped": 462,
            "credits_granted": 2525,
            "inbox_high_watermark": 28,
            "send_stalls": 0,
            "map_desyncs": 0,
            "link_resets": 165,
        }

    def test_traced_runtime_paper_dynamic_with_loss_40x20(self):
        assert traced_runtime_fingerprint("paper-dynamic", 40, 0.02) == (
            "34e9ad2d3abd6d3e656932f1f64fabf48267e9ec0a5f305161ffa61a377a08af"
        )
