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
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backup import VodBackupStore
from repro.core.config import SystemConfig
from repro.core.node import StreamingNode
from repro.core.scheduler import (
    DataScheduler,
    PriorityBreakdown,
    ScheduledRequest,
    SegmentCandidate,
    SupplierOffer,
    bucket_priority,
    compute_priority,
    compute_rarity,
    compute_urgency,
    prioritize_candidates,
    rarest_first_priority,
    schedule_requests,
)
from repro.core.system import StreamingSystem
from repro.dht.hashing import backup_keys, is_backup_responsible, segment_hash
from repro.dht.peer_table import NeighborEntry, OverheardEntry, PeerTable
from repro.dht.ring import IdRing
from repro.dht.routing import GreedyRouter, RouteOutcome, next_hop
from repro.obs import ObsConfig
from repro.runtime import LiveSwarm
from repro.scenarios import builtin_scenario
from repro.streaming.buffermap import BufferMap


# =========================================================================== #
# Oracles: the plain spellings the fast paths replaced
# =========================================================================== #
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
    supplier_rate: Optional[Callable[[int, SupplierOffer], float]] = None,
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
            rate = offer.rate if supplier_rate is None else supplier_rate(
                candidate.segment_id, offer
            )
            if rate <= 0:
                continue
            transfer_time = 1.0 / rate
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
    overheard: List[OverheardEntry], entry: OverheardEntry, owner_id: int, cap: int
) -> List[OverheardEntry]:
    """The overheard list rebuilt by comprehension on every entry."""
    if entry.peer_id == owner_id:
        return overheard
    overheard = [e for e in overheard if e.peer_id != entry.peer_id]
    overheard.append(entry)
    if len(overheard) > cap:
        overheard = overheard[-cap:]
    return overheard


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
# K1 — availability: effective tail and candidate building
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


class TestBuildCandidates:
    @given(
        data=st.data(),
        held=st.frozensets(st.integers(min_value=0, max_value=420), max_size=150),
        started=st.booleans(),
        newest=st.integers(min_value=-1, max_value=430),
        window=st.integers(min_value=0, max_value=160),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_window_times_neighbours_probing(
        self, data, held, started, newest, window
    ):
        node = _node(buffer_capacity=600, playback_lag=50)
        node.buffer.update_from(held)
        if started:
            node.playback.start(data.draw(st.integers(min_value=0, max_value=400)))
        neighbor_ids = data.draw(
            st.lists(st.integers(min_value=0, max_value=30), max_size=6, unique=True)
        )
        maps = {nid: data.draw(buffer_maps()) for nid in neighbor_ids}
        for nid in neighbor_ids:  # incl. zero and negative rate estimates
            if data.draw(st.booleans()):
                node.rate_controller._estimates[nid] = data.draw(
                    st.floats(min_value=-5.0, max_value=40.0)
                )
        expected = ref_build_candidates(node, maps, newest, window)
        got = node.build_candidates(maps, newest, window)
        assert got == expected
        # ascending ids; offers in neighbour (mapping) order
        assert [c.segment_id for c in got] == sorted(c.segment_id for c in got)
        rank = {nid: i for i, nid in enumerate(maps)}
        for candidate in got:
            order = [rank[s] for s in candidate.supplier_ids()]
            assert order == sorted(order)


# =========================================================================== #
# K2 — Algorithm 1
# =========================================================================== #
@st.composite
def candidate_lists(draw, unique_ids: bool = True):
    """Candidates incl. duplicate offers, zero/negative rates, odd positions."""
    count = draw(st.integers(min_value=0, max_value=30))
    if unique_ids:
        ids = draw(
            st.lists(st.integers(0, 500), min_size=count, max_size=count, unique=True)
        )
    else:
        ids = draw(st.lists(st.integers(0, 8), min_size=count, max_size=count))
    candidates = []
    for segment_id in ids:
        offers = tuple(
            SupplierOffer(
                supplier_id=draw(st.integers(min_value=0, max_value=5)),
                position_from_tail=draw(st.integers(min_value=-10, max_value=700)),
                rate=draw(
                    st.one_of(
                        st.sampled_from([0.0, -1.0, 0.1, 10.0]),
                        st.floats(min_value=0.05, max_value=40.0),
                    )
                ),
            )
            for _ in range(draw(st.integers(min_value=0, max_value=5)))
        )
        candidates.append(SegmentCandidate(segment_id=segment_id, offers=offers))
    return candidates


class TestAlgorithm1:
    @given(
        candidates=candidate_lists(),
        play_id=st.integers(min_value=0, max_value=500),
        capacity=st.integers(min_value=1, max_value=600),
    )
    @settings(max_examples=200, deadline=None)
    def test_breakdown_is_bit_identical_to_the_scalar_equations(
        self, candidates, play_id, capacity
    ):
        assert prioritize_candidates(candidates, play_id, 10.0, capacity) == (
            ref_prioritize_candidates(candidates, play_id, 10.0, capacity)
        )

    @given(
        candidates=st.one_of(candidate_lists(), candidate_lists(unique_ids=False)),
        data=st.data(),
        inbound=st.floats(min_value=0.0, max_value=40.0),
        period=st.sampled_from([0.5, 1.0, 2.0]),
        seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
    )
    @settings(max_examples=300, deadline=None)
    def test_assignment_and_generator_state_match(
        self, candidates, data, inbound, period, seed
    ):
        known = sorted({c.segment_id for c in candidates})
        priorities = {
            sid: data.draw(st.sampled_from([0.0, 0.125, 1.0, 1.0e9]))
            for sid in known
            if data.draw(st.booleans())  # some ids have no priority at all
        }
        ref_rng = fast_rng = None
        if seed is not None:
            ref_rng, fast_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = ref_schedule_requests(
            candidates, priorities, inbound, period, tiebreak_rng=ref_rng
        )
        got = schedule_requests(
            candidates, priorities, inbound, period, tiebreak_rng=fast_rng
        )
        assert got == expected
        if seed is not None:
            # Exactly len(candidates) draws, and the same generator afterwards.
            counted = np.random.default_rng(seed)
            for _ in candidates:
                counted.random()
            assert fast_rng.bit_generator.state == counted.bit_generator.state
            assert fast_rng.bit_generator.state == ref_rng.bit_generator.state

    @given(candidates=candidate_lists(), inbound=st.floats(min_value=0.0, max_value=40.0))
    @settings(max_examples=100, deadline=None)
    def test_supplier_rate_override(self, candidates, inbound):
        def halved(segment_id: int, offer: SupplierOffer) -> float:
            return offer.rate / 2.0 if segment_id % 2 else offer.rate

        priorities = {c.segment_id: 1.0 for c in candidates}
        assert schedule_requests(
            candidates, priorities, inbound, 1.0, supplier_rate=halved
        ) == ref_schedule_requests(
            candidates, priorities, inbound, 1.0, supplier_rate=halved
        )

    @given(
        candidates=candidate_lists(),
        policy=st.sampled_from(["continustreaming", "rarest_first"]),
        quantize=st.booleans(),
        play_id=st.integers(min_value=0, max_value=500),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_data_scheduler_end_to_end(self, candidates, policy, quantize, play_id, seed):
        scheduler = DataScheduler(
            playback_rate=10.0,
            buffer_capacity=600,
            period=1.0,
            policy=policy,
            tiebreak_rng=np.random.default_rng(seed),
            quantize_priorities=quantize,
        )
        got = scheduler.schedule(candidates, play_id, inbound_rate=15.0)
        if policy == "rarest_first":
            breakdown: List[PriorityBreakdown] = []
            priorities = {
                c.segment_id: rarest_first_priority(len(c.offers)) for c in candidates
            }
        else:
            breakdown = ref_prioritize_candidates(candidates, play_id, 10.0, 600)
            priorities = {
                b.segment_id: bucket_priority(b.priority) if quantize else b.priority
                for b in breakdown
            }
        assert scheduler.last_breakdown == breakdown
        assert got == ref_schedule_requests(
            candidates, priorities, 15.0, 1.0, tiebreak_rng=np.random.default_rng(seed)
        )

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
        peers=st.lists(st.integers(min_value=0, max_value=12), max_size=60),
        forgets=st.lists(st.integers(min_value=0, max_value=12), max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_refresh_and_truncate_order(self, cap, peers, forgets):
        table = PeerTable(owner_id=5, ring=IdRing(64), max_overheard=cap)
        reference: List[OverheardEntry] = []
        for step, peer in enumerate(peers):
            entry = OverheardEntry(peer_id=peer, latency_ms=float(step), overheard_at=step)
            table.record_overheard(entry)
            reference = ref_record_overheard(reference, entry, 5, cap)
            assert table.overheard == reference
            assert table.overheard_ids() == [e.peer_id for e in reference]
            assert len(reference) <= cap
        for peer in forgets:
            table.forget_overheard(peer)
            reference = [e for e in reference if e.peer_id != peer]
            assert table.overheard == reference


_ALIVE = frozenset(range(0, 40, 3)) | {1, 2}

_table_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 40), st.booleans()),
        st.tuples(st.just("remove"), st.integers(0, 40)),
        st.tuples(st.just("replace"), st.integers(0, 40), st.integers(0, 40)),
        st.tuples(st.just("supply"), st.integers(0, 40)),
        st.tuples(st.just("set"), st.integers(0, 63)),
        st.tuples(st.just("unset"), st.integers(0, 63)),
        st.tuples(st.just("hear"), st.integers(0, 63)),
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
            elif kind == "supply":
                table.record_supply(op[1], 2.0)
            elif kind == "set":
                table.set_dht_peer(op[1], 1.0)
            elif kind == "unset":
                table.remove_dht_peer(op[1])
            elif kind == "hear":
                table.record_overheard(OverheardEntry(peer_id=op[1], latency_ms=1.0))
            elif kind == "refresh":
                table.refresh_dht_peers_from_overheard()
            elif kind == "adopt":
                table.adopt_base_table(donors[op[1]])
            elif kind == "purge":
                table.purge(_ALIVE.__contains__)
                assert set(table.routing_candidates()) <= _ALIVE
                assert set(table.overheard_ids()) <= _ALIVE
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
        table.overheard.append(OverheardEntry(peer_id=4, latency_ms=1.0))  # a copy
        assert table.overheard == []


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


def sim_fingerprint(system: str) -> str:
    config = SystemConfig(num_nodes=60, rounds=25, seed=0).static_variant()
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
