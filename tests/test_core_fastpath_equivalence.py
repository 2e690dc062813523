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
import functools
import hashlib
import json
import math
import sys
from typing import (
    Callable, Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple,
)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backup import VodBackupStore
from repro.core.config import SystemConfig
from repro.core.node import StreamingNode
from repro.core.phases.ondemand import Lookup
from repro.core.scheduler import (
    MAX_URGENCY,
    DataScheduler,
    ScheduledRequest,
    bucket_priority,
    schedule_requests,
)
from repro.core.system import StreamingSystem
from repro.dht.hashing import backup_keys, is_backup_responsible, segment_hash
from repro.dht.peer_table import PeerTable
from repro.dht.ring import IdRing
from repro.dht.routing import GreedyRouter, RouteOutcome, next_hop
from repro.membership.overhearing import OverhearingService
from repro.net.latency import LatencyModel
from repro.obs import ObsConfig
from repro.runtime import LiveSwarm, wire
from repro.scenarios import builtin_scenario
from repro.streaming.buffer import SegmentBuffer
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


class RefSegmentBuffer:
    """``SegmentBuffer`` as a set of held ids, its spelling before the
    window became one integer."""

    def __init__(self, capacity: int, head_id: int = 0) -> None:
        self.capacity = capacity
        self.head_id = head_id
        self.present: Set[int] = set()

    @property
    def tail_id(self) -> int:
        return self.head_id + self.capacity

    def advance_head(self, new_head_id: int) -> List[int]:
        if new_head_id <= self.head_id:
            return []
        evicted = [sid for sid in self.present if sid < new_head_id]
        self.present.difference_update(evicted)
        self.head_id = int(new_head_id)
        return sorted(evicted)

    def __len__(self) -> int:
        return len(self.present)

    def __contains__(self, segment_id: int) -> bool:
        return segment_id in self.present

    def add(self, segment_id: int) -> bool:
        if segment_id < self.head_id:
            return False
        if segment_id >= self.tail_id:
            self.advance_head(segment_id - self.capacity + 1)
        self.present.add(int(segment_id))
        return True

    def discard(self, segment_id: int) -> None:
        self.present.discard(segment_id)

    def ids(self) -> List[int]:
        return sorted(self.present)

    def missing_in_range(self, start_id: int, end_id: int) -> List[int]:
        return [sid for sid in range(max(start_id, 0), end_id) if sid not in self.present]

    def has_range(self, start_id: int, count: int) -> bool:
        return all((start_id + offset) in self.present for offset in range(count))

    def newest_id(self) -> Optional[int]:
        return max(self.present) if self.present else None

    def oldest_id(self) -> Optional[int]:
        return min(self.present) if self.present else None


@dataclasses.dataclass(frozen=True)
class RefBufferMap:
    """``BufferMap`` as a frozen set of ids, with ``numpy.packbits`` for its
    wire form — its spelling before the window became one integer."""

    head_id: int
    capacity: int
    present: FrozenSet[int]

    @classmethod
    def from_buffer(cls, buffer: RefSegmentBuffer) -> "RefBufferMap":
        return cls(buffer.head_id, buffer.capacity, frozenset(buffer.present))

    def __contains__(self, segment_id: int) -> bool:
        return segment_id in self.present

    @property
    def effective_tail(self) -> int:
        return min(self.head_id + self.capacity - 1, max(self.present))

    def position_from_tail(self, segment_id: int) -> int:
        if segment_id not in self.present:
            raise KeyError(segment_id)
        return self.effective_tail - segment_id

    def to_bytes(self) -> bytes:
        bitmap = np.zeros(self.capacity, dtype=np.uint8)
        for sid in self.present:
            if 0 <= sid - self.head_id < self.capacity:
                bitmap[sid - self.head_id] = 1
        return np.packbits(bitmap).tobytes()

    def fast(self) -> BufferMap:
        """The same window as the integer-mask map the protocol runs on."""
        return BufferMap(
            self.head_id, self.capacity, sum(1 << (sid - self.head_id) for sid in self.present)
        )


def ref_delta_runs(new: RefBufferMap, base: RefBufferMap) -> Tuple[Tuple[int, int], ...]:
    """``BufferMapDelta.from_maps``: the toggled ids of ``new``'s window, in runs."""
    head = new.head_id
    tail = head + new.capacity
    new_in = {s for s in new.present if head <= s < tail}
    base_in = {s for s in base.present if head <= s < tail}
    runs: List[Tuple[int, int]] = []
    run_start = run_end = -1
    for sid in sorted(new_in ^ base_in):
        offset = sid - head
        if offset == run_end:
            run_end += 1
        else:
            if run_start >= 0:
                runs.append((run_start, run_end - run_start))
            run_start, run_end = offset, offset + 1
    if run_start >= 0:
        runs.append((run_start, run_end - run_start))
    return tuple(runs)


def ref_delta_apply(delta: wire.BufferMapDelta, base: RefBufferMap) -> RefBufferMap:
    """``BufferMapDelta.apply``: clip ``base`` to the window, toggle each run."""
    head = delta.head_id
    present = set(base.present)
    present.intersection_update(range(head, head + delta.capacity))
    for offset, length in delta.runs:
        first = head + offset
        present.symmetric_difference_update(range(first, first + length))
    return RefBufferMap(head, delta.capacity, frozenset(present))


def ref_column_schedule(
    scheduler: DataScheduler,
    neighbor_maps: Mapping[int, RefBufferMap],
    missing: Sequence[int],
    rate_of: Callable[[int], float],
    play_id: int,
    inbound_rate: float,
) -> List[ScheduledRequest]:
    """``DataScheduler.schedule`` as a set intersection per neighbour (ids
    in set order), before the offered walk became ``aligned bits & wanted``."""
    capacity = scheduler.buffer_capacity
    rates: Dict[int, float] = {}
    suppliers: Dict[int, List[int]] = {}
    best_rate: Dict[int, float] = {}
    rarity: Dict[int, float] = {}
    for neighbor_id, neighbor_map in neighbor_maps.items():
        offered = neighbor_map.present.intersection(missing)
        if not offered:
            continue
        rate = rates[neighbor_id] = rate_of(neighbor_id)
        tail = neighbor_map.effective_tail
        for segment_id in offered:
            position = tail - segment_id
            factor = 1.0 if position >= capacity else (position if position > 0 else 0) / capacity
            if segment_id not in suppliers:
                suppliers[segment_id] = [neighbor_id]
                best_rate[segment_id] = rate
                rarity[segment_id] = factor
            else:
                suppliers[segment_id].append(neighbor_id)
                best_rate[segment_id] = max(best_rate[segment_id], rate)
                rarity[segment_id] *= factor
    priorities: Dict[int, float] = {}
    for segment_id in sorted(suppliers):
        if scheduler.policy == "rarest_first":
            priorities[segment_id] = 1.0 / len(suppliers[segment_id])
            continue
        urgency = compute_urgency(
            segment_id, play_id, scheduler.playback_rate, best_rate[segment_id]
        )
        priority = compute_priority(urgency, rarity[segment_id])
        priorities[segment_id] = (
            bucket_priority(priority) if scheduler.quantize_priorities else priority
        )
    return schedule_requests(
        priorities, suppliers, rates, inbound_rate, scheduler.period, scheduler.tiebreak_rng
    )


def ref_build_candidates(
    node: StreamingNode,
    held: RefSegmentBuffer,
    neighbor_maps: Mapping[int, RefBufferMap],
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
        if segment_id in held:
            continue
        offers: List[SupplierOffer] = []
        for neighbor_id, neighbor_map in neighbor_maps.items():
            if segment_id in neighbor_map:
                offers.append(
                    SupplierOffer(
                        supplier_id=neighbor_id,
                        position_from_tail=neighbor_map.position_from_tail(segment_id),
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
    held: RefSegmentBuffer,
    neighbor_maps: Mapping[int, RefBufferMap],
    newest_available_id: int,
    window: int,
    tiebreak_rng: Optional[np.random.Generator],
) -> List[ScheduledRequest]:
    """candidates -> eqs. (1)-(3) or ``1 / n_i`` -> Algorithm 1, record by record."""
    scheduler = node.scheduler
    candidates = ref_build_candidates(node, held, neighbor_maps, newest_available_id, window)
    if scheduler.policy == "rarest_first":
        priorities = {c.segment_id: rarest_first_priority(len(c.offers)) for c in candidates}
    else:
        play_ref = node.playback.play_id if node.playback.started else held.head_id
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
    ids = {peer for peer, _ in table.dht_peers.values()}
    ids.update(table.neighbors)
    ids.discard(table.owner_id)
    return tuple(sorted(ids))


# =========================================================================== #
# K1 — availability: one integer per window
# =========================================================================== #
#: Segment ids as the protocol sees them, and as NumPy integers: an ``np.int64``
#: shift wraps past bit 63, so the window coerces at its boundary.
segment_ids = st.integers(min_value=0, max_value=2000)
any_segment_ids = st.one_of(segment_ids, segment_ids.map(np.int64))
capacities = st.one_of(st.sampled_from([1, 7, 8, 13, 64, 65, 600]), st.integers(1, 200))


@st.composite
def ref_maps(draw, head: Optional[int] = None, capacity: Optional[int] = None, hi: int = 400):
    """Windows incl. empty and full ones; capacities not a multiple of 8."""
    if head is None:
        head = draw(st.integers(min_value=0, max_value=hi))
    if capacity is None:
        capacity = draw(capacities)
    offsets = draw(
        st.one_of(
            st.frozensets(st.integers(0, capacity - 1), max_size=80),
            st.just(frozenset(range(capacity))),
        )
    )
    return RefBufferMap(head, capacity, frozenset(head + offset for offset in offsets))


_buffer_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), any_segment_ids),
        st.tuples(st.just("add_past_tail"), st.integers(0, 5000)),
        st.tuples(st.just("discard"), any_segment_ids),
        st.tuples(st.just("advance_head"), any_segment_ids),
        st.tuples(st.just("catch_up"), st.integers(0, 3000)),
    ),
    max_size=40,
)


def _assert_same_window(fast: SegmentBuffer, ref: RefSegmentBuffer, lo: int, count: int) -> None:
    assert (fast.head_id, fast.tail_id) == (ref.head_id, ref.tail_id)
    assert 0 <= fast.bits < 1 << fast.capacity
    assert fast.ids() == ref.ids() and len(fast) == len(ref)
    assert (fast.newest_id(), fast.oldest_id()) == (ref.newest_id(), ref.oldest_id())
    for sid in range(lo, lo + count):
        assert (sid in fast) == (np.int64(sid) in fast) == (sid in ref)
    assert fast.has_range(lo, count) == ref.has_range(lo, count)
    wanted = fast.missing_bits(lo, count)
    assert wanted >> count == 0
    assert [lo + j for j in range(count) if wanted >> j & 1] == ref.missing_in_range(lo, lo + count)
    snapshot, ref_snapshot = BufferMap.from_buffer(fast), RefBufferMap.from_buffer(ref)
    assert snapshot == ref_snapshot.fast()
    assert snapshot.to_bytes() == ref_snapshot.to_bytes()


class TestWindowBuffer:
    @given(
        capacity=capacities,
        head=st.integers(min_value=0, max_value=300),
        ops=_buffer_ops,
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_buffer_equals_the_id_set(self, capacity, head, ops, data):
        """After every ``add`` (incl. slides far past the tail), ``discard``,
        ``advance_head`` and catch-up skip: membership, size, extremes,
        ``has_range``, the wanted mask and the wire bytes equal the set's."""
        fast, ref = SegmentBuffer(capacity, head), RefSegmentBuffer(capacity, head)
        for op, value in ops:
            if op == "add":
                assert fast.add(value) == ref.add(value)
            elif op == "add_past_tail":
                assert fast.add(fast.tail_id + value) == ref.add(ref.tail_id + value)
            elif op == "discard":
                fast.discard(value)
                ref.discard(value)
            elif op == "advance_head":
                fast.advance_head(value)
                ref.advance_head(value)
            else:  # a viewer far behind the live edge seeks forward; the head follows
                fast.advance_head(np.int64(fast.head_id + value))
                ref.advance_head(ref.head_id + value)
            lo = data.draw(st.integers(max(0, ref.head_id - 70), ref.tail_id + 70))
            _assert_same_window(fast, ref, lo, data.draw(st.integers(0, 150)))


class TestWindowMaps:
    @given(
        data=st.data(),
        capacity=capacities,
        move=st.one_of(
            st.integers(-12, 12), st.integers(-700, 700), st.sampled_from([10**6, -(10**6)])
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_delta_and_wire_form_equal_the_id_sets(self, data, capacity, move):
        """Window forward, back, or jumped past ``capacity``; base maps of
        another capacity: the runs, the applied map, ``to_bytes`` (against
        ``numpy.packbits``), ``from_bytes``, ``in`` and ``p_ij`` all agree."""
        base = data.draw(st.one_of(ref_maps(capacity=capacity), ref_maps()), label="base")
        new = data.draw(ref_maps(head=max(0, base.head_id + move), capacity=capacity), label="new")
        delta = wire.BufferMapDelta.from_maps(1, 2, 3, new.fast(), base.fast())
        assert delta.runs == ref_delta_runs(new, base)
        assert delta.apply(base.fast()) == ref_delta_apply(delta, base).fast() == new.fast()
        for ref in (base, new):
            fast = ref.fast()
            assert fast.to_bytes() == ref.to_bytes()
            assert BufferMap.from_bytes(ref.head_id, ref.capacity, ref.to_bytes()) == fast
            if ref.present:
                assert fast.effective_tail == ref.effective_tail
            for sid in range(max(0, ref.head_id - 70), ref.head_id + ref.capacity + 70):
                assert (sid in fast) == (np.int64(sid) in fast) == (sid in ref)
                if sid in ref:
                    assert fast.position_from_tail(sid) == ref.position_from_tail(sid)

    @given(base=ref_maps(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_apply_equals_the_id_set_toggle(self, base, data):
        """Any well-formed delta on any stored map, as a received frame would be."""
        capacity = data.draw(capacities)
        cursor, runs = 0, []
        for _ in range(data.draw(st.integers(0, 8))):
            if cursor >= capacity:
                break
            start = data.draw(st.integers(cursor, capacity - 1))
            length = data.draw(st.integers(1, capacity - start))
            runs.append((start, length))
            cursor = start + length
        head = data.draw(st.integers(0, 900))
        delta = wire.BufferMapDelta(1, 2, 3, head, capacity, tuple(runs))
        assert delta.apply(base.fast()) == ref_delta_apply(delta, base).fast()

    def test_empty_map_raises_keyerror_before_valueerror(self):
        empty = BufferMap(head_id=0, capacity=10)
        with pytest.raises(KeyError):
            empty.position_from_tail(3)
        with pytest.raises(ValueError):
            empty.effective_tail  # noqa: B018 - the access is the test

    def test_tail_is_not_part_of_equality_or_repr(self):
        a = BufferMap(head_id=0, capacity=10, bits=0b10010)
        b = BufferMap(head_id=0, capacity=10, bits=0b10010)
        assert a.effective_tail == 4
        assert a == b and "effective_tail" not in repr(a)
        assert dataclasses.replace(a, capacity=5).effective_tail == 4
        with pytest.raises(ValueError):
            dataclasses.replace(a, capacity=3)


class TestWindowMemory:
    """A window is one integer; these stop a per-id container coming back."""

    def test_a_full_window_is_one_small_int(self):
        buffer = SegmentBuffer(capacity=600, head_id=864_000)
        buffer.update_from(range(864_000, 864_600))
        snapshot = BufferMap.from_buffer(buffer)
        assert len(buffer) == 600 and snapshot.bits is buffer.bits
        for window in (buffer, snapshot):
            assert sys.getsizeof(window) + sys.getsizeof(window.bits) < 512
            assert not hasattr(window, "__dict__")

    def test_live_peers_store_no_id_sets(self):
        spec = builtin_scenario("static").scaled(num_nodes=50, rounds=10, seed=0)
        swarm = LiveSwarm(spec, clock="virtual").build()
        swarm.run()
        peers = list(swarm.peers.values())
        stored = [m for peer in peers for m in peer.neighbor_maps.values()]
        stored += [peer._last_gossip[1] for peer in peers if peer._last_gossip is not None]
        assert len(stored) > 5 * len(peers)
        for buffer_map in stored:
            assert type(buffer_map) is BufferMap and not hasattr(buffer_map, "__dict__")
            values = [getattr(buffer_map, field.name) for field in dataclasses.fields(buffer_map)]
            assert [type(value) for value in values] == [int, int, int]
        assert all(type(peer.node.buffer.bits) is int for peer in peers)


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
        -> ref_schedule_requests == the id-set column pass, with the same
        generator state afterwards."""
        node = _node(buffer_capacity=capacity, playback_lag=min(50, capacity - 10), policy=policy)
        node.buffer.update_from(held)
        ref_held = RefSegmentBuffer(capacity)
        for sid in sorted(held):
            ref_held.add(sid)
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
        near_window = st.integers(max(0, lo - 40), max(0, lo, hi)).flatmap(
            lambda head: ref_maps(head=head)
        )
        maps = {
            nid: data.draw(st.one_of(near_window, near_window, near_window, ref_maps()))
            for nid in neighbor_ids
        }
        for nid in neighbor_ids:  # incl. zero and negative rate estimates
            if data.draw(st.booleans()):
                node.rate_controller._estimates[nid] = data.draw(
                    st.floats(min_value=-5.0, max_value=40.0)
                )
        node.inbound_rate = data.draw(st.sampled_from([0.0, 3.0, 15.0, 40.0]))
        node.scheduler.quantize_priorities = quantize
        rngs = [None if seed is None else np.random.default_rng(seed) for _ in range(3)]
        ref_rng, column_rng, node.scheduler.tiebreak_rng = rngs
        play_ref = node.playback.play_id if node.playback.started else ref_held.head_id

        expected = ref_plan(node, ref_held, maps, newest, window, ref_rng)
        column = ref_column_schedule(
            dataclasses.replace(node.scheduler, tiebreak_rng=column_rng),
            maps,
            ref_held.missing_in_range(lo, hi + 1),
            node.rate_controller.rate_of,
            play_ref,
            node.inbound_rate,
        )
        fast_maps = {nid: buffer_map.fast() for nid, buffer_map in maps.items()}
        assert node.plan_requests(fast_maps, newest, window) == expected == column
        if seed is not None:
            states = [rng.bit_generator.state for rng in rngs]
            assert states[0] == states[1] == states[2]

    def test_supplier_order_is_neighbour_order(self):
        """Two equally fast suppliers: the first in mapping order wins, so the
        column must keep the order the maps are walked in."""
        for order in ([3, 9], [9, 3]):
            node = _node(playback_lag=20)
            maps = {nid: BufferMap(head_id=0, capacity=120, bits=1 << 90) for nid in order}
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
            donor.add_neighbor(owner + 3, 1.0)
            donors.append(donor)
        for op in ops:
            table.routing_candidates()  # fill the cache the mutation must drop
            kind = op[0]
            if kind == "add":
                table.add_neighbor(op[1], 1.0, allow_overflow=op[2])
            elif kind == "remove":
                table.remove_neighbor(op[1])
            elif kind == "replace":
                table.replace_neighbor(op[1], op[2], 1.0)
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
        table.add_neighbor(9, 1.0)
        with pytest.raises(TypeError):
            del table.dht_peers[1]  # type: ignore[misc]
        with pytest.raises(TypeError):
            table.neighbors[3] = 1.0  # type: ignore[index]
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
# Algorithm 2 — one supplier rule for the simulator and the runtime
# =========================================================================== #
def ref_locate_supplier(
    origin: int,
    finals: Sequence[Optional[int]],
    has_segment: Callable[[int], bool],
    available_rate: Callable[[int], float],
) -> Optional[int]:
    """``OnDemandRetriever.locate``'s holder loop as the simulator ran it,
    over the walks' final nodes in key order."""
    best_supplier: Optional[int] = None
    best_rate = 0.0
    seen_holders: set = set()
    for holder in finals:
        if holder is None or holder == origin:
            continue
        if holder in seen_holders:
            continue
        seen_holders.add(holder)
        if not has_segment(holder):
            continue
        rate = available_rate(holder)
        if rate > best_rate:
            best_rate = rate
            best_supplier = holder
    return best_supplier


def ref_runtime_supplier(answers: Sequence[Tuple[int, bool, float]]) -> Optional[int]:
    """The live peer's former rule: each holder's best offer, then
    ``max(rate, -holder)``."""
    holders: Dict[int, float] = {}
    for responder, has_data, rate in answers:
        if has_data and rate > 0.0:
            prev = holders.get(responder)
            if prev is None or rate > prev:
                holders[responder] = rate
    if not holders:
        return None
    return max(holders, key=lambda h: (holders[h], -h))


#: Rates with exact ties and zeros, as the budgets produce them.
offer_rates = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, 4.0]), st.floats(0.0, 8.0, allow_nan=False)
)


@st.composite
def lookups(draw, origin_may_answer: bool = True, consistent: bool = False):
    """A lookup over 1-6 keys; answers may be missing, repeat a holder (with
    a different offer unless ``consistent``) or come from the origin."""
    origin = 3
    pool = [1, 2, 4, 5, 6] + ([origin] if origin_may_answer else [])
    lookup = Lookup(origin, draw(st.integers(0, 500)), draw(st.integers(1, 6)), 1024)
    offers = {h: (draw(st.booleans()), draw(offer_rates)) for h in pool}
    for index in range(len(lookup.keys)):
        holder = draw(st.one_of(st.none(), st.sampled_from(pool)))
        if holder is not None:
            has_data, rate = offers[holder]
            if not consistent and draw(st.booleans()):
                has_data, rate = draw(st.booleans()), draw(offer_rates)
            lookup.answers[index] = (holder, has_data, rate)
    return lookup


class TestSupplierRule:
    @given(lookup=lookups())
    @settings(max_examples=400, deadline=None)
    def test_lookup_equals_the_simulators_former_retriever(self, lookup):
        # The retriever asked each holder once, at its first walk; the first
        # answer of a holder is therefore what it saw.
        first: Dict[int, Tuple[bool, float]] = {}
        for answer in lookup.answers:
            if answer is not None:
                first.setdefault(answer[0], answer[1:])
        finals = [None if answer is None else answer[0] for answer in lookup.answers]
        assert lookup.supplier() == ref_locate_supplier(
            lookup.origin, finals, lambda h: first[h][0], lambda h: first[h][1]
        )

    @given(lookup=lookups(origin_may_answer=False, consistent=True))
    @settings(max_examples=400, deadline=None)
    def test_runtimes_former_rule_differs_only_on_exact_ties(self, lookup):
        answers = [answer for answer in lookup.answers if answer is not None]
        offers = [rate for _, has_data, rate in set(answers) if has_data and rate > 0.0]
        chosen = lookup.supplier()
        former = ref_runtime_supplier(answers)
        if offers.count(max(offers, default=0.0)) <= 1:
            assert chosen == former
        else:
            # An exact tie: both pick a top-rate holder, maybe not the same.
            rate_of = {holder: rate for holder, _, rate in answers}
            assert rate_of[chosen] == rate_of[former] == max(offers)


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


#: The counters that measure framing — how many frames and how long —
#: rather than what was decided.  A codec change, or packing the same
#: messages into fewer frames, moves these and nothing else, so they are
#: pinned as plain integers beside the decision hashes, which leave them
#: out.  The inbox watermark counts queued frames, so it is framing too.
def framing_counters(result) -> dict:
    return {
        "bytes_on_wire": result.bytes_on_wire,
        "gossip_bytes": result.transport.gossip_bytes,
        "gossip_bytes_full": result.transport.gossip_bytes_full,
        "messages_sent": result.messages_sent,
        "messages_dropped": result.messages_dropped,
        "inbox_high_watermark": result.transport.inbox_high_watermark,
    }


@functools.lru_cache(maxsize=None)
def _runtime_result(scenario: str, nodes: int, loss_rate: Optional[float], traced: bool = False):
    """One virtual-clock run, shared by the hash, byte and fact pins of a spec."""
    obs = ObsConfig(trace_sample=4) if traced else None
    return LiveSwarm(_runtime_spec(scenario, nodes, loss_rate), clock="virtual", obs=obs).run()


def runtime_fingerprint(scenario: str, nodes: int, loss_rate: Optional[float]) -> str:
    result = _runtime_result(scenario, nodes, loss_rate)
    return _digest(
        {
            "continuity": [repr(c) for c in result.continuity_series()],
            "ledger": _ledger(result.ledger),
            "per_peer": {
                str(peer): _ledger(ledger)
                for peer, ledger in sorted(result.per_peer_ledgers.items())
            },
        }
    )


#: Transport-level facts pinned beside the fingerprints: a reordering of
#: deliveries that leaves the continuity series alone still moves these.
TRANSPORT_FACTS = (
    "credits_granted", "send_stalls", "map_desyncs", "link_resets",
)


def runtime_transport_facts(scenario: str, nodes: int, loss_rate: Optional[float]) -> dict:
    result = _runtime_result(scenario, nodes, loss_rate)
    return {name: getattr(result.transport, name) for name in TRANSPORT_FACTS}


def traced_runtime_fingerprint(scenario: str, nodes: int, loss_rate: Optional[float]) -> str:
    """One obs-enabled run (every 4th request traced): the trace ids ride
    the frames, and the span stream, stamped with virtual time, pins the
    order things happened in."""
    result = _runtime_result(scenario, nodes, loss_rate, traced=True)
    spans = [
        {key: repr(value) if isinstance(value, float) else value for key, value in span.items()}
        for span in result.obs["spans"]
    ]
    transport = result.transport.to_dict()
    del transport["gossip_bytes"], transport["gossip_bytes_full"], transport["inbox_high_watermark"]
    return _digest(
        {
            "continuity": [repr(c) for c in result.continuity_series()],
            "transport": transport,
            "spans": spans,
        }
    )


class TestGoldenFingerprints:
    """Continuity series, per-round scheduled/prefetched counts, ledger bits
    and counts by kind — hashed; the runtime's framing counters beside them.

    Captured with numpy 2.4 / CPython 3.11 at commit ``ea4537c``.  A mismatch
    means the protocol took a different decision somewhere; it is a behaviour
    change whichever way continuity moved.
    """

    @pytest.mark.parametrize(
        "system, golden",
        [
            ("coolstreaming", "dc5bdc6d9660f99f864ac1714f64bc39cca67c3dc2b82185b1d817c337e75711"),
            ("continustreaming", "121c03977d81fa5ef6efffafaf29fcfa5559821614d229bdc567435be3fe97d0"),
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
            ("continustreaming", "3dc80609c3a64a4cf2d3f5f3ff11a0e0f5b6e4a0be1ece453abc3213506376f0"),
        ],
    )
    def test_simulator_dynamic_60x25(self, system, golden):
        assert sim_fingerprint(system, dynamic=True) == golden

    # The runtime pins are split in two (at commit ``33d0d37``, before any
    # codec edit): a hash over every decision — continuity, ledgers,
    # transport facts, spans — and the framing counters as plain integers.
    # A frame-format change may edit only the integers.  ``messages_sent``,
    # ``messages_dropped`` and the inbox watermark count frames, so they
    # moved from the hashes to the integers (a behaviour-free re-pin, made
    # on the unchanged tree) before pull frames began carrying id lists.
    # Packing each pass's pulls to one supplier into one frame then moved
    # only those integers, and so did spelling every length and count as a
    # varint (the byte counters only: the same frames, fewer bytes).
    #
    # The five paper-dynamic + loss 0.02 pins were re-pinned once when the
    # live peer adopted the simulator's supplier rule (``Lookup.supplier``:
    # the first strictly higher rate in key order, where the runtime took
    # ``max(rate, -holder)``).  Exact top-rate ties occur under churn only;
    # the static pins and the simulator pins did not move.
    #
    # Every ContinuStreaming pin (simulator and runtime) re-pinned once more
    # when Algorithm 2 began probing backup keys in turn (``Lookup.probing``:
    # stop at the first holder with the data at rate >= 1) instead of
    # walking all k at once, and the simulator stopped charging walks for
    # keys the requester owns itself.  The CoolStreaming pins did not move.
    #
    # The runtime pins re-pinned once more when the live peer began passing
    # over an unanswered DHT key at its rescue tick (``Lookup.unanswered``:
    # walk the next key instead of waiting for the sweep).  The simulator
    # pins did not move.
    #
    # The five paper-dynamic + loss 0.02 pins re-pinned once more for the
    # swarm's one delivery queue: in-process groups and intra-period
    # phases pop in ``(time, seq)`` order, an instant lands every due group
    # before any peer drains, and each period boundary wakes its peers in
    # an order drawn from the ``runtime-ticks`` stream (docs/runtime.md →
    # *The virtual clock's ordering contract*).  The static 50 × 20 pins
    # and the simulator pins did not move.
    def test_runtime_static_50x20(self):
        assert runtime_fingerprint("static", 50, None) == (
            "2f47643fa79e3b6aadfec3aecb82fd37aa7cc4c92d0bac057da583c6967f5bcb"
        )

    def test_runtime_static_50x20_bytes(self):
        assert framing_counters(_runtime_result("static", 50, None)) == {
            "bytes_on_wire": 376183,
            "gossip_bytes": 127082,
            "gossip_bytes_full": 485982,
            "messages_sent": 27559,
            "messages_dropped": 0,
            "inbox_high_watermark": 12,
        }

    def test_runtime_paper_dynamic_with_loss_40x20(self):
        assert runtime_fingerprint("paper-dynamic", 40, 0.02) == (
            "ba23a57d56d3e663a7460c6e0460a7d1d8ac210508651eef8ad08b13023e1829"
        )

    # The two paper-dynamic byte counters re-pinned once when the
    # ``Handover`` frame dropped its unread ``segment_bits`` field: 30
    # bytes fewer each (377 471 → 377 441 and 493 275 → 493 245), every
    # other counter and fingerprint unchanged.
    def test_runtime_paper_dynamic_with_loss_40x20_bytes(self):
        assert framing_counters(_runtime_result("paper-dynamic", 40, 0.02)) == {
            "bytes_on_wire": 377441,
            "gossip_bytes": 169069,
            "gossip_bytes_full": 485634,
            "messages_sent": 25259,
            "messages_dropped": 379,
            "inbox_high_watermark": 18,
        }

    # The three below were captured at commit ``669309f`` (the parent of
    # the purpose-built virtual-clock loop), before any edit.
    def test_runtime_static_50x20_transport_facts(self):
        assert runtime_transport_facts("static", 50, None) == {
            "credits_granted": 2636,
            "send_stalls": 0,
            "map_desyncs": 0,
            "link_resets": 0,
        }

    def test_runtime_paper_dynamic_with_loss_40x20_transport_facts(self):
        assert runtime_transport_facts("paper-dynamic", 40, 0.02) == {
            "credits_granted": 2558,
            "send_stalls": 0,
            "map_desyncs": 0,
            "link_resets": 170,
        }

    # Re-pinned once when the swarm began counting simulated seconds only:
    # span timestamps used to be wall queue times divided back by
    # ``time_scale`` (0.1), and now are the queue times themselves.  The
    # new value is the old code's run at ``time_scale = 1.0``, bit for bit.
    def test_traced_runtime_paper_dynamic_with_loss_40x20(self):
        assert traced_runtime_fingerprint("paper-dynamic", 40, 0.02) == (
            "16fcb51151752dac997d44cbce8d8f02dcf3e29f89c00b91d9f234d8d5a77656"
        )

    def test_traced_runtime_paper_dynamic_with_loss_40x20_bytes(self):
        assert framing_counters(_runtime_result("paper-dynamic", 40, 0.02, traced=True)) == {
            "bytes_on_wire": 493245,
            "gossip_bytes": 169069,
            "gossip_bytes_full": 485634,
            "messages_sent": 25259,
            "messages_dropped": 379,
            "inbox_high_watermark": 18,
        }
