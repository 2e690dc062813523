"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.theory import (
    playback_continuity_new,
    playback_continuity_old,
    poisson_cdf,
)
from repro.core.scheduler import (
    SegmentCandidate,
    SupplierOffer,
    bucket_priority,
    compute_priority,
    compute_rarity,
    compute_urgency,
    schedule_requests,
)
from repro.dht.hashing import backup_keys, segment_hash
from repro.dht.ring import IdRing
from repro.streaming.buffer import SegmentBuffer
from repro.streaming.buffermap import BufferMap


# --------------------------------------------------------------------------- #
# Ring arithmetic
# --------------------------------------------------------------------------- #
ring_sizes = st.integers(min_value=2, max_value=1 << 16)
identifiers = st.integers(min_value=-(1 << 20), max_value=1 << 20)


@given(size=ring_sizes, a=identifiers, b=identifiers)
def test_ring_distances_are_complementary(size, a, b):
    ring = IdRing(size)
    cw = ring.clockwise_distance(a, b)
    ccw = ring.counter_clockwise_distance(a, b)
    assert 0 <= cw < size and 0 <= ccw < size
    if ring.normalize(a) == ring.normalize(b):
        assert cw == 0 and ccw == 0
    else:
        assert cw + ccw == size


@given(size=ring_sizes, a=identifiers, b=identifiers, c=identifiers)
def test_ring_triangle_inequality_modulo(size, a, b, c):
    """Going a->b->c clockwise is never shorter than a->c (mod wrap count)."""
    ring = IdRing(size)
    direct = ring.clockwise_distance(a, c)
    via = ring.clockwise_distance(a, b) + ring.clockwise_distance(b, c)
    assert via % size == direct or via == direct + size


@given(size=st.integers(min_value=4, max_value=4096), node=identifiers)
def test_level_intervals_partition_the_ring(size, node):
    """Every non-owner id belongs to exactly one finger level."""
    ring = IdRing(size)
    node = ring.normalize(node)
    covered = set()
    for level in range(1, ring.bits + 1):
        start, end = ring.level_interval(node, level)
        probe = start
        while probe != end:
            assert probe not in covered
            covered.add(probe)
            probe = ring.normalize(probe + 1)
    expected = {ring.normalize(node + d) for d in range(1, size)}
    assert covered == expected


@given(
    value=st.integers(min_value=0, max_value=1 << 40),
    space=st.integers(min_value=2, max_value=1 << 20),
)
def test_segment_hash_stays_in_space(value, space):
    assert 0 <= segment_hash(value, space) < space


@given(
    segment_id=st.integers(min_value=0, max_value=1 << 30),
    replicas=st.integers(min_value=1, max_value=16),
    space=st.integers(min_value=2, max_value=1 << 16),
)
def test_backup_keys_deterministic_and_bounded(segment_id, replicas, space):
    keys = backup_keys(segment_id, replicas, space)
    assert keys == backup_keys(segment_id, replicas, space)
    assert len(keys) == replicas
    assert all(0 <= key < space for key in keys)


# --------------------------------------------------------------------------- #
# FIFO buffer
# --------------------------------------------------------------------------- #
@given(
    capacity=st.integers(min_value=1, max_value=64),
    segment_ids=st.lists(st.integers(min_value=0, max_value=500), max_size=200),
)
def test_buffer_window_invariants(capacity, segment_ids):
    buffer = SegmentBuffer(capacity=capacity)
    for segment_id in segment_ids:
        buffer.add(segment_id)
        held = buffer.ids()
        # Never more than capacity entries, all inside the window, sorted.
        assert len(held) <= capacity
        assert all(buffer.head_id <= sid < buffer.tail_id for sid in held)
        assert held == sorted(held)
        assert buffer.tail_id - buffer.head_id == capacity


@given(
    capacity=st.integers(min_value=1, max_value=64),
    segment_ids=st.sets(st.integers(min_value=0, max_value=200), max_size=64),
)
def test_buffer_map_round_trip_preserves_window_content(capacity, segment_ids):
    buffer = SegmentBuffer(capacity=capacity)
    buffer.update_from(segment_ids)
    snapshot = BufferMap.from_buffer(buffer)
    rebuilt = BufferMap.from_bitmap(snapshot.head_id, snapshot.to_bitmap())
    assert rebuilt.present == snapshot.present


# --------------------------------------------------------------------------- #
# Scheduling priorities and Algorithm 1
# --------------------------------------------------------------------------- #
@given(
    segment_id=st.integers(min_value=0, max_value=10_000),
    play_id=st.integers(min_value=0, max_value=10_000),
    rate=st.floats(min_value=0.01, max_value=100.0),
)
def test_urgency_positive(segment_id, play_id, rate):
    assert compute_urgency(segment_id, play_id, 10.0, rate) > 0


@given(
    positions=st.lists(st.integers(min_value=0, max_value=600), max_size=8),
)
def test_rarity_is_a_probability(positions):
    rarity = compute_rarity(positions, 600)
    assert 0.0 <= rarity <= 1.0


@given(urgency=st.floats(min_value=0, max_value=1e6),
       rarity=st.floats(min_value=0, max_value=1.0))
def test_priority_upper_envelope(urgency, rarity):
    priority = compute_priority(urgency, rarity)
    assert priority >= urgency and priority >= rarity
    assert priority in (urgency, rarity)


@given(priority=st.floats(min_value=1e-9, max_value=1e6))
def test_bucket_priority_is_monotone_lower_bound(priority):
    bucket = bucket_priority(priority)
    assert bucket <= priority
    assert priority < bucket * 8.0  # within one band


@st.composite
def candidate_sets(draw):
    count = draw(st.integers(min_value=0, max_value=25))
    candidates = []
    for index in range(count):
        supplier_count = draw(st.integers(min_value=1, max_value=4))
        offers = tuple(
            SupplierOffer(
                supplier_id=draw(st.integers(min_value=0, max_value=9)),
                position_from_tail=draw(st.integers(min_value=0, max_value=600)),
                rate=draw(st.floats(min_value=0.5, max_value=30.0)),
            )
            for _ in range(supplier_count)
        )
        candidates.append(SegmentCandidate(segment_id=index, offers=offers))
    return candidates


@given(candidates=candidate_sets(), inbound=st.floats(min_value=0, max_value=40))
@settings(max_examples=60)
def test_algorithm1_respects_budgets_and_uniqueness(candidates, inbound):
    priorities = {c.segment_id: 1.0 / (c.segment_id + 1) for c in candidates}
    requests = schedule_requests(candidates, priorities, inbound, period=1.0)
    # Never more requests than the inbound budget or the candidate count.
    assert len(requests) <= min(len(candidates), int(inbound * 1.0))
    # A segment is requested at most once and only from one of its suppliers.
    seen = set()
    by_id = {c.segment_id: c for c in candidates}
    for request in requests:
        assert request.segment_id not in seen
        seen.add(request.segment_id)
        assert request.supplier_id in by_id[request.segment_id].supplier_ids()
        assert 0 < request.expected_time < 1.0


@given(candidates=candidate_sets())
@settings(max_examples=60)
def test_algorithm1_per_supplier_load_fits_in_period(candidates):
    priorities = {c.segment_id: 1.0 for c in candidates}
    requests = schedule_requests(candidates, priorities, inbound_rate=100, period=1.0)
    # The completion time of the last transfer assigned to a supplier is that
    # supplier's total queue, which Algorithm 1 keeps strictly below tau.
    last_completion = {}
    for request in requests:
        last_completion[request.supplier_id] = max(
            last_completion.get(request.supplier_id, 0.0), request.expected_time
        )
    assert all(value < 1.0 for value in last_completion.values())


# --------------------------------------------------------------------------- #
# Poisson continuity model
# --------------------------------------------------------------------------- #
@given(
    arrival_rate=st.floats(min_value=0.1, max_value=60.0),
    replicas=st.integers(min_value=1, max_value=10),
)
def test_continuity_model_bounds(arrival_rate, replicas):
    old = playback_continuity_old(arrival_rate, 10.0, 1.0)
    new = playback_continuity_new(arrival_rate, 10.0, 1.0, replicas)
    assert 0.0 <= old <= 1.0
    assert 0.0 <= new <= 1.0
    assert new >= old


@given(n=st.integers(min_value=0, max_value=60), mean=st.floats(min_value=0, max_value=60))
def test_poisson_cdf_bounds(n, mean):
    value = poisson_cdf(n, mean)
    assert 0.0 <= value <= 1.0
    assert poisson_cdf(n + 1, mean) >= value - 1e-12
