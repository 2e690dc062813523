"""Data scheduling: segment priorities and the greedy supplier assignment.

Every scheduling period the Data Scheduler collects, from the buffer maps of
its connected neighbours, the set of *fresh* segments (available at some
neighbour, absent locally) and decides which to request from whom.

Priorities (equations (1)-(3))
------------------------------
* **urgency** of segment ``i``: with the best available receiving rate
  ``R_i = max_j R_ij``, the expected slack before its deadline is
  ``t_i = (id_i - id_play) / p - 1 / R_i``; urgency is ``1 / t_i`` (a segment
  whose slack is already gone gets the maximum urgency).
* **rarity** of segment ``i``: the probability that it is about to be evicted
  from *all* of its suppliers' FIFO buffers, estimated as the product of
  ``p_ij / B`` over its suppliers, where ``p_ij`` is the segment's distance
  from the tail of supplier ``j``'s buffer.  (The paper argues this is more
  informative than the classic ``1 / n_i`` rarest-first count, which the
  CoolStreaming baseline uses.)
* **priority** = ``max(urgency, rarity)``.

Supplier assignment (Algorithm 1)
---------------------------------
Finding the assignment that minimises deadline misses is NP-hard (parallel
machine scheduling), so the scheduler greedily walks the segments in
descending priority, keeps a queueing time ``τ(j)`` per supplier, and gives
each segment to the supplier that can deliver it earliest, provided that the
expected completion time stays within the scheduling period; at most
``min(m, I · τ)`` segments are scheduled per period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: Urgency assigned to a segment whose deadline slack is already non-positive.
MAX_URGENCY = 1.0e9


class SupplierOffer(NamedTuple):
    """One neighbour's offer of one segment.

    (These four records are created per offer / per candidate every period,
    so they are named tuples: same fields, a fraction of the construction
    cost of a frozen dataclass.)

    Attributes:
        supplier_id: the neighbour that advertises the segment.
        position_from_tail: ``p_ij`` — distance of the segment from the tail
            of that neighbour's FIFO buffer (large = about to be evicted).
        rate: estimated receiving rate from that neighbour (segments/s).
    """

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


class ScheduledRequest(NamedTuple):
    """Output row of Algorithm 1: fetch ``segment_id`` from ``supplier_id``."""

    segment_id: int
    supplier_id: int
    expected_time: float
    priority: float


class PriorityBreakdown(NamedTuple):
    """Urgency, rarity and combined priority of one candidate (for inspection)."""

    segment_id: int
    urgency: float
    rarity: float
    priority: float


# --------------------------------------------------------------------------- #
# Priority computation
# --------------------------------------------------------------------------- #
def compute_urgency(
    segment_id: int,
    play_id: int,
    playback_rate: float,
    best_rate: float,
) -> float:
    """Urgency of a segment (equation (1)).

    ``t_i = (id_i - id_play) / p - 1 / R_i``; urgency is ``1 / t_i``, and a
    segment with no positive slack left gets :data:`MAX_URGENCY`.
    """
    if playback_rate <= 0:
        raise ValueError("playback_rate must be positive")
    if best_rate <= 0:
        return MAX_URGENCY
    slack = (segment_id - play_id) / playback_rate - 1.0 / best_rate
    if slack <= 0:
        return MAX_URGENCY
    return 1.0 / slack


def compute_rarity(
    positions_from_tail: Sequence[int],
    buffer_capacity: int,
) -> float:
    """Rarity of a segment (equation (2)).

    The probability that the segment will be evicted from every supplier's
    FIFO buffer, estimated as ``∏_j (p_ij / B)``.
    """
    if buffer_capacity <= 0:
        raise ValueError("buffer_capacity must be positive")
    if not positions_from_tail:
        return 1.0  # no supplier at all: maximally rare
    rarity = 1.0
    for position in positions_from_tail:
        rarity *= min(max(position, 0), buffer_capacity) / buffer_capacity
    return rarity


def compute_priority(urgency: float, rarity: float) -> float:
    """Combined requesting priority (equation (3)): ``max(urgency, rarity)``."""
    return max(urgency, rarity)


def rarest_first_priority(supplier_count: int) -> float:
    """The CoolStreaming baseline priority ``1 / n_i`` (fewer suppliers = rarer)."""
    if supplier_count <= 0:
        return MAX_URGENCY
    return 1.0 / supplier_count


def bucket_priority(priority: float, base: float = 8.0) -> float:
    """Coarsen a continuous priority into factor-of-``base`` bands.

    The urgency/rarity priorities of equations (1)-(3) are continuous, so no
    two segments ever tie exactly and the scheduler would impose one strict
    global order — every node then chases the very same segments, which is
    exactly the convoy behaviour rarest-first avoids.  Segments whose
    priorities fall in the same band are for all practical purposes equally
    important (urgency is only a meaningful signal when the deadline is
    actually looming), so the (randomised) tie-break decides among them.
    """
    if base <= 1.0:
        raise ValueError("base must be > 1")
    if priority >= MAX_URGENCY:
        return MAX_URGENCY
    if priority <= 0.0:
        return 0.0
    return float(base ** math.floor(math.log(priority, base)))


def prioritize_candidates(
    candidates: Sequence[SegmentCandidate],
    play_id: int,
    playback_rate: float,
    buffer_capacity: int,
) -> List[PriorityBreakdown]:
    """Compute the full urgency/rarity/priority breakdown for every candidate.

    One pass over the offers of each candidate yields both the best rate
    (for :func:`compute_urgency`) and the rarity product of
    :func:`compute_rarity` — the same operations in the same order as those
    two scalar definitions, so the floats are bit-identical to them.
    """
    if playback_rate <= 0:
        raise ValueError("playback_rate must be positive")
    if buffer_capacity <= 0:
        raise ValueError("buffer_capacity must be positive")
    breakdown: List[PriorityBreakdown] = []
    for segment_id, offers in candidates:
        best_rate = 0.0
        rarity = 1.0
        for _, position, rate in offers:
            if rate > best_rate:
                best_rate = rate
            if position < buffer_capacity:  # else the factor is B / B == 1.0
                rarity *= (position if position > 0 else 0) / buffer_capacity
        urgency = MAX_URGENCY
        if best_rate > 0:
            slack = (segment_id - play_id) / playback_rate - 1.0 / best_rate
            if slack > 0:
                urgency = 1.0 / slack
        breakdown.append(
            PriorityBreakdown(
                segment_id, urgency, rarity, rarity if rarity > urgency else urgency
            )
        )
    return breakdown


# --------------------------------------------------------------------------- #
# Algorithm 1: greedy supplier assignment
# --------------------------------------------------------------------------- #
def schedule_requests(
    candidates: Sequence[SegmentCandidate],
    priorities: Mapping[int, float],
    inbound_rate: float,
    period: float,
    supplier_rate: Optional[Callable[[int, SupplierOffer], float]] = None,
    tiebreak_rng: Optional[np.random.Generator] = None,
) -> List[ScheduledRequest]:
    """Greedy supplier assignment (Algorithm 1).

    Args:
        candidates: the fresh segments with their supplier offers.
        priorities: requesting priority per segment id (any real numbers;
            higher is scheduled earlier).
        inbound_rate: local inbound capacity ``I`` in segments/s; at most
            ``I · period`` segments are scheduled.
        period: the scheduling period ``τ`` in seconds.
        supplier_rate: optional override of the sending rate used for a given
            offer (defaults to the offer's own ``rate``).
        tiebreak_rng: optional random stream used to order candidates of
            (near-)equal priority.  The paper does not prescribe a tie-break;
            randomising it keeps the segments fetched by neighbouring nodes
            diverse, which is what lets them trade with each other instead of
            all queueing on the same supplier.  ``None`` breaks ties by
            ascending segment id (deterministic, useful in tests).

    Returns:
        The scheduled requests in the order they were assigned (descending
        priority), each with its chosen supplier and expected receive time.
    """
    if period <= 0:
        raise ValueError("period must be positive")
    if inbound_rate < 0:
        raise ValueError("inbound_rate must be >= 0")

    ids = [candidate.segment_id for candidate in candidates]
    if tiebreak_rng is None:
        tiebreak = {sid: float(sid) for sid in ids}
    else:
        # One vectorised draw: ``Generator.random(n)`` consumes the bit
        # generator exactly like ``n`` scalar draws, in the same order.
        tiebreak = dict(zip(ids, tiebreak_rng.random(len(ids)).tolist()))
    priority_of = priorities.get
    keys = [(-priority_of(sid, 0.0), tiebreak[sid], sid) for sid in ids]
    # Sorting positions by key is the stable sort of the candidates by key.
    order = sorted(range(len(ids)), key=keys.__getitem__)
    max_requests = min(len(order), int(inbound_rate * period))
    queue_time: Dict[int, float] = {}
    requests: List[ScheduledRequest] = []

    for index in order[:max_requests]:
        segment_id, offers = candidates[index]
        best_time = math.inf
        best_supplier: Optional[int] = None
        for offer in offers:
            rate = offer.rate if supplier_rate is None else supplier_rate(
                segment_id, offer
            )
            if rate <= 0:
                continue
            ready_at = 1.0 / rate + queue_time.get(offer.supplier_id, 0.0)
            # The completion must both beat the best alternative and fit the
            # scheduling period, exactly as in Algorithm 1's double condition.
            if ready_at < best_time and ready_at < period:
                best_time = ready_at
                best_supplier = offer.supplier_id
        if best_supplier is not None:
            queue_time[best_supplier] = best_time
            requests.append(
                ScheduledRequest(
                    segment_id, best_supplier, best_time, priority_of(segment_id, 0.0)
                )
            )
    return requests


@dataclass
class DataScheduler:
    """Stateful wrapper binding the priority policy to Algorithm 1.

    Two policies are provided:

    * ``"continustreaming"`` — the paper's ``max(urgency, rarity)`` priority;
    * ``"rarest_first"`` — the CoolStreaming baseline ``1 / n_i``.
    """

    playback_rate: float
    buffer_capacity: int
    period: float
    policy: str = "continustreaming"
    tiebreak_rng: Optional[np.random.Generator] = None
    quantize_priorities: bool = True
    last_breakdown: List[PriorityBreakdown] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.policy not in ("continustreaming", "rarest_first"):
            raise ValueError(f"unknown scheduling policy {self.policy!r}")

    def priorities_for(
        self, candidates: Sequence[SegmentCandidate], play_id: int
    ) -> Dict[int, float]:
        """Requesting priority per candidate segment id under the policy."""
        if self.policy == "rarest_first":
            self.last_breakdown = []
            return {
                c.segment_id: rarest_first_priority(len(c.offers)) for c in candidates
            }
        breakdown = prioritize_candidates(
            candidates, play_id, self.playback_rate, self.buffer_capacity
        )
        self.last_breakdown = breakdown
        if self.quantize_priorities:
            return {b.segment_id: bucket_priority(b.priority) for b in breakdown}
        return {b.segment_id: b.priority for b in breakdown}

    def schedule(
        self,
        candidates: Sequence[SegmentCandidate],
        play_id: int,
        inbound_rate: float,
    ) -> List[ScheduledRequest]:
        """Prioritise the candidates and run Algorithm 1."""
        priorities = self.priorities_for(candidates, play_id)
        return schedule_requests(
            candidates,
            priorities,
            inbound_rate,
            self.period,
            tiebreak_rng=self.tiebreak_rng,
        )
