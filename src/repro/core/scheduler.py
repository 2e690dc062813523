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
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.streaming.buffer import realign
from repro.streaming.buffermap import BufferMap

#: Urgency assigned to a segment whose deadline slack is already non-positive.
MAX_URGENCY = 1.0e9


class ScheduledRequest(NamedTuple):
    """Output row of Algorithm 1: fetch ``segment_id`` from ``supplier_id``."""

    segment_id: int
    supplier_id: int
    expected_time: float
    priority: float


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


# --------------------------------------------------------------------------- #
# Algorithm 1: greedy supplier assignment
# --------------------------------------------------------------------------- #
def schedule_requests(
    priorities: Mapping[int, float],
    suppliers: Mapping[int, Sequence[int]],
    rates: Mapping[int, float],
    inbound_rate: float,
    period: float,
    tiebreak_rng: Optional[np.random.Generator] = None,
) -> List[ScheduledRequest]:
    """Greedy supplier assignment (Algorithm 1).

    Args:
        priorities: requesting priority per fresh segment id (any real
            numbers; higher is scheduled earlier).  Its iteration order is
            the order the tie-break values are drawn in.
        suppliers: the neighbours advertising each of those segments, in
            neighbour order — of two equally early suppliers the first wins.
        rates: estimated receiving rate per supplier id (segments/s); a
            supplier with no positive rate is never chosen.
        inbound_rate: local inbound capacity ``I`` in segments/s; at most
            ``I · period`` segments are scheduled.
        period: the scheduling period ``τ`` in seconds.
        tiebreak_rng: optional random stream used to order segments of
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

    ids = list(priorities)
    # One vectorised draw: ``Generator.random(n)`` consumes the bit generator
    # exactly like ``n`` scalar draws, in the same order.
    tiebreak = (
        [float(sid) for sid in ids]
        if tiebreak_rng is None
        else tiebreak_rng.random(len(ids)).tolist()
    )
    # Ids are unique, so sorting the key tuples is the stable sort by key.
    keys = sorted(zip([-p for p in priorities.values()], tiebreak, ids))
    # When one more segment from each supplier would arrive: its transfer
    # time ``1 / R`` after its queue ``τ(j)`` (0 at first) drains; never, at
    # a non-positive rate.
    ready_at_of = {
        supplier: 1.0 / rate if rate > 0 else math.inf for supplier, rate in rates.items()
    }
    requests: List[ScheduledRequest] = []

    for negated, _, segment_id in keys[: int(inbound_rate * period)]:
        # Starting from the period is Algorithm 1's double condition: the
        # completion must beat the best alternative *and* fit the period.
        best_time = period
        best_supplier: Optional[int] = None
        for supplier in suppliers[segment_id]:
            ready_at = ready_at_of[supplier]
            if ready_at < best_time:
                best_time = ready_at
                best_supplier = supplier
        if best_supplier is not None:
            ready_at_of[best_supplier] = 1.0 / rates[best_supplier] + best_time
            requests.append(ScheduledRequest(segment_id, best_supplier, best_time, -negated))
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

    def __post_init__(self) -> None:
        if self.policy not in ("continustreaming", "rarest_first"):
            raise ValueError(f"unknown scheduling policy {self.policy!r}")
        if self.playback_rate <= 0:
            raise ValueError("playback_rate must be positive")
        if self.buffer_capacity <= 0:
            raise ValueError("buffer_capacity must be positive")

    def schedule(
        self,
        neighbor_maps: Mapping[int, BufferMap],
        lo: int,
        wanted: int,
        rate_of: Callable[[int], float],
        play_id: int,
        inbound_rate: float,
    ) -> List[ScheduledRequest]:
        """Prioritise the fresh segments and run Algorithm 1 (once per plan).

        A segment is fresh when ``wanted`` (bit ``j`` ⇔ segment ``lo + j``)
        asks for it and some neighbour's map advertises it.  One ascending
        walk over each neighbour's ``aligned bits & wanted`` accumulates, per
        fresh segment, its supplier list in neighbour order, its best rate
        and its rarity product — the factors multiplied in neighbour order,
        so the floats are those of the scalar equations (a factor of
        ``B / B`` is ``1.0``, an exact no-op).  Every accumulator is per
        segment, so the walk order inside one neighbour decides nothing.
        """
        capacity = self.buffer_capacity
        span = wanted.bit_length()
        rates: Dict[int, float] = {}
        suppliers: Dict[int, List[int]] = {}
        best_rate: Dict[int, float] = {}
        rarity: Dict[int, float] = {}
        for neighbor_id, neighbor_map in neighbor_maps.items():
            offered = realign(neighbor_map.bits, neighbor_map.head_id - lo, span) & wanted
            if not offered:
                continue
            rate = rates[neighbor_id] = rate_of(neighbor_id)
            tail = neighbor_map.effective_tail
            segment_id = lo - 1
            while offered:
                skip = (offered & -offered).bit_length()  # lowest set bit + 1
                offered >>= skip
                segment_id += skip
                # ``p_ij >= 0``: the tail is the newest id the map holds.
                position = tail - segment_id
                factor = 1.0 if position >= capacity else position / capacity
                column = suppliers.get(segment_id)
                if column is None:
                    suppliers[segment_id] = [neighbor_id]
                    best_rate[segment_id] = rate
                    rarity[segment_id] = factor
                else:
                    column.append(neighbor_id)
                    if rate > best_rate[segment_id]:
                        best_rate[segment_id] = rate
                    rarity[segment_id] *= factor

        # Priorities in ascending id: the order the tie-break draws are made in.
        priorities: Dict[int, float] = {}
        if self.policy == "rarest_first":
            for segment_id in sorted(suppliers):
                priorities[segment_id] = 1.0 / len(suppliers[segment_id])
        else:
            playback_rate, quantize = self.playback_rate, self.quantize_priorities
            for segment_id in sorted(suppliers):
                best = best_rate[segment_id]
                urgency = MAX_URGENCY
                if best > 0:
                    slack = (segment_id - play_id) / playback_rate - 1.0 / best
                    if slack > 0:
                        urgency = 1.0 / slack
                rare = rarity[segment_id]
                priority = rare if rare > urgency else urgency
                priorities[segment_id] = bucket_priority(priority) if quantize else priority
        return schedule_requests(
            priorities, suppliers, rates, inbound_rate, self.period, self.tiebreak_rng
        )
