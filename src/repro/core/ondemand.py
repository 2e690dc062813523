"""On-demand data retrieval (Algorithm 2).

For each predicted-missed segment ``D_i`` the node sends ``k`` routing
messages in parallel, one per backup key ``hash(id · i) % N``; every message
terminates at the node counter-clockwise closest to its key — the backup
holder.  Among the holders that actually have the segment, the one with the
highest available sending rate becomes the on-demand supplier, and the
segment is downloaded directly (UDP) in parallel with the other pre-fetches.

Cost accounting mirrors Section 5.4.3: locating one segment requires about
``k · (log2(n)/2 + 1) + 1`` routing messages of 80 bits, plus the 30 Kbit
segment transfer.  The expected completion latency is
``t_fetch ≈ (log2(n)/2 + 3) · t_hop`` (equation (7)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.dht.hashing import backup_keys
from repro.dht.routing import GreedyRouter, RouteOutcome
from repro.net.message import ROUTING_MESSAGE_BITS


@dataclass(frozen=True)
class PrefetchPlan:
    """The outcome of locating one missed segment on the DHT.

    Attributes:
        segment_id: the missed segment.
        supplier_id: chosen backup holder, or ``None`` if no reachable holder
            has the segment.
        routing_messages: DHT routing messages spent on the location step.
        routing_paths: one routing path per backup key (for overhearing).
        holders_probed: holders actually reached by routing.
        holders_with_data: how many of them had the segment.
    """

    segment_id: int
    supplier_id: Optional[int]
    routing_messages: int
    routing_paths: tuple[tuple[int, ...], ...]
    holders_probed: int
    holders_with_data: int

    @property
    def located(self) -> bool:
        return self.supplier_id is not None

    def routing_bits(self) -> int:
        """Total routing traffic of the location step, in bits."""
        return self.routing_messages * ROUTING_MESSAGE_BITS


@dataclass
class OnDemandRetriever:
    """Runs Algorithm 2 for one node.

    Args:
        node_id: the requesting node.
        router: greedy DHT router over the live peer tables.
        replicas: ``k``.
        has_segment: callable ``(holder_id, segment_id) -> bool`` telling
            whether a holder can serve the segment (from its VoD backup or
            its playback buffer).
        available_rate: callable ``holder_id -> float`` returning the
            holder's available sending rate in segments/s (used to pick the
            best supplier, and 0 excludes a holder).
    """

    node_id: int
    router: GreedyRouter
    replicas: int
    has_segment: Callable[[int, int], bool]
    available_rate: Callable[[int], float]
    id_space: int = 0
    last_plans: List[PrefetchPlan] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.id_space <= 0:
            self.id_space = self.router.ring.size

    # ------------------------------------------------------------------- lookup
    def locate(self, segment_id: int) -> PrefetchPlan:
        """Locate the best on-demand supplier for one segment."""
        keys = backup_keys(segment_id, self.replicas, self.id_space)
        routing_messages = 0
        paths: List[tuple[int, ...]] = []
        best_supplier: Optional[int] = None
        best_rate = 0.0
        holders_probed = 0
        holders_with_data = 0
        seen_holders: set[int] = set()
        for key in keys:
            outcome: RouteOutcome = self.router.route(self.node_id, key)
            # Each hop of the walk is one routing message; the final reply
            # back to the requester is one more (the "+1" of Section 5.4.3).
            routing_messages += max(1, outcome.hops) + 1
            paths.append(outcome.path)
            holder = outcome.final_node
            if holder is None or holder == self.node_id:
                continue
            if holder in seen_holders:
                continue
            seen_holders.add(holder)
            holders_probed += 1
            if not self.has_segment(holder, segment_id):
                continue
            holders_with_data += 1
            rate = self.available_rate(holder)
            if rate > best_rate:
                best_rate = rate
                best_supplier = holder
        return PrefetchPlan(
            segment_id=segment_id,
            supplier_id=best_supplier,
            routing_messages=routing_messages,
            routing_paths=tuple(paths),
            holders_probed=holders_probed,
            holders_with_data=holders_with_data,
        )

    def retrieve(self, missed_segment_ids: Sequence[int]) -> List[PrefetchPlan]:
        """Run the location step for every missed segment (ascending id order).

        The caller is responsible for enforcing the ``N_miss ≤ l`` trigger
        condition (the :class:`~repro.core.urgent_line.UrgentLine` does) and
        for executing the actual downloads against bandwidth budgets.
        """
        plans = [self.locate(sid) for sid in sorted(missed_segment_ids)]
        self.last_plans = plans
        return plans

    # -------------------------------------------------------------------- costs
    @staticmethod
    def expected_routing_messages(replicas: int, num_nodes: int) -> float:
        """Section 5.4.3 estimate: ``k · (log2(n)/2 + 1) + 1`` messages."""
        n = max(2, num_nodes)
        return replicas * (math.log2(n) / 2.0 + 1.0) + 1.0

    @staticmethod
    def expected_fetch_bits(
        replicas: int, num_nodes: int, segment_bits: int
    ) -> float:
        """Estimated total cost of pre-fetching one segment, in bits."""
        return (
            OnDemandRetriever.expected_routing_messages(replicas, num_nodes)
            * ROUTING_MESSAGE_BITS
            + segment_bits
        )
