"""Greedy clockwise DHT routing.

Routing a message towards a key is a simple greedy walk (Section 4.1): every
intermediate node forwards to the peer in its table that is clockwise closest
to the destination, until no closer peer exists.  The node at which the walk
stops is the one responsible for the key (counter-clockwise closest to it).
The appendix bounds the walk by ``log N / log(4/3) ≈ 2.41 log N`` hops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, List, Optional, Sequence

from repro.dht.ring import IdRing


def next_hop(
    current: int,
    target: int,
    candidates: Iterable[int],
    size: int,
    visited: Collection[int] = (),
) -> Optional[int]:
    """The greedy forwarding rule: the candidate clockwise-closest to ``target``.

    Forward only to a peer *strictly* closer to the key than ``current`` and
    not in ``visited``; ``None`` means the walk stops at ``current``.  The
    first of several equally close candidates wins, so callers must pass
    them in a fixed order (``PeerTable.routing_candidates`` is sorted).  This
    is the one implementation of the rule: the simulator's
    :meth:`GreedyRouter.route` and the live peer's per-message forwarding
    both call it.  ``current`` and ``target`` must already be on the ring.
    """
    best: Optional[int] = None
    best_dist = (target - current) % size
    for peer in candidates:
        dist = (target - peer) % size
        if dist < best_dist:
            peer %= size
            if peer not in visited:
                best, best_dist = peer, dist
    return best


@dataclass(frozen=True)
class RouteOutcome:
    """Result of one greedy lookup.

    Attributes:
        target_key: the ring key that was looked up.
        path: node ids visited, starting at the query origin and ending at
            the node where the walk stopped.
        success: whether the final node is actually responsible for the key
            (i.e. matches the global counter-clockwise-closest node).  When
            the membership oracle is unavailable, success means the walk
            terminated normally (no dead end / loop / hop-budget overrun).
        hops: number of overlay hops taken (``len(path) - 1``).
    """

    target_key: int
    path: tuple[int, ...]
    success: bool

    @property
    def hops(self) -> int:
        return max(0, len(self.path) - 1)

    @property
    def final_node(self) -> Optional[int]:
        return self.path[-1] if self.path else None


class GreedyRouter:
    """Stateless greedy router over a membership/peer-table oracle.

    Args:
        ring: the identifier ring.
        peers_of: callable returning the routing candidates (peer ids) of a
            node — typically ``PeerTable.routing_candidates``.
        max_hops: hop budget; ``None`` uses 4x the theoretical upper bound,
            which only trips on genuinely broken tables.
    """

    def __init__(
        self,
        ring: IdRing,
        peers_of: Callable[[int], Sequence[int]],
        max_hops: Optional[int] = None,
    ) -> None:
        self.ring = ring
        self.peers_of = peers_of
        if max_hops is None:
            max_hops = 4 * int(2.41 * max(1, ring.bits)) + 8
        self.max_hops = int(max_hops)

    def route(
        self,
        origin: int,
        target_key: int,
        responsible: Optional[int] = None,
    ) -> RouteOutcome:
        """Route from ``origin`` towards ``target_key``.

        Args:
            origin: node id where the query starts.
            target_key: ring key being located.
            responsible: the globally correct owner of the key, if known
                (used to score success exactly as Figure 3 does); when
                ``None`` success is judged by normal termination alone.
        """
        size = self.ring.size
        target_key = self.ring.normalize(target_key)
        current = self.ring.normalize(origin)
        path: List[int] = [current]
        visited = {current}
        for _ in range(self.max_hops):
            if current == target_key:
                break
            best = next_hop(current, target_key, self.peers_of(current), size, visited)
            if best is None:
                break  # no peer closer to the target: the walk stops here
            current = best
            visited.add(current)
            path.append(current)
        else:
            # Hop budget exhausted: treat as failure.
            return RouteOutcome(target_key=target_key, path=tuple(path), success=False)

        if responsible is not None:
            success = path[-1] == self.ring.normalize(responsible)
        else:
            success = True
        return RouteOutcome(target_key=target_key, path=tuple(path), success=success)

    @staticmethod
    def hop_upper_bound(id_space: int) -> float:
        """The appendix bound ``log N / log(4/3) ≈ 2.41 log N`` (log base 2)."""
        if id_space < 2:
            return 0.0
        return math.log2(id_space) / math.log2(4.0 / 3.0)
