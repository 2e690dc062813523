"""The Peer Table of Section 4.1.

Every node keeps a Peer Table with three parts:

1. **Connected Neighbors** — ``M`` neighbours in the unstructured overlay,
   connected by (simulated) TCP and used for the periodic buffer-map/data
   exchange.  A failed or unproductive neighbour is replaced by the overheard
   node with the lowest latency.
2. **DHT Peers** — ``log N`` peers ordered by level.  The level-``i`` peer of
   node ``n`` may be *any* node whose id lies in ``[n + 2^(i-1), n + 2^i)``
   (mod ``N``): the DHT is loosely organised, so maintenance is cheap.
3. **Overheard Nodes** — the latest ``H`` nodes overheard from routing
   messages passing by (``H = 20`` suffices per the paper); both other parts
   are refreshed from this list at no extra communication cost.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.dht.ring import IdRing


@dataclass
class PeerTable:
    """The three-part Peer Table of one node.

    The table owns all of its mutation: ``neighbors`` and ``dht_peers`` are
    read-only views and ``overheard`` is a copy, so every change passes through
    a method — which is what lets :meth:`routing_candidates` be cached until a
    method that changes the candidate id set drops the cache.

    Attributes:
        owner_id: id of the node owning this table.
        ring: the identifier ring (defines levels and distances).
        max_neighbors: ``M`` — number of connected neighbours to keep.
        max_overheard: ``H`` — number of overheard nodes to remember.
    """

    owner_id: int
    ring: IdRing
    max_neighbors: int = 5
    max_overheard: int = 20
    #: connected neighbour id -> latency ms.
    _neighbors: Dict[int, float] = field(
        default_factory=dict, init=False, repr=False
    )
    #: level -> (DHT peer id, latency ms), the level-``i`` finger.
    _dht_peers: Dict[int, Tuple[int, float]] = field(
        default_factory=dict, init=False, repr=False
    )
    #: peer id -> latency ms, oldest first (dicts keep insertion order).
    _overheard: Dict[int, float] = field(
        default_factory=dict, init=False, repr=False
    )
    #: cached :meth:`routing_candidates`; ``None`` = recompute on next use.
    _candidates: Optional[Tuple[int, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def neighbors(self) -> Mapping[int, float]:
        """Read-only view of the connected neighbours (peer id -> latency ms)."""
        return MappingProxyType(self._neighbors)

    @property
    def dht_peers(self) -> Mapping[int, Tuple[int, float]]:
        """Read-only view of the DHT peers (level -> (peer id, latency ms))."""
        return MappingProxyType(self._dht_peers)

    @property
    def overheard(self) -> Dict[int, float]:
        """The overheard nodes (peer id -> latency ms), oldest first (a copy)."""
        return dict(self._overheard)

    # ------------------------------------------------------- connected neighbours
    def neighbor_ids(self) -> List[int]:
        """Ids of the connected neighbours (sorted)."""
        return sorted(self._neighbors)

    def has_neighbor(self, peer_id: int) -> bool:
        return peer_id in self._neighbors

    def neighbor_slots_free(self) -> int:
        """How many more connected neighbours can be added."""
        return max(0, self.max_neighbors - len(self._neighbors))

    def add_neighbor(
        self, peer_id: int, latency_ms: float, *, allow_overflow: bool = False
    ) -> bool:
        """Add a connected neighbour if it is new and there is a free slot.

        ``allow_overflow`` admits it past ``max_neighbors`` — the overlay uses
        that to keep partnerships symmetric when the other end is full.
        """
        if peer_id == self.owner_id or peer_id in self._neighbors:
            return False
        if len(self._neighbors) >= self.max_neighbors and not allow_overflow:
            return False
        self._neighbors[peer_id] = latency_ms
        self._candidates = None
        return True

    def remove_neighbor(self, peer_id: int) -> Optional[float]:
        """Drop a connected neighbour (returns its latency, if it was one)."""
        removed = self._neighbors.pop(peer_id, None)
        if removed is not None:
            self._candidates = None
        return removed

    def replace_neighbor(self, old_id: int, peer_id: int, latency_ms: float) -> bool:
        """Replace a failed/unproductive neighbour with a new one."""
        if peer_id == self.owner_id or peer_id in self._neighbors:
            return False
        self.remove_neighbor(old_id)
        return self.add_neighbor(peer_id, latency_ms)

    # ----------------------------------------------------------------- DHT peers
    def dht_peer_ids(self) -> List[int]:
        """Ids of the current DHT peers (ordered by level)."""
        return [self._dht_peers[level][0] for level in sorted(self._dht_peers)]

    def _install_dht_peer(self, level: int, peer_id: int, latency_ms: float) -> None:
        current = self._dht_peers.get(level)
        if current is None or current[0] != peer_id:
            self._candidates = None  # a latency refresh keeps the id set
        self._dht_peers[level] = (peer_id, latency_ms)

    def set_dht_peer(self, peer_id: int, latency_ms: float) -> Optional[int]:
        """Install ``peer_id`` as the DHT peer of its level.

        The level is derived from the clockwise distance ``owner -> peer``;
        a peer at distance 0 (the owner itself) is rejected.  Returns the
        level used, or ``None`` if rejected.
        """
        if peer_id == self.owner_id:
            return None
        level = self.ring.level_of(self.owner_id, peer_id)
        if level < 1 or level > self.ring.bits:
            return None
        self._install_dht_peer(level, self.ring.normalize(peer_id), latency_ms)
        return level

    def remove_dht_peer(self, peer_id: int) -> None:
        """Forget every finger pointing at ``peer_id`` (after its failure)."""
        stale = [lvl for lvl, (peer, _) in self._dht_peers.items() if peer == peer_id]
        for lvl in stale:
            del self._dht_peers[lvl]
        if stale:
            self._candidates = None

    def clear_dht_peers(self) -> None:
        """Forget every finger (before a rebuild from scratch)."""
        self._dht_peers.clear()
        self._candidates = None

    def closest_dht_peer(self) -> Optional[int]:
        """The clockwise-closest DHT peer (``n1`` in equation (5)).

        This is the peer at the lowest populated level; ties cannot happen
        because each level holds one entry.
        """
        if not self._dht_peers:
            return None
        return self._dht_peers[min(self._dht_peers)][0]

    def routing_candidates(self) -> Tuple[int, ...]:
        """All ids usable as next hops: DHT peers plus connected neighbours.

        The paper routes over the DHT peers; adding connected neighbours only
        improves the loose ring's success rate and does not change levels.
        Sorted, and cached until a mutation changes the id set — callers may
        rely on getting the *same tuple object* back while the table's
        candidates are unchanged.
        """
        candidates = self._candidates
        if candidates is None:
            ids = {peer for peer, _ in self._dht_peers.values()}
            ids.update(self._neighbors)
            ids.discard(self.owner_id)
            candidates = self._candidates = tuple(sorted(ids))
        return candidates

    # ------------------------------------------------------------ overheard nodes
    def record_overheard(self, heard: Iterable[Tuple[int, float]]) -> None:
        """Record overheard ``(peer id, latency ms)`` pairs, in order.

        Newest entries are kept at the end: re-hearing a node moves it there
        and refreshes its latency estimate.  The oldest entries beyond
        ``max_overheard`` are dropped once, after the whole batch — the same
        newest ``H`` as dropping after every entry, because trimming only
        ever removes the oldest end.  The owner itself is never recorded.
        """
        overheard, owner = self._overheard, self.owner_id
        for peer_id, latency_ms in heard:
            if peer_id != owner:
                overheard.pop(peer_id, None)
                overheard[peer_id] = latency_ms
        excess = len(overheard) - self.max_overheard
        if excess > 0:
            for peer_id in list(islice(overheard, excess)):
                del overheard[peer_id]

    def lowest_latency_overheard(
        self, exclude: Optional[Iterable[int]] = None
    ) -> Optional[Tuple[int, float]]:
        """``(peer id, latency)`` of the lowest-latency overheard node not in
        ``exclude`` (ties: lowest id), or ``None``."""
        banned = set(exclude or ())
        banned.add(self.owner_id)
        best = min(
            ((latency, peer) for peer, latency in self._overheard.items() if peer not in banned),
            default=None,
        )
        return None if best is None else (best[1], best[0])

    # ------------------------------------------------------------------- refresh
    def purge(self, is_alive: Callable[[int], bool]) -> None:
        """Drop the nodes ``is_alive`` rejects from every part of the table."""
        for peer_id in [p for p in self._neighbors if not is_alive(p)]:
            self.remove_neighbor(peer_id)
        dead_levels = [lvl for lvl, (peer, _) in self._dht_peers.items() if not is_alive(peer)]
        for lvl in dead_levels:
            del self._dht_peers[lvl]
        if dead_levels:
            self._candidates = None
        for peer_id in [p for p in self._overheard if not is_alive(p)]:
            del self._overheard[peer_id]

    def refresh_dht_peers_from_overheard(self) -> int:
        """Fill / renew DHT-peer levels from the overheard list.

        For every overheard node whose level currently has no entry (or whose
        entry is the same node with a staler latency), install it.  Returns
        the number of levels updated.  This is the "node state update ...
        mainly achieved by overhearing the routing messages passing by" of
        Section 3, and costs no communication.
        """
        updated = 0
        owner, size, bits = self.owner_id, self.ring.size, self.ring.bits
        for peer_id, latency_ms in self._overheard.items():
            level = ((peer_id - owner) % size).bit_length()  # ring.level_of
            if level < 1 or level > bits:
                continue
            current = self._dht_peers.get(level)
            if current is None or current[0] == peer_id:
                self._install_dht_peer(level, peer_id, latency_ms)
                updated += 1
        return updated

    def adopt_base_table(self, other: "PeerTable") -> None:
        """Use another node's table as the base of this one (join bootstrap).

        The joining node copies the bootstrap node's DHT peers (re-levelled
        relative to itself) and treats its neighbours as overheard candidates.
        """
        for peer_id, latency_ms in other._dht_peers.values():
            self.set_dht_peer(peer_id, latency_ms)
        self.record_overheard([*other._neighbors.items(), (other.owner_id, 0.0)])
        self.refresh_dht_peers_from_overheard()


def fill_fingers(
    table: PeerTable,
    sorted_ids: Sequence[int],
    rng: np.random.Generator,
    latency_ms: Callable[[int, int], float],
) -> None:
    """Fill each level of ``table`` with a random id from its level interval.

    ``sorted_ids`` is the joined population in ascending order; a level
    whose interval holds no id stays empty, and every other level draws one
    ``rng.integers(count)`` over the interval's ids in clockwise order.
    ``latency_ms(owner, peer)`` prices each installed finger.
    """
    owner, ring, total = table.owner_id, table.ring, len(sorted_ids)
    for level in range(1, ring.bits + 1):
        start, end = ring.level_interval(owner, level)
        if start == end:
            continue
        lo, hi = bisect_left(sorted_ids, start), bisect_left(sorted_ids, end)
        # A wrapping interval [start, N) ∪ [0, end) counts both pieces.
        count = hi - lo if start < end else total - lo + hi
        if count == 0:
            continue
        peer = sorted_ids[(lo + int(rng.integers(count))) % total]
        if peer != owner:
            table.set_dht_peer(peer, latency_ms(owner, peer))
