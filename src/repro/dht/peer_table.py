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

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.dht.ring import IdRing


@dataclass(frozen=True)
class NeighborEntry:
    """A connected (gossip) neighbour row of the Peer Table."""

    peer_id: int
    latency_ms: float
    recent_supply_rate: float = 0.0  # segments/s supplied to us recently

    def with_supply_rate(self, rate: float) -> "NeighborEntry":
        """Copy of the entry with an updated supply rate."""
        return replace(self, recent_supply_rate=float(rate))


@dataclass(frozen=True)
class DhtPeerEntry:
    """A DHT peer row: the level-``i`` finger of the local node."""

    level: int
    peer_id: int
    latency_ms: float


@dataclass(slots=True)
class OverheardEntry:
    """A recently overheard node (from routing messages passing by).

    A value like its frozen siblings, but slotted instead: one is built
    per node of every overheard routing path, and a frozen ``__init__``
    pays an ``object.__setattr__`` call per field.
    """

    peer_id: int
    latency_ms: float
    overheard_at: float = 0.0


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
    _neighbors: Dict[int, NeighborEntry] = field(
        default_factory=dict, init=False, repr=False
    )
    _dht_peers: Dict[int, DhtPeerEntry] = field(  # level -> entry
        default_factory=dict, init=False, repr=False
    )
    #: peer id -> entry, oldest first (dicts keep insertion order).
    _overheard: Dict[int, OverheardEntry] = field(
        default_factory=dict, init=False, repr=False
    )
    #: cached :meth:`routing_candidates`; ``None`` = recompute on next use.
    _candidates: Optional[Tuple[int, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def neighbors(self) -> Mapping[int, NeighborEntry]:
        """Read-only view of the connected neighbours (peer id -> entry)."""
        return MappingProxyType(self._neighbors)

    @property
    def dht_peers(self) -> Mapping[int, DhtPeerEntry]:
        """Read-only view of the DHT peers (level -> entry)."""
        return MappingProxyType(self._dht_peers)

    @property
    def overheard(self) -> List[OverheardEntry]:
        """The overheard nodes, oldest first (a copy)."""
        return list(self._overheard.values())

    # ------------------------------------------------------- connected neighbours
    def neighbor_ids(self) -> List[int]:
        """Ids of the connected neighbours (sorted)."""
        return sorted(self._neighbors)

    def has_neighbor(self, peer_id: int) -> bool:
        return peer_id in self._neighbors

    def neighbor_slots_free(self) -> int:
        """How many more connected neighbours can be added."""
        return max(0, self.max_neighbors - len(self._neighbors))

    def add_neighbor(self, entry: NeighborEntry, *, allow_overflow: bool = False) -> bool:
        """Add a connected neighbour if it is new and there is a free slot.

        ``allow_overflow`` admits it past ``max_neighbors`` — the overlay uses
        that to keep partnerships symmetric when the other end is full.
        """
        if entry.peer_id == self.owner_id or entry.peer_id in self._neighbors:
            return False
        if len(self._neighbors) >= self.max_neighbors and not allow_overflow:
            return False
        self._neighbors[entry.peer_id] = entry
        self._candidates = None
        return True

    def remove_neighbor(self, peer_id: int) -> Optional[NeighborEntry]:
        """Drop a connected neighbour (returns the removed entry, if any)."""
        removed = self._neighbors.pop(peer_id, None)
        if removed is not None:
            self._candidates = None
        return removed

    def record_supply(self, peer_id: int, rate: float) -> None:
        """Update the recent supply rate of a connected neighbour."""
        entry = self._neighbors.get(peer_id)
        if entry is not None:
            self._neighbors[peer_id] = entry.with_supply_rate(rate)

    def replace_neighbor(self, old_id: int, new_entry: NeighborEntry) -> bool:
        """Replace a failed/unproductive neighbour with a new one."""
        if new_entry.peer_id == self.owner_id or new_entry.peer_id in self._neighbors:
            return False
        self.remove_neighbor(old_id)
        return self.add_neighbor(new_entry)

    # ----------------------------------------------------------------- DHT peers
    def dht_peer_ids(self) -> List[int]:
        """Ids of the current DHT peers (ordered by level)."""
        return [self._dht_peers[level].peer_id for level in sorted(self._dht_peers)]

    def _install_dht_peer(self, level: int, peer_id: int, latency_ms: float) -> None:
        current = self._dht_peers.get(level)
        if current is None or current.peer_id != peer_id:
            self._candidates = None  # a latency refresh keeps the id set
        self._dht_peers[level] = DhtPeerEntry(
            level=level, peer_id=peer_id, latency_ms=latency_ms
        )

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
        stale = [lvl for lvl, entry in self._dht_peers.items() if entry.peer_id == peer_id]
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
        return self._dht_peers[min(self._dht_peers)].peer_id

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
            ids = {entry.peer_id for entry in self._dht_peers.values()}
            ids.update(self._neighbors)
            ids.discard(self.owner_id)
            candidates = self._candidates = tuple(sorted(ids))
        return candidates

    # ------------------------------------------------------------ overheard nodes
    def overheard_ids(self) -> List[int]:
        return list(self._overheard)

    def record_overheard(self, entry: OverheardEntry) -> None:
        """Record an overheard node, keeping at most ``max_overheard`` entries.

        Newest entries are kept at the end; re-hearing a node refreshes its
        position and latency estimate, and the oldest entries are dropped
        once the list is over capacity.
        """
        if entry.peer_id == self.owner_id:
            return
        overheard = self._overheard
        overheard.pop(entry.peer_id, None)
        overheard[entry.peer_id] = entry
        while len(overheard) > self.max_overheard:
            del overheard[next(iter(overheard))]

    def forget_overheard(self, peer_id: int) -> None:
        """Drop a departed node from the overheard list."""
        self._overheard.pop(peer_id, None)

    def lowest_latency_overheard(
        self, exclude: Optional[Iterable[int]] = None
    ) -> Optional[OverheardEntry]:
        """The overheard node with the lowest latency, excluding ``exclude``."""
        banned = set(exclude or ())
        banned.add(self.owner_id)
        candidates = [e for e in self._overheard.values() if e.peer_id not in banned]
        if not candidates:
            return None
        return min(candidates, key=lambda e: (e.latency_ms, e.peer_id))

    # ------------------------------------------------------------------- refresh
    def purge(self, is_alive: Callable[[int], bool]) -> None:
        """Drop the nodes ``is_alive`` rejects from every part of the table."""
        for peer_id in [p for p in self._neighbors if not is_alive(p)]:
            self.remove_neighbor(peer_id)
        dead_levels = [
            lvl for lvl, entry in self._dht_peers.items() if not is_alive(entry.peer_id)
        ]
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
        for entry in self._overheard.values():
            level = ((entry.peer_id - owner) % size).bit_length()  # ring.level_of
            if level < 1 or level > bits:
                continue
            current = self._dht_peers.get(level)
            if current is None or current.peer_id == entry.peer_id:
                self._install_dht_peer(level, entry.peer_id, entry.latency_ms)
                updated += 1
        return updated

    def adopt_base_table(self, other: "PeerTable") -> None:
        """Use another node's table as the base of this one (join bootstrap).

        The joining node copies the bootstrap node's DHT peers (re-levelled
        relative to itself) and treats its neighbours as overheard candidates.
        """
        for entry in other._dht_peers.values():
            self.set_dht_peer(entry.peer_id, entry.latency_ms)
        for neigh in other._neighbors.values():
            self.record_overheard(
                OverheardEntry(peer_id=neigh.peer_id, latency_ms=neigh.latency_ms)
            )
        self.record_overheard(
            OverheardEntry(peer_id=other.owner_id, latency_ms=0.0)
        )
        self.refresh_dht_peers_from_overheard()
