"""Standalone DHT network used for the Figure 3 experiment.

Figure 3 evaluates the loosely organised DHT on its own: for a fixed id space
``N = 8192`` and a varying number of joined nodes ``n < N``, it plots the
average routing hops (close to ``log2(n) / 2``) and the query success rate
(close to 1.0 even when the overlay is sparse).

The :class:`DhtNetwork` here builds such an overlay: every joined node fills
each finger level with a random alive node from the level interval (the
"loose" organisation — any node in ``[n + 2^(i-1), n + 2^i)`` is acceptable)
and greedy routing is performed over those tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.dht.peer_table import PeerTable, fill_fingers
from repro.dht.ring import IdRing
from repro.dht.routing import GreedyRouter, RouteOutcome


@dataclass(frozen=True)
class LookupResult:
    """Aggregate statistics of a batch of random lookups."""

    lookups: int
    average_hops: float
    success_rate: float
    max_hops: int


class DhtNetwork:
    """A population of DHT nodes with loosely organised finger tables.

    Args:
        id_space: size ``N`` of the identifier space.
        rng: random stream used for id assignment and finger selection.
    """

    def __init__(self, id_space: int, rng: Optional[np.random.Generator] = None) -> None:
        self.ring = IdRing(id_space)
        self._rng = rng or np.random.default_rng(0)
        self._tables: Dict[int, PeerTable] = {}
        self._sorted_ids: List[int] = []
        self.router = GreedyRouter(self.ring, self._peers_of)

    # ------------------------------------------------------------------ members
    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._tables

    def node_ids(self) -> List[int]:
        """Sorted ids of the joined nodes."""
        return list(self._sorted_ids)

    def _peers_of(self, node_id: int) -> Sequence[int]:
        table = self._tables.get(node_id)
        if table is None:
            return ()
        return table.routing_candidates()

    # -------------------------------------------------------------------- build
    def populate(self, num_nodes: int, max_neighbors: int = 5) -> List[int]:
        """Join ``num_nodes`` nodes with distinct random ids and build fingers.

        Returns the assigned ids (sorted).  Populating twice replaces the
        previous population.
        """
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if num_nodes > self.ring.size:
            raise ValueError("cannot join more nodes than the id space holds")
        ids = self._rng.choice(self.ring.size, size=num_nodes, replace=False)
        self._tables = {
            int(node_id): PeerTable(
                owner_id=int(node_id), ring=self.ring, max_neighbors=max_neighbors
            )
            for node_id in ids
        }
        self._sorted_ids = sorted(self._tables)
        self.rebuild_fingers()
        return list(self._sorted_ids)

    def add_node(self, node_id: int, max_neighbors: int = 5) -> PeerTable:
        """Join one node with a specific id and build its fingers."""
        node_id = self.ring.normalize(node_id)
        if node_id in self._tables:
            raise ValueError(f"node {node_id} already joined")
        table = PeerTable(owner_id=node_id, ring=self.ring, max_neighbors=max_neighbors)
        self._tables[node_id] = table
        self._sorted_ids = sorted(self._tables)
        self._fill_fingers(table)
        return table

    def remove_node(self, node_id: int) -> None:
        """Remove a node; other tables keep (now stale) references to it."""
        self._tables.pop(node_id, None)
        self._sorted_ids = sorted(self._tables)

    def rebuild_fingers(self) -> None:
        """(Re)build every node's finger table from the current population."""
        for table in self._tables.values():
            table.clear_dht_peers()
            self._fill_fingers(table)

    def _fill_fingers(self, table: PeerTable) -> None:
        """Fill each level with a random alive node from the level interval."""
        if len(self._sorted_ids) > 1:
            fill_fingers(table, self._sorted_ids, self._rng, lambda owner, peer: 50.0)

    # ------------------------------------------------------------------ lookups
    def responsible_node(self, key: int) -> Optional[int]:
        """Globally correct owner of ``key`` (counter-clockwise closest node)."""
        if not self._sorted_ids:
            return None
        ids = self._sorted_ids
        key = self.ring.normalize(key)
        # Owner n satisfies: n is the largest id <= key, wrapping to the
        # largest id overall when key precedes every node id.
        import bisect

        idx = bisect.bisect_right(ids, key) - 1
        return ids[idx] if idx >= 0 else ids[-1]

    def lookup(self, origin: int, key: int) -> RouteOutcome:
        """Greedy lookup of ``key`` starting at ``origin``."""
        return self.router.route(origin, key, responsible=self.responsible_node(key))

    def run_random_lookups(
        self, num_lookups: int, rng: Optional[np.random.Generator] = None
    ) -> LookupResult:
        """Issue ``num_lookups`` lookups from random origins to random keys."""
        if not self._sorted_ids:
            raise RuntimeError("populate() the network before running lookups")
        rng = rng or self._rng
        hops: List[int] = []
        successes = 0
        ids = self._sorted_ids
        for _ in range(num_lookups):
            origin = ids[int(rng.integers(len(ids)))]
            key = int(rng.integers(self.ring.size))
            outcome = self.lookup(origin, key)
            hops.append(outcome.hops)
            if outcome.success:
                successes += 1
        return LookupResult(
            lookups=num_lookups,
            average_hops=float(np.mean(hops)) if hops else 0.0,
            success_rate=successes / num_lookups if num_lookups else 0.0,
            max_hops=int(max(hops)) if hops else 0,
        )
