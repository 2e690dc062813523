"""Overhearing-based peer-table maintenance.

After a node has joined, the paper's overlay needs almost no dedicated
maintenance traffic: every node *overhears* the DHT routing messages that
pass through it (each message carries the ids of the nodes on its path so
far) and records the senders in the Overheard Nodes part of its Peer Table.
Connected neighbours and DHT peers are then refreshed from that list — a
failed or unproductive neighbour is replaced by the lowest-latency overheard
node, and empty or stale finger levels are filled from overheard ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.dht.peer_table import NeighborEntry, OverheardEntry, PeerTable


@dataclass
class OverhearingService:
    """Applies overheard information to a node's :class:`PeerTable`.

    Args:
        latency_of: callable mapping ``(owner_id, peer_id)`` to the one-way
            latency estimate in milliseconds.
        is_alive: callable telling whether a node id is currently alive;
            used to avoid promoting departed nodes into the table.
    """

    latency_of: Callable[[int, int], float]
    is_alive: Callable[[int], bool]

    def overhear_path(
        self, table: PeerTable, path: Iterable[int], now: float = 0.0
    ) -> int:
        """Record every node on a routing path as overheard.

        Returns the number of entries recorded.  The owner itself and dead
        nodes are skipped.
        """
        owner = table.owner_id
        recorded = 0
        for node_id in path:
            if node_id == owner or not self.is_alive(node_id):
                continue
            table.record_overheard(
                OverheardEntry(node_id, self.latency_of(owner, node_id), now)
            )
            recorded += 1
        return recorded

    def refresh(self, table: PeerTable) -> int:
        """Purge dead nodes, then refresh DHT peers from the overheard list.

        Returns the number of levels updated.
        """
        table.purge(self.is_alive)
        return table.refresh_dht_peers_from_overheard()

    def replace_failed_neighbor(
        self,
        table: PeerTable,
        failed_id: int,
        exclude: Optional[Sequence[int]] = None,
    ) -> Optional[int]:
        """Replace a failed/unproductive neighbour with the best overheard node.

        Returns the id of the replacement, or ``None`` when no suitable
        overheard node exists (the slot is then simply freed).
        """
        table.remove_neighbor(failed_id)
        banned = set(exclude or ())
        banned.update(table.neighbor_ids())
        candidate = table.lowest_latency_overheard(exclude=banned)
        if candidate is None or not self.is_alive(candidate.peer_id):
            return None
        entry = NeighborEntry(
            peer_id=candidate.peer_id,
            latency_ms=candidate.latency_ms,
            recent_supply_rate=0.0,
        )
        if table.add_neighbor(entry):
            return candidate.peer_id
        return None

    def fill_neighbor_slots(
        self,
        table: PeerTable,
        candidates: Sequence[int],
    ) -> int:
        """Fill free connected-neighbour slots from a candidate id list.

        Used at join time (candidates = contacts + bootstrap neighbours) and
        after churn.  Returns the number of neighbours added.
        """
        added = 0
        for peer_id in candidates:
            if table.neighbor_slots_free() == 0:
                break
            if peer_id == table.owner_id or table.has_neighbor(peer_id):
                continue
            if not self.is_alive(peer_id):
                continue
            entry = NeighborEntry(
                peer_id=peer_id,
                latency_ms=self.latency_of(table.owner_id, peer_id),
            )
            if table.add_neighbor(entry):
                added += 1
        return added
