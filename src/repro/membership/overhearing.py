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
from typing import Callable, List, Optional, Sequence, Tuple

from repro.dht.peer_table import NeighborEntry, PeerTable


@dataclass
class OverhearingService:
    """Applies overheard information to a node's :class:`PeerTable`.

    Args:
        latency_of: callable mapping ``(owner_id, peer_id)`` to the one-way
            latency estimate in milliseconds; symmetric in its arguments.
        is_alive: callable telling whether a node id is currently alive;
            used to avoid promoting departed nodes into the table.
        table_of: callable mapping an alive node id to its peer table; needed
            only to let a whole path overhear itself (:meth:`overhear_path`
            without ``table``).
    """

    latency_of: Callable[[int, int], float]
    is_alive: Callable[[int], bool]
    table_of: Optional[Callable[[int], PeerTable]] = None

    def overhear_path(self, path: Sequence[int], table: Optional[PeerTable] = None) -> None:
        """Record the alive nodes of a routing path as overheard.

        With ``table``, that one table overhears the path (a live peer
        handling the message).  Without, every alive node on the path
        overhears the others — the simulator's whole walk at once.  Each
        path node's liveness is read once, and each pair's latency is
        computed once (it is symmetric).  The owner itself is skipped.
        """
        alive = [node_id for node_id in path if self.is_alive(node_id)]
        latency_of = self.latency_of
        if table is not None:
            owner = table.owner_id
            table.record_overheard(
                [(node_id, latency_of(owner, node_id)) for node_id in alive if node_id != owner]
            )
            return
        assert self.table_of is not None, "a whole path overhears only through table_of"
        # heard[i]: what alive[i] hears, in path order — the pairs before it
        # are appended by the earlier rows, the pairs after it by its own.
        heard: List[List[Tuple[int, float]]] = [[] for _ in alive]
        for i, a in enumerate(alive):
            row = heard[i]
            for j in range(i + 1, len(alive)):
                b = alive[j]
                latency = latency_of(a, b)
                row.append((b, latency))
                heard[j].append((a, latency))
        for owner, row in zip(alive, heard):
            self.table_of(owner).record_overheard(row)

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
        if candidate is None or not self.is_alive(candidate[0]):
            return None
        if table.add_neighbor(NeighborEntry(*candidate)):
            return candidate[0]
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
