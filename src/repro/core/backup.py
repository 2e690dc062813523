"""VoD Data Backup store.

Every node stores, in addition to its playback buffer, the data segments it
is *responsible* to back up (equation (5)): segment ``id`` belongs to node
``n`` iff ``hash(id · i) % N ∈ [n, n1)`` for some ``i = 1..k``, where ``n1``
is ``n``'s clockwise-closest DHT peer.  Other nodes can retrieve those
segments through the DHT for as long as the node is alive.  A segment is its
id and every one is the run's ``segment_bits`` long, so the store is a set
of ids.

On a graceful leave, the node hands its backup store over to the node
counter-clockwise closest to it; on an abrupt failure nothing is handed over
— old backups gradually become useless and the counter-clockwise neighbour
takes over responsibility for new segments, as the paper argues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

from repro.dht.hashing import is_backup_responsible
from repro.dht.ring import IdRing


@dataclass
class VodBackupStore:
    """Backup responsibility and storage for one node.

    Attributes:
        node_id: ring id of the owning node.
        ring: the identifier ring.
        replicas: ``k``, number of backup copies per segment.
        store: the backed-up segment ids.
    """

    node_id: int
    ring: IdRing
    replicas: int
    store: Set[int] = field(default_factory=set)

    # ----------------------------------------------------------- responsibility
    def is_responsible(self, segment_id: int, successor_id: Optional[int]) -> bool:
        """True if this node must back up ``segment_id``.

        Args:
            successor_id: the node's clockwise-closest DHT peer (``n1``); when
                the node knows no DHT peer it conservatively takes
                responsibility for everything it receives (it may be alone).
        """
        if successor_id is None:
            return True
        return is_backup_responsible(
            segment_id, self.replicas, self.ring.size, self.node_id, successor_id
        )

    def maybe_store(self, segment_id: int, successor_id: Optional[int]) -> bool:
        """Store ``segment_id`` if this node is responsible for it.

        Returns True when the segment was (already or newly) stored.
        """
        if segment_id in self.store:
            return True
        if not self.is_responsible(segment_id, successor_id):
            return False
        self.store.add(segment_id)
        return True

    # ----------------------------------------------------------------- queries
    def __contains__(self, segment_id: int) -> bool:
        return segment_id in self.store

    def __len__(self) -> int:
        return len(self.store)

    def ids(self) -> List[int]:
        """Sorted ids of the backed-up segments."""
        return sorted(self.store)

    # --------------------------------------------------------------- lifecycle
    def handover_contents(self) -> List[int]:
        """Return (and keep) every stored id, sorted, for a graceful-leave
        handover.

        The departing node sends these to the node counter-clockwise closest
        to it; the caller is responsible for delivering them.
        """
        return self.ids()

    def absorb_handover(self, segment_ids: Sequence[int]) -> int:
        """Accept the ids handed over by a departing predecessor, whatever
        this node's own responsibility; returns how many were handed over."""
        self.store.update(segment_ids)
        return len(segment_ids)
