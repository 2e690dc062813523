"""VoD Data Backup store.

Every node stores, in addition to its playback buffer, the data segments it
is *responsible* to back up (equation (5)): segment ``id`` belongs to node
``n`` iff ``hash(id · i) % N ∈ [n, n1)`` for some ``i = 1..k``, where ``n1``
is ``n``'s clockwise-closest DHT peer.  Other nodes can retrieve those
segments through the DHT for as long as the node is alive.

On a graceful leave, the node hands its backup store over to the node
counter-clockwise closest to it; on an abrupt failure nothing is handed over
— old backups gradually become useless and the counter-clockwise neighbour
takes over responsibility for new segments, as the paper argues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.dht.hashing import is_backup_responsible
from repro.dht.ring import IdRing
from repro.streaming.segment import Segment, SegmentStore


@dataclass
class VodBackupStore:
    """Backup responsibility and storage for one node.

    Attributes:
        node_id: ring id of the owning node.
        ring: the identifier ring.
        replicas: ``k``, number of backup copies per segment.
    """

    node_id: int
    ring: IdRing
    replicas: int
    store: SegmentStore = field(default_factory=SegmentStore)

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

    def maybe_store(
        self, segment: Segment, successor_id: Optional[int]
    ) -> bool:
        """Store ``segment`` if this node is responsible for it.

        Returns True when the segment was (already or newly) stored.
        """
        if segment.segment_id in self.store:
            return True
        if not self.is_responsible(segment.segment_id, successor_id):
            return False
        self.store.add(segment)
        return True

    def force_store(self, segment: Segment) -> None:
        """Store a segment regardless of responsibility (handover path)."""
        self.store.add(segment)

    # ----------------------------------------------------------------- queries
    def __contains__(self, segment_id: int) -> bool:
        return segment_id in self.store

    def __len__(self) -> int:
        return len(self.store)

    def get(self, segment_id: int) -> Optional[Segment]:
        """The backed-up segment, or ``None``."""
        return self.store.get(segment_id)

    def ids(self) -> List[int]:
        """Sorted ids of the backed-up segments."""
        return self.store.ids()

    # --------------------------------------------------------------- lifecycle
    def handover_contents(self) -> List[Segment]:
        """Return (and keep) everything stored, for a graceful-leave handover.

        The departing node sends these to the node counter-clockwise closest
        to it; the caller is responsible for delivering them.
        """
        return [self.store.get(sid) for sid in self.store.ids()]  # type: ignore[misc]

    def absorb_handover(self, segments: Iterable[Segment]) -> int:
        """Accept segments handed over by a departing predecessor."""
        count = 0
        for segment in segments:
            self.store.add(segment)
            count += 1
        return count

    def prune_expired(self, oldest_useful_id: int) -> int:
        """Drop backups older than ``oldest_useful_id`` (past every deadline)."""
        return self.store.prune_older_than(oldest_useful_id)

    def total_bits(self) -> int:
        """Total stored payload size in bits."""
        return self.store.total_bits()
