"""The ContinuStreaming node.

Adds to the base node everything Section 4 describes on top of the
CoolStreaming-style gossip pull:

* the urgency + rarity priority (inherited via the ``"continustreaming"``
  scheduling policy of :class:`~repro.core.scheduler.DataScheduler`),
* the :class:`~repro.core.urgent_line.UrgentLine` predictor with its
  adaptively tuned urgent ratio ``α``,
* the :class:`~repro.core.backup.VodBackupStore` holding the ids of the
  segments this node must back up for the DHT (equation (5)) — a segment
  is its id, ``segment_bits`` long — and
* the bookkeeping that drives the on-demand retrieval (Algorithm 2): which
  segments were pre-fetched, whether they arrived overdue, and whether they
  later turned out to be *repeated* (also delivered by the scheduler).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.backup import VodBackupStore
from repro.core.node import REPEATED, StreamingNode
from repro.core.urgent_line import MissPrediction, UrgentLine
from repro.dht.ring import IdRing


class ContinuStreamingNode(StreamingNode):
    """A node running the full ContinuStreaming protocol."""

    def __init__(
        self,
        node_id: int,
        ring: IdRing,
        *,
        buffer_capacity: int,
        playback_rate: float,
        period: float,
        inbound_rate: float,
        outbound_rate: float,
        backup_replicas: int,
        prefetch_limit: int,
        hop_latency: float,
        fetch_time: float,
        max_neighbors: int = 5,
        overheard_capacity: int = 20,
        playback_lag: Optional[int] = None,
        stall_on_miss: bool = True,
        is_source: bool = False,
    ) -> None:
        super().__init__(
            node_id,
            ring,
            buffer_capacity=buffer_capacity,
            playback_rate=playback_rate,
            period=period,
            inbound_rate=inbound_rate,
            outbound_rate=outbound_rate,
            max_neighbors=max_neighbors,
            overheard_capacity=overheard_capacity,
            playback_lag=playback_lag,
            stall_on_miss=stall_on_miss,
            is_source=is_source,
        )
        self.urgent_line = UrgentLine(
            buffer_capacity=buffer_capacity,
            playback_rate=playback_rate,
            period=period,
            hop_latency=hop_latency,
            fetch_time=fetch_time,
            prefetch_limit=prefetch_limit,
        )
        self.backup = VodBackupStore(
            node_id=self.node_id, ring=ring, replicas=backup_replicas
        )
        #: pre-fetches in flight: segment id -> (arrival time, playback deadline)
        self._prefetch_arrivals: Dict[int, tuple[float, float]] = {}

    # --------------------------------------------------------------- urgent line
    def predict_missed(
        self, newest_available_id: int, exclude_scheduled: bool = False
    ) -> MissPrediction:
        """Run the urgent-line prediction for this round.

        The reference point (``id_head`` in equation (4)) is the playback
        position once playback has started — the buffer head trails it by
        construction — and the buffer head before that.

        The prediction normally runs *in parallel* with the data scheduler
        (both look at the start-of-period buffer state), which is what allows
        "repeated data" to occur and drive ``α`` down; pass
        ``exclude_scheduled=True`` to ablate that behaviour.
        """
        head = (
            self.playback.play_id if self.playback.started else self.buffer.head_id
        )
        return self.urgent_line.predict(
            head_id=head,
            held_ids=self.buffer,
            newest_available_id=newest_available_id,
            already_scheduled=self.pending_requests if exclude_scheduled else (),
        )

    # ------------------------------------------------------------------ backups
    def consider_backup(self, segment_id: int) -> bool:
        """Store ``segment_id`` in the VoD backup if equation (5) says so."""
        return self.backup.maybe_store(segment_id, self.peer_table.closest_dht_peer())

    def serves_segment(self, segment_id: int) -> bool:
        """A backup holder answers from its VoD backup *or* its playback
        buffer (the paper's case analysis only rules out segments it never
        received)."""
        return segment_id in self.backup or segment_id in self.buffer

    # ----------------------------------------------------------------- pre-fetch
    def deadline_of(self, segment_id: int, now: float) -> float:
        """Wall-clock playback deadline of ``segment_id`` for this node.

        The segment is needed when the playback pointer reaches it, i.e.
        ``(segment_id - play_id) / p`` seconds from now (a segment the pointer
        has already passed is due immediately).
        """
        if not self.playback.started:
            return now + self.period
        return now + max(0.0, (segment_id - self.playback.play_id) / self.playback_rate)

    def record_prefetch(
        self, segment_id: int, arrival_time: float, deadline: float
    ) -> None:
        """Note a pre-fetch in flight: it completes at ``arrival_time`` and the
        player needs the segment by ``deadline``."""
        self.stats.prefetch_attempts += 1
        self._prefetch_arrivals[segment_id] = (float(arrival_time), float(deadline))

    def settle_prefetches(self, now: float) -> tuple[int, int]:
        """Resolve completed pre-fetches and adapt ``α``.

        Returns ``(overdue, repeated)`` counts for this settlement:

        * *overdue* — the pre-fetch completed after the segment's playback
          deadline (Case 1 of the α update: enlarge the urgent region);
        * *repeated* — the segment was also delivered by the data scheduler
          before its deadline (Case 2: shrink the urgent region).
        """
        overdue = 0
        repeated = 0
        settled: List[int] = []
        for segment_id, (arrival, deadline) in self._prefetch_arrivals.items():
            if arrival > now:
                continue  # still in flight
            settled.append(segment_id)
            if segment_id in self.scheduled_deliveries:
                repeated += 1
                continue
            if arrival > deadline:
                overdue += 1
        for segment_id in settled:
            del self._prefetch_arrivals[segment_id]
        self.stats.prefetch_overdue += overdue
        self.stats.prefetch_repeated += repeated
        self.urgent_line.update(overdue=overdue, repeated=repeated)
        return overdue, repeated

    def record_lookup(self, outcome: str, walks: int) -> None:
        """Count one decided lookup: its outcome (a ``LOOKUP_OUTCOMES``
        counter) and the DHT walks it made.  A repeated lookup is also the
        paper's repeated-data case (:meth:`record_repeated_prefetch`)."""
        stats = self.stats
        setattr(stats, outcome, getattr(stats, outcome) + 1)
        stats.lookup_walks += walks
        if outcome == REPEATED:
            self.record_repeated_prefetch()

    def record_repeated_prefetch(self) -> None:
        """A lookup ended with the segment already delivered by gossip.

        The paper's "repeated data" case: the routing cost is spent, the
        download is skipped and the urgent ratio ``α`` shrinks one step.
        """
        self.stats.prefetch_repeated += 1
        self.urgent_line.record_repeated(1)

    # ------------------------------------------------------------------ handover
    def handover_backup(self) -> List[int]:
        """Graceful-leave handover: the backed-up ids to pass counter-clockwise."""
        return self.backup.handover_contents()

    def absorb_handover(self, segment_ids: Sequence[int]) -> int:
        """Absorb the backup ids of a departing predecessor."""
        return self.backup.absorb_handover(segment_ids)
