"""Base streaming node.

A :class:`StreamingNode` owns everything in Figure 1 of the paper that is
common to both systems: the Peer Table (via the P2P Overlay Manager), the
playback Buffer, the Data Scheduler and the Rate Controller.  A
CoolStreaming node is a plain :class:`StreamingNode` with the
``rarest_first`` scheduling policy; the ContinuStreaming node adds the
Urgent Line, the on-demand retrieval and the VoD Data Backup.

The node is a passive state machine: the :class:`~repro.core.system.
StreamingSystem` drives it round by round and enforces global bandwidth
budgets; the node only *decides* (which segments to request from whom).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional

import numpy as np

from repro.core.rate_controller import RateController
from repro.core.scheduler import DataScheduler, ScheduledRequest
from repro.dht.peer_table import PeerTable
from repro.dht.ring import IdRing
from repro.streaming.buffer import SegmentBuffer
from repro.streaming.buffermap import BufferMap
from repro.streaming.playback import PlaybackState


@dataclass
class NodeStats:
    """Lifetime counters of one node (exposed for metrics and tests)."""

    segments_scheduled: int = 0
    segments_received_scheduled: int = 0
    segments_received_prefetch: int = 0
    prefetch_attempts: int = 0
    prefetch_overdue: int = 0
    prefetch_repeated: int = 0
    rounds_participated: int = 0


class StreamingNode:
    """Common node state and behaviour.

    Args:
        node_id: ring identifier of the node.
        ring: the identifier ring shared by the overlay.
        buffer_capacity: ``B``.
        playback_rate: ``p``.
        period: scheduling period ``τ``.
        inbound_rate / outbound_rate: bandwidth capacities in segments/s.
        max_neighbors: ``M``.
        overheard_capacity: ``H``.
        policy: scheduling policy name passed to :class:`DataScheduler`.
        is_source: True only for the media source node.
    """

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
        max_neighbors: int = 5,
        overheard_capacity: int = 20,
        playback_lag: Optional[int] = None,
        stall_on_miss: bool = True,
        policy: str = "continustreaming",
        is_source: bool = False,
    ) -> None:
        self.node_id = int(node_id)
        self.ring = ring
        self.is_source = bool(is_source)
        self.inbound_rate = float(inbound_rate)
        self.outbound_rate = float(outbound_rate)
        self.buffer = SegmentBuffer(capacity=buffer_capacity)
        self.playback = PlaybackState(
            playback_rate=playback_rate, stall_on_miss=stall_on_miss
        )
        self.peer_table = PeerTable(
            owner_id=self.node_id,
            ring=ring,
            max_neighbors=max_neighbors,
            max_overheard=overheard_capacity,
        )
        self.rate_controller = RateController(
            local_inbound=self.inbound_rate, period=period
        )
        self.scheduler = DataScheduler(
            playback_rate=playback_rate,
            buffer_capacity=buffer_capacity,
            period=period,
            policy=policy,
            tiebreak_rng=np.random.default_rng(0xC0FFEE ^ self.node_id),
        )
        self.period = float(period)
        self.playback_rate = float(playback_rate)
        segments_per_round = max(1, int(round(playback_rate * period)))
        self.playback_lag = (
            int(playback_lag) if playback_lag is not None else 5 * segments_per_round
        )
        self.stats = NodeStats()
        self.alive = True
        self.join_time = 0.0
        #: segment ids requested this round via gossip scheduling (reset per round)
        self.pending_requests: set[int] = set()
        #: segment ids delivered by the data scheduler this round (reset per round)
        self.scheduled_deliveries: set[int] = set()
        #: segment ids received via pre-fetch, tagged so repeated-data detection works
        self.prefetch_tagged: set[int] = set()

    # ------------------------------------------------------------------ identity
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = type(self).__name__
        return f"<{kind} id={self.node_id} play={self.playback.play_id}>"

    @property
    def neighbors(self) -> List[int]:
        """Ids of the connected (gossip) neighbours."""
        return self.peer_table.neighbor_ids()

    # ----------------------------------------------------------------- buffering
    def buffer_map(self) -> BufferMap:
        """Snapshot of the local buffer advertised to neighbours."""
        return BufferMap.from_buffer(self.buffer)

    def has_segment(self, segment_id: int) -> bool:
        """True if the playback buffer holds the segment."""
        return segment_id in self.buffer

    def receive_segment(self, segment_id: int, *, prefetched: bool = False) -> bool:
        """Store a delivered segment; returns False if it was already expired."""
        accepted = self.buffer.add(segment_id)
        if accepted:
            if prefetched:
                self.stats.segments_received_prefetch += 1
                self.prefetch_tagged.add(segment_id)
            else:
                self.stats.segments_received_scheduled += 1
                self.scheduled_deliveries.add(segment_id)
        return accepted

    def begin_round(self) -> None:
        """Reset the per-round bookkeeping before a new scheduling period."""
        self.pending_requests = set()
        self.scheduled_deliveries = set()
        self.stats.rounds_participated += 1

    # ----------------------------------------------------------------- playback
    def maybe_start_playback(
        self,
        startup_segments: int,
        follow_id: Optional[int] = None,
        newest_available_id: Optional[int] = None,
    ) -> bool:
        """Start playback once enough data is buffered.

        The node buffers ``startup_segments`` first (the startup delay of
        CoolStreaming-style systems) and then begins playback at its *oldest*
        buffered segment.  Because the pre-playback fetch window is anchored
        ``playback_lag`` behind the live edge, the oldest buffered segment of
        a newly joined node sits near its neighbours' current playback
        position — so starting there is "following the neighbours' current
        steps" — and a node that took longer to fill its startup buffer
        automatically starts with a proportionally larger safety lag.
        An explicit ``follow_id`` overrides the start position (but is never
        allowed closer to the live edge than ``startup_segments``).

        Returns True when playback is (now) running.
        """
        if self.playback.started or self.is_source:
            return self.playback.started
        if len(self.buffer) < max(1, startup_segments):
            return False
        oldest = self.buffer.oldest_id()
        if oldest is None:
            return False
        start_at = oldest
        if follow_id is not None:
            start_at = follow_id
        if newest_available_id is not None:
            start_at = min(start_at, newest_available_id - startup_segments)
            if start_at < 0:
                return False  # the stream is younger than the startup delay
        self.playback.start(max(0, start_at))
        return True

    def play_round(self, newest_available_id: Optional[int] = None) -> bool:
        """Consume one round of playback; returns True if it was continuous.

        A node that has stalled so long that it trails the live edge by more
        than its buffer can hold performs a catch-up skip (seeks back to the
        usual playback lag behind the live edge), exactly as a real viewer
        would rejoin the live position.
        """
        if not self.playback.started:
            return False
        if newest_available_id is not None:
            max_lag = self.buffer.capacity - self.playback.segments_per_round(self.period)
            if newest_available_id - self.playback.play_id > max_lag:
                self.playback.skip_forward_to(newest_available_id - self.playback_lag)
        continuous = self.playback.advance_round(
            self.buffer, self.period, newest_available_id
        )
        # Keep the FIFO window from falling behind the playback point by more
        # than the buffer capacity (old segments are useless once played).
        min_head = self.playback.play_id - self.buffer.capacity + 1
        if min_head > self.buffer.head_id:
            self.buffer.advance_head(min_head)
        return continuous

    def can_play_round(self) -> bool:
        """True if the next round of playback would be continuous."""
        return self.playback.can_play_round(self.buffer, self.period)

    # --------------------------------------------------------------- scheduling
    def interest_window(self, newest_available_id: int, window: int) -> tuple[int, int]:
        """The id range ``[lo, hi]`` the scheduler cares about this round.

        A playing node cares about everything from its playback point onward;
        a node that has not started yet targets the region ``playback_lag``
        behind the live edge (a new node "follows its neighbours' current
        steps" rather than chasing the beginning of the stream).
        """
        if self.playback.started:
            lo = self.playback.play_id
        else:
            lo = max(0, newest_available_id - self.playback_lag)
        hi = min(newest_available_id, lo + max(1, window) - 1)
        return lo, hi

    def plan_requests(
        self,
        neighbor_maps: Mapping[int, BufferMap],
        newest_available_id: int,
        window: int,
    ) -> List[ScheduledRequest]:
        """Run the data-scheduling algorithm for this round.

        A segment is *fresh* when some neighbour advertises it, the local
        buffer does not hold it, and it falls inside the interest window.
        """
        lo, hi = self.interest_window(newest_available_id, window)
        play_ref = (
            self.playback.play_id if self.playback.started else self.buffer.head_id
        )
        requests = self.scheduler.schedule(
            neighbor_maps,
            self.buffer.missing_in_range(lo, hi + 1),
            self.rate_controller.rate_of,
            play_ref,
            self.inbound_rate,
        )
        self.pending_requests = {req.segment_id for req in requests}
        self.stats.segments_scheduled += len(requests)
        return requests

    def observe_deliveries(self, delivered_per_neighbor: Mapping[int, int]) -> None:
        """Feed this round's per-neighbour delivery counts to the rate controller."""
        self.rate_controller.observe_round(delivered_per_neighbor)

    # ------------------------------------------------------------------- churn
    def mark_departed(self) -> None:
        """The node left the overlay (graceful or not)."""
        self.alive = False
