"""The Urgent Line mechanism (Section 4.3).

The buffer is split by the *urgent line* at ``id_urgent = id_head + α · B``:
segments below the line that have not been received are predicted to be
missed by the gossip data scheduling and become candidates for the on-demand
DHT retrieval.  The urgent ratio ``α`` is tuned online:

* lower bound / initial value (equations (8)-(9)):
  ``α > (p / B) · max(τ, t_fetch)``;
* **overdue data** — a pre-fetched segment arrived after its deadline:
  the line was too short, so ``α ← α + p · t_hop / B``;
* **repeated data** — a pre-fetched segment was also obtained in time by the
  normal scheduling: the line was too long, so ``α ← α − p · t_hop / B``
  (never below the lower bound).

Pre-fetch is only triggered when ``0 < N_miss ≤ l``; a larger backlog is left
to the scheduler to avoid a pre-fetch traffic storm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List


@dataclass(frozen=True)
class MissPrediction:
    """Result of one urgent-line evaluation."""

    urgent_id: int
    missed_segment_ids: tuple[int, ...]
    triggered: bool

    @property
    def miss_count(self) -> int:
        return len(self.missed_segment_ids)


@dataclass
class UrgentLine:
    """Adaptive urgent-ratio state of one node.

    Attributes:
        buffer_capacity: ``B``.
        playback_rate: ``p``.
        period: scheduling period ``τ`` (seconds).
        hop_latency: ``t_hop`` (seconds).
        fetch_time: ``t_fetch`` (seconds), the expected DHT pre-fetch latency.
        prefetch_limit: ``l``, the per-period pre-fetch cap.
        alpha: current urgent ratio.
    """

    buffer_capacity: int
    playback_rate: float
    period: float
    hop_latency: float
    fetch_time: float
    prefetch_limit: int
    alpha: float = field(default=0.0)
    alpha_floor: float = field(default=0.0)
    adjustments: int = 0

    def __post_init__(self) -> None:
        if self.buffer_capacity <= 0 or self.playback_rate <= 0 or self.period <= 0:
            raise ValueError("buffer_capacity, playback_rate and period must be positive")
        if self.hop_latency < 0 or self.fetch_time < 0:
            raise ValueError("latencies must be non-negative")
        floor = (self.playback_rate / self.buffer_capacity) * max(
            self.period, self.fetch_time
        )
        self.alpha_floor = floor
        if self.alpha <= 0.0:
            self.alpha = floor

    # ------------------------------------------------------------------ queries
    @property
    def alpha_step(self) -> float:
        """Per-adjustment change of ``α``: ``p · t_hop / B``."""
        return self.playback_rate * self.hop_latency / self.buffer_capacity

    def urgent_span(self) -> int:
        """Number of segment ids covered by the urgent region (``α · B``)."""
        return max(1, int(round(self.alpha * self.buffer_capacity)))

    def urgent_id(self, head_id: int) -> int:
        """``id_urgent = id_head + α · B`` (equation (4))."""
        return head_id + self.urgent_span()

    # --------------------------------------------------------------- prediction
    def predict(
        self,
        head_id: int,
        held_ids: Iterable[int],
        newest_available_id: int,
        already_scheduled: Iterable[int] = (),
    ) -> MissPrediction:
        """Predict the segments the scheduler is about to miss.

        Args:
            head_id: reference id of the buffer head / playback point.
            held_ids: segment ids currently in the buffer.
            newest_available_id: newest segment id that exists in the system
                (a segment not yet generated cannot be "missed").
            already_scheduled: ids already requested this period by the data
                scheduler (they are not predicted missed).

        Returns:
            The missed ids in ascending order and whether the on-demand
            retrieval should run (``0 < N_miss ≤ l``).
        """
        held = set(held_ids)
        scheduled = set(already_scheduled)
        upper = min(self.urgent_id(head_id), newest_available_id)
        missed: List[int] = [
            sid
            for sid in range(max(0, head_id), upper + 1)
            if sid not in held and sid not in scheduled
        ]
        triggered = 0 < len(missed) <= self.prefetch_limit
        return MissPrediction(
            urgent_id=self.urgent_id(head_id),
            missed_segment_ids=tuple(missed),
            triggered=triggered,
        )

    # --------------------------------------------------------------- adaptation
    def record_overdue(self, count: int = 1) -> float:
        """Pre-fetched segments arrived late: enlarge the urgent region."""
        if count > 0:
            self.alpha += self.alpha_step * count
            self.adjustments += count
        return self.alpha

    def record_repeated(self, count: int = 1) -> float:
        """Pre-fetched segments also arrived via scheduling: shrink the region."""
        if count > 0:
            self.alpha = max(self.alpha_floor, self.alpha - self.alpha_step * count)
            self.adjustments += count
        return self.alpha

    def update(self, overdue: int, repeated: int) -> float:
        """Apply both adaptation rules for one period and return ``α``."""
        self.record_overdue(overdue)
        self.record_repeated(repeated)
        return self.alpha
