"""Playback state and continuity accounting.

The paper's headline metric is *playback continuity*: per scheduling round,
the fraction of nodes that have collected sufficient data segments to play
back during that round (Section 5.3).  This is stricter than the per-segment
"continuity index" used by earlier systems — a node either can or cannot keep
playing this round.

A node's playback pointer ``idplay`` advances by ``p`` segments per second
whenever the node can play; when the required segments are missing the
playback stalls (the pointer still advances past segments whose deadline has
expired, modelling a viewer who skips, which matches the sliding-window
buffer head used by CoolStreaming-style systems).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.streaming.buffer import SegmentBuffer


@dataclass
class PlaybackState:
    """Per-node playback bookkeeping.

    Attributes:
        playback_rate: segments consumed per second (``p``).
        play_id: id of the segment currently being played (``idplay``).
        started: whether playback has begun.
        segments_played: total segments played on time.
        segments_missed: total segments whose deadline passed while missing.
    """

    playback_rate: float
    play_id: int = 0
    started: bool = False
    stall_on_miss: bool = True
    segments_played: int = 0
    segments_missed: int = 0
    stall_rounds: int = 0
    catchup_skips: int = 0

    def start(self, play_id: int) -> None:
        """Begin playback at ``play_id`` (a new node follows its neighbours)."""
        self.play_id = max(0, int(play_id))
        self.started = True

    def segments_per_round(self, round_duration: float) -> int:
        """How many segments must be consumed in one round of ``round_duration`` s."""
        return max(1, int(round(self.playback_rate * round_duration)))

    def can_play_round(self, buffer: SegmentBuffer, round_duration: float) -> bool:
        """True if the buffer holds every segment needed for the next round."""
        if not self.started:
            return False
        need = self.segments_per_round(round_duration)
        return buffer.has_range(self.play_id, need)

    def advance_round(
        self,
        buffer: SegmentBuffer,
        round_duration: float,
        newest_available_id: Optional[int] = None,
    ) -> bool:
        """Consume one round's worth of segments.

        The pointer never passes the live edge — a player cannot consume
        segments the source has not generated yet, so when
        ``newest_available_id`` is given the pointer is clamped to one past
        it.

        Two playback disciplines are supported:

        * ``stall_on_miss=True`` (default) — the player behaves like a real
          streaming client: if any segment of the round is missing it stalls
          (rebuffers), the pointer stays put, and the round counts as
          discontinuous.  The paper's playback-continuity metric — the
          fraction of nodes that "have collected sufficient data segments to
          playback" each round — is exactly the fraction of non-stalled nodes
          under this discipline.
        * ``stall_on_miss=False`` — hard live deadlines: the pointer advances
          regardless and missing segments are skipped (counted as missed).

        Returns True if the round was played continuously.
        """
        if not self.started:
            return False
        need = self.segments_per_round(round_duration)
        if newest_available_id is not None:
            need = max(0, min(need, newest_available_id + 1 - self.play_id))
        if need == 0:
            return True  # caught up with the live edge: nothing to play yet
        missed = buffer.missing_bits(self.play_id, need).bit_count()
        played = need - missed
        continuous = missed == 0
        if self.stall_on_miss and not continuous:
            self.stall_rounds += 1
            self.segments_missed += missed
            return False
        self.segments_played += played
        self.segments_missed += missed
        self.play_id += need
        if not continuous:
            self.stall_rounds += 1
        return continuous

    def skip_forward_to(self, play_id: int) -> None:
        """Seek forward (catch-up skip) after falling too far behind the live
        edge; the skipped-over segments are not counted as played."""
        if play_id > self.play_id:
            self.catchup_skips += 1
            self.play_id = int(play_id)


@dataclass
class ContinuityTracker:
    """System-wide playback-continuity time series.

    For every round we record the fraction of started, alive nodes that could
    play continuously that round, plus cumulative traffic counters used by the
    overhead metrics.
    """

    round_duration: float = 1.0
    continuity: List[float] = field(default_factory=list)
    nodes_sampled: List[int] = field(default_factory=list)
    times: List[float] = field(default_factory=list)

    def record_round(self, time: float, playing: int, total: int) -> float:
        """Record one round; returns the continuity value recorded."""
        value = 1.0 if total == 0 else playing / total
        self.times.append(float(time))
        self.continuity.append(value)
        self.nodes_sampled.append(int(total))
        return value

    def stable_phase_continuity(self, skip_rounds: Optional[int] = None) -> float:
        """Mean continuity over the stable phase.

        The paper observes the system enters its stable phase within ~30 s;
        by default we skip the first two thirds of the recorded rounds and
        average the rest.
        """
        if not self.continuity:
            return 0.0
        if skip_rounds is None:
            skip_rounds = (2 * len(self.continuity)) // 3
        tail = self.continuity[skip_rounds:]
        if not tail:
            tail = self.continuity[-1:]
        return float(sum(tail) / len(tail))

    def time_to_reach(self, threshold: float) -> Optional[float]:
        """First recorded time at which continuity reached ``threshold``."""
        for time, value in zip(self.times, self.continuity):
            if value >= threshold:
                return time
        return None

    def as_series(self) -> Dict[str, List[float]]:
        """Return the track as ``{"time": [...], "continuity": [...]}``."""
        return {"time": list(self.times), "continuity": list(self.continuity)}
