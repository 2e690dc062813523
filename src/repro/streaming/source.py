"""Media source.

The source node generates ``p`` new segments per simulated second and serves
them to its connected neighbours like any other supplier, except that it has
zero inbound rate and a much larger outbound rate (``I = 100`` segments/s in
the paper's setup).  A generated segment is its id; every one is
``segment_bits`` long.
"""

from __future__ import annotations

from typing import List

from repro.streaming.segment import DEFAULT_SEGMENT_BITS


class MediaSource:
    """Generates the stream of data segments at a fixed playback rate.

    Attributes:
        playback_rate: segments generated per second (``p``).
        segment_bits: size of every segment in bits.
    """

    def __init__(
        self,
        playback_rate: float = 10.0,
        segment_bits: int = DEFAULT_SEGMENT_BITS,
        start_time: float = 0.0,
    ) -> None:
        if playback_rate <= 0:
            raise ValueError("playback_rate must be positive")
        self.playback_rate = float(playback_rate)
        self.segment_bits = int(segment_bits)
        self.start_time = float(start_time)
        self._generated_up_to = -1  # highest segment id generated so far

    @property
    def newest_segment_id(self) -> int:
        """Highest segment id generated so far (-1 before the first one)."""
        return self._generated_up_to

    def segments_available_at(self, time: float) -> int:
        """Number of segments that exist at simulated ``time``.

        Segment ``i`` is generated at ``start_time + i / p``, so at time ``t``
        the ids ``0 .. floor((t - start_time) * p)`` exist.
        """
        if time < self.start_time:
            return 0
        return int((time - self.start_time) * self.playback_rate) + 1

    def generate_until(self, time: float) -> List[int]:
        """Generate every segment whose origin time is ``<= time``.

        Returns the new segment ids in order.  Idempotent: calling twice
        with the same time generates nothing the second time.
        """
        first = self._generated_up_to + 1
        self._generated_up_to = max(self._generated_up_to, self.segments_available_at(time) - 1)
        return list(range(first, self._generated_up_to + 1))

    def has_segment(self, segment_id: int) -> bool:
        """True if the source has generated ``segment_id`` already."""
        return 0 <= segment_id <= self._generated_up_to
