"""Data segments of the media stream.

Segments are identified by a monotonically increasing integer id.  The source
emits ``p`` segments per second, so segment ``i`` corresponds to playback
instant ``i / p`` seconds after the stream origin.  Only the id and the size
matter to the scheduling and pre-fetch algorithms; the payload is never
materialised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional

#: Default segment payload size used for overhead accounting (Section 5.2):
#: the stream is 300 Kbps and each segment holds 30 Kbit of media.
DEFAULT_SEGMENT_BITS = 30 * 1024


@dataclass(frozen=True)
class Segment:
    """A single media data segment.

    Attributes:
        segment_id: position of the segment in the stream (0-based).
        size_bits: payload size in bits, used only for overhead accounting.
        origin_time: simulated time at which the source generated it.
    """

    segment_id: int
    size_bits: int = DEFAULT_SEGMENT_BITS
    origin_time: float = 0.0

    def __post_init__(self) -> None:
        if self.segment_id < 0:
            raise ValueError(f"segment_id must be >= 0, got {self.segment_id}")
        if self.size_bits <= 0:
            raise ValueError(f"size_bits must be > 0, got {self.size_bits}")

    def deadline(self, playback_rate: float, startup_delay: float = 0.0) -> float:
        """Playback deadline of this segment for a node that started playback
        ``startup_delay`` seconds after the stream origin.

        Args:
            playback_rate: segments played per second (``p`` in the paper).
            startup_delay: extra slack before the node begins playback.
        """
        if playback_rate <= 0:
            raise ValueError("playback_rate must be positive")
        return self.origin_time + startup_delay + self.segment_id / playback_rate


class SegmentStore:
    """A keyed collection of :class:`Segment` objects.

    Used by the media source (all generated segments) and by the VoD backup
    store of each node.  Lookup, insertion and removal are ``O(1)``.
    """

    __slots__ = ("_segments",)

    def __init__(self, segments: Optional[Iterable[Segment]] = None) -> None:
        self._segments: Dict[int, Segment] = {}
        if segments is not None:
            for segment in segments:
                self.add(segment)

    def __len__(self) -> int:
        return len(self._segments)

    def __contains__(self, segment_id: int) -> bool:
        return segment_id in self._segments

    def __iter__(self) -> Iterator[Segment]:
        return iter(self._segments.values())

    def add(self, segment: Segment) -> None:
        """Insert (or overwrite) a segment."""
        self._segments[segment.segment_id] = segment

    def get(self, segment_id: int) -> Optional[Segment]:
        """Return the stored segment or ``None``."""
        return self._segments.get(segment_id)

    def remove(self, segment_id: int) -> Optional[Segment]:
        """Remove and return the segment, or ``None`` if absent."""
        return self._segments.pop(segment_id, None)

    def ids(self) -> list[int]:
        """Sorted list of stored segment ids."""
        return sorted(self._segments)

    def total_bits(self) -> int:
        """Total payload size of all stored segments, in bits."""
        return sum(segment.size_bits for segment in self._segments.values())
