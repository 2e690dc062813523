"""FIFO segment buffer.

Each node buffers up to ``B`` segments (default 600 = 60 s of media at
``p = 10``).  The paper's replacement strategy is FIFO, and the *position* of
a segment inside a supplier's buffer — its distance from the buffer tail —
feeds the rarity estimate of the data scheduler (equation (2)): a segment
close to the head of a FIFO buffer is about to be evicted, hence "rare".

The buffer is a sliding window over segment ids.  ``head_id`` is the oldest id
the window can still hold; ids below it are considered expired regardless of
whether they were ever received.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set


class SegmentBuffer:
    """Sliding-window FIFO buffer of segment ids.

    The window covers ids ``[head_id, head_id + capacity)``.  Receiving a
    segment beyond the right edge slides the window forward, evicting the
    oldest ids (FIFO).

    Attributes:
        capacity: maximum number of segment ids the window spans (``B``).
    """

    __slots__ = ("capacity", "_head_id", "_present")

    def __init__(self, capacity: int, head_id: int = 0) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if head_id < 0:
            raise ValueError(f"head_id must be >= 0, got {head_id}")
        self.capacity = int(capacity)
        self._head_id = int(head_id)
        self._present: Set[int] = set()

    # ------------------------------------------------------------------ window
    @property
    def head_id(self) -> int:
        """Oldest segment id the window can hold."""
        return self._head_id

    @property
    def tail_id(self) -> int:
        """One past the newest segment id the window can hold."""
        return self._head_id + self.capacity

    def in_window(self, segment_id: int) -> bool:
        """True if ``segment_id`` falls inside the current window."""
        return self._head_id <= segment_id < self.tail_id

    def advance_head(self, new_head_id: int) -> List[int]:
        """Slide the window so it starts at ``new_head_id``.

        Segments that fall off the left edge are evicted (FIFO) and their ids
        returned.  Moving the head backwards is a no-op.
        """
        if new_head_id <= self._head_id:
            return []
        evicted = [sid for sid in self._present if sid < new_head_id]
        self._present.difference_update(evicted)
        self._head_id = int(new_head_id)
        return sorted(evicted)

    # ---------------------------------------------------------------- contents
    def __len__(self) -> int:
        return len(self._present)

    def __contains__(self, segment_id: int) -> bool:
        return segment_id in self._present

    def add(self, segment_id: int) -> bool:
        """Insert ``segment_id`` if it lies inside (or ahead of) the window.

        If the id lies beyond the right edge the window slides forward so the
        new id becomes the newest slot (evicting old ids).  Ids older than the
        window head are rejected.

        Returns:
            True if the segment was stored, False if it was expired.
        """
        if segment_id < self._head_id:
            return False
        if segment_id >= self.tail_id:
            self.advance_head(segment_id - self.capacity + 1)
        self._present.add(int(segment_id))
        return True

    def discard(self, segment_id: int) -> None:
        """Remove ``segment_id`` if present."""
        self._present.discard(segment_id)

    def ids(self) -> List[int]:
        """Sorted list of segment ids currently held."""
        return sorted(self._present)

    def id_set(self) -> Set[int]:
        """A copy of the set of held segment ids."""
        return set(self._present)

    def missing_in_range(self, start_id: int, end_id: int) -> List[int]:
        """Ids in ``[start_id, end_id)`` that are *not* held (ascending)."""
        lo = max(start_id, 0)
        return [sid for sid in range(lo, end_id) if sid not in self._present]

    def has_range(self, start_id: int, count: int) -> bool:
        """True if all of ``start_id .. start_id+count-1`` are held."""
        return all((start_id + offset) in self._present for offset in range(count))

    # ----------------------------------------------------------------- extremes
    def newest_id(self) -> Optional[int]:
        """Largest held id, or ``None`` if empty."""
        return max(self._present) if self._present else None

    def oldest_id(self) -> Optional[int]:
        """Smallest held id, or ``None`` if empty."""
        return min(self._present) if self._present else None

    def update_from(self, segment_ids: Iterable[int]) -> int:
        """Bulk-add segment ids; returns how many were accepted."""
        accepted = 0
        for sid in sorted(segment_ids):
            if self.add(sid):
                accepted += 1
        return accepted
