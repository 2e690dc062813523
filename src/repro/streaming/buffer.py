"""FIFO segment buffer.

Each node buffers up to ``B`` segments (default 600 = 60 s of media at
``p = 10``).  The paper's replacement strategy is FIFO, and the *position* of
a segment inside a supplier's buffer — its distance from the buffer tail —
feeds the rarity estimate of the data scheduler (equation (2)): a segment
close to the head of a FIFO buffer is about to be evicted, hence "rare".

The buffer is a sliding window over segment ids.  ``head_id`` is the oldest id
the window can still hold; ids below it are considered expired regardless of
whether they were ever received.  The contents are one integer, the paper's
availability bitmap (§5.4.2) itself: bit ``j`` ⇔ segment ``head_id + j`` held.
"""

from __future__ import annotations

from typing import Iterable, List, Optional


def realign(bits: int, shift: int, count: int) -> int:
    """``bits`` moved ``shift`` slots up (down if negative), cut to ``count`` slots."""
    if shift >= count:
        return 0  # no overlap: skip the shift, which could be huge
    return (bits << shift if shift >= 0 else bits >> -shift) & ((1 << count) - 1)


class SegmentBuffer:
    """Sliding-window FIFO buffer of segment ids.

    The window covers ids ``[head_id, head_id + capacity)``.  Receiving a
    segment beyond the right edge slides the window forward, evicting the
    oldest ids (FIFO).  Ids are coerced with ``int()`` before any shift: a
    NumPy integer would wrap past bit 63 instead of growing.

    Attributes:
        capacity: maximum number of segment ids the window spans (``B``).
        bits: availability mask, bit ``j`` ⇔ segment ``head_id + j`` held, so
            ``0 <= bits < 2 ** capacity``.
    """

    __slots__ = ("capacity", "_head_id", "bits")

    def __init__(self, capacity: int, head_id: int = 0) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if head_id < 0:
            raise ValueError(f"head_id must be >= 0, got {head_id}")
        self.capacity = int(capacity)
        self._head_id = int(head_id)
        self.bits = 0

    # ------------------------------------------------------------------ window
    @property
    def head_id(self) -> int:
        """Oldest segment id the window can hold."""
        return self._head_id

    @property
    def tail_id(self) -> int:
        """One past the newest segment id the window can hold."""
        return self._head_id + self.capacity

    def advance_head(self, new_head_id: int) -> None:
        """Slide the window so it starts at ``new_head_id``.

        Segments that fall off the left edge are evicted (FIFO).  Moving the
        head backwards is a no-op.
        """
        shift = int(new_head_id) - self._head_id
        if shift > 0:
            self.bits >>= shift
            self._head_id += shift

    # ---------------------------------------------------------------- contents
    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, segment_id: int) -> bool:
        offset = int(segment_id) - self._head_id
        return offset >= 0 and (self.bits >> offset) & 1 == 1

    def add(self, segment_id: int) -> bool:
        """Insert ``segment_id`` if it lies inside (or ahead of) the window.

        If the id lies beyond the right edge the window slides forward so the
        new id becomes the newest slot (evicting old ids).  Ids older than the
        window head are rejected.

        Returns:
            True if the segment was stored, False if it was expired.
        """
        offset = int(segment_id) - self._head_id
        if offset < 0:
            return False
        if offset >= self.capacity:
            self.advance_head(self._head_id + offset - self.capacity + 1)
            offset = self.capacity - 1
        self.bits |= 1 << offset
        return True

    def discard(self, segment_id: int) -> None:
        """Remove ``segment_id`` if present."""
        offset = int(segment_id) - self._head_id
        if 0 <= offset < self.capacity:
            self.bits &= ~(1 << offset)

    def ids(self) -> List[int]:
        """Sorted list of segment ids currently held."""
        head, bits = self._head_id, bin(self.bits)[:1:-1]
        return [head + j for j, bit in enumerate(bits) if bit == "1"]

    def missing_bits(self, start_id: int, count: int) -> int:
        """Mask of the ids in ``[start_id, start_id + count)`` *not* held.

        Bit ``j`` of the result is set when ``start_id + j`` is missing.
        """
        if count <= 0:
            return 0
        held = realign(self.bits, self._head_id - int(start_id), count)
        return ((1 << count) - 1) ^ held

    def has_range(self, start_id: int, count: int) -> bool:
        """True if all of ``start_id .. start_id+count-1`` are held."""
        return self.missing_bits(start_id, count) == 0

    # ----------------------------------------------------------------- extremes
    def newest_id(self) -> Optional[int]:
        """Largest held id, or ``None`` if empty."""
        return self._head_id + self.bits.bit_length() - 1 if self.bits else None

    def oldest_id(self) -> Optional[int]:
        """Smallest held id, or ``None`` if empty."""
        bits = self.bits
        return self._head_id + (bits & -bits).bit_length() - 1 if bits else None

    def update_from(self, segment_ids: Iterable[int]) -> int:
        """Bulk-add segment ids; returns how many were accepted."""
        accepted = 0
        for sid in sorted(segment_ids):
            if self.add(sid):
                accepted += 1
        return accepted
