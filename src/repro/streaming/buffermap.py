"""Buffer-map encoding used for the periodic buffer-information exchange.

Section 5.4.2 of the paper fixes the wire format we account for: ``B = 600``
availability bits (bit 1 = segment held) plus a 20-bit anchor recording the id
of the first segment of the window — the source emits at most
``3600 * 10 * 24 = 864 000`` segments per hour, which fits in 20 bits.  A
buffer-map message therefore costs ``620`` bits and exchanging maps with one
neighbour costs ``620`` bits of control traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Iterable, List

import numpy as np

from repro.streaming.buffer import SegmentBuffer

#: Number of bits used to encode the window anchor (first segment id).
ANCHOR_BITS = 20

#: Control-message size for a buffer of ``B`` segments, in bits.
def buffer_map_bits(capacity: int) -> int:
    """Size in bits of a buffer-map message for a buffer of ``capacity`` slots."""
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    return capacity + ANCHOR_BITS


#: Size of the default 600-slot buffer-map message (620 bits).
BUFFER_MAP_BITS = buffer_map_bits(600)


@dataclass(frozen=True)
class BufferMap:
    """An immutable snapshot of a neighbour's buffer availability.

    Attributes:
        head_id: id of the first (oldest) slot of the advertised window.
        capacity: number of slots advertised (``B``).
        present: frozen set of segment ids the neighbour holds.
    """

    head_id: int
    capacity: int
    present: FrozenSet[int]

    @classmethod
    def from_buffer(cls, buffer: SegmentBuffer) -> "BufferMap":
        """Snapshot a live :class:`SegmentBuffer`."""
        return cls(
            head_id=buffer.head_id,
            capacity=buffer.capacity,
            present=frozenset(buffer.id_set()),
        )

    @property
    def tail_id(self) -> int:
        """One past the newest advertised slot."""
        return self.head_id + self.capacity

    def __contains__(self, segment_id: int) -> bool:
        return segment_id in self.present

    def size_bits(self) -> int:
        """Wire size of this buffer map in bits (``B`` bits + 20-bit anchor)."""
        return buffer_map_bits(self.capacity)

    @cached_property
    def effective_tail(self) -> int:
        """The *effective* newest end of the supplier's FIFO buffer.

        The newest segment it actually holds, capped by the window edge.
        Computed once per snapshot (the snapshot is immutable) instead of once
        per offer.  Raises ``ValueError`` on an empty map, like ``max``.
        """
        return min(self.head_id + self.capacity - 1, max(self.present))

    def position_from_tail(self, segment_id: int) -> int:
        """Distance of ``segment_id`` from the buffer tail (``p_ij`` in eq. 2).

        This is the one definition of ``p_ij``: the distance from the
        :attr:`effective_tail`, so it measures how soon the segment will be
        pushed out once the window starts sliding.  (Using the nominal window
        edge instead would make every segment look equally close to eviction
        while the buffer is still filling up — ``SegmentBuffer`` used to carry
        such a variant; it was deleted.)

        Raises:
            KeyError: if the segment is not advertised (checked before the
                tail is computed, so an empty map raises ``KeyError`` too).
        """
        if segment_id not in self.present:
            raise KeyError(segment_id)
        return self.effective_tail - segment_id

    def available_after(self, segment_id: int) -> List[int]:
        """Advertised ids strictly greater than ``segment_id`` (ascending)."""
        return sorted(sid for sid in self.present if sid > segment_id)

    def to_bitmap(self) -> np.ndarray:
        """Dense ``uint8`` availability vector of length ``capacity``.

        Index ``j`` corresponds to segment ``head_id + j``.
        """
        bitmap = np.zeros(self.capacity, dtype=np.uint8)
        for sid in self.present:
            offset = sid - self.head_id
            if 0 <= offset < self.capacity:
                bitmap[offset] = 1
        return bitmap

    @classmethod
    def from_bitmap(cls, head_id: int, bitmap: Iterable[int]) -> "BufferMap":
        """Rebuild a buffer map from a dense availability vector."""
        bits = np.asarray(list(bitmap), dtype=np.uint8)
        present = frozenset(int(head_id + j) for j in np.nonzero(bits)[0])
        return cls(head_id=int(head_id), capacity=int(bits.size), present=present)

    # --------------------------------------------------------------- wire form
    def to_bytes(self) -> bytes:
        """Packed availability bits (8 slots per byte, zero-padded at the end).

        This is the byte payload the live runtime's wire codec ships; the
        *accounted* size stays :func:`buffer_map_bits` (``B`` bits + anchor),
        so the overhead metrics are unaffected by the byte padding.
        """
        return np.packbits(self.to_bitmap()).tobytes()

    @classmethod
    def from_bytes(cls, head_id: int, capacity: int, data: bytes) -> "BufferMap":
        """Rebuild a buffer map from its packed :meth:`to_bytes` payload.

        Raises:
            ValueError: if ``data`` does not hold exactly ``capacity`` bits
                (rounded up to whole bytes).
        """
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        expected = (capacity + 7) // 8
        if len(data) != expected:
            raise ValueError(
                f"packed buffer map of capacity {capacity} needs {expected} "
                f"bytes, got {len(data)}"
            )
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))[:capacity]
        present = frozenset((np.nonzero(bits)[0] + int(head_id)).tolist())
        return cls(head_id=int(head_id), capacity=int(capacity), present=present)
