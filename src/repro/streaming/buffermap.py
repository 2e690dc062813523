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

from repro.streaming.buffer import SegmentBuffer

#: Number of bits used to encode the window anchor (first segment id).
ANCHOR_BITS = 20

#: Each byte bit-reversed: the wire puts slot ``j`` at bit ``7 - j % 8`` of byte
#: ``j // 8`` (``numpy.packbits`` order), ``int.to_bytes`` at bit ``j % 8``.
_REVERSED_BITS = bytes(int(f"{byte:08b}"[::-1], 2) for byte in range(256))


#: Control-message size for a buffer of ``B`` segments, in bits.
def buffer_map_bits(capacity: int) -> int:
    """Size in bits of a buffer-map message for a buffer of ``capacity`` slots."""
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    return capacity + ANCHOR_BITS


#: Size of the default 600-slot buffer-map message (620 bits).
BUFFER_MAP_BITS = buffer_map_bits(600)


@dataclass(frozen=True, slots=True)
class BufferMap:
    """An immutable snapshot of a neighbour's buffer availability.

    Attributes:
        head_id: id of the first (oldest) slot of the advertised window.
        capacity: number of slots advertised (``B``).
        bits: availability mask, bit ``j`` ⇔ segment ``head_id + j`` held.
            ``0 <= bits < 2 ** capacity``: an id outside the window cannot be
            advertised, so what a map answers is what its wire form says.
    """

    head_id: int
    capacity: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits.bit_length() > self.capacity:
            raise ValueError(f"bits {self.bits:#x} do not fit {self.capacity} slots")

    @classmethod
    def from_buffer(cls, buffer: SegmentBuffer) -> "BufferMap":
        """Snapshot a live :class:`SegmentBuffer` (shares its mask, O(1))."""
        return cls(buffer.head_id, buffer.capacity, buffer.bits)

    def __contains__(self, segment_id: int) -> bool:
        offset = int(segment_id) - self.head_id
        return offset >= 0 and (self.bits >> offset) & 1 == 1

    @property
    def effective_tail(self) -> int:
        """The *effective* newest end of the supplier's FIFO buffer.

        The newest segment it actually holds (the window edge bounds it by
        construction).  Raises ``ValueError`` on an empty map, like ``max``.
        """
        if not self.bits:
            raise ValueError("an empty buffer map has no tail")
        return self.head_id + self.bits.bit_length() - 1

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
        if segment_id not in self:
            raise KeyError(segment_id)
        return self.effective_tail - segment_id

    # --------------------------------------------------------------- wire form
    def to_bytes(self) -> bytes:
        """Packed availability bits (8 slots per byte, zero-padded at the end).

        Slot ``j`` is bit ``7 - j % 8`` of byte ``j // 8``.  This is the byte
        payload the live runtime's wire codec ships; the *accounted* size
        stays :func:`buffer_map_bits` (``B`` bits + anchor), so the overhead
        metrics are unaffected by the byte padding.
        """
        nbytes = (self.capacity + 7) // 8
        return self.bits.to_bytes(nbytes, "little").translate(_REVERSED_BITS)

    @classmethod
    def from_bytes(cls, head_id: int, capacity: int, data: bytes) -> "BufferMap":
        """Rebuild a buffer map from its packed :meth:`to_bytes` payload.

        Padding bits past ``capacity`` are ignored.

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
        bits = int.from_bytes(data.translate(_REVERSED_BITS), "little")
        return cls(int(head_id), int(capacity), bits & ((1 << capacity) - 1))
