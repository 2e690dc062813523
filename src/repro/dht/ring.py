"""Identifier-ring arithmetic.

All DHT reasoning happens on a ring of ``N`` identifiers (``N`` = maximum
number of nodes the overlay can accommodate; the paper's Figure 3 experiment
uses ``N = 8192``).  Distances are *clockwise*: ``distance(a, b)`` is how far
one must travel clockwise from ``a`` to reach ``b``.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence


class IdRing:
    """Modular arithmetic helpers on an identifier space of size ``N``."""

    __slots__ = ("size", "bits")

    def __init__(self, size: int) -> None:
        if size < 2:
            raise ValueError(f"ID space must have at least 2 ids, got {size}")
        self.size = int(size)
        #: Number of levels ``log2(N)`` (rounded up) a peer table needs.
        self.bits = max(1, math.ceil(math.log2(self.size)))

    # ------------------------------------------------------------------- basics
    def normalize(self, identifier: int) -> int:
        """Map any integer onto the ring."""
        return int(identifier) % self.size

    def clockwise_distance(self, a: int, b: int) -> int:
        """Clockwise distance from ``a`` to ``b`` (0 when equal)."""
        return (self.normalize(b) - self.normalize(a)) % self.size

    def counter_clockwise_distance(self, a: int, b: int) -> int:
        """Counter-clockwise distance from ``a`` to ``b``."""
        return (self.normalize(a) - self.normalize(b)) % self.size

    def in_clockwise_interval(self, x: int, start: int, end: int) -> bool:
        """True if ``x`` lies in the half-open clockwise interval ``[start, end)``.

        An empty interval (``start == end``) contains nothing.
        """
        x, start, end = self.normalize(x), self.normalize(start), self.normalize(end)
        if start == end:
            return False
        return self.clockwise_distance(start, x) < self.clockwise_distance(start, end)

    # ---------------------------------------------------------------- selection
    def clockwise_closest(self, target: int, candidates: Iterable[int]) -> Optional[int]:
        """The candidate with the smallest clockwise distance *from itself to*
        ``target`` — i.e. the candidate that is counter-clockwise closest to the
        target, which is the node responsible for the key.

        Returns ``None`` when ``candidates`` is empty.
        """
        best: Optional[int] = None
        best_dist: Optional[int] = None
        for candidate in candidates:
            dist = self.clockwise_distance(candidate, target)
            if best_dist is None or dist < best_dist:
                best, best_dist = self.normalize(candidate), dist
        return best

    def responsible_node(self, key: int, node_ids: Sequence[int]) -> Optional[int]:
        """Node responsible for ``key``: the one counter-clockwise closest to it.

        Node ``n`` owns the keys in ``[n, successor(n))`` (equation (5) uses
        the interval ``[n, n1)`` where ``n1`` is ``n``'s clockwise-closest DHT
        peer), so the owner of ``key`` is the node with the smallest clockwise
        distance from itself to the key — equivalently the nearest node at or
        counter-clockwise of the key.
        """
        if not node_ids:
            return None
        best: Optional[int] = None
        best_dist: Optional[int] = None
        for node in node_ids:
            dist = self.clockwise_distance(node, key)
            if best_dist is None or dist < best_dist:
                best, best_dist = self.normalize(node), dist
        return best

    def level_of(self, node: int, peer: int) -> int:
        """DHT-peer level of ``peer`` relative to ``node``.

        Level ``i`` covers the clockwise interval ``[n + 2^(i-1), n + 2^i)``;
        level 1 covers distance exactly 1 ... (2).  Returns 0 when
        ``peer == node``.
        """
        dist = self.clockwise_distance(node, peer)
        if dist == 0:
            return 0
        return dist.bit_length()

    def level_interval(self, node: int, level: int) -> tuple[int, int]:
        """The half-open clockwise interval ``[n + 2^(i-1), n + 2^i)`` of ``level``.

        For identifier spaces whose size is not a power of two, the top
        level's nominal end would wrap past the owner and overlap the lower
        levels, so both offsets are clamped at the ring size; the clamped top
        level then simply covers "the rest of the ring" and the levels
        partition every non-owner id exactly once.
        """
        if level < 1:
            raise ValueError("level must be >= 1")
        start_offset = min(1 << (level - 1), self.size)
        end_offset = min(1 << level, self.size)
        start = self.normalize(node + start_offset)
        end = self.normalize(node + end_offset)
        return start, end

    def spread_ids(self, count: int) -> List[int]:
        """``count`` ids spread (approximately) evenly around the ring."""
        if count <= 0:
            return []
        step = self.size / count
        return sorted({self.normalize(round(i * step)) for i in range(count)})
