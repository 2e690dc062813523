"""Rendezvous Point (RP) server.

The RP server is the only centralised component: it hands out unique ring
ids and a short contact list of existing nodes with ids close to the
newcomer's.  It holds only a *partial* list of joined nodes (nodes report
failures they observe, and the RP lazily forgets them), so it is cheap to
operate and is never on the data path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.dht.ring import IdRing


@dataclass
class RendezvousPoint:
    """Central bootstrap server handing out ids and contact lists.

    Attributes:
        ring: the identifier ring of the overlay.
        contact_list_size: how many close-id contacts to return per join.
    """

    ring: IdRing
    contact_list_size: int = 4
    _known: Set[int] = field(default_factory=set)
    _rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    def seed_rng(self, rng: np.random.Generator) -> None:
        """Replace the id-assignment random stream (for reproducibility)."""
        self._rng = rng

    def report_failure(self, node_id: int) -> None:
        """A member reported ``node_id`` as dead; forget it."""
        self._known.discard(self.ring.normalize(node_id))

    def _allocate_id(self, requested: Optional[int] = None) -> int:
        """Pick an unused ring id (random unless ``requested`` is free)."""
        if requested is not None:
            candidate = self.ring.normalize(requested)
            if candidate not in self._known:
                return candidate
        if len(self._known) >= self.ring.size:
            raise RuntimeError("identifier space exhausted")
        while True:
            candidate = int(self._rng.integers(self.ring.size))
            if candidate not in self._known:
                return candidate

    def _closest_contacts(self, node_id: int, count: int) -> List[int]:
        """Known nodes with the smallest ring distance to ``node_id``."""
        others = [n for n in self._known if n != node_id]
        if not others:
            return []
        others.sort(
            key=lambda n: min(
                self.ring.clockwise_distance(node_id, n),
                self.ring.counter_clockwise_distance(node_id, n),
            )
        )
        return others[:count]

    def assign_id(self, requested_id: Optional[int] = None) -> int:
        """Register a new node and return its id (no contact list)."""
        node_id = self._allocate_id(requested_id)
        self._known.add(node_id)
        return node_id

    def admit(self, requested_id: Optional[int] = None) -> Tuple[int, Tuple[int, ...]]:
        """Admit a joining node: ``(its id, close-id contacts)``."""
        node_id = self._allocate_id(requested_id)
        contacts = tuple(self._closest_contacts(node_id, self.contact_list_size))
        self._known.add(node_id)
        return node_id, contacts
