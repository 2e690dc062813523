"""Per-node inbound/outbound bandwidth model.

Section 5.2 of the paper assigns every node a random inbound rate between
300 Kbps and 1 Mbps (mean 450 Kbps), i.e. between 10 and 33 segments per
second with a mean of 15, and outbound rates likewise; the media source has
zero inbound rate and a much larger outbound rate (about 100 segments/s).

Rates are expressed in *segments per second* throughout the simulator, which
keeps the scheduling arithmetic (equations (1)-(3) and Algorithm 1) in the
paper's own units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np


@dataclass
class NodeBandwidth:
    """Inbound/outbound capacity of one node, in segments per second."""

    inbound: float
    outbound: float

    def __post_init__(self) -> None:
        if self.inbound < 0 or self.outbound < 0:
            raise ValueError("rates must be non-negative")


class BandwidthModel:
    """Assigns and stores per-node bandwidth capacities.

    Two assignment modes mirror the paper's evaluation environments:

    * *heterogeneous* — inbound drawn uniformly from ``[min_rate, max_rate]``
      and rescaled so the population mean equals ``mean_rate``;
    * *homogeneous* — every node gets exactly ``mean_rate``.
    """

    def __init__(
        self,
        mean_rate: float = 15.0,
        min_rate: float = 10.0,
        max_rate: float = 33.0,
        heterogeneous: bool = True,
        source_outbound: float = 100.0,
    ) -> None:
        if not (0 < min_rate <= mean_rate <= max_rate):
            raise ValueError(
                f"need 0 < min_rate <= mean_rate <= max_rate, got "
                f"{min_rate}, {mean_rate}, {max_rate}"
            )
        self.mean_rate = float(mean_rate)
        self.min_rate = float(min_rate)
        self.max_rate = float(max_rate)
        self.heterogeneous = bool(heterogeneous)
        self.source_outbound = float(source_outbound)
        self._capacity: Dict[int, NodeBandwidth] = {}

    # ---------------------------------------------------------------- assignment
    def _draw_rates(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if not self.heterogeneous or count == 0:
            return np.full(count, self.mean_rate)
        rates = rng.uniform(self.min_rate, self.max_rate, size=count)
        # Rescale towards the configured mean while staying inside the bounds,
        # so "average inbound rate is 450 Kbps / I = 15" holds as in the paper.
        current_mean = float(rates.mean())
        if current_mean > 0:
            rates = rates * (self.mean_rate / current_mean)
        return np.clip(rates, self.min_rate, self.max_rate)

    def assign(
        self,
        node_ids: Iterable[int],
        rng: np.random.Generator,
        source_id: Optional[int] = None,
    ) -> None:
        """Assign capacities to ``node_ids`` (overwriting existing entries).

        The node identified by ``source_id`` gets zero inbound capacity and
        ``source_outbound`` outbound capacity, as in the paper's setup.
        """
        ids = [int(n) for n in node_ids]
        inbound = self._draw_rates(len(ids), rng)
        outbound = self._draw_rates(len(ids), rng)
        for node, i_rate, o_rate in zip(ids, inbound, outbound):
            self._capacity[node] = NodeBandwidth(float(i_rate), float(o_rate))
        if source_id is not None:
            self._capacity[int(source_id)] = NodeBandwidth(0.0, self.source_outbound)

    def assign_one(
        self,
        node_id: int,
        rng: np.random.Generator,
    ) -> NodeBandwidth:
        """Assign capacity to a single (newly joined) node."""
        inbound = float(self._draw_rates(1, rng)[0])
        outbound = float(self._draw_rates(1, rng)[0])
        capacity = NodeBandwidth(inbound, outbound)
        self._capacity[int(node_id)] = capacity
        return capacity

    # ------------------------------------------------------------------ queries
    def __contains__(self, node_id: int) -> bool:
        return node_id in self._capacity

    def remove(self, node_id: int) -> None:
        """Forget a departed node."""
        self._capacity.pop(node_id, None)

    def of(self, node_id: int) -> NodeBandwidth:
        """Capacity of ``node_id``.

        Raises:
            KeyError: if the node has no assigned capacity.
        """
        return self._capacity[node_id]

    def inbound(self, node_id: int) -> float:
        """Inbound rate of ``node_id`` in segments/s."""
        return self._capacity[node_id].inbound

    def outbound(self, node_id: int) -> float:
        """Outbound rate of ``node_id`` in segments/s."""
        return self._capacity[node_id].outbound

    def mean_inbound(self) -> float:
        """Population mean inbound rate (segments/s)."""
        if not self._capacity:
            return 0.0
        return float(np.mean([c.inbound for c in self._capacity.values()]))


@dataclass(frozen=True)
class BandwidthClass:
    """One access-technology class of a heterogeneous swarm.

    Rates are in segments per second, like everywhere else in the simulator.
    ``min_outbound``/``max_outbound`` default to the inbound range
    (symmetric access), which suits ethernet; asymmetric classes (cable,
    DSL) set them explicitly.
    """

    name: str
    fraction: float
    min_inbound: float
    max_inbound: float
    min_outbound: Optional[float] = None
    max_outbound: Optional[float] = None

    def __post_init__(self) -> None:
        if not (0.0 < self.fraction <= 1.0):
            raise ValueError(f"class {self.name!r}: fraction must be in (0, 1]")
        if not (0.0 < self.min_inbound <= self.max_inbound):
            raise ValueError(f"class {self.name!r}: need 0 < min_inbound <= max_inbound")
        out_lo, out_hi = self.outbound_range
        if not (0.0 < out_lo <= out_hi):
            raise ValueError(f"class {self.name!r}: need 0 < min_outbound <= max_outbound")

    @property
    def outbound_range(self) -> "tuple[float, float]":
        lo = self.min_inbound if self.min_outbound is None else self.min_outbound
        hi = self.max_inbound if self.max_outbound is None else self.max_outbound
        return (lo, hi)


class ClassMixBandwidthModel(BandwidthModel):
    """Bandwidth assignment from a mix of access-technology classes.

    Each node is first assigned a class (ethernet / cable / dsl / ...)
    according to the mix fractions, then draws its inbound and outbound
    rates uniformly from that class's ranges — so a node's two rates are
    correlated through its class, unlike the base model's independent
    draws.  The scenario engine composes this into a run without core code
    changes by swapping it onto the
    :class:`~repro.core.overlay.OverlayManager` before ``build()``.
    """

    def __init__(
        self,
        classes: Iterable[BandwidthClass],
        source_outbound: float = 100.0,
    ) -> None:
        class_list = tuple(classes)
        if not class_list:
            raise ValueError("need at least one bandwidth class")
        total = sum(c.fraction for c in class_list)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"class fractions must sum to 1, got {total:.6f}")
        min_rate = min(c.min_inbound for c in class_list)
        max_rate = max(c.max_inbound for c in class_list)
        mean_rate = sum(
            c.fraction * (c.min_inbound + c.max_inbound) / 2.0 for c in class_list
        )
        super().__init__(
            mean_rate=mean_rate,
            min_rate=min_rate,
            max_rate=max_rate,
            heterogeneous=True,
            source_outbound=source_outbound,
        )
        self.classes = class_list
        self._cumulative = np.cumsum([c.fraction for c in class_list])

    # ---------------------------------------------------------------- assignment
    def _draw_class(self, rng: np.random.Generator) -> BandwidthClass:
        index = int(np.searchsorted(self._cumulative, rng.random(), side="right"))
        return self.classes[min(index, len(self.classes) - 1)]

    def _assign_from_class(self, node_id: int, rng: np.random.Generator) -> NodeBandwidth:
        klass = self._draw_class(rng)
        inbound = float(rng.uniform(klass.min_inbound, klass.max_inbound))
        out_lo, out_hi = klass.outbound_range
        outbound = float(rng.uniform(out_lo, out_hi))
        capacity = NodeBandwidth(inbound, outbound)
        self._capacity[int(node_id)] = capacity
        return capacity

    def assign(
        self,
        node_ids: Iterable[int],
        rng: np.random.Generator,
        source_id: Optional[int] = None,
    ) -> None:
        for node in node_ids:
            self._assign_from_class(int(node), rng)
        if source_id is not None:
            self._capacity[int(source_id)] = NodeBandwidth(0.0, self.source_outbound)

    def assign_one(self, node_id: int, rng: np.random.Generator) -> NodeBandwidth:
        return self._assign_from_class(node_id, rng)
