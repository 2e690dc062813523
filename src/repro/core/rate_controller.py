"""Per-neighbour receive-rate estimation.

The Rate Controller module of the node architecture (Figure 1) "monitors and
estimates the receiving rate from each connected neighbour".  Its estimates
feed both the urgency computation (equation (1) uses the best receiving rate
``R_i`` of a segment) and Algorithm 1's expected transfer times
``t_trans = 1 / R(S_ij)``.

The estimator keeps an exponentially weighted moving average of the segments
actually delivered by each neighbour per scheduling period, seeded with an
optimistic prior of ``min(local inbound, neighbour outbound / M)`` so that a
fresh neighbour is tried rather than starved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional


@dataclass
class RateController:
    """Tracks the usable receiving rate from each connected neighbour.

    Attributes:
        local_inbound: local inbound capacity in segments/s.
        period: the scheduling period in seconds (observations are per period).
        smoothing: EWMA smoothing factor in (0, 1]; higher = more reactive.
        min_rate: floor on any estimate to avoid division by zero in
            ``1 / R`` computations.
    """

    local_inbound: float
    period: float = 1.0
    smoothing: float = 0.5
    min_rate: float = 0.1
    _estimates: Dict[int, float] = field(default_factory=dict)
    _priors: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.local_inbound < 0:
            raise ValueError("local_inbound must be >= 0")
        if not (0 < self.smoothing <= 1):
            raise ValueError("smoothing must be in (0, 1]")
        if self.period <= 0:
            raise ValueError("period must be positive")

    # ------------------------------------------------------------------ priors
    def register_neighbor(
        self, neighbor_id: int, neighbor_outbound: float, fan_out: int
    ) -> float:
        """Initialise the estimate for a new neighbour.

        The prior assumes the neighbour splits its outbound rate evenly across
        the ``fan_out`` nodes that actually pull from it, capped by our own
        inbound capacity.  The running estimate never drops below this prior:
        a neighbour that delivered little recently must not be written off —
        the capacity is still there, only the availability was missing — and
        actual uplink contention is resolved by the system's per-period
        bandwidth budgets rather than by pessimistic estimates.
        """
        prior = min(
            self.local_inbound if self.local_inbound > 0 else neighbor_outbound,
            neighbor_outbound / max(1, fan_out),
        )
        prior = max(self.min_rate, prior)
        self._priors[neighbor_id] = prior
        self._estimates.setdefault(neighbor_id, prior)
        return self._estimates[neighbor_id]

    def forget_neighbor(self, neighbor_id: int) -> None:
        """Drop the estimate of a departed/replaced neighbour."""
        self._estimates.pop(neighbor_id, None)
        self._priors.pop(neighbor_id, None)

    def _floor_for(self, neighbor_id: int) -> float:
        return max(self.min_rate, self._priors.get(neighbor_id, self.min_rate))

    # ------------------------------------------------------------ observations
    def observe_round(self, delivered: Mapping[int, int]) -> None:
        """Fold one period's deliveries into the estimates.

        Args:
            delivered: mapping neighbour id -> segments received from it this
                period, **for the neighbours we actually requested from** (a
                requested neighbour that delivered nothing should appear with
                a count of 0 so its estimate decays).  Neighbours we did not
                ask anything of keep their current estimate — otherwise a
                node would write off all its neighbours during the start-up
                phase when nobody has data yet.
        """
        for neighbor_id, count in delivered.items():
            if neighbor_id not in self._estimates:
                continue
            observed = count / self.period
            old = self._estimates[neighbor_id]
            new = (1 - self.smoothing) * old + self.smoothing * observed
            self._estimates[neighbor_id] = max(self._floor_for(neighbor_id), new)

    # ----------------------------------------------------------------- queries
    def rate_of(self, neighbor_id: int) -> float:
        """Estimated receiving rate from ``neighbor_id`` (segments/s)."""
        return self._estimates.get(neighbor_id, self.min_rate)

    def known_neighbors(self) -> list[int]:
        """Neighbour ids with an estimate (sorted)."""
        return sorted(self._estimates)

    def best_rate(self, neighbor_ids: Optional[list[int]] = None) -> float:
        """Highest estimated rate among ``neighbor_ids`` (or all known)."""
        ids = self.known_neighbors() if neighbor_ids is None else neighbor_ids
        rates = [self.rate_of(n) for n in ids]
        return max(rates) if rates else self.min_rate
