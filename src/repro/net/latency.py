"""Pairwise latency model.

The paper estimates the physical latency between two overlay nodes as the
difference between their real-trace ping times from a central vantage point,
and a single-message latency as ``RTT / 2``.  We reproduce that estimator on
the (synthetic) trace ping times and expose the mean one-hop latency
``t_hop`` that the on-demand retrieval algorithm needs for its ``t_fetch``
estimate (equation (7)).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

import numpy as np


class LatencyModel:
    """Latency between overlay nodes derived from per-node ping times.

    Args:
        ping_ms: mapping node id -> ping time from the central crawler (ms).
        floor_ms: minimum one-way latency; two nodes with identical ping
            times are still physically apart.
    """

    def __init__(self, ping_ms: Mapping[int, float], floor_ms: float = 5.0) -> None:
        if floor_ms < 0:
            raise ValueError("floor_ms must be >= 0")
        self._ping_ms: Dict[int, float] = {int(k): float(v) for k, v in ping_ms.items()}
        self.floor_ms = float(floor_ms)

    def __contains__(self, node: int) -> bool:
        return node in self._ping_ms

    def add_node(self, node: int, ping_ms: float) -> None:
        """Register (or update) the ping time of ``node``."""
        self._ping_ms[int(node)] = float(ping_ms)

    def remove_node(self, node: int) -> None:
        """Forget a departed node (no-op if unknown)."""
        self._ping_ms.pop(node, None)

    def one_way_ms(self, a: int, b: int) -> float:
        """One-way latency between ``a`` and ``b`` in milliseconds.

        Estimated as half the absolute ping-time difference (the paper's
        |ping_a - ping_b| estimator divided by two for a single direction),
        floored at ``floor_ms``.
        """
        if a == b:
            return 0.0
        delta = abs(self._ping_ms[a] - self._ping_ms[b]) / 2.0
        return delta if delta > self.floor_ms else self.floor_ms

    def mean_hop_latency_ms(
        self,
        nodes: Optional[Iterable[int]] = None,
        sample_pairs: int = 2000,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Estimate the mean one-hop latency ``t_hop`` over random node pairs.

        The paper reports ``t_hop ≈ 50 ms`` for its traces; this estimator
        lets each experiment compute the equivalent value for its own trace.
        """
        ids = sorted(self._ping_ms if nodes is None else nodes)
        if len(ids) < 2:
            return self.floor_ms
        rng = rng or np.random.default_rng(0)
        pairs = min(sample_pairs, len(ids) * (len(ids) - 1) // 2)
        total = 0.0
        for _ in range(pairs):
            a, b = rng.choice(len(ids), size=2, replace=False)
            total += self.one_way_ms(ids[int(a)], ids[int(b)])
        return total / max(1, pairs)
