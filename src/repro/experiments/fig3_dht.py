"""Figure 3 — DHT routing hops and query success rate.

The paper evaluates the loosely organised DHT in isolation: with an id space
of ``N = 8192`` and ``n`` joined nodes (``n`` swept up to 8000), it reports

* the average number of routing hops per lookup, observed to be very close
  to ``log2(n) / 2``, and
* the query success rate, very close to 1.0 even when the ring is sparse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.theory import expected_dht_lookup_hops
from repro.dht.network import DhtNetwork

#: Node counts used by the paper's sweep (n < N = 8192).
PAPER_NODE_COUNTS: Sequence[int] = (500, 1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000)


@dataclass(frozen=True)
class Fig3Point:
    """One point of the Figure 3 curves."""

    num_nodes: int
    id_space: int
    average_hops: float
    success_rate: float
    expected_hops: float  # the paper's log2(n)/2 reference line


def run_fig3_dht(
    node_counts: Optional[Sequence[int]] = None,
    id_space: int = 8192,
    lookups_per_size: int = 2000,
    seed: int = 0,
) -> List[Fig3Point]:
    """Reproduce Figure 3.

    Args:
        node_counts: sizes to sweep (defaults to the paper's sweep).
        id_space: size of the identifier space (paper: 8192).
        lookups_per_size: random lookups per population size.
        seed: RNG seed.
    """
    counts = list(node_counts or PAPER_NODE_COUNTS)
    points: List[Fig3Point] = []
    for index, num_nodes in enumerate(counts):
        rng = np.random.default_rng(seed + index)
        network = DhtNetwork(id_space=id_space, rng=rng)
        network.populate(num_nodes)
        result = network.run_random_lookups(lookups_per_size, rng=rng)
        points.append(
            Fig3Point(
                num_nodes=num_nodes,
                id_space=id_space,
                average_hops=result.average_hops,
                success_rate=result.success_rate,
                expected_hops=expected_dht_lookup_hops(num_nodes),
            )
        )
    return points


def format_fig3(points: Sequence[Fig3Point]) -> str:
    """Plain-text rendering of the Figure 3 data."""
    lines = [f"{'n':>6} | {'avg hops':>9} | {'log2(n)/2':>9} | {'success':>8}"]
    lines.append("-" * len(lines[0]))
    for point in points:
        lines.append(
            f"{point.num_nodes:>6} | {point.average_hops:>9.2f} | "
            f"{point.expected_hops:>9.2f} | {point.success_rate:>8.3f}"
        )
    return "\n".join(lines)
