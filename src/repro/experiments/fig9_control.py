"""Figure 9 — control overhead versus overlay size for M = 4, 5, 6.

The control overhead is the ratio of buffer-map exchange traffic to real
data-segment traffic.  The paper's back-of-envelope estimate is
``620 · M / (30 Kbit · 10) ≈ M / 495`` (each round a node fetches ``M``
buffer maps of 620 bits while receiving ``p = 10`` segments), and the
simulated values stay below 0.02 for every size from 100 to 8000 nodes,
slightly above the estimate because real continuity is below 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.analysis.theory import expected_control_overhead
from repro.core.config import SystemConfig
from repro.core.system import StreamingSystem

#: Overlay sizes of the paper's sweep.
PAPER_SIZES: Sequence[int] = (100, 500, 1000, 2000, 4000, 8000)

#: Neighbour counts of the paper's sweep.
PAPER_NEIGHBOR_COUNTS: Sequence[int] = (4, 5, 6)


@dataclass(frozen=True)
class ControlOverheadPoint:
    """Control overhead of one (size, M) combination."""

    num_nodes: int
    connected_neighbors: int
    control_overhead: float
    analytic_estimate: float


def run_control_overhead(
    sizes: Optional[Sequence[int]] = None,
    neighbor_counts: Optional[Sequence[int]] = None,
    rounds: int = 30,
    seed: int = 0,
    system: str = "continustreaming",
    base_config: Optional[SystemConfig] = None,
) -> List[ControlOverheadPoint]:
    """Reproduce Figure 9.

    The paper notes the control overhead of ContinuStreaming and
    CoolStreaming are essentially identical (same buffer-map exchange), so a
    single system suffices; ``system`` selects which one to run.
    """
    sweep = list(sizes or PAPER_SIZES)
    neighbor_sweep = list(neighbor_counts or PAPER_NEIGHBOR_COUNTS)
    points: List[ControlOverheadPoint] = []
    for num_nodes in sweep:
        for num_neighbors in neighbor_sweep:
            config = (base_config or SystemConfig(num_nodes=num_nodes, rounds=rounds,
                                                  seed=seed)).scaled(num_nodes, rounds)
            config = replace(config, connected_neighbors=num_neighbors)
            run = StreamingSystem(config, system=system).run()
            points.append(
                ControlOverheadPoint(
                    num_nodes=num_nodes,
                    connected_neighbors=num_neighbors,
                    control_overhead=run.control_overhead(),
                    analytic_estimate=expected_control_overhead(
                        num_neighbors,
                        buffer_capacity=config.buffer_capacity,
                        segment_bits=config.segment_bits,
                        playback_rate=config.playback_rate,
                    ),
                )
            )
    return points


def format_control_overhead(points: Sequence[ControlOverheadPoint]) -> str:
    """Plain-text rendering of the Figure 9 data."""
    header = f"{'n':>6} | {'M':>2} | {'control overhead':>16} | {'M/495':>7}"
    lines = [header, "-" * len(header)]
    for point in points:
        lines.append(
            f"{point.num_nodes:>6} | {point.connected_neighbors:>2} | "
            f"{point.control_overhead:>16.4f} | {point.analytic_estimate:>7.4f}"
        )
    return "\n".join(lines)
