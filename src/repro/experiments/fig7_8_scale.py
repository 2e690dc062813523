"""Figures 7 and 8 — stable-phase continuity versus overlay size.

The paper sweeps the overlay size from 100 to 8000 nodes (``M = 5``) and
reports the stable-phase playback continuity of CoolStreaming and
ContinuStreaming in static (Figure 7) and dynamic (Figure 8) environments.
The observed trends are: both curves decrease with size, ContinuStreaming
stays well above CoolStreaming everywhere, and the increment
``Δ = PC_new − PC_old`` grows with the size — larger networks benefit more
from the DHT-assisted pre-fetch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.config import SystemConfig
from repro.core.system import StreamingSystem

#: Overlay sizes of the paper's sweep.
PAPER_SIZES: Sequence[int] = (100, 500, 1000, 2000, 4000, 8000)


@dataclass(frozen=True)
class ScalePoint:
    """Stable continuity of both systems at one overlay size."""

    num_nodes: int
    dynamic: bool
    coolstreaming: float
    continustreaming: float

    @property
    def delta(self) -> float:
        """The continuity increment brought by ContinuStreaming."""
        return self.continustreaming - self.coolstreaming


def run_scale_sweep(
    sizes: Optional[Sequence[int]] = None,
    dynamic: bool = False,
    rounds: int = 40,
    seed: int = 0,
    base_config: Optional[SystemConfig] = None,
) -> List[ScalePoint]:
    """Reproduce Figure 7 (``dynamic=False``) or Figure 8 (``dynamic=True``)."""
    sweep = list(sizes or PAPER_SIZES)
    points: List[ScalePoint] = []
    for num_nodes in sweep:
        config = (base_config or SystemConfig(num_nodes=num_nodes, rounds=rounds,
                                              seed=seed)).scaled(num_nodes, rounds)
        config = config.dynamic_variant() if dynamic else config.static_variant()
        cool = StreamingSystem(config, system="coolstreaming").run()
        conti = StreamingSystem(config, system="continustreaming").run()
        points.append(
            ScalePoint(
                num_nodes=num_nodes,
                dynamic=dynamic,
                coolstreaming=cool.stable_continuity(),
                continustreaming=conti.stable_continuity(),
            )
        )
    return points


def format_scale_sweep(points: Sequence[ScalePoint]) -> str:
    """Plain-text rendering of a Figure 7/8 sweep."""
    header = f"{'n':>6} | {'CoolStreaming':>13} | {'ContinuStreaming':>16} | {'delta':>6}"
    lines = [header, "-" * len(header)]
    for point in points:
        lines.append(
            f"{point.num_nodes:>6} | {point.coolstreaming:>13.3f} | "
            f"{point.continustreaming:>16.3f} | {point.delta:>6.3f}"
        )
    return "\n".join(lines)
