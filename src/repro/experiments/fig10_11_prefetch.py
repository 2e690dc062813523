"""Figures 10 and 11 — pre-fetch overhead.

The pre-fetch overhead is the ratio of (DHT routing traffic + pre-fetched
data traffic) to the real data traffic of the scheduling path; it is the
*extra* cost ContinuStreaming adds over CoolStreaming.  The paper reports:

* Figure 10 — the per-round track for a 1000-node network: almost zero in
  the first seconds (most nodes miss more than ``l`` segments, so the
  pre-fetch does not trigger), a bump once every node knows the source, and
  a stable phase around 0.023 (static) / 0.03 (dynamic).
* Figure 11 — the stable-phase value versus overlay size: below 0.04
  everywhere, higher in dynamic environments than static ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import stable_phase_mean
from repro.core.config import SystemConfig
from repro.core.system import StreamingSystem

#: Overlay sizes of the paper's Figure 11 sweep.
PAPER_SIZES: Sequence[int] = (100, 500, 1000, 2000, 4000, 8000)


@dataclass(frozen=True)
class PrefetchOverheadPoint:
    """Stable-phase pre-fetch overhead of one (size, environment) pair."""

    num_nodes: int
    dynamic: bool
    prefetch_overhead: float


@dataclass(frozen=True)
class PrefetchTrack:
    """Per-round pre-fetch overhead of one environment (Figure 10)."""

    dynamic: bool
    times: tuple[float, ...]
    overhead: tuple[float, ...]
    stable_overhead: float


def run_prefetch_overhead_track(
    num_nodes: int = 1000,
    rounds: int = 30,
    seed: int = 0,
    base_config: Optional[SystemConfig] = None,
) -> Dict[str, PrefetchTrack]:
    """Reproduce Figure 10: the static and dynamic per-round tracks."""
    results: Dict[str, PrefetchTrack] = {}
    for label, dynamic in (("static", False), ("dynamic", True)):
        config = (base_config or SystemConfig(num_nodes=num_nodes, rounds=rounds,
                                              seed=seed)).scaled(num_nodes, rounds)
        config = config.dynamic_variant() if dynamic else config.static_variant()
        run = StreamingSystem(config, system="continustreaming").run()
        series = run.prefetch_overhead_series()
        results[label] = PrefetchTrack(
            dynamic=dynamic,
            times=tuple(run.traffic.times),
            overhead=tuple(series),
            stable_overhead=stable_phase_mean(series),
        )
    return results


def run_prefetch_overhead_scale(
    sizes: Optional[Sequence[int]] = None,
    rounds: int = 30,
    seed: int = 0,
    base_config: Optional[SystemConfig] = None,
) -> List[PrefetchOverheadPoint]:
    """Reproduce Figure 11: stable-phase pre-fetch overhead vs overlay size."""
    sweep = list(sizes or PAPER_SIZES)
    points: List[PrefetchOverheadPoint] = []
    for num_nodes in sweep:
        for dynamic in (False, True):
            config = (base_config or SystemConfig(num_nodes=num_nodes, rounds=rounds,
                                                  seed=seed)).scaled(num_nodes, rounds)
            config = config.dynamic_variant() if dynamic else config.static_variant()
            run = StreamingSystem(config, system="continustreaming").run()
            points.append(
                PrefetchOverheadPoint(
                    num_nodes=num_nodes,
                    dynamic=dynamic,
                    prefetch_overhead=stable_phase_mean(
                        run.prefetch_overhead_series()
                    ),
                )
            )
    return points


def format_prefetch_track(tracks: Dict[str, PrefetchTrack]) -> str:
    """Plain-text rendering of the Figure 10 data."""
    return "\n".join(
        f"{label}: stable pre-fetch overhead {track.stable_overhead:.4f}\n"
        f"  track: [{', '.join(f'{value:.4f}' for value in track.overhead)}]"
        for label, track in tracks.items()
    )


def format_prefetch_scale(points: Sequence[PrefetchOverheadPoint]) -> str:
    """Plain-text rendering of the Figure 11 data."""
    header = f"{'n':>6} | {'environment':>11} | {'pre-fetch overhead':>18}"
    lines = [header, "-" * len(header)]
    for point in points:
        env = "dynamic" if point.dynamic else "static"
        lines.append(
            f"{point.num_nodes:>6} | {env:>11} | {point.prefetch_overhead:>18.4f}"
        )
    return "\n".join(lines)
