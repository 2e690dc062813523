"""Figures 5 and 6 — playback-continuity tracks over the first 30 seconds.

The paper tracks the system-wide playback continuity of CoolStreaming and
ContinuStreaming for the first 30 seconds after the stream starts, with 1000
nodes and a single source:

* Figure 5 (static): CoolStreaming enters its stable phase around 26 s at a
  continuity of roughly 0.83; ContinuStreaming around 18 s at roughly 0.97.
* Figure 6 (dynamic, 5 % joins + 5 % leaves per period): roughly 0.78 vs
  0.95, with ContinuStreaming's improvement larger than in the static case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.scenarios.cell import Cell, run_cell


@dataclass(frozen=True)
class TrackResult:
    """Continuity track of one system in one environment."""

    system: str
    dynamic: bool
    times: tuple[float, ...]
    continuity: tuple[float, ...]
    stable_continuity: float
    time_to_stable: Optional[float]


def run_continuity_track(
    num_nodes: int = 1000,
    rounds: int = 30,
    dynamic: bool = False,
    seed: int = 0,
) -> Dict[str, TrackResult]:
    """Reproduce Figure 5 (``dynamic=False``) or Figure 6 (``dynamic=True``).

    Returns a mapping ``{"coolstreaming": ..., "continustreaming": ...}``.
    ``time_to_stable`` is the first time the track reaches 95 % of its
    stable-phase value, which is how we quantify the paper's "enters its
    stable phase in X seconds".
    """
    scenario = "paper-dynamic" if dynamic else "static"
    results: Dict[str, TrackResult] = {}
    for system in ("coolstreaming", "continustreaming"):
        record = run_cell(Cell(scenario, "sim", num_nodes, rounds, system, seed))
        stable = record.metrics["stable_continuity"]
        tracker = record.result.tracker
        results[system] = TrackResult(
            system=system,
            dynamic=dynamic,
            times=tuple(tracker.times),
            continuity=tuple(tracker.continuity),
            stable_continuity=stable,
            time_to_stable=tracker.time_to_reach(stable * 0.95),
        )
    return results


def format_track(results: Dict[str, TrackResult]) -> str:
    """Plain-text rendering of a Figure 5/6 run."""
    lines = []
    for system, result in results.items():
        env = "dynamic" if result.dynamic else "static"
        lines.append(
            f"{system} ({env}): stable continuity {result.stable_continuity:.3f}, "
            f"reaches stable phase at "
            f"{result.time_to_stable if result.time_to_stable is not None else 'n/a'} s"
        )
        track = ", ".join(f"{value:.2f}" for value in result.continuity)
        lines.append(f"  track: [{track}]")
    return "\n".join(lines)
