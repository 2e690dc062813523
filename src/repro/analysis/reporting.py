"""Plain-text reporting helpers for simulation results.

The experiment CLI and the benchmark suite print their regenerated
rows/series; this module centralises the formatting of a full
:class:`~repro.core.system.SimulationResult` (and of side-by-side
comparisons between the two systems) so the output reads the same everywhere
and can be diffed against ``EXPERIMENTS.md``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.system import SimulationResult
from repro.net.message import MessageKind


def sparkline(values: Sequence[float], width: int = 40) -> str:
    """A coarse ASCII sparkline of a [0, 1] series (for terminal output)."""
    if not values:
        return ""
    glyphs = " .:-=+*#%@"
    if len(values) > width:
        # Downsample by averaging consecutive chunks.
        chunk = len(values) / width
        sampled = [
            sum(values[int(i * chunk): max(int(i * chunk) + 1, int((i + 1) * chunk))])
            / max(1, len(values[int(i * chunk): max(int(i * chunk) + 1, int((i + 1) * chunk))]))
            for i in range(width)
        ]
    else:
        sampled = list(values)
    out = []
    for value in sampled:
        clamped = min(1.0, max(0.0, float(value)))
        out.append(glyphs[int(round(clamped * (len(glyphs) - 1)))])
    return "".join(out)


def describe_result(result: SimulationResult) -> str:
    """Multi-line description of one run (continuity + overheads + traffic)."""
    totals = result.traffic.cumulative()
    lines = [
        f"system              : {result.system}",
        f"nodes / rounds      : {result.config.num_nodes} / {result.config.rounds}",
        f"environment         : "
        f"{'dynamic' if result.config.is_dynamic else 'static'}, "
        f"{'heterogeneous' if result.config.heterogeneous else 'homogeneous'}",
        f"stable continuity   : {result.stable_continuity():.4f}",
        f"continuity track    : {sparkline(result.continuity_series())}",
        f"control overhead    : {result.control_overhead():.4f}",
        f"pre-fetch overhead  : {result.prefetch_overhead():.4f}",
        f"data traffic (Mbit) : "
        f"{totals.bits_of(MessageKind.DATA_SCHEDULED) / 1e6:.2f} scheduled, "
        f"{totals.bits_of(MessageKind.DATA_PREFETCH) / 1e6:.2f} pre-fetched",
        f"control traffic     : "
        f"{totals.bits_of(MessageKind.BUFFER_MAP) / 1e6:.2f} Mbit buffer maps, "
        f"{totals.bits_of(MessageKind.DHT_ROUTING) / 1e6:.3f} Mbit DHT routing",
    ]
    return "\n".join(lines)


def compare_results(results: Mapping[str, SimulationResult]) -> str:
    """Side-by-side summary table of several runs keyed by label."""
    header = (
        f"{'run':<22} | {'continuity':>10} | {'control':>8} | {'pre-fetch':>9}"
    )
    lines = [header, "-" * len(header)]
    for label, result in results.items():
        lines.append(
            f"{label:<22} | {result.stable_continuity():>10.4f} | "
            f"{result.control_overhead():>8.4f} | {result.prefetch_overhead():>9.4f}"
        )
    return "\n".join(lines)


def continuity_increment(results: Mapping[str, SimulationResult]) -> float:
    """``Δ = PC_new − PC_old`` between the two systems of a comparison run."""
    try:
        new = results["continustreaming"].stable_continuity()
        old = results["coolstreaming"].stable_continuity()
    except KeyError as error:  # pragma: no cover - defensive
        raise KeyError(
            "expected results for both 'continustreaming' and 'coolstreaming'"
        ) from error
    return new - old


def per_round_table(result: SimulationResult, every: int = 1) -> str:
    """Round-by-round table (time, continuity, scheduled, pre-fetched)."""
    if every < 1:
        raise ValueError("every must be >= 1")
    header = f"{'t (s)':>6} | {'continuity':>10} | {'scheduled':>9} | {'prefetched':>10}"
    lines = [header, "-" * len(header)]
    for report in result.rounds[::every]:
        lines.append(
            f"{report.time:>6.1f} | {report.continuity:>10.3f} | "
            f"{report.segments_scheduled:>9} | {report.segments_prefetched:>10}"
        )
    return "\n".join(lines)
