"""Section 5.1 table — theoretical vs simulated playback continuity.

The paper compares the Poisson model of Section 5.1 (``PC_old``, ``PC_new``
and their difference ``Δ``) against four simulated environments with 1000
nodes, ``p = 10``, mean inbound ``I = 15``, ``τ = 1`` s and ``k = 4``:

* theoretical result with λ = 15,
* theoretical result with λ = 14,
* homogeneous + static,
* homogeneous + dynamic,
* heterogeneous + static,
* heterogeneous + dynamic.

``PC_old`` corresponds to the CoolStreaming run (no pre-fetch) and
``PC_new`` to the ContinuStreaming run of the same environment; ``Δ`` is the
continuity increment brought by the DHT-assisted pre-fetch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.theory import (
    playback_continuity_new,
    playback_continuity_old,
)
from repro.net.churn import ConstantChurn
from repro.scenarios.cell import Cell, run_cell
from repro.scenarios.spec import ScenarioSpec


@dataclass(frozen=True)
class TheoryRow:
    """One row of the Section 5.1 comparison table."""

    environment: str
    pc_old: float
    pc_new: float

    @property
    def delta(self) -> float:
        return self.pc_new - self.pc_old


def theoretical_rows(
    playback_rate: float = 10.0,
    period: float = 1.0,
    replicas: int = 4,
    arrival_rates: tuple[float, ...] = (15.0, 14.0),
) -> List[TheoryRow]:
    """The analytic rows of the table (equations (13)-(15))."""
    rows = []
    for arrival_rate in arrival_rates:
        rows.append(
            TheoryRow(
                environment=f"theory λ={arrival_rate:g}",
                pc_old=playback_continuity_old(arrival_rate, playback_rate, period),
                pc_new=playback_continuity_new(
                    arrival_rate, playback_rate, period, replicas
                ),
            )
        )
    return rows


#: The simulated environments: uniform or drawn bandwidth, static or the
#: paper's 5 %-out / 5 %-in churn.
ENVIRONMENTS = tuple(
    ScenarioSpec(
        f"{bandwidth} {churn}",
        churn=ConstantChurn(0.05, 0.05) if churn == "dynamic" else None,
        config_overrides={"heterogeneous": bandwidth == "heterogeneous"},
    )
    for bandwidth in ("homogeneous", "heterogeneous")
    for churn in ("static", "dynamic")
)


def run_theory_table(nodes: int = 1000, rounds: int = 40, seed: int = 0) -> List[TheoryRow]:
    """Reproduce the Section 5.1 table: the analytic λ = 15 / λ = 14 rows,
    then each of :data:`ENVIRONMENTS` run at ``nodes`` × ``rounds`` with
    CoolStreaming as ``PC_old`` and ContinuStreaming as ``PC_new``."""
    rows = theoretical_rows()
    for scenario in ENVIRONMENTS:
        old, new = (
            run_cell(Cell(scenario, "sim", nodes, rounds, system, seed))
            for system in ("coolstreaming", "continustreaming")
        )
        rows.append(TheoryRow(
            environment=scenario.name,
            pc_old=old.metrics["stable_continuity"],
            pc_new=new.metrics["stable_continuity"],
        ))
    return rows


def format_theory_table(rows: List[TheoryRow]) -> str:
    """Plain-text rendering of the table."""
    header = f"{'environment':<24} | {'PC_old':>7} | {'PC_new':>7} | {'delta':>7}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.environment:<24} | {row.pc_old:>7.4f} | {row.pc_new:>7.4f} | "
            f"{row.delta:>7.4f}"
        )
    return "\n".join(lines)


def paper_reference_rows() -> List[TheoryRow]:
    """The values printed in the paper, for side-by-side comparison."""
    return [
        TheoryRow("theory λ=15", 0.8815, 0.9989),
        TheoryRow("theory λ=14", 0.8243, 0.9975),
        TheoryRow("homogeneous static", 0.8748, 0.9979),
        TheoryRow("homogeneous dynamic", 0.8520, 0.9803),
        TheoryRow("heterogeneous static", 0.8431, 0.9726),
        TheoryRow("heterogeneous dynamic", 0.8166, 0.9537),
    ]
