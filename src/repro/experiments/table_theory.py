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

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.analysis.theory import (
    playback_continuity_new,
    playback_continuity_old,
)
from repro.core.config import SystemConfig
from repro.core.system import StreamingSystem


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


def simulated_row(
    environment: str,
    config: SystemConfig,
) -> TheoryRow:
    """Run both systems on one environment and report PC_old / PC_new."""
    old = StreamingSystem(config, system="coolstreaming").run()
    new = StreamingSystem(config, system="continustreaming").run()
    return TheoryRow(
        environment=environment,
        pc_old=old.stable_continuity(),
        pc_new=new.stable_continuity(),
    )


def run_theory_table(
    base_config: Optional[SystemConfig] = None,
    include_theory: bool = True,
    churn_fraction: float = 0.05,
) -> List[TheoryRow]:
    """Reproduce the Section 5.1 table.

    Args:
        base_config: configuration of the simulated rows; defaults to 1000
            nodes with the paper's parameters (pass a smaller ``num_nodes``
            for a quick run).
        include_theory: include the analytic λ = 15 / λ = 14 rows.
        churn_fraction: per-round churn of the dynamic environments.
    """
    config = base_config or SystemConfig(num_nodes=1000, rounds=40)
    rows: List[TheoryRow] = []
    if include_theory:
        rows.extend(
            theoretical_rows(
                playback_rate=config.playback_rate,
                period=config.scheduling_period,
                replicas=config.backup_replicas,
                arrival_rates=(config.mean_inbound, config.mean_inbound - 1.0),
            )
        )
    environments = [
        ("homogeneous static", replace(config, heterogeneous=False)),
        (
            "homogeneous dynamic",
            replace(
                config,
                heterogeneous=False,
                leave_fraction=churn_fraction,
                join_fraction=churn_fraction,
            ),
        ),
        ("heterogeneous static", replace(config, heterogeneous=True)),
        (
            "heterogeneous dynamic",
            replace(
                config,
                heterogeneous=True,
                leave_fraction=churn_fraction,
                join_fraction=churn_fraction,
            ),
        ),
    ]
    for name, env_config in environments:
        rows.append(simulated_row(name, env_config))
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
