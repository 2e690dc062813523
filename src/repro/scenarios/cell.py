"""One cell runner: every "run one spec on one driver, then compare" path.

A :class:`Cell` names one run and :func:`run_cell` measures it into one
:class:`~repro.scenarios.results.Record`.  Campaign cells, the seed × scale
quality matrix (``tools/quality_matrix.py``) and sim-vs-live parity are
tables of cells plus a predicate over their records, so one set of
coordinates gives one record whichever path reaches it.  Parity is a
(simulator, live) pair per scenario and the predicate |Δ stable
continuity| ≤ :data:`PARITY_TOLERANCE` on the stable-phase means.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Tuple, Union

from repro.scenarios.results import COUNT_NAMES, Record
from repro.scenarios.spec import ScenarioSpec, load_scenarios

if TYPE_CHECKING:  # pragma: no cover - the runtime imports this package's spec module
    from repro.runtime.swarm import RunOptions

#: The drivers a cell runs on: the lock-step simulator, a live swarm in
#: this process, or a sharded multi-process cluster over TCP.
BACKENDS = ("sim", "runtime", "cluster")
#: The |Δ stable continuity| bar of a parity pair, churn and loss included.
PARITY_TOLERANCE = 0.03
#: A parity pair: the simulator's record, then the live driver's.
Pair = Tuple[Record, Record]


@dataclass(frozen=True)
class Cell:
    """One run: ``scenario`` (a built-in name, spec file or spec) on
    ``driver`` (one of :data:`BACKENDS`) at ``nodes`` × ``periods``, for
    ``system`` from root ``seed``.  ``options`` is how a live driver runs,
    passed to :func:`repro.runtime.swarm.run` as is (``None`` is its
    default record, ``shards > 1`` the cluster); the simulator ignores it.
    """

    scenario: Union[str, Path, ScenarioSpec]
    driver: str
    nodes: int
    periods: int
    system: str
    seed: int = 0
    options: Optional["RunOptions"] = None

    def __post_init__(self) -> None:
        if self.driver not in BACKENDS:
            raise ValueError(f"unknown backend {self.driver!r}; known: {BACKENDS}")


def run_cell(cell: Cell) -> Record:
    """Run ``cell`` and measure it; ``wall_time_s`` times the run alone."""
    (spec,) = load_scenarios([cell.scenario])
    spec = spec.scaled(cell.nodes, cell.periods, cell.seed, cell.system)
    start = time.perf_counter()
    if cell.driver == "sim":
        result = spec.run()
        joined = sum(r.nodes_joined for r in result.rounds)
        left = sum(r.nodes_left for r in result.rounds)
        counts = {}
    else:
        from repro.runtime.swarm import run

        result = run(spec, cell.options)
        joined, left = result.peers_joined, result.peers_left
        counts = {name: getattr(result, name) for name in COUNT_NAMES}
    wall_time = time.perf_counter() - start
    series = result.continuity_series()
    metrics = {
        "stable_continuity": float(result.stable_continuity()),
        "mean_continuity": float(sum(series) / len(series)) if series else 0.0,
        "final_continuity": float(series[-1]) if series else 0.0,
        "prefetch_overhead": float(result.prefetch_overhead()),
        "control_overhead": float(result.control_overhead()),
        "nodes_joined": float(joined),
        "nodes_left": float(left),
    }
    return Record(
        spec.name, cell.driver, cell.nodes, cell.periods, cell.system,
        seed=cell.seed, cell_seed=cell.seed, metrics=metrics, counts=counts,
        wall_time_s=wall_time, result=result,
    )


def parity_pair(
    scenario: Union[str, Path, ScenarioSpec],
    nodes: int,
    periods: int,
    seed: int = 0,
    options: Optional["RunOptions"] = None,
) -> Pair:
    """The simulator's and the live driver's records of one scenario, for
    its own system; the live side runs under ``options``."""
    (spec,) = load_scenarios([scenario])
    live = "cluster" if options is not None and options.shards > 1 else "runtime"
    sim = run_cell(Cell(spec, "sim", nodes, periods, spec.system, seed))
    return sim, run_cell(Cell(spec, live, nodes, periods, spec.system, seed, options))


def continuity_delta(pair: Pair) -> float:
    """|live − sim| stable continuity: the parity predicate's measure."""
    sim, live = pair
    return abs(live.metrics["stable_continuity"] - sim.metrics["stable_continuity"])


def parity_text(pair: Pair) -> str:
    """One pair as the ``runtime --parity`` report."""
    sim, live = pair
    lines = [f"parity {sim.scenario} n={sim.nodes} rounds={sim.periods} [{live.driver}]:"]
    for name, record in (("simulator", sim), (live.driver, live)):
        lines.append(
            f"  {name:<9}: stable continuity {record.metrics['stable_continuity']:.4f}, "
            f"prefetch overhead {record.metrics['prefetch_overhead']:.4f}"
        )
    lines.append(f"  |Δ continuity| = {continuity_delta(pair):.4f}")
    return "\n".join(lines)


def parity_table(pairs: Sequence[Pair], tolerance: float = PARITY_TOLERANCE) -> str:
    """One row per pair, its verdict against ``tolerance``, and the worst |Δ|;
    the live column is named after the live records' driver."""
    live = pairs[0][1].driver if pairs else "runtime"
    lines = [f"{'scenario':<14} {'sim':>8} {live:>8} {'|Δ|':>8}  verdict"]
    for sim, record in pairs:
        delta = continuity_delta((sim, record))
        lines.append(
            f"{sim.scenario:<14} {sim.metrics['stable_continuity']:>8.4f} "
            f"{record.metrics['stable_continuity']:>8.4f} "
            f"{delta:>8.4f}  {'ok' if delta <= tolerance else 'FAIL'}"
        )
    worst = max(map(continuity_delta, pairs), default=0.0)
    lines.append(f"max |Δ stable continuity| = {worst:.4f} (tolerance {tolerance})")
    return "\n".join(lines)
