"""Sim-vs-runtime parity harness.

The live runtime reuses the simulator's node logic, overlay construction
and message accounting — so on the same scenario both should converge to
the same stable playback continuity, even though the runtime replaces the
lock-step round barrier with real concurrent tasks, wire frames and link
latency.  This harness runs both on one scenario and reports the deltas;
``docs/runtime.md`` documents the expected agreement (stable continuity
within 0.02 on the ``static`` scenario at 200 nodes, the acceptance bar
the CI parity test enforces).

The simulator side is deterministic; the runtime side carries wall-clock
noise, which is exactly why the comparison targets the *stable-phase mean*
rather than any individual round sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.core.system import SimulationResult
from repro.runtime.swarm import RunOptions, RuntimeResult, run
from repro.scenarios.spec import ScenarioSpec, load_scenarios

#: The |Δ stable continuity| bar the full-matrix parity acceptance uses:
#: every built-in scenario — churn spikes, blackouts and lossy swarms
#: included — must agree between the engines within three points.
PARITY_TOLERANCE = 0.03


@dataclass(frozen=True)
class ParityReport:
    """Side-by-side stable metrics of one simulator run and one swarm run."""

    scenario: str
    num_nodes: int
    rounds: int
    sim_stable_continuity: float
    runtime_stable_continuity: float
    sim_prefetch_overhead: float
    runtime_prefetch_overhead: float
    sim_result: SimulationResult
    runtime_result: RuntimeResult
    #: The live engine on the runtime side (``"runtime"`` or ``"cluster"``).
    backend: str = "runtime"

    @property
    def continuity_delta(self) -> float:
        """|runtime − sim| stable continuity (the acceptance metric)."""
        return abs(self.runtime_stable_continuity - self.sim_stable_continuity)

    def formatted(self) -> str:
        """Human-readable two-line comparison."""
        return (
            f"parity {self.scenario} n={self.num_nodes} rounds={self.rounds} "
            f"[{self.backend}]:\n"
            f"  simulator: stable continuity {self.sim_stable_continuity:.4f}, "
            f"prefetch overhead {self.sim_prefetch_overhead:.4f}\n"
            f"  {self.backend:<9}: stable continuity "
            f"{self.runtime_stable_continuity:.4f}, "
            f"prefetch overhead {self.runtime_prefetch_overhead:.4f}\n"
            f"  |Δ continuity| = {self.continuity_delta:.4f}"
        )


def run_parity(
    scenario: Union[str, ScenarioSpec] = "static",
    num_nodes: int = 200,
    rounds: int = 40,
    seed: int = 0,
    options: Optional[RunOptions] = None,
    **overrides: Any,
) -> ParityReport:
    """Run one scenario through the simulator and the live runtime.

    Args:
        scenario: built-in scenario name, spec file path, or spec object.
        num_nodes: overlay size for both runs.
        rounds: scheduling periods for both runs.
        seed: root seed (identical construction on both sides).
        options: how the live side runs (``overrides`` set
            :class:`~repro.runtime.swarm.RunOptions` fields in place):
            ``clock="virtual"`` for the deterministic virtual clock (fast,
            machine-independent; what the matrix acceptance runs on),
            ``shards=N`` to put a sharded multi-process cluster on the
            live side (the small-scale cluster-vs-sim parity check).
    """
    (spec,) = load_scenarios([scenario]) if not isinstance(scenario, ScenarioSpec) else (scenario,)
    spec = spec.scaled(num_nodes=num_nodes, rounds=rounds, seed=seed)
    sim_result = spec.run()
    runtime_result = run(spec, options, **overrides)
    return ParityReport(
        scenario=spec.name,
        num_nodes=num_nodes,
        rounds=rounds,
        backend="cluster" if runtime_result.shards > 1 else "runtime",
        sim_stable_continuity=float(sim_result.stable_continuity()),
        runtime_stable_continuity=float(runtime_result.stable_continuity()),
        sim_prefetch_overhead=float(sim_result.prefetch_overhead()),
        runtime_prefetch_overhead=float(runtime_result.prefetch_overhead()),
        sim_result=sim_result,
        runtime_result=runtime_result,
    )


@dataclass(frozen=True)
class ParityMatrix:
    """Parity reports across a set of scenarios (one grid acceptance)."""

    reports: Tuple[ParityReport, ...]

    @property
    def max_delta(self) -> float:
        """The worst |Δ stable continuity| across the matrix."""
        return max((r.continuity_delta for r in self.reports), default=0.0)

    def failures(self, tolerance: float = PARITY_TOLERANCE) -> List[ParityReport]:
        """The reports whose continuity delta exceeds ``tolerance``."""
        return [r for r in self.reports if r.continuity_delta > tolerance]

    def formatted(self, tolerance: float = PARITY_TOLERANCE) -> str:
        """One table row per scenario plus a verdict line."""
        lines = [
            f"{'scenario':<14} {'sim':>8} {'runtime':>8} {'|Δ|':>8}  verdict"
        ]
        for r in self.reports:
            verdict = "ok" if r.continuity_delta <= tolerance else "FAIL"
            lines.append(
                f"{r.scenario:<14} {r.sim_stable_continuity:>8.4f} "
                f"{r.runtime_stable_continuity:>8.4f} "
                f"{r.continuity_delta:>8.4f}  {verdict}"
            )
        lines.append(
            f"max |Δ stable continuity| = {self.max_delta:.4f} "
            f"(tolerance {tolerance})"
        )
        return "\n".join(lines)


def run_parity_matrix(
    scenarios: Optional[Sequence[Union[str, ScenarioSpec]]] = None,
    num_nodes: int = 120,
    rounds: int = 40,
    seed: int = 0,
    options: Optional[RunOptions] = None,
    **overrides: Any,
) -> ParityMatrix:
    """Run the sim-vs-live parity harness across several scenarios.

    ``scenarios=None`` covers every built-in scenario — the full matrix
    the nightly CI job runs at |Δ| ≤ :data:`PARITY_TOLERANCE`.  Without
    ``options`` an in-process matrix runs on the **virtual clock**, which
    makes it deterministic and wall-wait-free (runtime cost is CPU only),
    so the acceptance bar does not depend on how loaded the machine is.
    ``shards=N`` puts sharded multi-process swarms on the live side
    instead (wall clock, real sockets — slower and noisier, which is
    exactly what the optional cluster axis of ``runtime --parity-matrix``
    is for).
    """
    if scenarios is None:
        from repro.scenarios.library import builtin_names

        scenarios = list(builtin_names())
    if options is None:
        options = RunOptions(clock="wall" if overrides.get("shards", 1) > 1 else "virtual")
    reports = tuple(
        run_parity(
            scenario, num_nodes=num_nodes, rounds=rounds, seed=seed, options=options, **overrides
        )
        for scenario in scenarios
    )
    return ParityMatrix(reports=reports)
