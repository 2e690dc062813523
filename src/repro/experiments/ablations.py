"""Ablation experiments for ContinuStreaming's design choices.

These are not figures from the paper; they quantify the contribution of the
individual mechanisms ContinuStreaming layers on top of the CoolStreaming
baseline:

* scheduling policy — urgency+rarity (equations (1)-(3)) vs rarest-first;
* the number of backup replicas ``k`` (the analytic per-segment pre-fetch
  failure probability is ``(½)^k``);
* the per-period pre-fetch cap ``l``;
* whole pipeline phases — the ``pipeline=`` hook removes a
  :class:`~repro.core.phases.base.Phase` structurally instead of tuning its
  parameters to zero.

Each row names a scenario and a system, like a
:class:`~repro.scenarios.cell.Cell`; the tuned rows override one config
field of the static scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from repro.core.phases import Phase, ProtocolRegistry
from repro.core.system import StreamingSystem
from repro.scenarios.cell import Cell, run_cell
from repro.scenarios.spec import ScenarioSpec, load_scenarios


@dataclass(frozen=True)
class AblationPoint:
    """One configuration of an ablation sweep."""

    name: str
    stable_continuity: float
    prefetch_overhead: float
    control_overhead: float


def _tuned(name: str, value: int) -> ScenarioSpec:
    """The static scenario with config field ``name`` set to ``value``."""
    return ScenarioSpec(f"static {name}={value}", config_overrides={name: value})


#: One ablation row: its label, the scenario it runs, the system it runs,
#: and the phases removed from that system's pipeline.
Row = Tuple[str, Union[str, ScenarioSpec], str, Tuple[str, ...]]

#: Every ablation sweep, keyed by section title.
SECTIONS: Dict[str, Tuple[Row, ...]] = {
    # Scheduling policy: the CoolStreaming baseline, ContinuStreaming with
    # its pre-fetch disabled (scheduler-only effect), the full system.
    "priority / pre-fetch": (
        ("coolstreaming (rarest-first)", "static", "coolstreaming", ()),
        ("continustreaming scheduler only (no pre-fetch)", _tuned("prefetch_limit", 0),
         "continustreaming", ()),
        ("continustreaming full", "static", "continustreaming", ()),
    ),
    "backup replicas k": tuple(
        (f"k={k}", _tuned("backup_replicas", k), "continustreaming", ())
        for k in (1, 2, 4)
    ),
    "pre-fetch cap l": tuple(
        (f"l={limit}", _tuned("prefetch_limit", limit), "continustreaming", ())
        for limit in (0, 5, 10)
    ),
    # Unlike ``l=0`` (which still runs the prediction machinery), these
    # remove whole phases from the round pipeline: first the on-demand
    # retrieval (predictions are made but never acted on), then the
    # urgent-line prediction as well (pure gossip with ContinuStreaming's
    # scheduler).
    "pipeline phases": (
        ("full pipeline", "static", "continustreaming", ()),
        ("no on-demand retrieval phase", "static", "continustreaming",
         ("on-demand-retrieval",)),
        ("no prediction, no retrieval", "static", "continustreaming",
         ("urgent-line-prediction", "on-demand-retrieval")),
    ),
}


def _pipeline_without(system: str, *phase_names: str) -> List[Phase]:
    """The ``system`` protocol's default pipeline minus the named phases.

    Raises:
        ValueError: if a requested name matches no phase — a typo here would
            otherwise silently produce a "full pipeline" labelled as ablated.
    """
    default = ProtocolRegistry.get(system).build_pipeline()
    known = {phase.name for phase in default}
    missing = [name for name in phase_names if name not in known]
    if missing:
        raise ValueError(
            f"cannot ablate {missing!r}: not in the {system!r} pipeline {sorted(known)}"
        )
    return [phase for phase in default if phase.name not in phase_names]


def _point(row: Row, nodes: int, rounds: int, seed: int) -> AblationPoint:
    name, scenario, system, removed = row
    if removed:
        # A cell names a protocol, not a pipeline: a structural ablation
        # runs the scenario's config through the ``pipeline=`` hook.
        (spec,) = load_scenarios([scenario])
        spec = spec.scaled(nodes, rounds, seed)
        pipeline = _pipeline_without(system, *removed)
        run = StreamingSystem(spec.to_config(), system=system, pipeline=pipeline).run()
        metrics = {
            "stable_continuity": run.stable_continuity(),
            "prefetch_overhead": run.prefetch_overhead(),
            "control_overhead": run.control_overhead(),
        }
    else:
        metrics = run_cell(Cell(scenario, "sim", nodes, rounds, system, seed)).metrics
    return AblationPoint(
        name=name,
        stable_continuity=metrics["stable_continuity"],
        prefetch_overhead=metrics["prefetch_overhead"],
        control_overhead=metrics["control_overhead"],
    )


def run_ablations(
    nodes: int = 200, rounds: int = 30, seed: int = 0
) -> Dict[str, List[AblationPoint]]:
    """Every ablation sweep of :data:`SECTIONS` at ``nodes`` × ``rounds``."""
    return {
        title: [_point(row, nodes, rounds, seed) for row in rows]
        for title, rows in SECTIONS.items()
    }


def format_ablations(sections: Dict[str, List[AblationPoint]]) -> str:
    """Plain-text rendering of :func:`run_ablations`, one table per section."""
    return "\n".join(
        f"== {title} ==\n{format_ablation(points)}\n" for title, points in sections.items()
    )


def format_ablation(points: Sequence[AblationPoint]) -> str:
    """Plain-text rendering of an ablation sweep."""
    header = (
        f"{'configuration':<46} | {'continuity':>10} | {'pre-fetch':>9} | {'control':>7}"
    )
    lines = [header, "-" * len(header)]
    for point in points:
        lines.append(
            f"{point.name:<46} | {point.stable_continuity:>10.3f} | "
            f"{point.prefetch_overhead:>9.4f} | {point.control_overhead:>7.4f}"
        )
    return "\n".join(lines)
