"""Ablation experiments for ContinuStreaming's design choices.

These are not figures from the paper; they quantify the contribution of the
individual mechanisms ContinuStreaming layers on top of the CoolStreaming
baseline:

* scheduling policy — urgency+rarity (equations (1)-(3)) vs rarest-first;
* the number of backup replicas ``k`` (the analytic per-segment pre-fetch
  failure probability is ``(½)^k``);
* the per-period pre-fetch cap ``l``;
* whole pipeline phases — the ``pipeline=`` hook removes (or replaces) a
  :class:`~repro.core.phases.base.Phase` structurally instead of tuning its
  parameters to zero (:func:`run_phase_ablation`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.core.config import SystemConfig
from repro.core.phases import Phase, ProtocolRegistry
from repro.core.system import StreamingSystem


@dataclass(frozen=True)
class AblationPoint:
    """One configuration of an ablation sweep."""

    name: str
    stable_continuity: float
    prefetch_overhead: float
    control_overhead: float


def _run(
    name: str,
    config: SystemConfig,
    system: str,
    pipeline: Optional[Sequence[Phase]] = None,
) -> AblationPoint:
    run = StreamingSystem(config, system=system, pipeline=pipeline).run()
    return AblationPoint(
        name=name,
        stable_continuity=run.stable_continuity(),
        prefetch_overhead=run.prefetch_overhead(),
        control_overhead=run.control_overhead(),
    )


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


def run_phase_ablation(
    base_config: Optional[SystemConfig] = None,
) -> List[AblationPoint]:
    """Structural pipeline ablation via the ``pipeline=`` hook.

    Unlike :func:`run_prefetch_limit_ablation` (which tunes ``l`` to zero but
    still runs the prediction machinery), this removes whole phases from the
    round pipeline: first the on-demand retrieval (predictions are made but
    never acted on), then the urgent-line prediction as well (pure gossip
    with ContinuStreaming's scheduler).
    """
    config = base_config or SystemConfig(num_nodes=200, rounds=30)
    return [
        _run("full pipeline", config, "continustreaming"),
        _run(
            "no on-demand retrieval phase",
            config,
            "continustreaming",
            pipeline=_pipeline_without("continustreaming", "on-demand-retrieval"),
        ),
        _run(
            "no prediction, no retrieval",
            config,
            "continustreaming",
            pipeline=_pipeline_without(
                "continustreaming", "urgent-line-prediction", "on-demand-retrieval"
            ),
        ),
    ]


def run_priority_ablation(
    base_config: Optional[SystemConfig] = None,
) -> List[AblationPoint]:
    """Scheduling-policy ablation.

    Compares the CoolStreaming baseline, ContinuStreaming with its pre-fetch
    disabled (scheduler-only effect) and the full ContinuStreaming system, on
    the same topology/seed.
    """
    config = base_config or SystemConfig(num_nodes=200, rounds=30)
    return [
        _run("coolstreaming (rarest-first)", config, "coolstreaming"),
        _run(
            "continustreaming scheduler only (no pre-fetch)",
            replace(config, prefetch_limit=0),
            "continustreaming",
        ),
        _run("continustreaming full", config, "continustreaming"),
    ]


def run_replica_ablation(
    replica_counts: Sequence[int] = (1, 2, 4, 8),
    base_config: Optional[SystemConfig] = None,
) -> List[AblationPoint]:
    """Backup-replica ablation: ``k`` vs continuity and overhead."""
    config = base_config or SystemConfig(num_nodes=200, rounds=30)
    return [
        _run(f"k={k}", replace(config, backup_replicas=k), "continustreaming")
        for k in replica_counts
    ]


def run_prefetch_limit_ablation(
    limits: Sequence[int] = (0, 2, 5, 10),
    base_config: Optional[SystemConfig] = None,
) -> List[AblationPoint]:
    """Pre-fetch cap ablation: ``l`` vs continuity and overhead."""
    config = base_config or SystemConfig(num_nodes=200, rounds=30)
    return [
        _run(f"l={limit}", replace(config, prefetch_limit=limit), "continustreaming")
        for limit in limits
    ]


def run_ablations(base_config: SystemConfig) -> Dict[str, List[AblationPoint]]:
    """Every ablation sweep on one configuration, keyed by section title."""
    return {
        "priority / pre-fetch": run_priority_ablation(base_config),
        "backup replicas k": run_replica_ablation((1, 2, 4), base_config),
        "pre-fetch cap l": run_prefetch_limit_ablation((0, 5, 10), base_config),
        "pipeline phases": run_phase_ablation(base_config),
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
