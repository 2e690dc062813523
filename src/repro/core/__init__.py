"""Core contribution: the ContinuStreaming node and system, plus the baseline.

* :mod:`repro.core.config` — every tunable of the paper's evaluation in one
  validated dataclass.
* :mod:`repro.core.scheduler` — urgency/rarity priorities (equations (1)-(3))
  and the greedy supplier assignment of Algorithm 1; also the rarest-first
  priority used by the CoolStreaming baseline.
* :mod:`repro.core.urgent_line` — the Urgent Line predictor with its
  adaptively tuned urgent ratio ``alpha`` (equations (4), (8), (9) and the
  overdue/repeated update rules).
* :mod:`repro.core.backup` — the per-node VoD Data Backup store and the
  responsibility rule of equation (5), including leave-time handover.
* :mod:`repro.core.rate_controller` — per-neighbour receive-rate estimation.
* :mod:`repro.core.node` / :mod:`repro.core.continu` — node state
  machines (the CoolStreaming baseline is a plain
  :class:`~repro.core.node.StreamingNode` with the ``rarest_first`` policy).
* :mod:`repro.core.phases` — the pluggable round pipeline: one
  :class:`~repro.core.phases.base.Phase` per step of the scheduling period,
  the shared :class:`~repro.core.phases.base.RoundContext`, and the
  :class:`~repro.core.phases.registry.ProtocolRegistry` that maps protocol
  names to node factories and default pipelines.
* :mod:`repro.core.overlay` — overlay construction and maintenance
  (topology, partnerships, DHT fingers, churn-time admission/removal).
* :mod:`repro.core.system` — the thin facade tying protocol and overlay
  together: one loop over the phase pipeline per scheduling period,
  producing the metrics the paper reports.
"""

from repro.core.config import SystemConfig
from repro.core.continu import ContinuStreamingNode
from repro.core.node import StreamingNode
from repro.core.overlay import OverlayManager
from repro.core.phases import (
    Phase,
    PhaseReport,
    ProtocolRegistry,
    RoundContext,
    StreamingProtocol,
)
from repro.core.system import SimulationResult, StreamingSystem

__all__ = [
    "SystemConfig",
    "StreamingNode",
    "ContinuStreamingNode",
    "StreamingSystem",
    "SimulationResult",
    "OverlayManager",
    "Phase",
    "PhaseReport",
    "RoundContext",
    "StreamingProtocol",
    "ProtocolRegistry",
]
