"""The pluggable round pipeline.

One scheduling period of a streaming protocol is a sequence of
:class:`~repro.core.phases.base.Phase` objects run once each, in pipeline
order, against a shared :class:`~repro.core.phases.base.RoundContext`.  The
numbered phases of the paper's round live here, one module each:

1. :class:`SourceGenerationPhase` — the source emits this period's segments;
2. :class:`BufferMapGossipPhase` — census, buffer-map snapshots, budgets;
3. :class:`UrgentLinePredictionPhase` — eq. (4)/(8) missed-segment prediction;
4. :class:`DataSchedulingPhase` — Algorithm 1 and the resulting transfers;
5. :class:`OnDemandRetrievalPhase` — Algorithm 2 over the DHT, after the
   scheduler in the same period; its fetches land at ``round_start +
   t_fetch`` by arithmetic (its ``Lookup`` is the supplier rule the live
   runtime shares);
6. :class:`PlaybackPhase` — one period of media, continuity sampled;
7. :class:`ChurnMaintenancePhase` — departures, arrivals, overlay repair.

Protocols bundle a node factory with a default pipeline and self-register
with the :class:`~repro.core.phases.registry.ProtocolRegistry`; see
:mod:`repro.core.phases.registry` for how to add one, and
``docs/architecture.md`` for the full picture.
"""

from repro.core.phases.base import Phase, PhaseReport, RoundContext
from repro.core.phases.churn import ChurnMaintenancePhase
from repro.core.phases.gossip import BufferMapGossipPhase
from repro.core.phases.ondemand import OnDemandRetrievalPhase
from repro.core.phases.playback import PlaybackPhase
from repro.core.phases.prediction import UrgentLinePredictionPhase
from repro.core.phases.registry import (
    ContinuStreamingProtocol,
    CoolStreamingProtocol,
    ProtocolRegistry,
    StreamingProtocol,
)
from repro.core.phases.scheduling import DataSchedulingPhase
from repro.core.phases.source import SourceGenerationPhase

__all__ = [
    "Phase",
    "PhaseReport",
    "RoundContext",
    "SourceGenerationPhase",
    "BufferMapGossipPhase",
    "UrgentLinePredictionPhase",
    "DataSchedulingPhase",
    "OnDemandRetrievalPhase",
    "PlaybackPhase",
    "ChurnMaintenancePhase",
    "StreamingProtocol",
    "ProtocolRegistry",
    "ContinuStreamingProtocol",
    "CoolStreamingProtocol",
]
