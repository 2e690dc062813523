"""Reproduction of *ContinuStreaming* (Li, Cao, Chen — IPDPS 2008).

ContinuStreaming is a gossip-based peer-to-peer live-streaming system that
adds a lightweight DHT so that data segments which the randomised gossip
("smart pull") dissemination is about to miss can be pre-fetched on demand
from ``k`` backup holders before their playback deadline.

The package is organised as:

``repro.sim``
    Seeded, named RNG streams: every run is reproducible from one integer.
``repro.net``
    Overlay topology, synthetic Gnutella-like trace generator, latency and
    bandwidth models, message cost accounting, churn.
``repro.dht``
    ID-ring arithmetic, loosely-organised peer tables, greedy clockwise
    routing, backup placement, join/leave/handover, standalone DHT network.
``repro.membership``
    Rendezvous-point bootstrap and overhearing-based peer-table maintenance.
``repro.streaming``
    Segments, FIFO buffers, buffer-map encoding, media source, playback and
    continuity accounting.
``repro.core``
    The paper's contribution: the ContinuStreaming node (urgency+rarity data
    scheduling, Urgent-Line prediction with adaptive alpha, on-demand DHT
    retrieval, VoD backup), the CoolStreaming baseline, and the
    :class:`~repro.core.system.StreamingSystem` round loop, which runs one
    scheduling period at a time through a pipeline of phases.
``repro.analysis``
    The Poisson playback-continuity theory of Section 5.1, gossip coverage
    formulas, the DHT routing-hop bound, and metric aggregation helpers.
``repro.scenarios``
    The scenario engine: declarative workload specs (churn schedules,
    bandwidth-class mixes, loss rates), six built-in scenarios, and the
    parallel multi-seed campaign runner with its unified results store.
``repro.experiments``
    One module per paper table/figure plus a CLI runner (including the
    ``campaign`` command).
"""

from __future__ import annotations

from repro.analysis.theory import (
    playback_continuity_new,
    playback_continuity_old,
)
from repro.core.config import SystemConfig
from repro.core.system import StreamingSystem
from repro.scenarios import (
    CampaignRunner,
    ResultsStore,
    ScenarioSpec,
    builtin_scenario,
    run_campaign,
)

__all__ = [
    "SystemConfig",
    "StreamingSystem",
    "playback_continuity_old",
    "playback_continuity_new",
    "ScenarioSpec",
    "builtin_scenario",
    "CampaignRunner",
    "run_campaign",
    "ResultsStore",
    "__version__",
]

__version__ = "1.0.0"
