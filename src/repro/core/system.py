"""The streaming-system facade: construction, the round loop, results.

:class:`StreamingSystem` is a thin coordinator.  The heavy lifting lives in
two places it composes:

* the :class:`~repro.core.phases.registry.ProtocolRegistry` resolves the
  ``system`` name (``"continustreaming"``, ``"coolstreaming"``, or any
  registered third variant) to a protocol that knows how to build nodes and
  which :class:`~repro.core.phases.base.Phase` pipeline its rounds run;
* the :class:`~repro.core.overlay.OverlayManager` builds and maintains the
  overlay — trace topology, latency/bandwidth models, Rendezvous Point,
  partnerships, DHT fingers, churn-time admission/removal and repair.

Time advances one scheduling period ``τ`` at a time.  :meth:`step_round`
builds one :class:`~repro.core.phases.base.RoundContext` for the period
starting at ``round_index · τ``, runs every phase of the pipeline against
it in order, and folds the context's counters into a :class:`RoundReport`;
:meth:`run` is that loop ``rounds`` times.  Times inside a period are
arithmetic on ``ctx.round_start`` (a DHT fetch lands at ``round_start +
t_fetch``), not scheduled events.  Custom pipelines (ablations, metric
taps) plug in via the ``pipeline=`` argument without touching this module;
see ``docs/architecture.md``.

All randomness flows from the config seed through named
:class:`~repro.sim.rng.RngStreams`, so a ContinuStreaming run and a
CoolStreaming run with the same seed see the *same* topology, bandwidth
assignment and churn schedule — the comparison isolates the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.core.node import StreamingNode
from repro.core.overlay import OverlayManager
from repro.core.phases import Phase, ProtocolRegistry, RoundContext
from repro.net.message import MessageLedger, RoundTrafficLog
from repro.sim.rng import RngStreams
from repro.streaming.playback import ContinuityTracker
from repro.streaming.source import MediaSource


@dataclass
class RoundReport:
    """What happened during one scheduling period (for tests and analysis)."""

    round_index: int
    time: float
    continuity: float
    nodes_playing: int
    nodes_total: int
    segments_scheduled: int
    segments_prefetched: int
    prefetch_triggers: int
    nodes_joined: int
    nodes_left: int
    #: How this period's Algorithm 2 lookups ended, and the walks they made.
    lookups_located: int = 0
    lookups_no_holder: int = 0
    lookups_no_rate: int = 0
    lookups_repeated: int = 0
    lookup_walks: int = 0


@dataclass
class SimulationResult:
    """Everything a run produces.

    Attributes:
        system: the protocol name the run used (e.g. ``"continustreaming"``).
        config: the configuration that produced the run.
        tracker: per-round playback-continuity series.
        traffic: per-round traffic ledgers (control / data / pre-fetch bits).
        rounds: per-round reports.
    """

    system: str
    config: SystemConfig
    tracker: ContinuityTracker
    traffic: RoundTrafficLog
    rounds: List[RoundReport] = field(default_factory=list)

    # ------------------------------------------------------------------ metrics
    def continuity_series(self) -> List[float]:
        """Playback continuity per round (Figures 5 and 6)."""
        return list(self.tracker.continuity)

    def stable_continuity(self, skip_rounds: Optional[int] = None) -> float:
        """Stable-phase playback continuity (Figures 7 and 8)."""
        return self.tracker.stable_phase_continuity(skip_rounds)

    def control_overhead(self) -> float:
        """Cumulative control overhead (Figure 9)."""
        return self.traffic.cumulative().control_overhead()

    def prefetch_overhead(self) -> float:
        """Cumulative pre-fetch overhead (Figures 10 and 11)."""
        return self.traffic.cumulative().prefetch_overhead()

    def prefetch_overhead_series(self) -> List[float]:
        """Per-round pre-fetch overhead (Figure 10)."""
        return self.traffic.prefetch_overhead_series()

    def control_overhead_series(self) -> List[float]:
        """Per-round control overhead."""
        return self.traffic.control_overhead_series()


class StreamingSystem:
    """Builds and runs one streaming overlay.

    Args:
        config: the run configuration.
        system: a protocol name known to the
            :class:`~repro.core.phases.registry.ProtocolRegistry`
            (``"continustreaming"`` by default).
        pipeline: optional phase sequence replacing the protocol's default —
            the hook experiments use to insert taps or ablate phases.
    """

    def __init__(
        self,
        config: SystemConfig,
        system: str = "continustreaming",
        pipeline: Optional[Sequence[Phase]] = None,
    ) -> None:
        self.config = config
        self.system = system
        self.protocol = ProtocolRegistry.get(system)
        self.streams = RngStreams(seed=config.seed)
        self.source = MediaSource(
            playback_rate=config.playback_rate, segment_bits=config.segment_bits
        )
        self.manager = OverlayManager(config=config, streams=self.streams)
        self.manager.node_factory = self.protocol.make_node
        self.pipeline: Tuple[Phase, ...] = tuple(
            pipeline if pipeline is not None else self.protocol.build_pipeline()
        )
        self.tracker = ContinuityTracker(round_duration=config.scheduling_period)
        self.traffic = RoundTrafficLog()
        self.reports: List[RoundReport] = []
        self.round_index = 0

    # ======================================================================= build
    def build(self) -> "StreamingSystem":
        """Construct the overlay, models and nodes.  Idempotent."""
        self.manager.build()
        return self

    # ===================================================================== facade
    @property
    def now(self) -> float:
        """Simulated time: the start of the next period, ``round_index · τ``."""
        return self.round_index * self.config.scheduling_period

    @property
    def nodes(self) -> Dict[int, StreamingNode]:
        """All node objects, alive and departed, keyed by ring id."""
        return self.manager.nodes

    @property
    def source_id(self) -> Optional[int]:
        """Ring id of the media source (``None`` before :meth:`build`)."""
        return self.manager.source_id

    @property
    def ring(self):
        """The DHT identifier ring."""
        return self.manager.ring

    @property
    def bandwidth(self):
        """The bandwidth model."""
        return self.manager.bandwidth

    @property
    def churn(self):
        """The churn process."""
        return self.manager.churn

    def alive_node_ids(self, include_source: bool = True) -> List[int]:
        """Ids of the currently alive nodes."""
        return self.manager.alive_node_ids(include_source=include_source)

    # ===================================================================== rounds
    def run(self, rounds: Optional[int] = None) -> SimulationResult:
        """Run the simulation for ``rounds`` periods (default: config.rounds)."""
        self.build()
        for _ in range(self.config.rounds if rounds is None else rounds):
            self.step_round()
        return SimulationResult(
            system=self.system,
            config=self.config,
            tracker=self.tracker,
            traffic=self.traffic,
            rounds=self.reports,
        )

    def step_round(self) -> RoundReport:
        """Run one scheduling period: every phase in pipeline order."""
        self.build()
        assert self.manager.source_id is not None
        ctx = RoundContext(
            config=self.config,
            protocol=self.system,
            round_index=self.round_index,
            round_start=self.now,
            period=self.config.scheduling_period,
            rng=self.streams.get("round"),
            ledger=MessageLedger(),
            nodes=self.manager.nodes,
            source=self.source,
            source_id=self.manager.source_id,
            tracker=self.tracker,
            manager=self.manager,
        )
        for phase in self.pipeline:
            ctx.phase_reports.append(phase.execute(ctx))
        self.traffic.append(ctx.round_end, ctx.ledger)
        report = RoundReport(
            round_index=ctx.round_index,
            time=ctx.round_end,
            continuity=ctx.continuity,
            nodes_playing=ctx.nodes_playing,
            nodes_total=len(ctx.consumers),
            segments_scheduled=ctx.segments_scheduled,
            segments_prefetched=ctx.segments_prefetched,
            prefetch_triggers=ctx.prefetch_triggers,
            nodes_joined=ctx.nodes_joined,
            nodes_left=ctx.nodes_left,
            **ctx.lookups,
        )
        self.reports.append(report)
        self.round_index += 1
        return report

