"""The streaming-system facade: construction, clocking, results.

:class:`StreamingSystem` is a thin coordinator.  The heavy lifting lives in
three places it composes:

* the :class:`~repro.core.phases.registry.ProtocolRegistry` resolves the
  ``system`` name (``"continustreaming"``, ``"coolstreaming"``, or any
  registered third variant) to a protocol that knows how to build nodes and
  which :class:`~repro.core.phases.base.Phase` pipeline its rounds run;
* the :class:`~repro.core.overlay.OverlayManager` builds and maintains the
  overlay — trace topology, latency/bandwidth models, Rendezvous Point,
  partnerships, DHT fingers, churn-time admission/removal and repair;
* the discrete-event :class:`~repro.sim.engine.Simulator` is the single
  clock authority: every round is an event, start-of-period phases fire at
  ``round_start``, end-of-period phases (playback, churn) fire when the
  period elapses, and phases may schedule intra-round follow-up events such
  as delayed DHT fetch completions.

Each scheduling period, the facade builds one
:class:`~repro.core.phases.base.RoundContext`, threads it through the
pipeline, and turns the context's counters into a :class:`RoundReport`.
Custom pipelines (ablations, metric taps) plug in via the ``pipeline=``
argument without touching this module; see ``docs/architecture.md``.

All randomness flows from the config seed through named
:class:`~repro.sim.rng.RngStreams`, so a ContinuStreaming run and a
CoolStreaming run with the same seed see the *same* topology, bandwidth
assignment and churn schedule — the comparison isolates the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.core.node import StreamingNode
from repro.core.overlay import OverlayManager
from repro.core.phases import (
    END,
    START,
    Phase,
    ProtocolRegistry,
    RoundContext,
)
from repro.net.message import MessageLedger, RoundTrafficLog
from repro.sim.engine import Simulator
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

    #: The paper's two systems (kept for backwards compatibility; the
    #: authoritative list is ``ProtocolRegistry.names()``).
    SYSTEMS = ("continustreaming", "coolstreaming")

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
        for phase in self.pipeline:
            if phase.timing not in (START, END):
                raise ValueError(
                    f"phase {phase.name!r} has invalid timing {phase.timing!r}; "
                    f"expected {START!r} or {END!r}"
                )
        self.sim = Simulator()
        self.tracker = ContinuityTracker(round_duration=config.scheduling_period)
        self.traffic = RoundTrafficLog()
        self.ledger = MessageLedger()
        self.reports: List[RoundReport] = []
        self.round_index = 0

    # ======================================================================= build
    def build(self) -> "StreamingSystem":
        """Construct the overlay, models and nodes.  Idempotent."""
        self.manager.build()
        return self

    # ===================================================== facade / compatibility
    @property
    def now(self) -> float:
        """Current simulated time (the event engine is the clock authority)."""
        return self.sim.now

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
    def overlay(self):
        """The overlay topology graph."""
        return self.manager.overlay

    @property
    def latency(self):
        """The latency model (``None`` before :meth:`build`)."""
        return self.manager.latency

    @property
    def bandwidth(self):
        """The bandwidth model."""
        return self.manager.bandwidth

    @property
    def churn(self):
        """The churn process."""
        return self.manager.churn

    @property
    def rendezvous(self):
        """The Rendezvous Point."""
        return self.manager.rendezvous

    @property
    def overhearing(self):
        """The overhearing-based peer-table maintenance service."""
        return self.manager.overhearing

    @property
    def router(self):
        """The greedy DHT router."""
        return self.manager.router

    @property
    def hop_latency_s(self) -> float:
        """Mean one-hop latency ``t_hop`` in seconds."""
        return self.manager.hop_latency_s

    @property
    def fetch_time_s(self) -> float:
        """Expected DHT fetch time ``t_fetch`` in seconds (eq. (7))."""
        return self.manager.fetch_time_s

    def alive_node_ids(self, include_source: bool = True) -> List[int]:
        """Ids of the currently alive nodes."""
        return self.manager.alive_node_ids(include_source=include_source)

    def node(self, node_id: int) -> StreamingNode:
        """Access a node by ring id."""
        return self.manager.nodes[node_id]

    # ===================================================================== rounds
    def run(self, rounds: Optional[int] = None) -> SimulationResult:
        """Run the simulation for ``rounds`` periods (default: config.rounds).

        Every round is an event on the discrete-event engine: the commit
        event of round *i* schedules round *i + 1*, so a single
        ``Simulator.run()`` drains the whole simulation.
        """
        self.build()
        total = self.config.rounds if rounds is None else rounds
        if total > 0:
            self._schedule_round(self.sim.now, remaining=total)
            self.sim.run()
        return SimulationResult(
            system=self.system,
            config=self.config,
            tracker=self.tracker,
            traffic=self.traffic,
            rounds=self.reports,
        )

    def step_round(self) -> RoundReport:
        """Advance the simulation by exactly one scheduling period."""
        self.build()
        self._schedule_round(self.sim.now, remaining=1)
        self.sim.run()
        return self.reports[-1]

    # ------------------------------------------------------------- event plumbing
    def _schedule_round(self, round_start: float, remaining: int) -> None:
        ctx = self._new_round_context(round_start)
        self.sim.schedule_at(round_start, self._round_begin, (ctx, remaining))

    def _new_round_context(self, round_start: float) -> RoundContext:
        assert self.manager.source_id is not None, "build() must run first"
        return RoundContext(
            config=self.config,
            protocol=self.system,
            round_index=self.round_index,
            round_start=round_start,
            period=self.config.scheduling_period,
            rng=self.streams.get("round"),
            ledger=MessageLedger(),
            nodes=self.manager.nodes,
            source=self.source,
            source_id=self.manager.source_id,
            sim=self.sim,
            tracker=self.tracker,
            manager=self.manager,
        )

    def _round_begin(self, sim: Simulator, payload: Any) -> None:
        """Start-of-period event: run the ``start`` phases, arm the commit."""
        ctx, remaining = payload
        for phase in self.pipeline:
            if phase.timing != END:
                ctx.phase_reports.append(phase.execute(ctx))
        # Scheduled after the start phases so intra-round follow-up events
        # (e.g. DHT fetches landing exactly at period end) run first.
        sim.schedule_at(ctx.round_end, self._round_commit, (ctx, remaining))

    def _round_commit(self, sim: Simulator, payload: Any) -> None:
        """End-of-period event: ``end`` phases, bookkeeping, next round."""
        ctx, remaining = payload
        for phase in self.pipeline:
            if phase.timing == END:
                ctx.phase_reports.append(phase.execute(ctx))
        self.traffic.append(ctx.round_end, ctx.ledger)
        self.ledger.merge(ctx.ledger)
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
        )
        self.reports.append(report)
        self.round_index += 1
        if remaining > 1:
            self._schedule_round(sim.now, remaining - 1)


def run_comparison(
    config: SystemConfig, systems: Sequence[str] = ("coolstreaming", "continustreaming")
) -> Dict[str, SimulationResult]:
    """Run both systems on the same seed/topology and return their results."""
    results: Dict[str, SimulationResult] = {}
    for system in systems:
        results[system] = StreamingSystem(config, system=system).run()
    return results
