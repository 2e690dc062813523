"""The round-pipeline contract: :class:`Phase`, :class:`RoundContext`,
:class:`PhaseReport`.

A streaming protocol is a sequence of :class:`Phase` objects.  Every
scheduling period the :class:`~repro.core.system.StreamingSystem` facade
builds one :class:`RoundContext` — the shared, mutable per-round state that
used to live in ``StreamingSystem`` attributes and ``step_round`` locals —
and feeds it through the pipeline.  Phases communicate exclusively through
the context: earlier phases fill in fields (buffer-map snapshots, bandwidth
budgets, urgent-line predictions), later phases consume them and accumulate
the outcome counters that become the round's
:class:`~repro.core.system.RoundReport`.

Two timing groups exist.  ``timing = "start"`` phases run when the round
begins (simulated time ``round_start``); ``timing = "end"`` phases run when
the period elapses (``round_start + period``).  Both groups execute in
pipeline order within their group, driven by events on the discrete-event
:class:`~repro.sim.engine.Simulator` — phases may schedule additional
intra-round events (e.g. delayed DHT fetch completions) through ``ctx.sim``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.core.config import SystemConfig
from repro.core.continu import ContinuStreamingNode
from repro.core.node import LOOKUP_COUNTERS, StreamingNode
from repro.net.message import MessageLedger
from repro.sim.engine import Simulator
from repro.streaming.buffermap import BufferMap
from repro.streaming.playback import ContinuityTracker
from repro.streaming.segment import Segment
from repro.streaming.source import MediaSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.overlay import OverlayManager

#: Phase timing groups: at the start of the period / when the period elapses.
START = "start"
END = "end"


@dataclass
class PhaseReport:
    """What one phase did during one round (diagnostics and taps).

    Attributes:
        phase: the reporting phase's :attr:`Phase.name`.
        details: free-form numeric facts (counts, totals) for analysis.
    """

    phase: str
    details: Dict[str, float] = field(default_factory=dict)


@dataclass
class RoundContext:
    """Shared state of one scheduling period, threaded through the pipeline.

    The first block identifies the round and the world it runs in; the
    second block is filled in by early phases for later ones; the third
    block accumulates the outcome counters the facade turns into a
    :class:`~repro.core.system.RoundReport`.

    Heavyweight collaborators (``sim``, ``tracker``, ``manager``) are
    optional so unit tests can exercise a single phase against a minimal
    synthetic context.
    """

    config: SystemConfig
    protocol: str
    round_index: int
    round_start: float
    period: float
    rng: np.random.Generator
    ledger: MessageLedger
    nodes: Dict[int, StreamingNode]
    source: MediaSource
    source_id: int
    sim: Optional[Simulator] = None
    tracker: Optional[ContinuityTracker] = None
    manager: Optional["OverlayManager"] = None

    # -- filled by early phases for later ones ------------------------------
    newest_segment_id: int = -1
    alive_ids: List[int] = field(default_factory=list)
    consumers: List[int] = field(default_factory=list)
    snapshots: Dict[int, BufferMap] = field(default_factory=dict)
    predictions: Dict[int, List[int]] = field(default_factory=dict)
    inbound_budget: Dict[int, float] = field(default_factory=dict)
    outbound_budget: Dict[int, float] = field(default_factory=dict)

    # -- outcome counters ---------------------------------------------------
    segments_scheduled: int = 0
    segments_prefetched: int = 0
    prefetch_triggers: int = 0
    #: Algorithm 2 lookup outcomes and walks, by ``LOOKUP_COUNTERS`` name.
    lookups: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(LOOKUP_COUNTERS, 0))
    nodes_playing: int = 0
    continuity: float = 0.0
    nodes_joined: int = 0
    nodes_left: int = 0
    phase_reports: List[PhaseReport] = field(default_factory=list)

    @property
    def round_end(self) -> float:
        """Simulated time at which the period elapses."""
        return self.round_start + self.period

    def node(self, node_id: int) -> StreamingNode:
        """Access a node by ring id."""
        return self.nodes[node_id]

    def consider_backup(self, node: StreamingNode, segment_id: int) -> None:
        """Offer ``segment_id`` to ``node``'s VoD backup store (eq. (5)).

        CoolStreaming nodes have no backup store, so this is a no-op for
        them; the segment payload is materialised from the source store when
        available, otherwise synthesised at the configured size.
        """
        if not isinstance(node, ContinuStreamingNode):
            return
        segment = self.source.store.get(segment_id)
        if segment is None:
            segment = Segment(
                segment_id=segment_id, size_bits=self.config.segment_bits
            )
        node.consider_backup(segment)


class Phase(abc.ABC):
    """One pluggable step of the round pipeline.

    Subclasses set :attr:`name` (for reports) and :attr:`timing` (``"start"``
    to run when the round begins, ``"end"`` to run when the period elapses)
    and implement :meth:`execute`.  Phases must not carry *round-scoped*
    state — everything a round produces or consumes lives on the
    :class:`RoundContext`, so one instance can serve an entire run and be
    inserted via ``StreamingSystem(config, pipeline=...)`` without subtle
    re-entrancy.  Run-scoped accumulation (e.g. a metrics tap summing
    counters across rounds) is fine.
    """

    name: str = "phase"
    timing: str = START

    @abc.abstractmethod
    def execute(self, ctx: RoundContext) -> PhaseReport:
        """Run this phase's slice of the round against ``ctx``."""

    def report(self, **details: float) -> PhaseReport:
        """Convenience constructor for this phase's report."""
        return PhaseReport(phase=self.name, details=dict(details))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r} timing={self.timing!r}>"
