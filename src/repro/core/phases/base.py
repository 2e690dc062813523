"""The round-pipeline contract: :class:`Phase`, :class:`RoundContext`,
:class:`PhaseReport`.

A streaming protocol is a sequence of :class:`Phase` objects.  Every
scheduling period the :class:`~repro.core.system.StreamingSystem` facade
builds one :class:`RoundContext` — the shared, mutable per-round state —
and runs every phase against it, once each, in pipeline order.  Phases
communicate exclusively through the context: earlier phases fill in fields
(buffer-map snapshots, bandwidth budgets, urgent-line predictions), later
phases consume them and accumulate the outcome counters that become the
round's :class:`~repro.core.system.RoundReport`.

A period has no event queue.  A phase that models something happening
part-way through the period computes its time from ``ctx.round_start``
(the DHT fetch of Algorithm 2 lands at ``round_start + t_fetch``); the
period-end phases (playback, churn) simply come last in the pipeline and
stamp their samples with :attr:`RoundContext.round_end`.
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
from repro.streaming.buffermap import BufferMap
from repro.streaming.playback import ContinuityTracker
from repro.streaming.source import MediaSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.overlay import OverlayManager


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

    Heavyweight collaborators (``tracker``, ``manager``) are optional so
    unit tests can exercise a single phase against a minimal synthetic
    context.
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

    def consider_backup(self, node: StreamingNode, segment_id: int) -> None:
        """Offer ``segment_id`` to ``node``'s VoD backup store (eq. (5)).

        CoolStreaming nodes have no backup store, so this is a no-op for
        them.
        """
        if isinstance(node, ContinuStreamingNode):
            node.consider_backup(segment_id)


class Phase(abc.ABC):
    """One pluggable step of the round pipeline.

    Subclasses set :attr:`name` (for reports, and for splicing a phase in
    by name) and implement :meth:`execute`; phases run in pipeline order.
    Phases must not carry *round-scoped* state — everything a round
    produces or consumes lives on the :class:`RoundContext`, so one
    instance can serve an entire run and be inserted via
    ``StreamingSystem(config, pipeline=...)`` without subtle re-entrancy.
    Run-scoped accumulation (e.g. a metrics tap summing counters across
    rounds) is fine.
    """

    name: str = "phase"

    @abc.abstractmethod
    def execute(self, ctx: RoundContext) -> PhaseReport:
        """Run this phase's slice of the round against ``ctx``."""

    def report(self, **details: float) -> PhaseReport:
        """Convenience constructor for this phase's report."""
        return PhaseReport(phase=self.name, details=dict(details))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"
