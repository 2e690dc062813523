"""System configuration.

Defaults follow Section 5.2 of the paper exactly:

* streaming rate 300 Kbps, 30 Kbit segments, hence playback rate ``p = 10``
  segments per second;
* per-node buffer ``B = 600`` segments (60 s of media);
* inbound rates uniform in [300 Kbps, 1 Mbps] — i.e. ``I ∈ [10, 33]``
  segments/s with mean 15 — and outbound rates likewise; the source has zero
  inbound and outbound ``≈ 100``;
* scheduling period ``τ = 1.0`` s, ``M = 5`` connected neighbours,
  ``k = 4`` backup replicas, at most ``l = 5`` pre-fetches per period;
* dynamic environments churn 5 % of nodes out and 5 % in per period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.net.churn import ChurnSchedule
from repro.streaming.segment import DEFAULT_SEGMENT_BITS


@dataclass(frozen=True)
class SystemConfig:
    """All tunables of a streaming simulation run.

    Attributes:
        num_nodes: number of overlay nodes, including the media source.
        id_space: DHT identifier-space size ``N`` (must exceed ``num_nodes``);
            ``0`` means "pick the smallest power of two ≥ 4 × num_nodes,
            but at least 8192" to mirror the paper's sparse-ring setting.
        connected_neighbors: ``M``, gossip neighbours per node.
        overheard_capacity: ``H``, overheard nodes remembered per node.
        buffer_capacity: ``B``, segments the FIFO buffer holds.
        playback_rate: ``p``, segments played per second.
        scheduling_period: ``τ``, seconds between buffer-map exchanges.
        mean_inbound: mean inbound rate ``I`` in segments/s.
        min_inbound / max_inbound: the uniform range inbound rates are drawn
            from in heterogeneous environments.
        source_outbound: outbound rate of the media source (segments/s).
        heterogeneous: draw per-node rates (True) or give everyone the mean.
        backup_replicas: ``k``, nodes each segment is backed up on.
        prefetch_limit: ``l``, maximum pre-fetches per node per period.
        leave_fraction / join_fraction: churn per period (0.05 in the paper's
            dynamic environments, 0 in static).
        churn_schedule: optional time-varying churn profile (see
            :mod:`repro.net.churn`); when set it drives the churn process
            and the flat fractions above are ignored.  The scenario engine
            fills this in for non-constant schedules.
        abrupt_leave_fraction: fraction of departures that are abrupt failures
            (no backup handover); the rest leave gracefully and hand their VoD
            backup to their counter-clockwise closest neighbour.
        segment_bits: segment payload size for overhead accounting.
        startup_segments: buffered segments required before playback starts
            (the startup buffering delay; playback then begins at the oldest
            buffered segment, so slower nodes automatically start with a
            larger safety lag).
        playback_lag_segments: how far behind the live edge a node anchors its
            fetch window *before* playback has started (a joining node
            "follows its neighbours' current steps" rather than chasing the
            beginning of the stream).  Gossip needs several scheduling periods
            to carry a segment from the source to every node, so this lag is
            what turns "eventually received" into "received before the
            deadline".
        stall_on_miss: playback discipline.  True (default) models a real
            streaming client that rebuffers when data is missing — the
            paper's per-round continuity metric is then the fraction of
            non-stalled nodes.  False models hard live deadlines where
            missing segments are skipped.
        scheduling_window: how many segments past the playback point the
            scheduler considers each round.  The paper considers the whole
            buffer; bounding the window is a pure-performance measure (the
            inbound budget ``I·τ ≈ 15`` makes far-ahead segments unschedulable
            anyway) and is set generously by default.
        hop_latency_ms: assumed mean one-hop latency ``t_hop``; ``None``
            estimates it from the trace latencies (the paper uses ≈ 50 ms).
        rounds: number of scheduling periods to simulate.
        seed: root seed for every random stream.
    """

    num_nodes: int = 1000
    id_space: int = 0
    connected_neighbors: int = 5
    overheard_capacity: int = 20
    buffer_capacity: int = 600
    playback_rate: float = 10.0
    scheduling_period: float = 1.0
    mean_inbound: float = 15.0
    min_inbound: float = 10.0
    max_inbound: float = 33.0
    source_outbound: float = 100.0
    heterogeneous: bool = True
    backup_replicas: int = 4
    prefetch_limit: int = 5
    leave_fraction: float = 0.0
    join_fraction: float = 0.0
    churn_schedule: Optional[ChurnSchedule] = None
    abrupt_leave_fraction: float = 0.5
    segment_bits: int = DEFAULT_SEGMENT_BITS
    startup_segments: int = 10
    playback_lag_segments: int = 60
    stall_on_miss: bool = True
    scheduling_window: int = 150
    hop_latency_ms: Optional[float] = None
    rounds: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ValueError("num_nodes must be at least 2 (source + one peer)")
        if self.id_space and self.id_space <= self.num_nodes:
            raise ValueError("id_space must exceed num_nodes (sparse ring)")
        if self.connected_neighbors < 1:
            raise ValueError("connected_neighbors must be >= 1")
        if self.buffer_capacity < self.playback_rate * self.scheduling_period:
            raise ValueError("buffer must hold at least one round of playback")
        if self.playback_rate <= 0 or self.scheduling_period <= 0:
            raise ValueError("playback_rate and scheduling_period must be positive")
        if not (0 < self.min_inbound <= self.mean_inbound <= self.max_inbound):
            raise ValueError("need 0 < min_inbound <= mean_inbound <= max_inbound")
        if self.backup_replicas < 1:
            raise ValueError("backup_replicas must be >= 1")
        if self.prefetch_limit < 0:
            raise ValueError("prefetch_limit must be >= 0")
        if not (0 <= self.leave_fraction < 1) or not (0 <= self.join_fraction <= 1):
            raise ValueError(
                "invalid churn fractions: need 0 <= leave_fraction < 1 and "
                "0 <= join_fraction <= 1"
            )
        if not (0.0 <= self.abrupt_leave_fraction <= 1.0):
            raise ValueError("abrupt_leave_fraction must be in [0, 1]")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.startup_segments < 1:
            raise ValueError("startup_segments must be >= 1")
        if self.playback_lag_segments < 0:
            raise ValueError("playback_lag_segments must be >= 0")
        if self.playback_lag_segments >= self.buffer_capacity:
            raise ValueError("playback_lag_segments must fit inside the buffer")
        if self.scheduling_window < self.segments_per_round:
            raise ValueError("scheduling_window must cover at least one round")

    # ------------------------------------------------------------------ derived
    @property
    def effective_id_space(self) -> int:
        """The identifier-space size actually used (``N``)."""
        if self.id_space:
            return self.id_space
        target = max(8192, 4 * self.num_nodes)
        return 1 << math.ceil(math.log2(target))

    @property
    def segments_per_round(self) -> int:
        """Segments consumed per scheduling period (``p · τ``)."""
        return max(1, int(round(self.playback_rate * self.scheduling_period)))

    @property
    def is_dynamic(self) -> bool:
        """True when churn is configured.

        A schedule, when present, drives the churn process and the flat
        fractions are ignored — so it alone decides.
        """
        if self.churn_schedule is not None:
            return not self.churn_schedule.is_static
        return self.leave_fraction > 0 or self.join_fraction > 0

    @property
    def duration(self) -> float:
        """Total simulated seconds."""
        return self.rounds * self.scheduling_period

    def expected_fetch_time(self, hop_latency_s: float) -> float:
        """``t_fetch ≈ (log2(n)/2 + 3) · t_hop`` (equation (7))."""
        n = max(2, self.num_nodes)
        return (math.log2(n) / 2.0 + 3.0) * hop_latency_s

    def initial_alpha(self, hop_latency_s: float) -> float:
        """Lower bound / initial value of the urgent ratio ``α`` (eq. (9))."""
        t_fetch = self.expected_fetch_time(hop_latency_s)
        return (self.playback_rate / self.buffer_capacity) * max(
            self.scheduling_period, t_fetch
        )

    def alpha_step(self, hop_latency_s: float) -> float:
        """Per-adjustment increment/decrement of ``α``: ``p · t_hop / B``."""
        return self.playback_rate * hop_latency_s / self.buffer_capacity

    # ------------------------------------------------------------------ variants
    def static_variant(self) -> "SystemConfig":
        """Copy of this config with churn (flat and scheduled) disabled."""
        return replace(
            self, leave_fraction=0.0, join_fraction=0.0, churn_schedule=None
        )

    def dynamic_variant(self, fraction: float = 0.05) -> "SystemConfig":
        """Copy with the paper's 5 %-leave / 5 %-join churn (or ``fraction``)."""
        return replace(
            self, leave_fraction=fraction, join_fraction=fraction,
            churn_schedule=None,
        )

    def homogeneous_variant(self) -> "SystemConfig":
        """Copy with every node given the mean inbound/outbound rate."""
        return replace(self, heterogeneous=False)

    def with_seed(self, seed: int) -> "SystemConfig":
        """Copy with a different root seed."""
        return replace(self, seed=seed)

    def scaled(self, num_nodes: int, rounds: Optional[int] = None) -> "SystemConfig":
        """Copy with a different overlay size (and optionally round count)."""
        return replace(
            self, num_nodes=num_nodes, rounds=self.rounds if rounds is None else rounds
        )


#: The exact parameterisation of the paper's Section 5.2 evaluation.
PAPER_DEFAULTS = SystemConfig()
