"""Hybrid-fidelity swarm tier: array-backed slim peers around a live core.

Full-fidelity :class:`~repro.runtime.peer.LivePeer` tasks cap the runtime
at roughly a thousand peers per host — every peer carries an asyncio
task, an inbox callback, bounded inboxes and per-link credit windows.  The
paper's claims, however, are about *swarm-scale* continuity.  This module
scales the runtime to six-figure populations the way large-swarm
streaming studies do: the bulk of the swarm is modeled **statistically**
(one numpy-array tier, no per-peer task, no per-frame wire traffic)
while a configurable **core** of full-fidelity live peers keeps the
protocol — gossip, Algorithm-1 scheduling, DHT recovery, credit
backpressure — physically real.

The slim tier aggregates per scheduling period, mirroring what
Algorithm 1 converges to in expectation rather than executing it
per-segment:

* **membership** follows the scenario's exact
  :class:`~repro.net.churn.ChurnSchedule` fractions, applied to the slim
  population with the same boundary ordering as the live churn driver
  (leave/join at boundary *r* take effect at tick *r + 1*, no churn after
  the final boundary);
* **startup** gates a joiner out of the playing set for
  ``ceil(startup_segments / segments_per_round)`` periods — the live
  peer's buffering delay (§III-B), collapsed to its deterministic mean;
* **playback** per period is a binomial draw: each started slim peer
  plays continuously with probability ``core_continuity × capacity``,
  where *core continuity* is the full-fidelity core's measured
  playing/started for the same period — *started* being the same cohort
  the tier draws for: boot peers and joiners past the startup gate (the
  core peers *are* the protocol, so their misses — churn wounds,
  scheduling conflicts, loss — transfer statistically to the tier, while
  a core joiner still buffering is gated out on both sides, not charged
  twice to every started slim peer), and *capacity* is the paper's bandwidth
  balance ``min(1, supply/demand)`` with supply
  ``total·I·τ·(1 − loss) + source_outbound·τ`` and demand
  ``started·segments_per_round`` (eq. (1)'s feasibility condition).

Everything the tier does is driven by a dedicated
:func:`~repro.sim.rng.derive_seed` stream, so a virtual-clock hybrid run
is bit-identical for identical specs and seeds — the same contract the
full runtime pins.

What is **not** emulated: slim peers exchange no wire frames (they add
nothing to ``messages_sent`` / ``bytes_on_wire``), hold no buffer maps,
and cannot serve the core — the core swarm is sized by ``--core-peers``
and behaves exactly like a standalone swarm of that size.  The parity
contract (|Δ stable continuity| ≤ 0.03 vs the full runtime at
overlapping sizes, ``tests/test_runtime_hybrid.py``) bounds what that
approximation costs.

Composition is by holding: a :class:`~repro.runtime.swarm.LiveSwarm` run
with ``fidelity="hybrid"`` owns one :class:`SlimTier`, steps it at every
period boundary with the live core's counts, and adds its sample at the
swarm's single aggregation point (``_period_playback_counts``) — so
telemetry frames, playback samples, the merged tracker, campaigns and
the health engine all see core + slim as **one population**.  A cluster
shard holds its near-even slice of the tier the same way.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.net.churn import ChurnSchedule

__all__ = ["SlimTier", "default_core_peers"]

#: Core sizes below this lose the gossip fan-out the statistics lean on.
MIN_CORE_PEERS = 2

#: Default full-fidelity core: 50 live peers is the documented sweet spot
#: (a 50-peer swarm already exhibits the paper's stable-phase continuity)
#: and stays cheap enough for 100k-peer totals.
DEFAULT_CORE_PEERS = 50


def default_core_peers(num_nodes: int) -> int:
    """Core size when ``--core-peers`` is omitted: 50, capped by the swarm."""
    return max(MIN_CORE_PEERS, min(DEFAULT_CORE_PEERS, int(num_nodes)))


class SlimTier:
    """The statistical bulk of a hybrid swarm, as two numpy arrays.

    State is ~5 bytes per peer ever admitted (one liveness bool + one
    int32 join round) — no objects, no tasks, no buffers.  One
    :meth:`step` call per scheduling period applies the churn schedule
    and draws the period's playback sample.
    """

    __slots__ = (
        "config",
        "churn",
        "loss_rate",
        "rng",
        "alive",
        "first_round",
        "startup_rounds",
        "history",
        "joined",
        "left",
    )

    #: Dissemination discount: a swarm larger than its measured core pays
    #: extra deadline misses — segments reach the marginal peers through
    #: more gossip generations, each with a small hazard of landing past
    #: the playback deadline.  The hazard *saturates* (peers beyond the
    #: buffer-lag window recover via the paper's DHT prefetch path rather
    #: than missing forever), so the discount is
    #: ``SAT · (1 − (total/core)^−ALPHA)`` — 0 when the tier is empty,
    #: ≈``SAT`` for six-figure swarms.  Constants calibrated against the
    #: full runtime's measured size curve (static, virtual clock, n ∈
    #: [50, 200]; see ``tests/test_runtime_hybrid.py``).
    DISSEMINATION_SAT = 0.043
    DISSEMINATION_ALPHA = 1.5

    def __init__(
        self,
        count: int,
        config: Any,
        churn: Optional[ChurnSchedule] = None,
        loss_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        if count < 0:
            raise ValueError("slim tier size must be >= 0")
        self.config = config
        self.churn = churn
        self.loss_rate = float(loss_rate)
        self.rng = np.random.default_rng(int(seed))
        #: Liveness per slot; departed slots stay allocated (history).
        self.alive = np.ones(int(count), dtype=bool)
        #: Round each slot joined at (0 = present from boot).
        self.first_round = np.zeros(int(count), dtype=np.int32)
        #: Periods a joiner buffers before it can count as playing —
        #: the live peer's startup_segments fill time, deterministically.
        self.startup_rounds = max(
            1, math.ceil(config.startup_segments / config.segments_per_round)
        )
        #: Per-tick ``(playing, total)`` samples, indexed by round.
        self.history: List[Tuple[int, int]] = []
        self.joined = 0
        self.left = 0

    # ------------------------------------------------------------------ facts
    @property
    def count(self) -> int:
        """Slots ever allocated (initial population + all joiners)."""
        return int(self.alive.size)

    @property
    def alive_count(self) -> int:
        """Currently-live slim peers."""
        return int(self.alive.sum())

    @property
    def memory_bytes(self) -> int:
        """Bytes held by the tier's per-peer state arrays."""
        return int(self.alive.nbytes + self.first_round.nbytes)

    def sample_for(self, tick: int) -> Tuple[int, int]:
        """``(playing, total)`` recorded for ``tick`` (``(0, 0)`` if none)."""
        if 0 <= tick < len(self.history):
            return self.history[tick]
        return (0, 0)

    def facts(self) -> Dict[str, int]:
        """The tier's additive ``slim_*`` facts of ``RuntimeResult.fidelity``
        (a sharded run sums them over its shards' slices)."""
        return {
            "slim_peers": self.count,
            "slim_alive": self.alive_count,
            "slim_joined": self.joined,
            "slim_left": self.left,
            "slim_memory_bytes": self.memory_bytes,
        }

    # ------------------------------------------------------------------- step
    def step(
        self, round_index: int, core_playing: int, core_total: int, core_started: int
    ) -> None:
        """Advance one period: churn first, then this period's sample.

        ``core_started`` counts the core peers in the tier's own *started*
        cohort (boot peers, joiners at least :attr:`startup_rounds` old, and
        any already playing); the core's continuity is
        ``core_playing / core_started``.

        Mirrors the live churn driver's ordering: the boundary-``r`` churn
        event produces joiners whose first tick is ``r + 1``, and no churn
        fires after the final boundary — so :meth:`step` for round ``r``
        first applies the churn drawn at boundary ``r − 1``.
        """
        if round_index > 0:
            self._apply_churn(round_index - 1)
        in_swarm = self.alive & (self.first_round <= round_index)
        total = int(in_swarm.sum())
        started = int(
            (
                in_swarm
                & (
                    (self.first_round == 0)
                    | (round_index >= self.first_round + self.startup_rounds)
                )
            ).sum()
        )
        core_continuity = (core_playing / core_started) if core_started else 1.0
        p = (
            core_continuity
            * self._capacity_ratio(total, started)
            * self._dissemination_factor(total, core_total)
        )
        playing = int(self.rng.binomial(started, min(1.0, max(0.0, p))))
        self.history.append((playing, total))

    def _apply_churn(self, churn_round: int) -> None:
        """Apply the schedule's boundary-``churn_round`` event to the tier."""
        if self.churn is None:
            return
        population = self.alive_count
        if population == 0:
            return
        leave_frac, join_frac = self.churn.fractions(churn_round)
        leavers = min(population, int(round(leave_frac * population)))
        if leavers > 0:
            victims = self.rng.choice(
                np.flatnonzero(self.alive), size=leavers, replace=False
            )
            self.alive[victims] = False
            self.left += leavers
        joiners = int(round(join_frac * population))
        if joiners > 0:
            self.alive = np.concatenate(
                [self.alive, np.ones(joiners, dtype=bool)]
            )
            self.first_round = np.concatenate(
                [
                    self.first_round,
                    np.full(joiners, churn_round + 1, dtype=np.int32),
                ]
            )
            self.joined += joiners

    def _dissemination_factor(self, total: int, core_total: int) -> float:
        """Size discount for the tier's extra gossip depth (see class doc)."""
        if total <= 0:
            return 1.0
        if core_total <= 0:
            return 1.0 - self.DISSEMINATION_SAT
        ratio = (core_total + total) / core_total
        return 1.0 - self.DISSEMINATION_SAT * (
            1.0 - ratio ** -self.DISSEMINATION_ALPHA
        )

    def _capacity_ratio(self, total: int, started: int) -> float:
        """The paper's bandwidth-balance feasibility, ``min(1, supply/demand)``.

        Supply: the tier's aggregate inbound budget ``total·I·τ`` derated
        by the scenario loss rate, plus the source's outbound.  Demand:
        every started peer needs ``p·τ`` segments per period.
        """
        if started <= 0:
            return 1.0
        tau = self.config.scheduling_period
        supply = (
            total * self.config.mean_inbound * tau * (1.0 - self.loss_rate)
            + self.config.source_outbound * tau
        )
        demand = started * self.config.segments_per_round
        if demand <= 0:
            return 1.0
        return min(1.0, supply / demand)
