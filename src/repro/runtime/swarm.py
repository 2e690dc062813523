"""The live swarm orchestrator: boot, clock, churn, collect, shut down.

:class:`LiveSwarm` turns a declarative
:class:`~repro.scenarios.spec.ScenarioSpec` into a running swarm of
:class:`~repro.runtime.peer.LivePeer` callbacks driven by the swarm's one
:class:`~repro.runtime.clock.DeliveryQueue` — one entry per period
boundary ticks every peer filed for it (:meth:`LiveSwarm.file`), and one
entry per period ends it (lateness, dilation, churn):

* **construction reuse** — the spec builds the exact same
  :class:`~repro.core.system.StreamingSystem` the simulator would run, so
  topology, bandwidth assignment, latency model, peer tables and DHT
  fingers are identical to the simulated overlay before the first frame
  flies; the swarm then wraps every node in a live peer instead of
  clocking rounds;
* **bounded loopback transport** — frames travel through per-peer
  *bounded* two-lane inboxes (control priority ahead of segment data, see
  :mod:`repro.runtime.transport`) with the pairwise one-way latency of
  :class:`~repro.net.latency.LatencyModel` injected per link, in
  simulated seconds; segment data is credit-gated per link, a scenario
  ``loss_rate`` drops frames at the transport, and every queue has a
  configurable watermark — no load can grow memory without bound.  The
  delivery path itself is a :class:`~repro.runtime.cluster.links.
  LoopbackLink`, interchangeable with the cluster runtime's TCP
  :class:`~repro.runtime.cluster.links.SocketLink`, so the swarm's
  peers cannot tell an in-process partner from a remote one
  (:mod:`repro.runtime.cluster`) —
  and its flush groups, like the peers' intra-period phases, are entries
  of the same queue;
* **live churn** — the scenario's churn schedule runs against the real
  swarm: departing peers are stopped mid-flight (gracefully leaving ones
  ship their VoD backup over the wire first), joining peers are admitted
  through the Rendezvous Point, announce themselves with PING/PONG
  membership traffic and open their first period at once;
* **metrics** — per-peer playback samples aggregate into the standard
  :class:`~repro.streaming.playback.ContinuityTracker` and per-peer
  :class:`~repro.net.message.MessageLedger` objects merge into a swarm
  ledger after shutdown, so continuity and overhead come out in exactly
  the simulator's units.

There is **one** swarm class.  Where its peers live is plain data — a
``shard_index`` of ``num_shards`` ring ranges plus a ``links`` dict of
socket links towards the other shards (empty for the default one-shard
placement, where every frame goes straight to the loopback link) — and
every peer it hosts is a live peer.  Every run option is declared once,
in :class:`RunOptions`; :func:`run` is the single entry the CLI, the cell
runner (:mod:`repro.scenarios.cell`) and the cluster workers go through,
and :func:`merge_results` is the single place per-shard partials (one,
for an in-process run) fold into a :class:`RuntimeResult`.

Every time the swarm keeps (queue entries, deadlines, link delays,
lateness) is in simulated seconds.  On the **virtual clock**
(``clock="virtual"``, the campaign backend) :meth:`LiveSwarm.run` drains
the queue instant by instant with no event loop: identical spec and seed
reproduce identical results, bit for bit, at any ``time_scale`` (which
only converts the wall-second dilation and lateness reports).  On the
**wall clock** :meth:`LiveSwarm.run_async` paces the same drain by the
loop (``t`` runs at wall ``anchor + t·time_scale``) and trades that
determinism for real concurrency: results carry wall-clock noise, and
the sim-vs-live parity pairs (:func:`repro.scenarios.cell.parity_pair`)
quantify how close the two stay on the paper's metrics.
"""

from __future__ import annotations

import asyncio
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.core.config import SystemConfig
from repro.core.node import LOOKUP_COUNTERS
from repro.net.message import MessageKind, MessageLedger
from repro.obs import (
    NULL_OBS,
    ObsConfig,
    ObsRecorder,
    SloSpec,
    SloViolation,
    TelemetryPlane,
    merge_obs,
)
from repro.obs.record import build_record
from repro.runtime.clock import DeliveryQueue
from repro.runtime.cluster.links import LinkConfig, LoopbackLink, SocketLink, SocketLinkStats
from repro.runtime.peer import LivePeer
from repro.runtime.transport import TransportConfig, TransportSummary
from repro.scenarios.spec import ScenarioSpec
from repro.streaming.playback import ContinuityTracker

#: Default wall seconds per simulated second on the wall clock.  0.1
#: compresses the paper's 1-second scheduling period to 100 ms — enough
#: headroom for a few hundred peers' worth of frames per period on one
#: event loop.  A virtual run does not read it.
DEFAULT_TIME_SCALE = 0.1

#: The swarm's clock sources: ``"wall"`` paces the delivery queue by an
#: asyncio loop's real time (overload and throughput are physical),
#: ``"virtual"`` drains it in virtual time with no event loop (campaigns,
#: parity matrices and regression tests — same seed, same result, no
#: waiting).
CLOCKS = ("wall", "virtual")


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def adaptive_time_scale(num_nodes: int, shards: int) -> float:
    """A wall-clock compression that gives each shard's loop headroom.

    ~2.5 ms of wall time per peer per simulated second, divided by the
    *effective* parallelism — ``min(shards, cpus)``, because four shard
    processes time-slicing one core buy zero wall headroom: at 1000
    peers over 4 shards on 4 cores the paper's 1 s scheduling period
    runs in ~0.6 s, while the same swarm on a 1-core box gets a 2.5 s
    period instead of a schedule it cannot possibly keep.  Still
    optimistic by design — the coherent cluster-wide dilation stretches
    the schedule to the sustainable rate when a machine can't keep up,
    which beats hard-coding everyone to the slowest box.
    """
    parallelism = max(1, min(shards, _available_cpus()))
    return max(DEFAULT_TIME_SCALE, 0.0025 * num_nodes / parallelism)


def shard_of(ring_id: int, num_shards: int, id_space: int) -> int:
    """The shard index owning ``ring_id`` (contiguous ring ranges)."""
    return min(num_shards - 1, ring_id * num_shards // id_space)


@dataclass(frozen=True)
class RunOptions:
    """Every option of a live run, declared once.

    Frozen and picklable: the same record travels from the CLI through
    :func:`run` to campaign cells, the cluster coordinator and its worker
    processes.  ``__post_init__`` rejects every invalid combination that
    does not need the scenario; :meth:`resolved` checks the rest and fills
    the ``None`` defaults from the scenario.

    Attributes:
        shards: worker processes hosting the swarm.  ``1`` runs in this
            process (wall or virtual clock); ``> 1`` goes through the
            cluster coordinator over TCP (wall clock only — sockets are
            real I/O, which the virtual clock cannot jump over).
        rounds: scheduling periods to run; ``None`` uses the scenario's.
        time_scale: wall seconds per simulated second — it paces the
            wall clock and scales the wall-second reports, nothing else;
            ``None`` picks :data:`DEFAULT_TIME_SCALE` in-process and
            :func:`adaptive_time_scale` (sized on the swarm) for a sharded
            run.  Smaller runs faster but leaves less wall time per
            period; an overloaded wall-clock swarm *dilates* its schedule
            coherently (:meth:`LiveSwarm._maybe_dilate`).
        transport: per-peer flow-control knobs (inbox watermark, credit
            window); ``None`` uses the ``TransportConfig`` defaults.
        link: TCP link knobs of a sharded run (queue bound, reconnect
            budget); ``None`` uses the ``LinkConfig`` defaults.
        clock: ``"wall"`` (real time, on an asyncio loop) or
            ``"virtual"`` (deterministic virtual time: the swarm drains its
            delivery queue itself, with no event loop and no wall waiting —
            the campaign/parity backend).
        obs: observability plane config; ``None`` installs the no-op
            recorder, leaves ``RuntimeResult.obs`` as ``None`` and keeps
            the run bit-identical to an uninstrumented build.
        slo: abort the run early once this SLO's error budget burns too
            fast (:mod:`repro.obs.health`); requires the period records
            (``obs`` with ``metrics`` on).
        obs_out: the run's obs file: period records and alerts streamed
            while the run is live, the export appended at close
            (Prometheus exposition at ``<path>.prom``); requires the
            period records.
    """

    shards: int = 1
    rounds: Optional[int] = None
    time_scale: Optional[float] = None
    transport: Optional[TransportConfig] = None
    link: Optional[LinkConfig] = None
    clock: str = "wall"
    obs: Optional[ObsConfig] = None
    slo: Optional[SloSpec] = None
    obs_out: Optional[str] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.rounds is not None and self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.time_scale is not None and self.time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if self.clock not in CLOCKS:
            raise ValueError(f"clock must be one of {CLOCKS}, got {self.clock!r}")
        if self.clock == "virtual" and self.shards > 1:
            raise ValueError(
                "the virtual clock cannot drive a sharded run (sockets are real "
                "I/O): use clock='wall' or shards=1"
            )
        if (self.slo is not None or self.obs_out is not None) and not (
            self.obs is not None and self.obs.metrics
        ):
            raise ValueError(
                "slo/obs_out need the period records: pass an ObsConfig with metrics=True"
            )

    def resolved(self, spec: ScenarioSpec) -> "RunOptions":
        """This record with every ``None`` default filled from ``spec``.

        Idempotent, so the coordinator resolves once and every worker
        receives (and re-resolves to) the identical record.
        """
        time_scale = self.time_scale
        if time_scale is None:
            time_scale = (
                DEFAULT_TIME_SCALE
                if self.shards == 1
                else adaptive_time_scale(spec.num_nodes, self.shards)
            )
        rounds = spec.rounds if self.rounds is None else self.rounds
        return replace(self, rounds=int(rounds), time_scale=float(time_scale))


class ClusterControl(Protocol):
    """A shard's handle on the coordinator (the shard worker implements it)."""

    async def exchange_lateness(self, round_index: int, worst: float) -> float:
        """Report this shard's lateness; return the cluster-wide worst."""
        ...  # pragma: no cover - protocol


@dataclass
class RuntimeResult:
    """Everything a live swarm run produces.

    Mirrors :class:`~repro.core.system.SimulationResult` where the metrics
    overlap (continuity, overheads) and adds runtime-only facts (wall time,
    message throughput).
    """

    system: str
    config: SystemConfig
    rounds: int
    time_scale: float
    tracker: ContinuityTracker
    ledger: MessageLedger
    per_peer_ledgers: Dict[int, MessageLedger] = field(default_factory=dict)
    messages_sent: int = 0
    messages_dropped: int = 0
    peers_joined: int = 0
    peers_left: int = 0
    wall_time_s: float = 0.0
    #: Flow-control facts: queue high-watermarks, send stalls, shed frames.
    transport: TransportSummary = field(default_factory=TransportSummary)
    #: Which clock drove the run (``"wall"`` or ``"virtual"``).
    clock: str = "wall"
    #: Wall seconds the swarm stretched its schedule by under overload
    #: (the simulated stretch times ``time_scale``).  Virtual time cannot
    #: be overloaded, but a joiner's first tick is reported as lateness,
    #: so a virtual run with joiners dilates too.
    clock_dilation_s: float = 0.0
    #: Number of period boundaries at which the schedule was dilated.
    clock_dilations: int = 0
    #: Worker processes that hosted the swarm (1 = the single-process
    #: runtime; >1 = the cluster runtime, see ``docs/cluster.md``).
    shards: int = 1
    #: Cluster-run facts (socket traffic, per-shard rows, lost shards);
    #: ``None`` for single-process runs.  Plain dict so the result stays
    #: picklable across the campaign's worker processes.
    cluster: Optional[Dict[str, Any]] = None
    #: Physical bytes handed to links (post-batching, post-delta) — the
    #: fast path's savings show up here, never in the paper ledger.
    bytes_on_wire: int = 0
    #: How the peers' Algorithm 2 lookups ended, and the DHT walks they
    #: made (``NodeStats`` summed over every peer that ran).
    lookups_located: int = 0
    lookups_no_holder: int = 0
    lookups_no_rate: int = 0
    lookups_repeated: int = 0
    lookup_walks: int = 0
    #: Observability export (metrics series, trace spans, flight-recorder
    #: postmortems — see ``docs/observability.md``); ``None`` unless the
    #: run was started with an :class:`~repro.obs.ObsConfig`.  Plain dict
    #: so the result stays picklable.
    obs: Optional[Dict[str, Any]] = None
    #: Run-level health verdict — a :meth:`~repro.obs.health.HealthEngine.
    #: snapshot` — when a health engine watched the run (``slo`` /
    #: ``obs_out``, or any sharded run with obs metrics on).
    health: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------ metrics
    def continuity_series(self) -> List[float]:
        """Playback continuity per period (the simulator's Figure 5 metric)."""
        return list(self.tracker.continuity)

    def stable_continuity(self, skip_rounds: Optional[int] = None) -> float:
        """Stable-phase playback continuity (mean over the trailing third)."""
        return self.tracker.stable_phase_continuity(skip_rounds)

    def control_overhead(self) -> float:
        """Buffer-map bits / scheduled-data bits, swarm-wide."""
        return self.ledger.control_overhead()

    def prefetch_overhead(self) -> float:
        """(DHT routing + pre-fetched data) / scheduled data, swarm-wide."""
        return self.ledger.prefetch_overhead()

    def segments_delivered(self) -> int:
        """Data segments delivered over the wire (both paths)."""
        return self.ledger.count_of(MessageKind.DATA_SCHEDULED) + self.ledger.count_of(
            MessageKind.DATA_PREFETCH
        )

    def messages_per_wall_second(self) -> float:
        """Wire messages sent per wall-clock second (throughput)."""
        if self.wall_time_s <= 0:
            return 0.0
        return self.messages_sent / self.wall_time_s

    def segments_per_wall_second(self) -> float:
        """Data segments delivered per wall-clock second (goodput)."""
        if self.wall_time_s <= 0:
            return 0.0
        return self.segments_delivered() / self.wall_time_s


@dataclass
class ShardResult:
    """One shard's partial of a run — what :func:`merge_results` folds.

    ``result`` holds the shard's own counters, ledgers and exports in
    :class:`RuntimeResult` form; its ``tracker`` stays empty, because
    continuity only exists after the merge has summed ``samples`` across
    shards (a shard that stopped sampling early must not trim the series).
    """

    shard_index: int
    #: Peers this shard hosted at boot.
    hosted_peers: int
    hosts_source: bool
    #: Untrimmed per-tick ``(tick, playing, total)`` over hosted peers.
    samples: List[Tuple[int, int, int]]
    result: RuntimeResult
    #: Worst cluster-wide period lateness this shard saw.
    worst_lateness_s: float = 0.0
    #: Summed socket-link counters (empty without remote links).
    socket: Dict[str, int] = field(default_factory=dict)


class LiveSwarm:
    """Runs one scenario as a swarm of live peers on one event loop.

    Args:
        spec: the declarative workload (size, churn, bandwidth mix, loss);
            identical on every shard of a sharded run.
        options: the run's :class:`RunOptions`; ``None`` uses the defaults.
        shard_index: which of ``options.shards`` ring ranges this swarm
            hosts.  The default placement (shard 0 of 1) hosts everyone;
            a cluster worker builds the whole overlay — deterministic in
            the spec, so every shard builds a byte-identical one — but
            runs live peers only for its own range and ships frames for
            the rest through :attr:`links`.
        **overrides: :class:`RunOptions` fields set in place
            (``LiveSwarm(spec, clock="virtual", rounds=20)``).
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        options: Optional[RunOptions] = None,
        shard_index: int = 0,
        **overrides: Any,
    ) -> None:
        options = replace(options or RunOptions(), **overrides).resolved(spec)
        if not (0 <= shard_index < options.shards):
            raise ValueError(f"shard_index {shard_index} outside [0, {options.shards})")
        self.options = options
        self.shard_index = shard_index
        self.num_shards = options.shards
        self.spec = spec
        self.rounds: int = options.rounds
        self.time_scale: float = options.time_scale
        self.transport = options.transport if options.transport is not None else TransportConfig()
        self.clock = options.clock
        self.system = self.spec.build_system()
        self.config: SystemConfig = self.system.config
        self.manager = self.system.manager
        self.source = self.system.source
        pipeline_names = {phase.name for phase in self.system.pipeline}
        #: urgent-line prediction + on-demand retrieval run only when the
        #: registered pipeline contains them (protocol-faithful adaptation).
        self.prediction_enabled = "urgent-line-prediction" in pipeline_names
        self.peers: Dict[int, LivePeer] = {}
        self.retired_peers: List[LivePeer] = []
        #: Per tick, the hosted non-source peers that closed that period
        #: and those of them that played it continuously
        #: (:meth:`tally_playback`).
        self._sampled: List[int] = [0] * self.rounds
        self._playing: List[int] = [0] * self.rounds
        self.messages_sent = 0
        self.messages_dropped = 0
        #: Physical bytes shipped over links (post-batch/delta encoding).
        self.bytes_on_wire = 0
        self.peers_joined = 0
        self.peers_left = 0
        #: Random stream deciding data-frame loss (``None`` = lossless).
        self.loss_rng: Optional[np.random.Generator] = None
        #: Peers something landed for in the current instant, in landing
        #: order (their inboxes' burst callbacks append them); drained
        #: when the instant ends.
        self.landed: List[LivePeer] = []
        #: The one queue of in-process work and the swarm's clock
        #: (``queue.time()``): every loopback flush group, intra-period
        #: peer phase, period boundary and end-of-period step
        #: (docs/runtime.md → *The virtual clock's ordering contract*).
        self.queue = DeliveryQueue(after=self._drain_landed)
        #: ``(peer, tick)`` pairs waiting for a period boundary, by its
        #: deadline, in filing order (see :meth:`file`).
        self._boundaries: Dict[float, List[Tuple[LivePeer, int]]] = {}
        #: The in-process delivery path: every frame's local tail.
        self.loopback = LoopbackLink(self)
        #: Socket links keyed by remote shard index (wired by the cluster
        #: worker; empty for the one-shard placement).
        self.links: Dict[int, SocketLink] = {}
        #: The coordinator handle for the lateness exchange (worker-set).
        self.control: Optional[ClusterControl] = None
        #: Shards declared lost after their link stayed down past budget.
        self.lost_shards: set = set()
        #: Frames that arrived for a peer this shard does not host.
        self.misrouted_frames = 0
        #: Worst (cluster-wide, when sharded) period lateness seen.
        self.worst_lateness_s = 0.0
        #: Loop time simulated time 0 falls at on the wall clock; ``None``
        #: anchors at :meth:`run_async` entry (the cluster coordinator
        #: instead hands every shard the same agreed start instant).
        self.start_at: Optional[float] = None
        #: The run is over: its last period's step ran (or, on the wall
        #: clock, the pacing loop stopped at an error).
        self._ended = False
        #: The sharded lateness exchange in flight, if any.
        self._exchange: Optional[asyncio.Task] = None
        self._built = False
        #: Coherent overload dilation: simulated seconds added to every
        #: future period deadline (swarm-wide, so peers stay phase-aligned).
        self._offset = 0.0
        #: Worst period-boundary lateness (simulated seconds) peers
        #: reported since the last end-of-period step (the dilation signal).
        self._worst_lateness = 0.0
        #: Monotonicity floor for :meth:`sim_now` across dilation steps.
        self._sim_floor = 0.0
        #: Adaptive period stretch, a multiple of τ (AIMD-controlled).
        self._stretch = 1.0
        #: Wall seconds the schedule was stretched by (reported unit).
        self.clock_dilation_s = 0.0
        self.clock_dilations = 0
        #: The observability plane (:mod:`repro.obs`): the no-op
        #: :data:`~repro.obs.NULL_OBS` unless an ``ObsConfig`` was given,
        #: so disabled instrumentation costs one attribute read per site.
        obs = options.obs
        self.obs = ObsRecorder(obs) if obs is not None else NULL_OBS
        self.obs.bind_clock(self.sim_now)
        if self.num_shards > 1:
            # Spans/flight events from this process carry the shard tag, so
            # the merged view can attribute per-hop timestamps.
            self.obs.bind_shard(shard_index)
        #: Cached flow matrix (``None`` when flows are off) so the
        #: ``deliver``/link hot paths pay one load + ``is not None`` test.
        self._flows = self.obs.flows
        self._stall_dumped = False
        #: Where each period record goes besides the recorder
        #: (``docs/observability.md`` → *Live telemetry & SLOs*): the
        #: cluster control pipe or a :class:`~repro.obs.TelemetryPlane`.
        self.record_sink: Optional[Callable[[Dict[str, Any]], None]] = None

    # ======================================================================= build
    def build(self) -> "LiveSwarm":
        """Construct the overlay (identically to the simulator).  Idempotent."""
        if self._built:
            return self
        self.system.build()
        if self.spec.loss_rate > 0.0:
            self.loss_rng = self.system.streams.get("runtime-loss")
        for node_id, node in self.manager.nodes.items():
            if self.hosts(node_id):
                self.peers[node_id] = LivePeer(node, self, first_tick=0)
        self._built = True
        return self

    # =================================================================== placement
    def shard_of(self, ring_id: int) -> int:
        """The shard hosting ``ring_id`` (same function on every shard; the
        flow matrix keys its physical shard-pair accounting on it)."""
        return shard_of(ring_id, self.num_shards, self.manager.ring.size)

    def hosts(self, ring_id: int) -> bool:
        """Whether this process runs the live peer for ``ring_id``."""
        return self.shard_of(ring_id) == self.shard_index

    def shard_ring_ids(self, shard: int) -> List[int]:
        """Every known ring id owned by ``shard`` (alive or not)."""
        return [rid for rid in self.manager.nodes if self.shard_of(rid) == shard]

    # ============================================================ peer services
    @property
    def ring(self):
        """The DHT identifier ring (greedy routing distance metric)."""
        return self.manager.ring

    @property
    def id_space(self) -> int:
        """Ring size ``N`` (for the backup-key hashes)."""
        return self.manager.ring.size

    def is_alive(self, node_id: int) -> bool:
        """Liveness oracle peers use in place of a failed-probe timeout."""
        return self.manager.is_alive(node_id)

    def successor_of(self, node_id: int) -> Optional[int]:
        """The counter-clockwise closest alive node (handover target)."""
        return self.manager.counter_clockwise_closest(node_id)

    def routing_peers(self, node):
        """``node``'s alive routing candidates (next-hop choices, sorted)."""
        return self.manager.alive_routing_peers(node)

    def overhear(self, peer_table, path) -> None:
        """``peer_table`` overhears the alive nodes of a routing path passing by."""
        # The overheard list keeps no timestamp, but reading the clock here
        # raises sim_now()'s monotone floor, which later span timestamps see.
        self.sim_now()
        self.manager.overhearing.overhear_path(path, peer_table)

    # ----------------------------------------------------------------- clocking
    def sim_now(self) -> float:
        """Current protocol time in simulated seconds: the queue's clock
        less the dilation offset, never negative and monotone even across
        dilation steps."""
        now = self.queue.time() - self._offset
        if now > self._sim_floor:
            self._sim_floor = now
        return self._sim_floor

    def deadline_of(self, tick: int) -> float:
        """Queue time of period boundary ``tick``: ``tick·τ`` plus the
        dilation offset."""
        return tick * self.config.scheduling_period + self._offset

    def file(self, peer: LivePeer, tick: int) -> None:
        """Have ``peer`` tick at period boundary ``tick``'s (current)
        deadline: at its queue entry (:meth:`_boundary_due`), or at once,
        reporting the lateness, if the deadline has passed."""
        if peer.stopped:
            return
        deadline = self.deadline_of(tick)
        delay = deadline - self.queue.time()
        if delay > 0:
            waiters = self._boundaries.get(deadline)
            if waiters is None:
                waiters = self._boundaries[deadline] = []
                self.queue.push(deadline, self._boundary_due, deadline)
            waiters.append((peer, tick))
            return
        # A boundary hit late: the period's worst becomes its dilation.
        if -delay > self._worst_lateness:
            self._worst_lateness = -delay
        self._tick(peer, tick)

    def _tick(self, peer: LivePeer, tick: int) -> None:
        """Tick ``peer``, then file it for its next boundary — after a
        sliver of a period if that one has passed too, so an overrunning
        peer still interleaves with frame delivery."""
        peer.tick(tick)
        tick += 1
        queue = self.queue
        if self.deadline_of(tick) - queue.time() > 0:
            self.file(peer, tick)
            return
        queue.push(
            queue.time() + 0.05 * self.config.scheduling_period, partial(self.file, peer), tick
        )

    def _boundary_due(self, deadline: float) -> None:
        """Tick the peers filed for ``deadline`` in an order drawn from
        ``runtime-ticks`` (docs/runtime.md → *Period boundaries*): a
        stopped peer keeps its slot but is skipped, and one whose boundary
        moved under dilation re-files behind the shifted deadline's."""
        waiters = self._boundaries.pop(deadline)
        clock = self.queue.time
        for index in self.system.streams.get("runtime-ticks").permutation(len(waiters)):
            peer, tick = waiters[index]
            if peer.stopped:
                continue
            if self.deadline_of(tick) - clock() > 1e-9:
                self.file(peer, tick)
            else:
                self._tick(peer, tick)

    #: Bounds of the adaptive schedule stretch (a multiple of τ).  The
    #: ceiling caps how slow an overloaded swarm is allowed to run; past
    #: it the run is simply degraded (and says so in the stall metrics)
    #: rather than stretching forever.
    MAX_STRETCH = 16.0

    def _maybe_dilate(self, worst: float) -> None:
        """Adapt the per-period schedule stretch to the period's worst
        boundary lateness, in simulated seconds.

        The stretch is a *coherent* dilation: every future deadline (all
        peers, the steps, the source) shifts by the same amount, so an
        overloaded event loop stretches the schedule uniformly instead of
        letting peers' period clocks drift apart — the drift is what used
        to collapse continuity at aggressive ``time_scale`` settings (the
        200-peer anomaly ``tests/test_runtime_backpressure.py`` pins
        fixed).  AIMD on a *persistent* stretch factor: lateness pushes
        the factor up by the missed fraction of a period, slack decays it
        multiplicatively back towards 1.  A one-off offset per late round
        would limit-cycle (stretch, on-time round, no stretch, late
        round, ...); a converged persistent stretch keeps the event loop
        below saturation so message legs stay fast relative to the
        effective period and the within-period request → NACK → reroute
        dynamics complete, like they do on an unloaded clock.
        """
        period = self.config.scheduling_period
        self._worst_lateness = 0.0
        if worst > 0.1 * period:
            # Half-gain additive increase: converges on the minimal
            # sustainable stretch instead of overshooting to a crawl
            # (empirically ~2× better throughput at equal continuity
            # than full-gain, see docs/runtime.md).
            self._stretch = min(self.MAX_STRETCH, self._stretch + 0.5 * worst / period)
        else:
            self._stretch = max(1.0, 0.85 * self._stretch)
        extra = (self._stretch - 1.0) * period
        if extra > 0.0:
            self._offset += extra
            self.clock_dilation_s += extra * self.time_scale
            self.clock_dilations += 1
            obs = self.obs
            if obs.enabled:
                obs.flight(
                    "dilate", stretch=round(self._stretch, 3), added_s=round(extra, 4)
                )
                if self._stretch >= self.MAX_STRETCH and not self._stall_dumped:
                    # Stall detection: the AIMD controller pinned at its
                    # ceiling means the loop cannot keep the schedule.
                    self._stall_dumped = True
                    obs.postmortem(
                        f"schedule stretch hit MAX_STRETCH={self.MAX_STRETCH} "
                        "(overload stall)"
                    )

    # ---------------------------------------------------------------- transport
    def deliver(self, src: int, dst: int, msg: Any, frame: bytes, data: bool = False) -> None:
        """Ship one message and its encoded frame from ``src`` to ``dst``
        over its link.

        Frames to departed or unknown peers vanish (the network does not
        know who died); a configured ``loss_rate`` drops *data* frames at
        random — the live analogue of the scenario engine's lossy-network
        model, which throttles data throughput and never loses control
        traffic (:class:`~repro.scenarios.phases.LossyNetworkPhase`), so
        the two engines stay parity-comparable on lossy scenarios.
        ``data`` selects the receiver's inbox lane: segment data queues
        behind the bounded data lane, everything else rides the control
        priority lane (see :mod:`repro.runtime.transport`).  Delay/loss
        injection lives in :class:`~repro.runtime.cluster.links.
        LoopbackLink`, which lands the message itself and charges the
        frame; a swarm with remote links hands the frame for a peer hosted
        elsewhere to that shard's socket link instead.
        """
        flows = self._flows
        if flows is not None:
            flows.record(src, dst, len(frame), data)
        self.messages_sent += 1
        links = self.links
        if links:
            owner = self.shard_of(dst)
            if owner != self.shard_index:
                links[owner].send(src, dst, frame, data)
                return
        self.loopback.send(src, dst, msg, frame, data)

    def _drain_landed(self) -> None:
        """The end of an instant: every peer something landed for drains
        once, in the order its first entry landed."""
        landed = self.landed
        for peer in landed:
            peer._drain_inbox()
        landed.clear()

    def receive_routed(self, src: int, dst: int, payload: bytes, data: bool) -> None:
        """A peer frame arrived over a socket link: deliver it locally.

        The loopback link is the single local tail of every delivery — it
        decodes the frame, and loss injection (data frames), model latency
        and the bounded-inbox credit refunds apply to a routed frame
        exactly as to a local one.  The originating shard already counted
        the send.
        """
        if not self.hosts(dst):
            self.misrouted_frames += 1
            self.messages_dropped += 1
            return
        self.loopback.send_routed(src, dst, payload, data)

    def note_undeliverable(self, src: int, dst: int, data: bool) -> None:
        """A socket link dropped an outbound frame (dead shard or shed).

        The frame dies unseen by any receiver, so a data frame's credit
        is refunded by its own sender — otherwise the window towards the
        unreachable peer would leak a credit per attempt.
        """
        self.messages_dropped += 1
        if data:
            peer = self.peers.get(src)
            if peer is not None and not peer.stopped:
                peer.refund_data_credit(dst)

    # ----------------------------------------------------------- link lifecycle
    def on_link_interrupted(self, shard: int) -> None:
        """The stream to ``shard`` broke: bring every in-flight credit home.

        Mirrors the peer-departure rule — credits spent on frames the
        dead connection swallowed can never be granted back, so every
        hosted peer's send window towards every peer of that shard is
        reset to a full window *now*, while the link attempts recovery.
        Counted per reset in the transport stats (``link_resets``).
        """
        self.obs.flight("link_interrupted", remote_shard=shard)
        remote_ids = self.shard_ring_ids(shard)
        for peer in self.peers.values():
            for rid in remote_ids:
                peer.reset_partner_link(rid)

    def on_link_restored(self, shard: int) -> None:
        """The stream healed: nothing to repair — windows were reset on
        the way down, so both sides meet fresh flow-control state."""
        self.obs.flight("link_restored", remote_shard=shard)

    def on_link_lost(self, shard: int) -> None:
        """The link stayed down past its recovery budget: presume the
        shard (and every peer it hosted) failed.

        Its peers are marked departed in the local overlay view, so the
        liveness oracle, DHT routing and the map quorum all route around
        them — the cluster analogue of a massive correlated failure.  The
        replicated churn driver keeps drawing for them (the streams must
        stay aligned on the surviving shards), but :meth:`_retire_peer`
        finds them already dead and skips.
        """
        if shard in self.lost_shards:
            return
        self.lost_shards.add(shard)
        # A SIGKILLed shard cannot dump its own flight ring; the
        # survivors' postmortems are the readable record of its death.
        self.obs.flight("link_lost", remote_shard=shard)
        self.obs.postmortem(f"shard {shard} presumed dead (link recovery exhausted)")
        for rid in self.shard_ring_ids(shard):
            if self.manager.is_alive(rid):
                self.manager.mark_departed(rid)
        self.on_link_interrupted(shard)
        # Survivors re-partner: drop the dead shard's peers from every
        # neighbour table and refill the slots from the alive population,
        # exactly as a churn boundary would after a massive failure.
        self.manager.repair_neighbors()

    def close_links(self) -> None:
        """Final teardown of every socket link (shutdown barrier)."""
        for link in self.links.values():
            link.close()

    # ======================================================================== run
    def run(self) -> RuntimeResult:
        """Build, run to completion in this process and return the result.

        On the ``"virtual"`` clock this drains the delivery queue itself —
        no event loop, no wall waiting, bit-identical results for
        identical specs and seeds, from synchronous and asynchronous
        callers alike; on the wall clock it runs :meth:`run_async` under
        :func:`asyncio.run`.  ``slo`` / ``obs_out`` attach a
        :class:`~repro.obs.TelemetryPlane` as the record sink: a
        breached SLO aborts the run with :class:`~repro.obs.SloViolation`,
        and the obs file gets the export (the one at abort time on a
        breach) when the run closes.
        """
        if self.num_shards > 1:
            raise ValueError(
                "one shard of a sharded run cannot run alone: use "
                "repro.runtime.run(spec, options), which spawns the cluster"
            )
        options = self.options
        plane = None
        if options.slo is not None or options.obs_out is not None:
            plane = TelemetryPlane(
                self.rounds, 1, self.obs, slo=options.slo, obs_out=options.obs_out
            )
            self.record_sink = plane.sink
        obs = None
        try:
            if self.clock == "virtual":
                partial = self._run_virtual()
            else:
                partial = asyncio.run(self.run_async())
            obs = partial.result.obs
        except SloViolation as exc:
            obs = exc.obs
            raise
        finally:
            if plane is not None:
                plane.close(obs)
        return merge_results(
            [partial], health=None if plane is None else plane.health.snapshot()
        )

    def _run_virtual(self) -> ShardResult:
        """The virtual clock: advance to the queue's head and run that
        instant, until the last period's step ends the run."""
        self.build()
        wall_start = time.perf_counter()
        with self._running():
            while not self._ended:
                self.queue.advance()
        return self._collect(time.perf_counter() - wall_start)

    async def run_async(self) -> ShardResult:
        """Boot every hosted peer, drive churn, stop after ``rounds``
        periods; returns this shard's partial (see :func:`merge_results`).

        On the wall clock this is the virtual drain paced by the running
        loop (:meth:`DeliveryQueue.advance_wall`): an instant's error
        propagates to the caller, and the loop's exception handler is
        never touched.  A virtual swarm drains its queue without awaiting
        anything."""
        if self.clock == "virtual":
            return self._run_virtual()
        loop = asyncio.get_running_loop()
        self.build()
        # Time 0 falls after the build (and a shard's start margin), where
        # the wall stopwatch starts too: boundary 0 is not late by either.
        anchor = loop.time() if self.start_at is None else self.start_at
        start = max(loop.time(), anchor)
        queue = self.queue
        queue.pace(loop, anchor, self.time_scale)
        with self._running():
            if self.obs.enabled:
                # Virtual time cannot lag, so only the wall clock probes.
                self._probe_lag(None)
            try:
                while not self._ended:
                    if self._exchange is not None and not queue:
                        # Only the lateness exchange can refill the queue.
                        await asyncio.wait((self._exchange,))
                    await queue.advance_wall()
            finally:
                self._ended = True
        return self._collect(loop.time() - start)

    @contextmanager
    def _running(self) -> Iterator[None]:
        """Start the built swarm — file every peer for boundary 0, queue
        the first period's step — and, on the way out, stop every peer,
        dumping the flight ring first if the run failed."""
        try:
            for peer in self.peers.values():
                self.file(peer, 0)
            self.queue.push(self._step_due(0), self._step, 0)
            yield
        except SloViolation as exc:
            # The HealthEngine already recorded the breach postmortem;
            # attach this swarm's obs export so the CLI can print it.
            if exc.obs is None:
                exc.obs = self.obs.export()
            raise
        except Exception as exc:
            # Crash postmortem: dump the flight ring before unwinding.
            self.obs.postmortem(f"unhandled exception: {exc!r}")
            raise
        finally:
            self._shutdown()

    def _probe_lag(self, due: Optional[float]) -> None:
        """Sample event-loop lag — how many wall seconds late this entry,
        queued twice per period, runs — and queue the next sample."""
        now = self.queue.time()
        if due is not None:
            self.obs.observe("event_loop_lag_s", max(0.0, now - due) * self.time_scale)
        due = now + 0.5 * self.config.scheduling_period
        self.queue.push(due, self._probe_lag, due)

    def _step_due(self, round_index: int) -> float:
        """Period ``round_index``'s step falls half a period after its
        closing boundary, so the peers' own ticks — playback, gossip —
        come first, matching the simulator's end-of-period churn phase."""
        return self.deadline_of(round_index + 1) + 0.5 * self.config.scheduling_period

    def _step(self, round_index: int) -> None:
        """Period ``round_index``'s step: fold the worst lateness seen
        (peers' and this entry's own) into a coherent schedule dilation,
        then sample and drive churn (:meth:`_finish_step`).

        A cluster shard first exchanges its lateness with the other shards
        through the coordinator, so every shard applies the same (maximal)
        dilation at the same boundary and the overlay stays phase-aligned
        *across* processes: the exchange — timeout fallback included — is
        a task, and the step finishes when it returns, while the queue
        keeps running; its done-callback queues the rest of the step as an
        entry due at once, so it runs inside an instant like every other
        callback.
        """
        own_lateness = max(0.0, self.queue.time() - self._step_due(round_index))
        worst = max(self._worst_lateness, own_lateness)
        if self.control is None:
            self._finish_step(round_index, worst)
            return
        exchange = asyncio.create_task(self.control.exchange_lateness(round_index, worst))
        rest = partial(self._exchanged, round_index, worst)
        exchange.add_done_callback(lambda task: self.queue.push(self.queue.time(), rest, task))
        self._exchange = exchange

    def _exchanged(self, round_index: int, worst: float, exchange: asyncio.Task) -> None:
        self._exchange = None
        self._finish_step(round_index, max(worst, exchange.result()))

    def _finish_step(self, round_index: int, worst: float) -> None:
        """Dilate, close the period's obs record, then fire the churn
        schedule and queue the next period's step — or, after the last
        period, end the run."""
        self.worst_lateness_s = max(self.worst_lateness_s, worst * self.time_scale)
        self._maybe_dilate(worst)
        if self.obs.enabled:
            self._obs_record(round_index)
        if round_index == self.rounds - 1:
            self._ended = True
            return
        churn = self.manager.churn
        if not churn.is_static:
            rng = self.system.streams.get("runtime-churn")
            event = churn.step(
                round_index, self.manager.alive_node_ids(), self.system.streams.get("churn")
            )
            for node_id in event.leaving:
                self._retire_peer(node_id, rng)
            joiners = [self._admit_peer(rng, round_index + 1) for _ in event.joining]
            if event.leaving or event.joining:
                self.manager.repair_neighbors()
            for peer in joiners:
                if peer is not None:
                    self.file(peer, peer.first_tick)
        self.queue.push(self._step_due(round_index + 1), self._step, round_index + 1)

    def _obs_record(self, round_index: int) -> None:
        """Sample swarm-wide gauges and close the period's record
        (:func:`~repro.obs.record.build_record`), handing it to the
        attached sink."""
        inbox_total = inbox_max = credit_pending = 0
        for peer in self.peers.values():
            depth = len(peer.inbox)
            inbox_total += depth
            if depth > inbox_max:
                inbox_max = depth
            credit_pending += peer.send_windows.pending_count()
        metrics = self.obs.metrics
        metrics.set_gauge("inbox_depth_total", inbox_total)
        metrics.set_gauge("inbox_depth_max", inbox_max)
        metrics.set_gauge("credit_pending_total", credit_pending)
        metrics.set_gauge("dilation_stretch", self._stretch)
        metrics.set_gauge("clock_dilation_s", self.clock_dilation_s)
        metrics.set_gauge("peers_live", self.peers_live())
        metrics.set_gauge("messages_sent", self.messages_sent)
        metrics.set_gauge("bytes_on_wire", self.bytes_on_wire)
        topo = self.obs.topo
        if topo is not None:
            snap = topo.observe(self, round_index)
            # Additive pieces ride the gauges (gauges sum across shards
            # in merge_metrics and period_series, so only counts go in —
            # ratios are recomputed wherever they are displayed).
            metrics.set_gauge("topo_partner_pairs", snap["partner_pairs"])
            metrics.set_gauge("topo_covered_pairs", snap["covered_pairs"])
            metrics.set_gauge("topo_finger_alive", snap["finger_alive"])
            metrics.set_gauge("topo_finger_total", snap["finger_total"])
        record = build_record(
            self.obs, self.shard_index, round_index,
            self._playing[round_index], self._sampled[round_index], self.peers_live(),
            self.socket_links(),
        )
        if self.record_sink is not None:
            self.record_sink(record)

    def _retire_peer(self, node_id: int, rng: np.random.Generator) -> None:
        node = self.manager.nodes.get(node_id)
        if node is None or not node.alive:
            return
        # The graceful/abrupt draw happens on every shard (the churn
        # streams must stay aligned across the cluster's replicated churn
        # drivers) even though only the hosting shard acts on the peer.
        graceful = rng.random() >= self.config.abrupt_leave_fraction
        peer = self.peers.get(node_id)
        if peer is not None and graceful:
            peer.send_handover()
        # The wire handover above replaces the manager's in-memory one.
        self.manager.remove_node(node_id, rng, graceful=graceful, handover=False)
        if peer is not None:
            peer.stop()
            self.retired_peers.append(self.peers.pop(node_id))
            self.peers_left += 1
            self.obs.flight("peer_left", peer=node_id, graceful=graceful)
        # Dead links keep no flow-control state: credits in flight to the
        # departed peer are unrecoverable, and a joiner admitted later
        # under a recycled ring id must start with a full window.
        for survivor in self.peers.values():
            survivor.reset_partner_link(node_id)

    def _admit_peer(self, rng: np.random.Generator, first_tick: int) -> Optional[LivePeer]:
        """Admit one joiner; return its live peer if this shard hosts it."""
        ring_id = self.manager.admit_node(rng, now=self.sim_now())
        if not self.hosts(ring_id):
            return None
        peer = LivePeer(self.manager.nodes[ring_id], self, first_tick=first_tick)
        self.peers[ring_id] = peer
        peer.announce_join()
        self.peers_joined += 1
        self.obs.flight("peer_joined", peer=ring_id)
        return peer

    def _shutdown(self) -> None:
        """Graceful shutdown: drop whatever is still queued and stop every
        peer (a frame arriving later over a socket finds it stopped)."""
        self.queue.close()
        for peer in self.peers.values():
            peer.stop()

    # ================================================================== collect
    def tally_playback(self, tick: int, continuous: bool) -> None:
        """Count one hosted peer's close of period ``tick``.

        A peer calls it once per period it closes (its ticks run upward
        one at a time, :meth:`LivePeer.tick`); the source closes none.  A
        tick past the run's last is dropped, as no reader asks for it.
        The tally is the single aggregation point period records,
        playback samples and the merged tracker all read, so every
        consumer (health engine, cockpit, campaign stores) sees one
        population.
        """
        if tick < self.rounds:
            self._sampled[tick] += 1
            self._playing[tick] += continuous

    def peers_live(self) -> int:
        """Currently-live peer count."""
        return len(self.peers)

    def playback_samples(self) -> List[Tuple[int, int, int]]:
        """Per-tick ``(tick, playing, total)`` over every hosted peer.

        Untrimmed (every tick of the run appears): :func:`merge_results`
        sums these across shards before applying the trailing-empty trim,
        so a shard that finished early cannot truncate the merged series.
        """
        return list(zip(range(self.rounds), self._playing, self._sampled))

    def socket_links(self) -> List[Dict[str, int]]:
        """Per shard-pair socket-link stats rows (``src_shard`` is us).

        Every :class:`~repro.runtime.cluster.links.SocketLinkStats` field
        per remote shard — link resets show up as the ``disconnects`` /
        ``reconnects`` pair.  Rows ride the obs export
        (``obs["socket_links"]``) and each period record.
        """
        return [
            {
                "src_shard": self.shard_index,
                "dst_shard": other,
                **{name: int(value) for name, value in vars(link.stats).items()},
                "lost": int(other in self.lost_shards),
            }
            for other, link in sorted(self.links.items())
        ]

    def _collect(self, wall_time: float) -> ShardResult:
        """This shard's partial: counters, ledgers and exports of the
        hosted peers (the whole run, for the one-shard placement)."""
        everyone = list(self.peers.values()) + self.retired_peers
        per_peer = {peer.peer_id: peer.ledger.snapshot() for peer in everyone}
        obs = self.obs.export()
        socket: Dict[str, int] = {}
        if self.links:
            rows = self.socket_links()
            socket = {name: sum(row[name] for row in rows) for name in vars(SocketLinkStats())}
            socket["links_lost"] = len(self.lost_shards)
            socket["misrouted_frames"] = self.misrouted_frames
            if obs is not None:
                obs["socket_links"] = rows
        result = RuntimeResult(
            system=self.spec.system,
            config=self.config,
            rounds=self.rounds,
            time_scale=self.time_scale,
            tracker=ContinuityTracker(round_duration=self.config.scheduling_period),
            ledger=MessageLedger.merged(list(per_peer.values())),
            per_peer_ledgers=per_peer,
            messages_sent=self.messages_sent,
            messages_dropped=self.messages_dropped,
            peers_joined=self.peers_joined,
            peers_left=self.peers_left,
            wall_time_s=wall_time,
            transport=TransportSummary.aggregate(peer.transport_stats for peer in everyone),
            clock=self.clock,
            clock_dilation_s=self.clock_dilation_s,
            clock_dilations=self.clock_dilations,
            bytes_on_wire=self.bytes_on_wire,
            obs=obs,
            **{
                name: sum(getattr(peer.node.stats, name) for peer in everyone)
                for name in LOOKUP_COUNTERS
            },
        )
        return ShardResult(
            shard_index=self.shard_index,
            hosted_peers=sum(1 for peer in everyone if peer.first_tick == 0),
            hosts_source=self.hosts(self.manager.source_id),
            samples=self.playback_samples(),
            result=result,
            worst_lateness_s=self.worst_lateness_s,
            socket=socket,
        )


#: ``RuntimeResult`` counters a merge sums over shards / takes the worst of.
_SUMMED = (
    "messages_sent", "messages_dropped", "bytes_on_wire", "peers_joined", "peers_left",
) + LOOKUP_COUNTERS
_WORST = ("wall_time_s", "clock_dilation_s", "clock_dilations")


def merge_results(
    partials: Sequence[ShardResult],
    shards: int = 1,
    lost_shards: Sequence[int] = (),
    extra_obs: Optional[Dict[str, Any]] = None,
    health: Optional[Dict[str, Any]] = None,
) -> RuntimeResult:
    """Fold per-shard partials into the run's :class:`RuntimeResult`.

    The one merge: an in-process run is the merge of its single partial.
    Playback samples are summed per tick *before* the trailing-empty trim
    (ticks nobody sampled — a timed-out shutdown cut them off — are
    dropped rather than recorded as vacuous perfect rounds), ledgers
    merge like any concurrent accumulation, transport summaries aggregate
    with the standard sum/max rules.  A sharded run (``shards > 1``) also
    gets the cluster-only facts (socket traffic, lost shards, per-shard
    rows) in ``RuntimeResult.cluster`` and an obs export merged across
    shards; ``extra_obs`` joins that merge (the coordinator's own
    recorder: alert flight events, the SLO breach postmortem).
    ``health`` is a :meth:`~repro.obs.health.HealthEngine.snapshot`.
    """
    if not partials:
        raise ValueError("merge_results needs at least one shard's partial")
    partials = sorted(partials, key=lambda p: p.shard_index)
    rows = [p.result for p in partials]
    first = rows[0]
    per_tick: Dict[int, List[int]] = {}
    for partial in partials:
        for tick, playing, total in partial.samples:
            bucket = per_tick.setdefault(tick, [0, 0])
            bucket[0] += playing
            bucket[1] += total
    samples = [(tick, *per_tick[tick]) for tick in sorted(per_tick)]
    while samples and samples[-1][2] == 0 and len(samples) > 1:
        samples.pop()
    period = first.config.scheduling_period
    tracker = ContinuityTracker(round_duration=period)
    for tick, playing, total in samples:
        tracker.record_round((tick + 1) * period, playing, total)
    per_peer: Dict[int, MessageLedger] = {}
    for row in rows:
        per_peer.update(row.per_peer_ledgers)
    cluster = None
    obs = first.obs
    if shards > 1:
        socket_totals: Dict[str, int] = {}
        for partial in partials:
            for key, value in partial.socket.items():
                socket_totals[key] = socket_totals.get(key, 0) + int(value)
        cluster = {
            "shards": shards,
            "shards_lost": len(lost_shards),
            "lost_shards": list(lost_shards),
            "socket": socket_totals,
            "worst_lateness_s": max(p.worst_lateness_s for p in partials),
            "per_shard": [
                {
                    "shard": p.shard_index,
                    "hosted_peers": p.hosted_peers,
                    "hosts_source": p.hosts_source,
                    "messages_sent": p.result.messages_sent,
                    "messages_dropped": p.result.messages_dropped,
                    "wall_time_s": round(p.result.wall_time_s, 4),
                    "clock_dilations": p.result.clock_dilations,
                    "socket": dict(p.socket),
                }
                for p in partials
            ],
        }
        obs = merge_obs([row.obs for row in rows] + [extra_obs])
    return replace(
        first,
        tracker=tracker,
        ledger=MessageLedger.merged([row.ledger for row in rows]),
        per_peer_ledgers=per_peer,
        transport=TransportSummary.aggregate(row.transport for row in rows),
        **{name: sum(getattr(row, name) for row in rows) for name in _SUMMED},
        **{name: max(getattr(row, name) for row in rows) for name in _WORST},
        shards=shards,
        cluster=cluster,
        obs=obs,
        health=health,
    )


def run(
    spec: ScenarioSpec, options: Optional[RunOptions] = None, **overrides: Any
) -> RuntimeResult:
    """The single entry of the live runtime: run ``spec`` under ``options``.

    ``overrides`` are :class:`RunOptions` fields set in place.  One shard
    runs in this process (wall or virtual clock); more go through the
    :class:`~repro.runtime.cluster.coordinator.ClusterCoordinator`, one
    worker process per shard over localhost TCP.  Raises ``ValueError``
    for an invalid option combination and :class:`~repro.obs.SloViolation`
    when ``options.slo`` is breached.
    """
    options = replace(options or RunOptions(), **overrides).resolved(spec)
    if options.shards == 1:
        return LiveSwarm(spec, options).run()
    from repro.runtime.cluster.coordinator import ClusterCoordinator

    return ClusterCoordinator(spec, options).run()
