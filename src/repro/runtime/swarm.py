"""The live swarm orchestrator: boot, clock, churn, collect, shut down.

:class:`LiveSwarm` turns a declarative
:class:`~repro.scenarios.spec.ScenarioSpec` into a running swarm of
:class:`~repro.runtime.peer.LivePeer` tasks:

* **construction reuse** — the spec builds the exact same
  :class:`~repro.core.system.StreamingSystem` the simulator would run, so
  topology, bandwidth assignment, latency model, peer tables and DHT
  fingers are identical to the simulated overlay before the first frame
  flies; the swarm then wraps every node in a live peer instead of
  clocking rounds;
* **bounded loopback transport** — frames travel through per-peer
  *bounded* two-lane inboxes (control priority ahead of segment data, see
  :mod:`repro.runtime.transport`) with the pairwise one-way latency of
  :class:`~repro.net.latency.LatencyModel` injected per link (scaled by
  ``time_scale``); segment data is credit-gated per link, a scenario
  ``loss_rate`` drops frames at the transport, and every queue has a
  configurable watermark — no load can grow memory without bound.  The
  delivery path itself is a :class:`~repro.runtime.cluster.links.
  LoopbackLink` — the same ``Link`` protocol the cluster runtime
  implements over TCP sockets, so the swarm's peers cannot tell an
  in-process partner from a remote one (:mod:`repro.runtime.cluster`);
* **live churn** — the scenario's churn schedule runs against the real
  swarm: departing peers are cancelled mid-flight (gracefully leaving ones
  ship their VoD backup over the wire first), joining peers are admitted
  through the Rendezvous Point and boot as new tasks announcing themselves
  with PING/PONG membership traffic;
* **metrics** — per-peer playback samples aggregate into the standard
  :class:`~repro.streaming.playback.ContinuityTracker` and per-peer
  :class:`~repro.net.message.MessageLedger` objects merge into a swarm
  ledger after shutdown, so continuity and overhead come out in exactly
  the simulator's units.

There is **one** swarm class.  Where its peers live is plain data — a
``shard_index`` of ``num_shards`` ring ranges plus a ``links`` dict of
socket links towards the other shards (empty for the default one-shard
placement, where every frame goes straight to the loopback link) — and
the hybrid-fidelity bulk is an optional :class:`~repro.runtime.slim.
SlimTier` the swarm holds and steps at each boundary.  Every run option
is declared once, in :class:`RunOptions`; :func:`run` is the single
entry the CLI, campaigns, the parity harness and the cluster workers go
through, and :func:`merge_results` is the single place per-shard
partials (one, for an in-process run) fold into a :class:`RuntimeResult`.

On the wall clock the runtime trades the simulator's determinism for real
concurrency: two runs interleave differently, so results carry wall-clock
noise — the parity harness (:mod:`repro.runtime.parity`) quantifies how
close the two stay on the paper's metrics.  On the **virtual clock**
(``clock="virtual"``, the campaign backend) the same swarm executes as a
deterministic timer sequence with zero wall waiting: identical spec and
seed reproduce identical results, bit for bit.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.core.config import SystemConfig
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
from repro.runtime.clock import run_on_virtual_clock
from repro.runtime.cluster.links import LinkConfig, LoopbackLink, SocketLink, SocketLinkStats
from repro.runtime.peer import LivePeer
from repro.runtime.slim import MIN_CORE_PEERS, SlimTier, default_core_peers
from repro.runtime.transport import TransportConfig, TransportSummary
from repro.scenarios.spec import ScenarioSpec
from repro.sim.rng import derive_seed
from repro.streaming.playback import ContinuityTracker
from repro.streaming.segment import Segment

#: Default wall seconds per simulated second.  0.1 compresses the paper's
#: 1-second scheduling period to 100 ms — enough headroom for a few
#: hundred peers' worth of frames per period on one event loop.
DEFAULT_TIME_SCALE = 0.1

#: The swarm's clock sources: ``"wall"`` runs on real time (overload and
#: throughput are physical), ``"virtual"`` on the deterministic
#: :class:`~repro.runtime.clock.VirtualClockEventLoop` (campaigns, parity
#: matrices and regression tests — same seed, same result, no waiting).
CLOCKS = ("wall", "virtual")

#: ``"full"`` runs every peer as a live task; ``"hybrid"`` hosts a
#: full-fidelity core of ``core_peers`` live peers plus an array-backed
#: statistical tier for the rest (:mod:`repro.runtime.slim`).
FIDELITIES = ("full", "hybrid")


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
        time_scale: wall seconds per simulated second; ``None`` picks
            :data:`DEFAULT_TIME_SCALE` in-process and
            :func:`adaptive_time_scale` (sized on the *live* peers) for a
            sharded run.  Smaller runs faster but leaves less wall time
            per period; an overloaded wall-clock swarm *dilates* its
            schedule coherently (:meth:`LiveSwarm.note_lateness`).
        transport: per-peer flow-control knobs (inbox watermark, credit
            window); ``None`` uses the ``TransportConfig`` defaults.
        link: TCP link knobs of a sharded run (queue bound, reconnect
            budget); ``None`` uses the ``LinkConfig`` defaults.
        clock: ``"wall"`` (real time) or ``"virtual"`` (deterministic
            virtual time, no wall waiting — the campaign/parity backend).
        batching / delta_maps: the wire fast-path switches
            (``--no-batch`` / ``--no-delta``): coalesce same-turn frames
            into FrameBatch envelopes, and gossip buffer maps as
            changed-bit deltas against the last-acked map.
        obs: observability plane config; ``None`` installs the no-op
            recorder, leaves ``RuntimeResult.obs`` as ``None`` and keeps
            the run bit-identical to an uninstrumented build.
        slo: abort the run early once this SLO's error budget burns too
            fast (:mod:`repro.obs.health`); requires telemetry (``obs``
            with ``metrics`` and ``telemetry`` on).
        telemetry_out: stream telemetry frames and alerts to this JSONL
            path (Prometheus exposition at ``<path>.prom``); requires
            telemetry.
        fidelity: one of :data:`FIDELITIES`.
        core_peers: live-core size of a hybrid run; ``None`` picks
            :func:`~repro.runtime.slim.default_core_peers`.
    """

    shards: int = 1
    rounds: Optional[int] = None
    time_scale: Optional[float] = None
    transport: Optional[TransportConfig] = None
    link: Optional[LinkConfig] = None
    clock: str = "wall"
    batching: bool = True
    delta_maps: bool = True
    obs: Optional[ObsConfig] = None
    slo: Optional[SloSpec] = None
    telemetry_out: Optional[str] = None
    fidelity: str = "full"
    core_peers: Optional[int] = None

    @property
    def telemetry_on(self) -> bool:
        """Whether swarms emit :class:`~repro.runtime.wire.TelemetryFrame` bodies."""
        return self.obs is not None and self.obs.metrics and self.obs.telemetry

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
        if (self.slo is not None or self.telemetry_out is not None) and not self.telemetry_on:
            raise ValueError(
                "slo/telemetry_out need the telemetry stream: pass an ObsConfig "
                "with metrics=True and telemetry=True"
            )
        if self.fidelity not in FIDELITIES:
            raise ValueError(f"fidelity must be one of {FIDELITIES}, got {self.fidelity!r}")
        if self.core_peers is not None:
            if self.fidelity != "hybrid":
                raise ValueError("core_peers only applies to fidelity='hybrid'")
            if self.core_peers < MIN_CORE_PEERS:
                raise ValueError(
                    f"core_peers must be >= {MIN_CORE_PEERS}, got {self.core_peers}"
                )

    def resolved(self, spec: ScenarioSpec) -> "RunOptions":
        """This record with every ``None`` default filled from ``spec``.

        Idempotent, so the coordinator resolves once and every worker
        receives (and re-resolves to) the identical record.
        """
        core = self.core_peers
        if self.fidelity == "hybrid":
            core = default_core_peers(spec.num_nodes) if core is None else core
            if core > spec.num_nodes:
                raise ValueError(
                    f"core_peers ({core}) cannot exceed the swarm size ({spec.num_nodes})"
                )
        time_scale = self.time_scale
        if time_scale is None:
            # Only live peers cost loop cycles, so a hybrid run's clock is
            # sized on its core, not on the population.
            live = spec.num_nodes if core is None else core
            time_scale = (
                DEFAULT_TIME_SCALE if self.shards == 1 else adaptive_time_scale(live, self.shards)
            )
        rounds = spec.rounds if self.rounds is None else self.rounds
        return replace(self, rounds=int(rounds), time_scale=float(time_scale), core_peers=core)


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
    #: (0.0 on the virtual clock — virtual time cannot be overloaded).
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
    #: Observability export (metrics series, trace spans, flight-recorder
    #: postmortems — see ``docs/observability.md``); ``None`` unless the
    #: run was started with an :class:`~repro.obs.ObsConfig`.  Plain dict
    #: so the result stays picklable.
    obs: Optional[Dict[str, Any]] = None
    #: Hybrid-fidelity facts (``mode``, ``core_peers``, ``slim_peers``,
    #: ``slim_memory_bytes``, ... — see :mod:`repro.runtime.slim`);
    #: ``None`` for full-fidelity runs.  Plain dict: picklable.
    fidelity: Optional[Dict[str, Any]] = None
    #: Run-level health verdict — a :meth:`~repro.obs.health.HealthEngine.
    #: snapshot` — when a telemetry consumer watched the run (``slo`` /
    #: ``telemetry_out``, or any sharded run with telemetry on).
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
    """Runs one scenario as a swarm of concurrent asyncio peers.

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
        core = options.core_peers
        #: The *live* workload: a hybrid run's peers-as-tasks are its core.
        self.spec = spec if core is None else spec.scaled(num_nodes=core)
        self.batching = options.batching
        self.delta_maps = options.delta_maps
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
        #: The statistical bulk of a hybrid run (this shard's near-even
        #: slice of it, on its own derived RNG stream), stepped at every
        #: boundary; ``None`` at full fidelity.
        self.slim: Optional[SlimTier] = None
        if core is not None:
            slim_total = spec.num_nodes - core
            extra = 1 if shard_index < slim_total % self.num_shards else 0
            self.slim = SlimTier(
                count=slim_total // self.num_shards + extra,
                config=self.config,
                churn=spec.churn,
                loss_rate=spec.loss_rate,
                seed=derive_seed(spec.seed, f"slim-tier/{shard_index}"),
            )
        #: The whole population (live peers + every shard's slim slice).
        self.total_peers = int(spec.num_nodes)
        self.peers: Dict[int, LivePeer] = {}
        self.retired_peers: List[LivePeer] = []
        self.messages_sent = 0
        self.messages_dropped = 0
        #: Physical bytes shipped over links (post-batch/delta encoding).
        self.bytes_on_wire = 0
        self.peers_joined = 0
        self.peers_left = 0
        #: Random stream deciding data-frame loss (``None`` = lossless).
        self.loss_rng: Optional[np.random.Generator] = None
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
        #: Wall/loop time the schedule is anchored at; ``None`` anchors at
        #: :meth:`run_async` entry (the cluster coordinator instead hands
        #: every shard the same agreed start instant).
        self.start_at: Optional[float] = None
        self._start_wall = 0.0
        #: The event loop driving this swarm, bound by :meth:`run_async`
        #: (a swarm poked by hand inside a running loop assigns it).
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        #: First exception a loop callback (an inbox drain, a period
        #: timer) raised on the wall clock — re-raised at shutdown.
        self._callback_error: Optional[BaseException] = None
        self._built = False
        #: Coherent overload dilation: wall seconds added to every future
        #: period deadline (swarm-wide, so peers stay phase-aligned).
        self._wall_offset = 0.0
        #: Worst period-boundary lateness peers reported since the last
        #: churn-controller boundary (the dilation signal).
        self._worst_lateness = 0.0
        #: Monotonicity floor for :meth:`sim_now` across dilation steps.
        self._sim_floor = 0.0
        #: Adaptive wall-seconds-per-period multiple (AIMD-controlled).
        self._stretch = 1.0
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
        #: Live telemetry (``docs/observability.md`` → *Live telemetry &
        #: SLOs*): when obs is on and a sink is attached — the cluster
        #: control pipe or a :class:`~repro.obs.TelemetryPlane` —
        #: :meth:`_emit_telemetry` pushes one frame body per period.
        #: No sink attached ⇒ the telemetry path costs nothing.
        self.telemetry_sink: Optional[Callable[[Dict[str, Any]], None]] = None
        self._telemetry_on = bool(options.telemetry_on)
        self._telemetry_every = obs.telemetry_every if obs is not None else 1
        self._telem_counters: Dict[str, float] = {}
        self._telem_miss_causes: Dict[str, int] = {}
        self._telem_flight_seen = 0

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
        """Every node on a routing path overhears the others on it."""
        self.manager.overhearing.overhear_path(peer_table, path, now=self.sim_now())

    def segment_payload(self, segment_id: int) -> Segment:
        """The segment object offered to a VoD backup store (eq. (5))."""
        segment = self.source.store.get(segment_id)
        if segment is None:
            segment = Segment(segment_id=segment_id, size_bits=self.config.segment_bits)
        return segment

    # ----------------------------------------------------------------- clocking
    def sim_now(self) -> float:
        """Current simulated time in seconds (dilation-adjusted wall time,
        un-scaled; monotone even across dilation steps)."""
        now = (self.loop.time() - self._start_wall - self._wall_offset) / self.time_scale
        if now > self._sim_floor:
            self._sim_floor = now
        return max(0.0, self._sim_floor)

    def wall_deadline_of(self, tick: int) -> float:
        """Wall-clock loop time of period boundary ``tick`` (incl. dilation)."""
        return (
            self._start_wall
            + self._wall_offset
            + tick * self.config.scheduling_period * self.time_scale
        )

    def note_lateness(self, seconds: float) -> None:
        """A peer hit a period boundary ``seconds`` late.

        The worst lateness in each controller period becomes a *coherent*
        schedule dilation: every future deadline (all peers, the churn
        driver, the source) shifts by the same amount, so an overloaded
        event loop stretches wall time uniformly instead of letting peers'
        period clocks drift apart — the drift is what used to collapse
        continuity at aggressive ``time_scale`` settings (the 200-peer
        ``BENCH_runtime.json`` anomaly).
        """
        if seconds > self._worst_lateness:
            self._worst_lateness = seconds

    #: Bounds of the adaptive schedule stretch (wall seconds per nominal
    #: period, as a multiple).  The ceiling caps how slow an overloaded
    #: swarm is allowed to run; past it the run is simply degraded (and
    #: says so in the stall metrics) rather than stretching forever.
    MAX_STRETCH = 16.0

    def _maybe_dilate(self, own_lateness: float) -> None:
        """Adapt the per-period schedule stretch to the observed lateness.

        AIMD on a *persistent* stretch factor: lateness pushes the factor
        up by the missed fraction of a period, slack decays it
        multiplicatively back towards 1.  A one-off offset per late round
        would limit-cycle (stretch, on-time round, no stretch, late
        round, ...); a converged persistent stretch keeps the event loop
        below saturation so message legs stay fast relative to the
        effective period and the within-period request → NACK → reroute
        dynamics complete, like they do on an unloaded clock.
        """
        scaled = self.config.scheduling_period * self.time_scale
        worst = max(self._worst_lateness, own_lateness)
        self._worst_lateness = 0.0
        if worst > 0.1 * scaled:
            # Half-gain additive increase: converges on the minimal
            # sustainable stretch instead of overshooting to a crawl
            # (empirically ~2× better throughput at equal continuity
            # than full-gain, see docs/runtime.md).
            self._stretch = min(self.MAX_STRETCH, self._stretch + 0.5 * worst / scaled)
        else:
            self._stretch = max(1.0, 0.85 * self._stretch)
        extra = (self._stretch - 1.0) * scaled
        if extra > 0.0:
            self._wall_offset += extra
            self.clock_dilation_s += extra
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
    def deliver(self, src: int, dst: int, frame: bytes, data: bool = False) -> None:
        """Ship one encoded frame from ``src`` to ``dst`` over its link.

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
        LoopbackLink`; a swarm with remote links hands frames for peers
        hosted elsewhere to that shard's socket link instead.
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
        self.loopback.send(src, dst, frame, data)

    def receive_routed(self, src: int, dst: int, payload: bytes, data: bool) -> None:
        """A peer frame arrived over a socket link: deliver it locally.

        The loopback link is the single local tail of every delivery —
        loss injection (data frames), model latency and the bounded-inbox
        credit refunds apply to a routed frame exactly as to a local one.
        The originating shard already counted the send.
        """
        if not self.hosts(dst):
            self.misrouted_frames += 1
            self.messages_dropped += 1
            return
        self.loopback.send(src, dst, payload, data)

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

        On the ``"virtual"`` clock the run executes on a deterministic
        virtual-time event loop — no wall waiting, bit-identical results
        for identical specs and seeds.  ``slo`` / ``telemetry_out``
        attach a :class:`~repro.obs.TelemetryPlane` as the telemetry
        sink: a breached SLO aborts the run with
        :class:`~repro.obs.SloViolation`.
        """
        if self.num_shards > 1:
            raise ValueError(
                "one shard of a sharded run cannot run alone: use "
                "repro.runtime.run(spec, options), which spawns the cluster"
            )
        options = self.options
        plane = None
        if options.slo is not None or options.telemetry_out is not None:
            plane = TelemetryPlane(
                self.rounds, 1, self.obs, slo=options.slo, telemetry_out=options.telemetry_out
            )
            self.telemetry_sink = plane.sink
        runner = run_on_virtual_clock if self.clock == "virtual" else asyncio.run
        try:
            partial = runner(self.run_async())
        finally:
            if plane is not None:
                plane.close()
        return merge_results(
            [partial], health=None if plane is None else plane.health.snapshot()
        )

    async def run_async(self) -> ShardResult:
        """Boot every hosted peer, drive churn, stop after ``rounds``
        periods; returns this shard's partial (see :func:`merge_results`)."""
        self.build()
        self.loop = loop = asyncio.get_running_loop()
        # A callback that raises must fail the run, not leave one peer
        # deaf behind a log line.  The virtual-clock loop lets it
        # propagate out of ``run()`` by itself; the stock loop hands it
        # to this handler (chained in front of whatever the embedding
        # application installed), and the first one is re-raised at shutdown.
        if self.clock != "virtual":
            outer_handler = loop.get_exception_handler()
            loop.set_exception_handler(partial(self._note_callback_error, outer_handler))
        self._start_wall = loop.time() if self.start_at is None else self.start_at
        # The wall stopwatch starts at the schedule anchor, so a shard
        # waiting out the coordinator's start margin does not count it.
        wall_start = time.perf_counter() + max(0.0, self._start_wall - loop.time())
        for peer in self.peers.values():
            peer.start()
        # The lag probe only makes sense on the wall clock (virtual time
        # cannot lag), and its extra timers would perturb the virtual
        # loop's deterministic callback order — obs-enabled virtual runs
        # must stay identical to disabled ones.
        probe = (
            loop.create_task(self._obs_lag_probe())
            if self.obs.enabled and self.clock != "virtual"
            else None
        )
        try:
            await self._churn_loop()
            if self._callback_error is not None:
                raise self._callback_error
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
            if probe is not None:
                probe.cancel()
                try:
                    await probe
                except asyncio.CancelledError:
                    pass
            await self._shutdown()
            if self.clock != "virtual":
                loop.set_exception_handler(outer_handler)
        wall_time = time.perf_counter() - wall_start
        return self._collect(wall_time)

    def _note_callback_error(
        self,
        outer_handler: Optional[Callable[..., object]],
        loop: asyncio.AbstractEventLoop,
        context: Dict[str, Any],
    ) -> None:
        """Loop exception handler for the run: remember the first
        exception raised by a *callback* (asyncio tags those with their
        ``handle``), then report it the way the loop would have."""
        exc = context.get("exception")
        if exc is not None and "handle" in context and self._callback_error is None:
            self._callback_error = exc
        if outer_handler is None:
            loop.default_exception_handler(context)
        else:
            outer_handler(loop, context)

    async def _obs_lag_probe(self) -> None:
        """Sample event-loop lag: how late a twice-per-period timer fires."""
        loop = self.loop
        interval = 0.5 * self.config.scheduling_period * self.time_scale
        while True:
            before = loop.time()
            await asyncio.sleep(interval)
            lag = loop.time() - before - interval
            self.obs.observe("event_loop_lag_s", max(0.0, lag))

    async def _churn_loop(self) -> None:
        """Fire the churn schedule at every period boundary, then stop.

        Runs slightly after each boundary (half a period, scaled) so the
        peers' own period ticks — playback, gossip — happen first, matching
        the simulator's end-of-period churn phase ordering.
        """
        scaled = self.config.scheduling_period * self.time_scale
        churn = self.manager.churn
        rng = self.system.streams.get("runtime-churn")
        for round_index in range(self.rounds):
            deadline = self.wall_deadline_of(round_index + 1) + 0.5 * scaled
            delay = deadline - self.loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            # A busy loop wakes the controller late; fold the worst
            # observed lateness (peers' and our own) into a coherent
            # schedule dilation before driving this boundary's churn.  A
            # cluster shard first exchanges its lateness with the other
            # shards through the coordinator, so every shard applies the
            # same (maximal) dilation at the same boundary and the overlay
            # stays phase-aligned *across* processes.
            own_lateness = max(0.0, self.loop.time() - deadline)
            worst = max(self._worst_lateness, own_lateness)
            if self.control is not None:
                worst = max(worst, await self.control.exchange_lateness(round_index, worst))
                self._worst_lateness = worst
            if worst > self.worst_lateness_s:
                self.worst_lateness_s = worst
            self._maybe_dilate(own_lateness)
            if self.slim is not None:
                # The tier conditions on the live core's *own* counts for
                # this period, never on its own output; stepped before the
                # telemetry emit so the frame carries its fresh sample.
                self.slim.step(round_index, *self._period_playback_counts(round_index, slim=False))
            if self.obs.enabled:
                self._obs_snapshot(round_index)
                if (
                    self.telemetry_sink is not None
                    and self._telemetry_on
                    and round_index % self._telemetry_every == 0
                ):
                    self._emit_telemetry(round_index)
            if churn.is_static or round_index == self.rounds - 1:
                continue
            event = churn.step(
                round_index, self.manager.alive_node_ids(), self.system.streams.get("churn")
            )
            for node_id in event.leaving:
                await self._retire_peer(node_id, rng)
            for _ in event.joining:
                self._admit_peer(rng, round_index + 1)
            if event.leaving or event.joining:
                self.manager.repair_neighbors()
        await self._await_completion(scaled)

    async def _await_completion(self, scaled: float) -> None:
        """Wait for every live peer to finish its ``rounds`` periods.

        Peers read deadlines from the swarm's shared (possibly dilated)
        clock, but a peer that woke just before a dilation step can trail
        the controller by up to a period; shutting down on the
        controller's schedule alone would truncate its samples.  Bounded
        by twice the *dilated* run length so a wedged peer cannot hang
        the swarm.
        """
        budget = 2.0 * (self.rounds * scaled + self.clock_dilation_s)
        waited = 0.0
        step = max(0.25 * scaled, 0.001)
        while waited < budget:
            lagging = [
                peer
                for peer in self.peers.values()
                if peer.node.alive and peer.first_tick + peer.ticks_run <= self.rounds
            ]
            if not lagging:
                return
            await asyncio.sleep(step)
            waited += step

    def _obs_snapshot(self, round_index: int) -> None:
        """Sample swarm-wide gauges into the per-period metric series."""
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
            # Additive pieces ride the gauge series (gauges sum across
            # shards in merge_metrics, so only counts go in — ratios are
            # recomputed wherever they are displayed).
            metrics.set_gauge("topo_partner_pairs", snap["partner_pairs"])
            metrics.set_gauge("topo_covered_pairs", snap["covered_pairs"])
            metrics.set_gauge("topo_finger_alive", snap["finger_alive"])
            metrics.set_gauge("topo_finger_total", snap["finger_total"])
        self.obs.snapshot(round_index)

    def _emit_telemetry(self, round_index: int) -> None:
        """Build one telemetry frame body and hand it to the attached sink.

        The body is the :class:`~repro.runtime.wire.TelemetryFrame`
        payload schema: this period's continuity sample over hosted
        peers, current gauge levels, counter *deltas* since the last
        frame, new miss causes and new flight-recorder events.  Pure
        observation — nothing here touches protocol state, so an
        obs-enabled virtual run with a sink attached stays deterministic.
        """
        playing, total = self._period_playback_counts(round_index)
        metrics = self.obs.metrics
        counters: Dict[str, float] = {}
        for name, value in metrics.counters.items():
            delta = value - self._telem_counters.get(name, 0.0)
            if delta:
                counters[name] = delta
            self._telem_counters[name] = value
        miss_causes: Dict[str, int] = {}
        for cause, count in self.obs.miss_causes.items():
            delta = count - self._telem_miss_causes.get(cause, 0)
            if delta:
                miss_causes[cause] = delta
            self._telem_miss_causes[cause] = count
        self._telem_flight_seen, flight = self.obs.flight_since(self._telem_flight_seen)
        body: Dict[str, Any] = {
            "shard": self.shard_index,
            "period": round_index,
            "t": self.sim_now(),
            "playing": playing,
            "total": total,
            "continuity": (playing / total) if total else 1.0,
            "peers_live": self.peers_live(),
            "gauges": dict(metrics.gauges),
            "counters": counters,
            "miss_causes": miss_causes,
            "flight": flight,
        }
        flows = self._flows
        if flows is not None:
            pair_delta = flows.pair_delta()
            if pair_delta:
                body["flows"] = pair_delta
        topo = self.obs.topo
        if topo is not None:
            topo_summary = topo.telemetry()
            if topo_summary is not None:
                body["topo"] = topo_summary
        if self.links:
            body["socket"] = {
                str(row["dst_shard"]): {
                    name: row[name]
                    for name in ("frames_out", "frames_in", "bytes_out", "bytes_in",
                                 "disconnects", "reconnects", "lost")
                }
                for row in self.socket_links()
            }
        self.telemetry_sink(body)

    async def _retire_peer(self, node_id: int, rng: np.random.Generator) -> None:
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
            await peer.stop()
            self.retired_peers.append(self.peers.pop(node_id))
            self.peers_left += 1
            self.obs.flight("peer_left", peer=node_id, graceful=graceful)
        # Dead links keep no flow-control state: credits in flight to the
        # departed peer are unrecoverable, and a joiner admitted later
        # under a recycled ring id must start with a full window.
        for survivor in self.peers.values():
            survivor.reset_partner_link(node_id)

    def _admit_peer(self, rng: np.random.Generator, first_tick: int) -> None:
        ring_id = self.manager.admit_node(rng, now=self.sim_now())
        if not self.hosts(ring_id):
            return
        peer = LivePeer(self.manager.nodes[ring_id], self, first_tick=first_tick)
        self.peers[ring_id] = peer
        peer.start()
        peer.announce_join()
        self.peers_joined += 1
        self.obs.flight("peer_joined", peer=ring_id)

    async def _shutdown(self) -> None:
        """Graceful shutdown: stop every task and wait for it to unwind."""
        await asyncio.gather(*(peer.stop() for peer in self.peers.values()))

    # ================================================================== collect
    def _period_playback_counts(self, tick: int, slim: bool = True) -> Tuple[int, int]:
        """``(playing, total)`` for one period over every hosted peer.

        The single aggregation point telemetry frames, playback samples
        and the merged tracker all flow through: a hybrid swarm's slim
        tier is added here (unless ``slim=False`` asks for the live core
        alone), so every consumer (health engine, cockpit, campaign
        stores) sees one population.
        """
        playing = total = 0
        for peer in list(self.peers.values()) + self.retired_peers:
            if peer.is_source:
                continue
            sample = peer.playback_log.get(tick)
            if sample is None:
                continue
            total += 1
            if sample.started and sample.continuous:
                playing += 1
        if slim and self.slim is not None:
            slim_playing, slim_total = self.slim.sample_for(tick)
            return playing + slim_playing, total + slim_total
        return playing, total

    def peers_live(self) -> int:
        """Currently-live peer count (live tasks plus the slim tier)."""
        return len(self.peers) + (0 if self.slim is None else self.slim.alive_count)

    def playback_samples(self) -> List[Tuple[int, int, int]]:
        """Per-tick ``(tick, playing, total)`` over every hosted peer.

        Untrimmed (every tick of the run appears): :func:`merge_results`
        sums these across shards before applying the trailing-empty trim,
        so a shard that finished early cannot truncate the merged series.
        """
        return [
            (tick, *self._period_playback_counts(tick)) for tick in range(self.rounds)
        ]

    def socket_links(self) -> List[Dict[str, int]]:
        """Per shard-pair socket-link stats rows (``src_shard`` is us).

        Every :class:`~repro.runtime.cluster.links.SocketLinkStats` field
        per remote shard — link resets show up as the ``disconnects`` /
        ``reconnects`` pair.  Rows ride the obs export
        (``obs["socket_links"]``) and, thinned, each telemetry frame.
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
        fidelity = None
        if self.slim is not None:
            fidelity = {
                "mode": "hybrid",
                "core_peers": self.options.core_peers,
                **self.slim.facts(),
                "total_peers": self.total_peers,
            }
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
            fidelity=fidelity,
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
_SUMMED = ("messages_sent", "messages_dropped", "bytes_on_wire", "peers_joined", "peers_left")
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
    with the standard sum/max rules and a hybrid run's ``slim_*`` facts
    sum over the shards' slices.  A sharded run (``shards > 1``) also
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
    fidelity = None if first.fidelity is None else dict(first.fidelity)
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
        if health is not None:
            cluster["health"] = health
        obs = merge_obs([row.obs for row in rows] + [extra_obs])
        if fidelity is not None:
            for key in fidelity:
                if key.startswith("slim_"):
                    fidelity[key] = sum(row.fidelity[key] for row in rows)
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
        fidelity=fidelity,
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
