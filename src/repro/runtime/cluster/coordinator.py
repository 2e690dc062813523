"""The cluster control plane: fork, barrier, relay, merge.

:class:`ClusterCoordinator` turns one scenario into a multi-process
swarm:

* **fork** — one worker process per shard
  (:func:`~repro.runtime.cluster.worker.run_shard_worker`), each handed
  the spec, the resolved :class:`~repro.runtime.swarm.RunOptions`, its
  shard index and the run token over a control pipe;
* **wire** — collects every shard's listening port, broadcasts the port
  map, and waits for the full mesh of handshaken socket links (the
  *start barrier*: no peer frame flies before every link is up);
* **start** — broadcasts one agreed start instant (CLOCK_MONOTONIC, so
  it is comparable across processes on one machine) that anchors every
  shard's period clock; the shard owning the source ring id runs the
  stream origin and the Rendezvous Point state is replicated
  deterministically from the shared seed, so no admission traffic needs
  the coordinator;
* **relay** — per period boundary, collects each shard's worst observed
  lateness and broadcasts the cluster-wide maximum back, which the
  shards feed into the AIMD schedule dilation — overload stretches the
  whole cluster's clock coherently instead of letting shards drift
  apart (churn events replicate deterministically from the shared seed
  and ride the same boundaries);
* **stop** — collects every shard's :class:`~repro.runtime.swarm.
  ShardResult` partial, broadcasts the close barrier (links are only torn
  down once every shard has finished), and folds the partials through
  :func:`~repro.runtime.swarm.merge_results` — the same merge an
  in-process run applies to its single partial — into one standard
  :class:`~repro.runtime.swarm.RuntimeResult`.

A worker that dies mid-run (crash, kill -9) is detected through its
control pipe, dropped from every barrier, and reported as a lost shard;
the survivors' socket links refund their in-flight credits and presume
the shard's peers dead (see ``docs/cluster.md`` on failure semantics).
"""

from __future__ import annotations

import multiprocessing
import secrets
import sys
import time
from multiprocessing.connection import wait as connection_wait
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import HealthEngine, ObsRecorder, SloViolation, TelemetryPlane
from repro.runtime.cluster.worker import run_shard_worker
from repro.runtime.swarm import RunOptions, RuntimeResult, ShardResult, merge_results, run
from repro.scenarios.spec import ScenarioSpec

#: The least lead the agreed start instant keeps over the ready barrier.
#: Every shard must be running before a faster shard's first frames reach
#: it: its mailbox thread hands ``start`` to its loop, which then files
#: every hosted peer for its first boundary.  Measured (while each peer
#: was still its own task) from ``start`` off the pipe to every peer's
#: first step: 2.3-5.0 ms per shard at 4 shards x 1000
#: peers (~250 a shard, the largest nightly run) on a 2-vCPU host, so the
#: floor keeps a 20x margin.
START_FLOOR_S = 0.1

#: Budget for fork → listen → mesh → ready.
SETUP_TIMEOUT_S = 90.0

#: ``multiprocessing`` start method.  A forked shard inherits the imported
#: program and goes straight to building its swarm, where a spawned one
#: re-imported it first (0.41-0.52 CPU-s a shard on a 2-vCPU host).  The
#: fork also copies the coordinator's open pipe ends, which a shard closes
#: first (:func:`~repro.runtime.cluster.worker.run_shard_worker`).  Not
#: ``"forkserver"``: its workers are the server's children, so their CPU
#: would leave the caller's ``RUSAGE_CHILDREN``.
MP_CONTEXT = "fork"


def start_anchor(now: float, deliveries: Sequence[float]) -> float:
    """The agreed start instant, derived from the ready barrier.

    ``deliveries`` are the shards' measured control-pipe delivery times
    (their ``ready`` reports' send-to-receive delays).  The ``start``
    broadcast travels the same pipes the other way, so the anchor leads
    ``now`` by the slowest of them plus :data:`START_FLOOR_S` — never
    earlier than any measured delivery.
    """
    return now + max([0.0, *deliveries]) + START_FLOOR_S


class _Channel:
    """The coordinator's view of one worker: pipe, process, buffers."""

    def __init__(self, shard: int, conn, process) -> None:
        self.shard = shard
        self.conn = conn
        self.process = process
        self.alive = True
        self.buffers: Dict[str, List[Tuple]] = {}
        #: When the latest message of each tag came off the pipe.
        self.received: Dict[str, float] = {}
        self.error: Optional[str] = None

    def take(self, tag: str) -> Optional[Tuple]:
        buffered = self.buffers.get(tag)
        if buffered:
            return buffered.pop(0)
        return None


class ClusterCoordinator:
    """Runs one scenario as a sharded multi-process swarm.

    Args:
        spec: the workload (identical spec goes to every shard).
        options: the run's :class:`~repro.runtime.swarm.RunOptions`;
            ``options.shards`` picks the process count.
    """

    def __init__(self, spec: ScenarioSpec, options: RunOptions) -> None:
        self.spec = spec
        #: Resolved once here, so every worker receives the same rounds
        #: and clock compression.
        self.options = options.resolved(spec)
        self.token = secrets.randbits(32)
        #: Live phase marker: ``"init" → "setup" → "running" → "done"``
        #: (tests and progress displays poll it).
        self.phase = "init"
        self.channels: List[_Channel] = []
        #: Per-shard facts reported at listen time (port, hosted peers,
        #: whether the shard hosts the source).
        self.shard_infos: Dict[int, Dict[str, Any]] = {}
        #: The consumer of the shards' period records (``None`` with obs
        #: metrics off), created at :meth:`run`; :attr:`health` is its
        #: engine.
        self.plane: Optional[TelemetryPlane] = None
        self._aborted = False

    @property
    def health(self) -> Optional[HealthEngine]:
        """The live health engine, once the run has started."""
        return None if self.plane is None else self.plane.health

    # ----------------------------------------------------------------- messaging
    def _broadcast(self, msg: Tuple) -> None:
        for channel in self.channels:
            if not channel.alive:
                continue
            try:
                channel.conn.send(msg)
            except (BrokenPipeError, OSError):
                self._mark_dead(channel)

    def _mark_dead(self, channel: _Channel) -> None:
        if channel.alive:
            channel.alive = False
            if self.plane is not None and self.phase == "running":
                self.plane.shard_dead(channel.shard)

    def _live(self) -> List[_Channel]:
        return [c for c in self.channels if c.alive]

    def _pump(self, timeout: float) -> None:
        """Drain every readable control pipe into the per-tag buffers."""
        live = self._live()
        if not live:
            return
        ready = connection_wait([c.conn for c in live], timeout=timeout)
        by_conn = {c.conn: c for c in live}
        for conn in ready:
            channel = by_conn[conn]
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                self._mark_dead(channel)
                continue
            tag = msg[0]
            if tag == "error":
                channel.error = msg[2]
                self._mark_dead(channel)
                continue
            if tag == "record":
                # Handled inline rather than buffered: the health plane
                # must see records even while a barrier wait is draining
                # some other tag.
                if self.plane is not None:
                    self.plane.record(msg[2])
                continue
            channel.buffers.setdefault(tag, []).append(msg)
            channel.received[tag] = time.monotonic()
        # A worker that died without an EOF reaching us yet (kill -9 is
        # detected via EOF, but be defensive about half-dead processes).
        for channel in live:
            if channel.alive and not channel.process.is_alive() and not any(
                channel.buffers.values()
            ):
                self._mark_dead(channel)

    # ------------------------------------------------------------------- health
    def _check_slo(self) -> None:
        """Abort (raise :class:`SloViolation`) once the SLO budget breaches."""
        if self.plane is not None:
            self.plane.check_slo()

    def _collect_tag(self, tag: str, timeout: float) -> Dict[int, Tuple]:
        """One ``tag`` message from every live worker (or fewer, if some
        die while we wait)."""
        deadline = time.monotonic() + timeout
        collected: Dict[int, Tuple] = {}
        while True:
            for channel in self._live():
                if channel.shard in collected:
                    continue
                msg = channel.take(tag)
                if msg is not None:
                    collected[channel.shard] = msg
            missing = [c for c in self._live() if c.shard not in collected]
            if not missing:
                return collected
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                for channel in missing:
                    self._mark_dead(channel)
                return collected
            self._pump(min(0.25, remaining))

    # ----------------------------------------------------------------------- run
    def run(self) -> RuntimeResult:
        """Fork the shards, drive the run, merge and return the result."""
        options = self.options
        ctx = multiprocessing.get_context(MP_CONTEXT)
        self.phase = "setup"
        health_obs: Optional[ObsRecorder] = None
        if options.obs is not None and options.obs.metrics:
            health_obs = ObsRecorder(options.obs)
            self.plane = plane = TelemetryPlane(
                options.rounds,
                options.shards,
                health_obs,
                slo=options.slo,
                obs_out=options.obs_out,
            )
            # Alert flight events inherit the newest record's sim-time
            # stamp, so coordinator-side obs merges on the shards' clock.
            health_obs.bind_clock(lambda: plane.health._last_t)
        payload = {"spec": self.spec, "options": options, "token": self.token}
        obs = None
        try:
            for shard in range(options.shards):
                parent_conn, child_conn = ctx.Pipe()
                # The coordinator's pipe ends this fork copies: the new
                # shard's own and every earlier shard's.
                inherited = [c.conn for c in self.channels] + [parent_conn]
                process = ctx.Process(
                    target=run_shard_worker,
                    args=(child_conn, dict(payload, shard_index=shard), inherited),
                    name=f"continustreaming-shard-{shard}",
                )
                process.start()
                child_conn.close()
                self.channels.append(_Channel(shard, parent_conn, process))
            deliveries = self._setup_barrier()
            self._broadcast(("start", start_anchor(time.monotonic(), deliveries)))
            self.phase = "running"
            self._relay_lateness()
            results = self._collect_results()
            self._check_slo()
            if not results:
                errors = [c.error for c in self.channels if c.error]
                detail = f":\n{errors[0]}" if errors else ""
                raise RuntimeError(f"every cluster shard failed{detail}")
            merged = merge_results(
                list(results.values()),
                shards=options.shards,
                lost_shards=sorted(c.shard for c in self.channels if c.shard not in results),
                extra_obs=None if health_obs is None else health_obs.export(),
                health=None if self.plane is None else self.plane.health.snapshot(),
            )
            obs = merged.obs
            return merged
        except SloViolation as exc:
            # An SLO abort should not sit out the workers' remaining
            # rounds: shut them down on the short clock.
            self._aborted = True
            obs = exc.obs
            raise
        finally:
            self.phase = "done"
            self._broadcast(("close",))
            self._shutdown_processes()
            if self.plane is not None:
                self.plane.close(obs)

    def _setup_barrier(self) -> List[float]:
        """Fork → listen → mesh → ready; returns each shard's measured
        control-pipe delivery time of its ``ready`` report."""
        shards = self.options.shards
        listening = self._collect_tag("listening", SETUP_TIMEOUT_S)
        if len(listening) < shards:
            raise RuntimeError(self._setup_failure("start listening", listening))
        self.shard_infos = {shard: msg[2] for shard, msg in listening.items()}
        ports = {shard: info["port"] for shard, info in self.shard_infos.items()}
        self._broadcast(("peers", ports))
        ready = self._collect_tag("ready", SETUP_TIMEOUT_S)
        if len(ready) < shards:
            raise RuntimeError(self._setup_failure("establish links", ready))
        # Both ends read the same system-wide monotonic clock.
        return [self.channels[shard].received["ready"] - msg[2] for shard, msg in ready.items()]

    def _setup_failure(self, what: str, got: Dict[int, Tuple]) -> str:
        missing = sorted(set(range(self.options.shards)) - set(got))
        errors = "\n".join(
            f"shard {c.shard}: {c.error}" for c in self.channels if c.error
        )
        return (
            f"cluster setup failed: shards {missing} did not {what} within "
            f"{SETUP_TIMEOUT_S}s" + (f"\n{errors}" if errors else "")
        )

    def _relay_lateness(self) -> None:
        """The per-boundary lateness exchange (see module docstring).

        Each round, every live shard reports its worst lateness; the
        maximum is broadcast back and every shard folds it into the same
        AIMD dilation step — the cross-process version of the coherent
        overload dilation.  A shard that dies mid-run simply drops out
        of the barrier; the survivors' reports keep the relay going.
        """
        scaled = max(1e-6, self._scaled_period())
        round_timeout = max(20.0, 40.0 * scaled)
        for round_index in range(self.options.rounds):
            if not self._live():
                return
            reports = self._collect_round_lateness(round_index, round_timeout)
            worst = max(reports.values(), default=0.0)
            self._broadcast(("dilate", round_index, worst))
            self._check_slo()

    def _scaled_period(self) -> float:
        return self.spec.to_config().scheduling_period * self.options.time_scale

    def _collect_round_lateness(
        self, round_index: int, timeout: float
    ) -> Dict[int, float]:
        deadline = time.monotonic() + timeout
        reports: Dict[int, float] = {}
        while True:
            for channel in self._live():
                if channel.shard in reports:
                    continue
                while True:
                    msg = channel.take("lateness")
                    if msg is None:
                        break
                    _, _, rnd, worst = msg
                    if rnd >= round_index:
                        reports[channel.shard] = float(worst)
                        break
                    # stale report from a round we already broadcast
            if all(c.shard in reports for c in self._live()):
                return reports
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                for channel in self._live():
                    if channel.shard not in reports:
                        self._mark_dead(channel)
                return reports
            self._pump(min(0.25, remaining))

    def _collect_results(self) -> Dict[int, ShardResult]:
        # Generous: the shards already ran their rounds during the relay
        # phase; what remains is the completion wait and shutdown.
        timeout = max(120.0, 4.0 * self.options.rounds * self._scaled_period() + 60.0)
        collected = self._collect_tag("result", timeout)
        return {shard: msg[2] for shard, msg in collected.items()}

    def _shutdown_processes(self) -> None:
        join_s = 1.0 if self._aborted else 10.0
        for channel in self.channels:
            channel.process.join(timeout=join_s)
        for channel in self.channels:
            if channel.process.is_alive():
                channel.process.terminate()
                channel.process.join(timeout=5.0)
            channel.conn.close()
        for channel in self.channels:
            if channel.error:
                print(
                    f"[cluster] shard {channel.shard} failed:\n{channel.error}",
                    file=sys.stderr,
                )


def run_cluster(spec: ScenarioSpec, shards: int = 2, **overrides: Any) -> RuntimeResult:
    """:func:`~repro.runtime.swarm.run` with a 2-shard default; ``overrides``
    are :class:`~repro.runtime.swarm.RunOptions` fields (``rounds=``,
    ``time_scale=``, ``obs=``, ...)."""
    return run(spec, shards=shards, **overrides)
