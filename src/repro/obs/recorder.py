"""The observability recorder: trace spans, flight ring, postmortems.

Two implementations share one duck type:

* :data:`NULL_OBS` — the disabled plane.  ``enabled`` and ``tracing``
  are ``False`` and every method is a no-op, so instrumented call sites
  cost one attribute read on the hot path and a virtual-clock run with
  obs off is bit-identical to one with no obs code at all (pinned by
  ``tests/test_obs.py``).
* :class:`ObsRecorder` — the live plane.  It owns the
  :class:`~repro.obs.metrics.MetricsRegistry`, the period records
  (:mod:`repro.obs.record`), the sampled segment-journey span log, the
  bounded flight-recorder ring of rare structural events, and the
  postmortem dumps taken on stall detection, shard death or unhandled
  exceptions.

Determinism: trace sampling is counter-based (every ``trace_sample``-th
request), never an RNG draw, and trace ids are
``(peer_id << 24) | counter`` — an obs-enabled virtual-clock run stays
deterministic and produces the same protocol behaviour as a disabled
one (only ``bytes_on_wire`` grows, by the 8-byte trace tail on sampled
frames; see ``docs/observability.md``).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.obs.flows import FlowMatrix
from repro.obs.metrics import MetricsRegistry, summarize_traces
from repro.obs.topo import TopologyObserver

__all__ = ["ObsConfig", "ObsRecorder", "NullObs", "NULL_OBS"]


@dataclasses.dataclass(frozen=True)
class ObsConfig:
    """What to record, and how much of it to keep.

    Attributes:
        metrics: keep the registry + per-period records + flight ring.
        tracing: sample segment journeys and piggyback trace ids on wire.
        trace_sample: sample one in every N originated requests
            (``1`` traces everything; the counter is deterministic).
        flight_window: flight-recorder ring length, in events.
        span_limit: per-process span cap; excess increments
            ``spans_dropped`` instead of growing without bound.
        flows: account per-link / per-shard-pair traffic in a bounded
            :class:`~repro.obs.flows.FlowMatrix` (requires ``metrics``).
        topo: take per-period overlay snapshots (partner graph, gossip
            coverage, partition count) via
            :class:`~repro.obs.topo.TopologyObserver` (requires ``metrics``).
    """

    metrics: bool = True
    tracing: bool = True
    trace_sample: int = 16
    flight_window: int = 256
    span_limit: int = 50_000
    flows: bool = True
    topo: bool = True

    def __post_init__(self) -> None:
        if self.trace_sample < 1:
            raise ValueError(f"trace_sample must be >= 1, got {self.trace_sample!r}")


class NullObs:
    """The disabled plane: falsy flags, no-op methods, exports ``None``."""

    enabled = False
    tracing = False
    shard: Optional[int] = None
    #: Disabled flow matrix / topology observer: call sites cache these
    #: and guard on ``is not None``, so the hot path stays one load + test.
    flows: Optional[Any] = None
    topo: Optional[Any] = None

    def bind_shard(self, shard: int) -> None:
        pass

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    def sample_trace(self, peer_id: int) -> int:
        return 0

    def span(self, event: str, trace: int, peer: int, segment: int, **extra: Any) -> None:
        pass

    def inc(self, name: str, amount: float = 1.0) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def flight(self, event: str, **fields: Any) -> None:
        pass

    def postmortem(self, reason: str) -> None:
        pass

    def export(self) -> Optional[Dict[str, Any]]:
        return None


#: The shared disabled recorder.  Stateless, so one instance serves all.
NULL_OBS = NullObs()


class ObsRecorder:
    """The live observability plane for one swarm (process)."""

    #: Period records kept for the export (a streamed obs file has all).
    RECORD_WINDOW = 512

    def __init__(self, config: ObsConfig, shard: Optional[int] = None) -> None:
        self.config = config
        self.enabled = config.metrics
        self.tracing = config.tracing
        self.shard = shard
        self.metrics = MetricsRegistry()
        self.flows: Optional[FlowMatrix] = (
            FlowMatrix() if config.metrics and config.flows else None
        )
        self.topo: Optional[TopologyObserver] = (
            TopologyObserver() if config.metrics and config.topo else None
        )
        #: The period records (:func:`~repro.obs.record.build_record`),
        #: the newest :data:`RECORD_WINDOW` of them.
        self.records: Deque[Dict[str, Any]] = deque(maxlen=self.RECORD_WINDOW)
        self.spans: List[Dict[str, Any]] = []
        self.spans_dropped = 0
        self._flight: Deque[Dict[str, Any]] = deque(maxlen=config.flight_window)
        self.flight_total = 0
        self._flight_seen = 0
        self.postmortems: List[Dict[str, Any]] = []
        self.miss_causes: Dict[str, int] = {}
        self._req_count = 0
        self._trace_counter = 0
        self._span_seq = 0
        self._clock: Optional[Callable[[], float]] = None

    # ------------------------------------------------------------------ wiring
    def bind_shard(self, shard: int) -> None:
        self.shard = shard

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the swarm's sim-time clock (``LiveSwarm.sim_now``)."""
        self._clock = clock

    def now(self) -> float:
        return 0.0 if self._clock is None else self._clock()

    # ----------------------------------------------------------------- tracing
    def sample_trace(self, peer_id: int) -> int:
        """A fresh trace id for this request, or 0 when not sampled."""
        self._req_count += 1
        if self._req_count % self.config.trace_sample:
            return 0
        self._trace_counter += 1
        return ((peer_id & 0xFFFFFFFF) << 24) | (self._trace_counter & 0xFFFFFF)

    def span(self, event: str, trace: int, peer: int, segment: int, **extra: Any) -> None:
        """Record one structured span on a sampled segment journey.

        Each span carries a per-recorder monotone ``seq`` so merged
        multi-shard span streams re-sort deterministically even when sim
        timestamps collide (see :func:`~repro.obs.metrics.merge_obs`).
        """
        if event == "miss":
            cause = extra.get("cause", "unknown")
            self.miss_causes[cause] = self.miss_causes.get(cause, 0) + 1
        if len(self.spans) >= self.config.span_limit:
            self.spans_dropped += 1
            return
        self._span_seq += 1
        span: Dict[str, Any] = {
            "trace": trace,
            "event": event,
            "peer": peer,
            "segment": segment,
            "t": self.now(),
            "seq": self._span_seq,
        }
        if self.shard is not None:
            span["shard"] = self.shard
        if extra:
            span.update(extra)
        self.spans.append(span)

    # ----------------------------------------------------------------- metrics
    def inc(self, name: str, amount: float = 1.0) -> None:
        self.metrics.inc(name, amount)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    # ---------------------------------------------------------------- flight
    def flight(self, event: str, **fields: Any) -> None:
        """Append one rare structural event to the bounded flight ring."""
        entry: Dict[str, Any] = {"event": event, "t": self.now()}
        if self.shard is not None:
            entry["shard"] = self.shard
        if fields:
            entry.update(fields)
        self._flight.append(entry)
        self.flight_total += 1

    def new_flight(self) -> List[Dict[str, Any]]:
        """Flight events appended since the last call (the period record's).

        Events that already scrolled out of the bounded ring are simply
        gone: a call returns at most one ring's worth.
        """
        fresh = min(self.flight_total - self._flight_seen, len(self._flight))
        self._flight_seen = self.flight_total
        return list(self._flight)[-fresh:] if fresh > 0 else []

    def postmortem(self, reason: str) -> None:
        """Dump the flight ring: called on stall, shard death, crash."""
        self.postmortems.append(
            {
                "reason": reason,
                "t": self.now(),
                "shard": self.shard,
                "events": list(self._flight),
            }
        )

    # ----------------------------------------------------------------- export
    def export(self) -> Dict[str, Any]:
        """A plain picklable dict for ``RuntimeResult.obs``/``ShardResult.obs``."""
        out: Dict[str, Any] = {
            "shard": self.shard,
            "metrics": self.metrics.to_dict(),
            "records": list(self.records),
            "spans": list(self.spans),
            "spans_dropped": self.spans_dropped,
            "flight": list(self._flight),
            "postmortems": list(self.postmortems),
            "traces": summarize_traces(self.spans),
        }
        if self.flows is not None and not self.flows.empty:
            out["flows"] = self.flows.to_dict()
        if self.topo is not None and self.topo.last is not None:
            out["topo"] = self.topo.to_dict()
        return out
