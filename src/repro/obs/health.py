"""Run-level health: SLO budgets, watchdogs, and typed alerts.

The :class:`HealthEngine` folds the per-shard period records (see
``docs/observability.md`` → *Live telemetry & SLOs*) into run-level
health verdicts while the run is still going:

* **rolling continuity** — per-period ``playing/total`` samples from
  every live shard are closed out once all of them have reported a
  period, giving one run-wide continuity number per period;
* **burn rate** — with an SLO like ``continuity>=0.95`` the error
  budget is ``1 - target``; a period that misses the target burns
  ``(1 - continuity) / budget`` of budget.  Sustained burn above the
  spec's multiplier (``:burn=3x``) for ``confirm`` consecutive periods
  is a breach: the engine records a critical alert, writes a postmortem
  naming the breach, and (when the caller opted in via ``--slo``)
  aborts the run through :class:`SloViolation`;
* **watchdogs** — credit starvation (pending credits stuck non-zero and
  non-decreasing), dilation stretch (AIMD clock dilation approaching
  its ceiling), stalled telemetry (one shard stops reporting while the
  rest advance), and shard death (control channel lost mid-run).

Alerts are plain frozen dataclasses so they serialise into the obs
file and the flight recorder without ceremony, and every
alert is emitted at most once per episode so the feed stays readable.
"""

from __future__ import annotations

import dataclasses
import re
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs.record import record_shard, sum_flows

__all__ = ["Alert", "SloSpec", "SloViolation", "HealthEngine", "parse_slo"]


@dataclasses.dataclass(frozen=True)
class Alert:
    """One typed health event, ordered by ``(period, seq)`` of emission."""

    kind: str  # continuity_burn | credit_starvation | dilation_stretch | telemetry_stall | shard_dead
    severity: str  # "warn" | "critical"
    message: str
    shard: Optional[int] = None
    period: Optional[int] = None
    value: float = 0.0
    threshold: float = 0.0
    t: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


class SloViolation(RuntimeError):
    """Raised to abort a run early once an ``--slo`` budget is breached.

    Carries the breaching :class:`Alert` and, when available, the obs
    export taken at abort time so the CLI can print the postmortem that
    names the breach.
    """

    def __init__(self, alert: Alert, obs: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(alert.message)
        self.alert = alert
        self.obs = obs


_SLO_HEAD = re.compile(r"^(?P<metric>[a-z_]+)\s*(?P<op>>=)\s*(?P<target>[0-9.]+)$")


@dataclasses.dataclass(frozen=True)
class SloSpec:
    """A parsed ``--slo`` budget, e.g. ``continuity>=0.95:burn=3x``.

    Attributes:
        metric: the governed series; only ``continuity`` is defined today.
        target: the SLO floor (``0 < target <= 1``).
        burn: abort once budget burns at ``burn``× the sustainable rate.
        confirm: consecutive burning periods required before breaching
            (one bad period is noise; two in a row is a trend).
        grace: periods to ignore at run start (startup ramp), or ``None``
            to let the runner pick (a third of the round count).
    """

    metric: str = "continuity"
    target: float = 0.95
    burn: float = 3.0
    confirm: int = 2
    grace: Optional[int] = None

    def __post_init__(self) -> None:
        if self.metric != "continuity":
            raise ValueError(f"unsupported SLO metric {self.metric!r} (only 'continuity')")
        if not 0.0 < self.target <= 1.0:
            raise ValueError(f"SLO target must be in (0, 1], got {self.target!r}")
        if self.burn <= 0:
            raise ValueError(f"SLO burn multiplier must be > 0, got {self.burn!r}")
        if self.confirm < 1:
            raise ValueError(f"SLO confirm must be >= 1, got {self.confirm!r}")

    @property
    def budget(self) -> float:
        """The error budget: tolerable miss fraction per period."""
        return 1.0 - self.target

    @property
    def text(self) -> str:
        parts = [f"{self.metric}>={self.target:g}", f"burn={self.burn:g}x"]
        if self.grace is not None:
            parts.append(f"grace={self.grace}")
        if self.confirm != 2:
            parts.append(f"confirm={self.confirm}")
        return ":".join(parts)

    @classmethod
    def parse(cls, spec: str) -> "SloSpec":
        head, *opts = [p.strip() for p in spec.strip().split(":") if p.strip()]
        match = _SLO_HEAD.match(head.replace(" ", ""))
        if match is None:
            raise ValueError(
                f"bad SLO spec {spec!r}: expected e.g. 'continuity>=0.95[:burn=3x][:grace=5]'"
            )
        kwargs: Dict[str, Any] = {
            "metric": match["metric"],
            "target": float(match["target"]),
        }
        for opt in opts:
            key, _, value = opt.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "burn":
                kwargs["burn"] = float(value.rstrip("xX"))
            elif key == "grace":
                kwargs["grace"] = int(value)
            elif key == "confirm":
                kwargs["confirm"] = int(value)
            else:
                raise ValueError(f"bad SLO option {opt!r} in {spec!r}")
        return cls(**kwargs)


def parse_slo(spec: Optional[str]) -> Optional[SloSpec]:
    """``SloSpec.parse`` that passes ``None`` through (no SLO configured)."""
    return None if spec is None else SloSpec.parse(spec)


class _ShardHealth:
    """Mutable per-shard rollup the engine keeps between records."""

    __slots__ = (
        "last_period",
        "last_t",
        "continuity",
        "stretch",
        "credit_pending",
        "credit_streak",
        "credit_alerted",
        "stretch_alerted",
        "stall_alerted",
        "partition_alerted",
        "frames",
        "peers_live",
        "miss_causes",
        "flows",
    )

    def __init__(self, window: int) -> None:
        self.last_period = -1
        self.last_t = 0.0
        self.continuity: Deque[Tuple[int, float]] = deque(maxlen=window)
        self.stretch = 1.0
        self.credit_pending = 0.0
        self.credit_streak = 0
        self.credit_alerted = False
        self.stretch_alerted = False
        self.stall_alerted = False
        self.partition_alerted = False
        self.frames = 0
        self.peers_live = 0
        self.miss_causes: Dict[str, int] = {}
        self.flows: List[List[int]] = []

    def to_dict(self) -> Dict[str, Any]:
        return {
            "last_period": self.last_period,
            "frames": self.frames,
            "peers_live": self.peers_live,
            "stretch": self.stretch,
            "credit_pending": self.credit_pending,
            "continuity": [list(p) for p in self.continuity],
            "miss_causes": dict(self.miss_causes),
        }


class HealthEngine:
    """Folds per-shard period records into run-level SLO verdicts.

    The engine is transport-agnostic: the cluster coordinator feeds it
    the records its shards ship over their control pipes, a
    single-process swarm feeds them straight from its record sink.
    Counters, miss causes and flows are cumulative in a record, so the
    engine keeps each shard's latest and adds nothing up.  ``recorder``
    (any obs-recorder duck type) receives one flight event per alert and
    the breach postmortem, so health history survives into the merged
    obs export.
    """

    #: AIMD stretch levels that trip the dilation watchdog (MAX_STRETCH is 16).
    STRETCH_WARN = 4.0
    STRETCH_CRITICAL = 12.0
    #: consecutive records with stuck, non-decreasing pending credits.
    CREDIT_STREAK = 3
    #: periods a shard may lag the fleet before it counts as stalled.
    STALL_PERIODS = 3

    def __init__(
        self,
        slo: Optional[SloSpec] = None,
        recorder: Any = None,
        window: int = 8,
        grace: Optional[int] = None,
        expected_shards: Optional[int] = None,
    ) -> None:
        self.slo = slo
        self.recorder = recorder
        self.window = max(1, int(window))
        #: With a known fleet size no period closes until every expected
        #: shard has reported at least once (or been declared dead) —
        #: otherwise the first shard to speak would close period 0 alone.
        self.expected_shards = expected_shards
        if grace is None:
            grace = slo.grace if slo is not None and slo.grace is not None else 2
        self.grace = max(0, int(grace))
        self.shards: Dict[int, _ShardHealth] = {}
        self.dead_shards: set = set()
        self.alerts: List[Alert] = []
        self._new_alerts: Deque[Alert] = deque()
        self.breach: Optional[Alert] = None
        #: run-level closed periods: (period, continuity, burn_rate)
        self.continuity: Deque[Tuple[int, float, float]] = deque(maxlen=self.window)
        self._acc: Dict[int, List[float]] = {}
        self._closed_through = -1
        self._burn_streak = 0
        self._last_t = 0.0
        #: records dropped for lacking a valid integer shard id (a torn or
        #: foreign record must not pollute shard 0's series).
        self.rejected_frames = 0
        #: latest per-shard topology summary (coverage, components).
        self.topo: Dict[int, Dict[str, Any]] = {}

    # ------------------------------------------------------------------ intake
    def observe_record(self, body: Dict[str, Any]) -> None:
        """Fold one period record (a plain dict) into the rollup.

        Records without a valid shard id
        (:func:`~repro.obs.record.record_shard`) are rejected (counted in
        :attr:`rejected_frames`) — a torn or foreign record must not
        pollute another shard's continuity series or trip its watchdogs.
        """
        shard = record_shard(body)
        if shard is None:
            self.rejected_frames += 1
            return
        period = int(body.get("period", 0))
        t = float(body.get("t", 0.0))
        self._last_t = max(self._last_t, t)
        st = self.shards.get(shard)
        if st is None:
            st = self.shards[shard] = _ShardHealth(self.window)
        st.frames += 1
        st.last_period = max(st.last_period, period)
        st.last_t = t
        st.peers_live = int(body.get("peers_live", st.peers_live))

        playing = float(body.get("playing", 0.0))
        total = float(body.get("total", 0.0))
        continuity = float(body.get("continuity", 1.0))
        st.continuity.append((period, continuity))
        acc = self._acc.setdefault(period, [0.0, 0.0])
        acc[0] += playing
        acc[1] += total

        st.miss_causes = dict(body.get("miss_causes") or {})
        st.flows = list(body.get("flows") or ())
        topo = body.get("topo")
        if topo:
            self.topo[shard] = dict(topo)
            components = topo.get("components")
            if components and int(components) > 1 and not st.partition_alerted:
                st.partition_alerted = True
                self._emit(
                    Alert(
                        kind="overlay_partition",
                        severity="critical",
                        message=(
                            f"shard {shard} sees {components} overlay "
                            "components (partition)"
                        ),
                        shard=shard,
                        period=period,
                        t=t,
                    )
                )

        gauges = body.get("gauges") or {}
        self._watch_stretch(st, shard, period, float(gauges.get("dilation_stretch", 1.0)))
        self._watch_credits(st, shard, period, float(gauges.get("credit_pending_total", 0.0)))
        self._watch_stalls(period)
        self._close_periods()

    def mark_shard_dead(self, shard: int, reason: str = "control channel lost") -> None:
        """A shard's process/pipe died mid-run: alert once, stop waiting on it."""
        if shard in self.dead_shards:
            return
        self.dead_shards.add(shard)
        st = self.shards.get(shard)
        period = st.last_period if st is not None else None
        self._emit(
            Alert(
                kind="shard_dead",
                severity="critical",
                message=f"shard {shard} presumed dead ({reason})",
                shard=shard,
                period=period,
                t=self._last_t,
            )
        )
        # Periods gated on the dead shard can now close on the survivors.
        self._close_periods()

    # --------------------------------------------------------------- watchdogs
    def _watch_stretch(self, st: _ShardHealth, shard: int, period: int, stretch: float) -> None:
        st.stretch = stretch
        if stretch >= self.STRETCH_WARN and not st.stretch_alerted:
            st.stretch_alerted = True
            severity = "critical" if stretch >= self.STRETCH_CRITICAL else "warn"
            self._emit(
                Alert(
                    kind="dilation_stretch",
                    severity=severity,
                    message=(
                        f"shard {shard} clock dilation stretch {stretch:.1f}x "
                        f"(>= {self.STRETCH_WARN:g}x watchdog)"
                    ),
                    shard=shard,
                    period=period,
                    value=stretch,
                    threshold=self.STRETCH_WARN,
                    t=self._last_t,
                )
            )
        elif stretch < self.STRETCH_WARN:
            st.stretch_alerted = False

    def _watch_credits(self, st: _ShardHealth, shard: int, period: int, pending: float) -> None:
        if pending > 0 and pending >= st.credit_pending:
            st.credit_streak += 1
        else:
            st.credit_streak = 0
            st.credit_alerted = False
        st.credit_pending = pending
        if st.credit_streak >= self.CREDIT_STREAK and not st.credit_alerted:
            st.credit_alerted = True
            self._emit(
                Alert(
                    kind="credit_starvation",
                    severity="warn",
                    message=(
                        f"shard {shard} has {pending:g} credits pending, stuck for "
                        f"{st.credit_streak} reporting periods"
                    ),
                    shard=shard,
                    period=period,
                    value=pending,
                    threshold=float(self.CREDIT_STREAK),
                    t=self._last_t,
                )
            )

    def _watch_stalls(self, period: int) -> None:
        for shard, st in self.shards.items():
            if shard in self.dead_shards:
                continue
            lag = period - st.last_period
            if lag > self.STALL_PERIODS and not st.stall_alerted:
                st.stall_alerted = True
                self._emit(
                    Alert(
                        kind="telemetry_stall",
                        severity="warn",
                        message=(
                            f"shard {shard} telemetry stalled at period {st.last_period} "
                            f"while the fleet reached {period}"
                        ),
                        shard=shard,
                        period=st.last_period,
                        value=float(lag),
                        threshold=float(self.STALL_PERIODS),
                        t=self._last_t,
                    )
                )
            elif lag <= self.STALL_PERIODS:
                st.stall_alerted = False

    # ----------------------------------------------------------- SLO evaluation
    def _live_floor(self) -> Optional[int]:
        """The newest period every live shard has reported, or ``None``."""
        if self.expected_shards is not None:
            heard_of = len(set(self.shards) | self.dead_shards)
            if heard_of < self.expected_shards:
                return None
        floor: Optional[int] = None
        for shard, st in self.shards.items():
            if shard in self.dead_shards:
                continue
            floor = st.last_period if floor is None else min(floor, st.last_period)
        return floor

    def _close_periods(self) -> None:
        floor = self._live_floor()
        if floor is None:
            return
        while self._closed_through < floor:
            period = self._closed_through + 1
            self._closed_through = period
            playing, total = self._acc.pop(period, (0.0, 0.0))
            continuity = (playing / total) if total else 1.0
            self._score_period(period, continuity)

    def _score_period(self, period: int, continuity: float) -> None:
        slo = self.slo
        burn = 0.0
        if slo is not None and continuity < slo.target:
            miss = 1.0 - continuity
            burn = (miss / slo.budget) if slo.budget > 0 else float("inf")
        self.continuity.append((period, continuity, burn))
        if slo is None or period < self.grace:
            return
        if burn >= slo.burn:
            self._burn_streak += 1
        else:
            self._burn_streak = 0
        if self._burn_streak >= slo.confirm and self.breach is None:
            alert = Alert(
                kind="continuity_burn",
                severity="critical",
                message=(
                    f"SLO '{slo.text}' breached: continuity {continuity:.3f} burned the "
                    f"error budget at {burn:.1f}x (>= {slo.burn:g}x) for "
                    f"{self._burn_streak} consecutive periods ending at period {period}"
                ),
                period=period,
                value=burn,
                threshold=slo.burn,
                t=self._last_t,
            )
            self.breach = alert
            self._emit(alert)
            if self.recorder is not None:
                self.recorder.postmortem(f"SLO breach: {alert.message}")

    # ------------------------------------------------------------------ alerts
    def _emit(self, alert: Alert) -> None:
        self.alerts.append(alert)
        self._new_alerts.append(alert)
        if self.recorder is not None:
            self.recorder.flight(
                "alert",
                kind=alert.kind,
                severity=alert.severity,
                alert_shard=alert.shard,
                period=alert.period,
                message=alert.message,
            )

    def drain_alerts(self) -> List[Alert]:
        """Alerts emitted since the last drain (for streaming writers)."""
        out = list(self._new_alerts)
        self._new_alerts.clear()
        return out

    # ----------------------------------------------------------------- export
    def snapshot(self) -> Dict[str, Any]:
        """A plain JSON-friendly view for ``RuntimeResult.health``."""
        return {
            "slo": self.slo.text if self.slo is not None else None,
            "grace": self.grace,
            "alerts": [a.to_dict() for a in self.alerts],
            "breach": self.breach.to_dict() if self.breach is not None else None,
            "continuity": [list(p) for p in self.continuity],
            "closed_through": self._closed_through,
            "rejected_frames": self.rejected_frames,
            "dead_shards": sorted(self.dead_shards),
            "flows": sum_flows(st.flows for st in self.shards.values()),
            "topo": {shard: dict(t) for shard, t in sorted(self.topo.items())},
            "shards": {shard: st.to_dict() for shard, st in sorted(self.shards.items())},
        }
