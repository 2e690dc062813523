"""The live side of the obs file: the run's plane, the writer, the cockpit.

:class:`TelemetryPlane` is the one consumer a *run* attaches to its
stream of period records (:mod:`repro.obs.record`): health engine +
writer + SLO abort.  Two more consumers read the same records
(``docs/observability.md`` → *Live telemetry & SLOs*):

* :class:`TelemetryWriter` — appends one JSON line per period record or
  alert to the run's obs file (flushed per line so ``tail -f`` and
  ``obs --live`` see it immediately), appends the export records when
  the run closes, and keeps a Prometheus-style text exposition file next
  to it for external scrapers.
* :class:`Cockpit` — renders a refreshing terminal dashboard from each
  shard's latest record: per-shard continuity sparklines, live gauges,
  the alert feed, miss causes and shard-pair flows.  ``obs --live``
  drives it from an obs file (following appends like ``tail -f``);
  tests drive it directly from captured records.

Neither consumer touches protocol state, and neither adds anything up:
a record's counters, miss causes and flows are already cumulative.
"""

from __future__ import annotations

import json
import re
import sys
import time
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, IO, List, Optional, Union

from repro.obs.health import Alert, HealthEngine, SloSpec, SloViolation
from repro.obs.record import export_lines, parse_lines, record_shard, sum_flows
from repro.obs.report import _sparkline

__all__ = ["TelemetryPlane", "TelemetryWriter", "Cockpit", "run_live"]


def _prom_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


_PROM_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Sanitize a metric name to the Prometheus charset ``[a-zA-Z0-9_:]``.

    Scenario-derived names (miss causes, custom counters) can carry
    quotes, dashes, dots, even newlines; every invalid character becomes
    ``_`` and a leading digit gets an underscore prefix so the
    exposition file always parses.
    """
    name = _PROM_NAME_BAD.sub("_", name)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


class TelemetryWriter:
    """Streams an obs file and keeps its Prometheus text exposition.

    The file is append-only and flushed per line: ``{"type": "period",
    ...record}`` or ``{"type": "alert", ...alert fields}`` while the run
    is live, then the export lines at :meth:`close`.  The exposition file
    (``<path>.prom`` by default) is atomically rewritten after every
    record from each shard's latest one, in the standard ``# TYPE`` /
    ``name{shard="N"} value`` text format.  A record without a valid
    shard id (:func:`~repro.obs.record.record_shard`) is still streamed
    but never enters the exposition.
    """

    #: The exposition types of :meth:`_levels`' two halves.
    KINDS = ("gauge", "counter")

    def __init__(
        self,
        path: Union[str, Path],
        exposition_path: Optional[Union[str, Path]] = None,
        namespace: str = "continu",
    ) -> None:
        self.path = Path(path)
        if exposition_path is None:
            exposition_path = self.path.with_suffix(self.path.suffix + ".prom")
        self.exposition_path = Path(exposition_path)
        self.namespace = _prom_name(namespace)
        self._fh: Optional[IO[str]] = open(self.path, "w", encoding="utf-8")
        self._latest: Dict[int, Dict[str, Any]] = {}
        self.frames = 0
        self.alerts = 0

    # ------------------------------------------------------------------ intake
    def record(self, body: Dict[str, Any]) -> None:
        """Append one period record and refresh the exposition."""
        self._write_line({"type": "period", **body})
        shard = record_shard(body)
        if shard is None:
            return
        self._latest[shard] = body
        self.frames += 1
        self._write_exposition()

    def alert(self, alert: Union[Alert, Dict[str, Any]]) -> None:
        """Append one alert record to the stream."""
        fields = alert.to_dict() if isinstance(alert, Alert) else dict(alert)
        self._write_line({"type": "alert", **fields})
        self.alerts += 1

    # ----------------------------------------------------------------- output
    def _write_line(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            return
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def _format_number(self, value: float) -> str:
        return repr(int(value)) if float(value).is_integer() else repr(value)

    @staticmethod
    def _levels(body: Dict[str, Any]) -> "tuple[Dict[str, float], Dict[str, float]]":
        """One record's ``(gauges, counters)`` under exposition names.

        Names are sanitized here, so two raw names colliding after
        sanitization merge (a gauge keeps the last, counters add) instead
        of producing duplicate sample lines.
        """
        gauges: Dict[str, float] = {}
        for name, value in (body.get("gauges") or {}).items():
            gauges[_prom_name(name)] = float(value)
        gauges["continuity"] = float(body.get("continuity", 1.0))
        gauges["peers_live"] = float(body.get("peers_live", 0))
        gauges["telemetry_period"] = float(body.get("period", 0))
        topo = body.get("topo") or {}
        if "coverage" in topo:
            gauges["topo_gossip_coverage"] = float(topo["coverage"])
        if "components" in topo:
            gauges["topo_components"] = float(topo["components"])
        counters: Dict[str, float] = {}
        totals = [(name, value) for name, value in (body.get("counters") or {}).items()]
        totals += [(f"miss_cause_{c}", n) for c, n in (body.get("miss_causes") or {}).items()]
        totals += [(f"flow_bytes_s{s}_s{d}", b) for s, d, _f, b in body.get("flows") or ()]
        for name, value in totals:
            key = _prom_name(name)
            counters[key] = counters.get(key, 0.0) + float(value)
        return gauges, counters

    def _write_exposition(self) -> None:
        levels = {shard: self._levels(body) for shard, body in sorted(self._latest.items())}
        lines: List[str] = []
        kinds: Dict[str, int] = {}  # metric name -> index into KINDS (a gauge wins)
        for at in range(len(self.KINDS)):
            for pair in levels.values():
                for name in pair[at]:
                    kinds.setdefault(name, at)
        for name in sorted(kinds):
            at = kinds[name]
            full = f"{self.namespace}_{name}"
            lines.append(f"# TYPE {full} {self.KINDS[at]}")
            for shard, pair in levels.items():
                value = pair[at].get(name)
                if value is None:
                    continue
                lines.append(
                    f'{full}{{shard="{_prom_escape(str(shard))}"}} '
                    f"{self._format_number(value)}"
                )
        tmp = self.exposition_path.with_suffix(self.exposition_path.suffix + ".tmp")
        tmp.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
        tmp.replace(self.exposition_path)

    def close(self, obs: Optional[Dict[str, Any]] = None) -> None:
        """Append ``obs``'s export records (if given) and close (idempotent)."""
        if self._fh is not None:
            if obs is not None:
                for line in export_lines(obs, records=False):
                    self._write_line(line)
            self._fh.close()
            self._fh = None
            self._write_exposition()

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class _ShardView:
    """What the cockpit remembers about one shard."""

    __slots__ = ("continuity", "last")

    def __init__(self, window: int) -> None:
        self.continuity: Deque[float] = deque(maxlen=window)
        self.last: Dict[str, Any] = {}

    def feed(self, body: Dict[str, Any]) -> None:
        self.continuity.append(float(body.get("continuity", 1.0)))
        self.last = body


class TelemetryPlane:
    """The consumer side of one run's stream of period records.

    Folds every record into a :class:`~repro.obs.health.HealthEngine`,
    streams records and freshly raised alerts to a
    :class:`TelemetryWriter` (with ``obs_out``) and, with an ``slo``,
    turns a confirmed breach into :class:`~repro.obs.health.SloViolation`.
    The in-process swarm attaches :meth:`sink` directly and shares its own
    recorder, so alerts and the breach postmortem land in the run's obs
    export; the cluster coordinator feeds :meth:`record` from its control
    pipes and checks the SLO at its own barriers.

    Args:
        rounds: the run's period count (sizes the default SLO grace: a
            third of the run, at least 2 periods, is start-up).
        shards: the fleet size — no period closes before every shard has
            reported or died.
        recorder: the :class:`~repro.obs.recorder.ObsRecorder` alerts
            and postmortems are written to.
    """

    def __init__(
        self,
        rounds: int,
        shards: int,
        recorder: Any,
        slo: Optional[SloSpec] = None,
        obs_out: Optional[Union[str, Path]] = None,
    ) -> None:
        grace = slo.grace if slo is not None and slo.grace is not None else max(2, rounds // 3)
        self.health = HealthEngine(
            slo=slo, recorder=recorder, grace=grace, expected_shards=shards
        )
        self.writer = TelemetryWriter(obs_out) if obs_out else None

    def record(self, body: Dict[str, Any]) -> None:
        """Fold one period record into the health engine and the stream."""
        self.health.observe_record(body)
        if self.writer is not None:
            self.writer.record(body)
        self.flush_alerts()

    def flush_alerts(self) -> None:
        """Drain newly raised alerts into the streaming writer."""
        for alert in self.health.drain_alerts():
            if self.writer is not None:
                self.writer.alert(alert)

    def shard_dead(self, shard: int) -> None:
        """A shard's control channel died mid-run."""
        self.health.mark_shard_dead(shard)
        self.flush_alerts()

    def check_slo(self) -> None:
        """Raise :class:`SloViolation` once the SLO's budget has breached."""
        health = self.health
        if health.slo is not None and health.breach is not None:
            raise SloViolation(health.breach, obs=health.recorder.export())

    def sink(self, body: Dict[str, Any]) -> None:
        """A swarm's ``record_sink``: fold the record, abort on breach."""
        self.record(body)
        self.check_slo()

    def close(self, obs: Optional[Dict[str, Any]] = None) -> None:
        """Flush pending alerts, append ``obs``'s export records and close
        the stream (idempotent)."""
        self.flush_alerts()
        if self.writer is not None:
            self.writer.close(obs)


class Cockpit:
    """Renders each shard's latest period record as a dashboard."""

    def __init__(self, window: int = 32, alert_tail: int = 8) -> None:
        self.window = window
        self.shards: Dict[int, _ShardView] = {}
        self.alerts: Deque[Dict[str, Any]] = deque(maxlen=alert_tail)
        self.alert_count = 0
        self.frames = 0
        self.skipped = 0

    # ------------------------------------------------------------------ intake
    def feed(self, body: Dict[str, Any]) -> None:
        shard = record_shard(body)
        if shard is None:
            # Torn or foreign record: counted, never charged to a shard.
            self.skipped += 1
            return
        view = self.shards.get(shard)
        if view is None:
            view = self.shards[shard] = _ShardView(self.window)
        view.feed(body)
        self.frames += 1

    def feed_alert(self, alert: Union[Alert, Dict[str, Any]]) -> None:
        fields = alert.to_dict() if isinstance(alert, Alert) else dict(alert)
        self.alerts.append(fields)
        self.alert_count += 1

    def feed_record(self, record: Optional[Dict[str, Any]]) -> None:
        """Dispatch one obs-file line: a period record or an alert.

        The export lines a closed run appends are not the cockpit's and
        pass silently; a torn line (``None``) is counted as skipped.
        """
        kind = None if record is None else record.get("type")
        if kind == "period":
            self.feed(record)
        elif kind == "alert":
            self.feed_alert({k: v for k, v in record.items() if k != "type"})
        elif record is None:
            self.skipped += 1

    # ----------------------------------------------------------------- render
    def render(self, width: int = 32) -> str:
        period = max((v.last.get("period", 0) for v in self.shards.values()), default=0)
        lines = [
            f"live cockpit — period {period}, {len(self.shards)} shard(s), "
            f"{self.frames} frame(s), {self.alert_count} alert(s)"
        ]
        for shard in sorted(self.shards):
            view = self.shards[shard]
            last = view.last
            spark = _sparkline(list(view.continuity), width=width)
            gauges = last.get("gauges") or {}
            topo = last.get("topo") or {}
            topo_bits = ""
            if topo:
                topo_bits = (
                    f"  cov {topo.get('coverage', 0.0):.0%}"
                    f"  comp {topo.get('components', 0)}"
                )
            lines.append(
                f"  shard {shard}  cont {spark}  now {view.continuity[-1]:.3f}  "
                f"peers {last.get('peers_live', 0)}  "
                f"stretch {gauges.get('dilation_stretch', 1.0):.1f}x  "
                f"msgs {int(gauges.get('messages_sent', 0))}{topo_bits}"
            )
            for s in last.get("socket") or ():
                lost = "  LOST" if s.get("lost") else ""
                lines.append(
                    f"    socket →{s.get('dst_shard')}  out {s.get('frames_out', 0)}f/"
                    f"{s.get('bytes_out', 0)}B  in {s.get('frames_in', 0)}f/"
                    f"{s.get('bytes_in', 0)}B  resets {s.get('disconnects', 0)}{lost}"
                )
        views = [self.shards[shard] for shard in sorted(self.shards)]
        flows = sum_flows(view.last.get("flows") or () for view in views)
        if flows:
            cells = "  ".join(
                f"{src}→{dst} {frames}f/{nbytes}B" for src, dst, frames, nbytes in flows
            )
            lines.append(f"  flows: {cells}")
        miss_causes: Dict[str, int] = {}
        for view in views:
            for cause, count in (view.last.get("miss_causes") or {}).items():
                miss_causes[cause] = miss_causes.get(cause, 0) + int(count)
        if miss_causes:
            causes = ", ".join(
                f"{cause}={count}"
                for cause, count in sorted(miss_causes.items(), key=lambda kv: (-kv[1], kv[0]))
            )
            lines.append(f"  miss causes: {causes}")
        if self.alerts:
            lines.append("  alerts:")
            for alert in self.alerts:
                where = "" if alert.get("shard") is None else f" shard {alert['shard']}"
                lines.append(
                    f"    [{alert.get('severity', '?')}] {alert.get('kind', '?')}"
                    f"{where} @p{alert.get('period')}: {alert.get('message', '')}"
                )
        elif self.frames:
            lines.append("  alerts: none")
        return "\n".join(lines)


def run_live(
    path: Union[str, Path],
    refresh_s: float = 1.0,
    follow: bool = True,
    max_idle_s: float = 5.0,
    out: Optional[IO[str]] = None,
    once: bool = False,
) -> Cockpit:
    """Tail an obs file and render the cockpit until the stream goes idle.

    With ``once=True`` the file is read once and rendered once (used by
    tests and CI).  Otherwise the file is followed like ``tail -f``,
    redrawing every ``refresh_s`` seconds, and the loop exits after
    ``max_idle_s`` seconds without a new line (or on Ctrl-C).
    """
    out = out if out is not None else sys.stdout
    cockpit = Cockpit()
    buffer = ""
    idle = 0.0
    clear = "\x1b[2J\x1b[H" if getattr(out, "isatty", lambda: False)() else ""
    with open(path, "r", encoding="utf-8") as fh:
        while True:
            buffer += fh.read()
            # A trailing line without its newline may still be mid-append.
            *lines, buffer = buffer.split("\n")
            for record in parse_lines(lines):
                cockpit.feed_record(record)
            out.write(clear + cockpit.render() + "\n")
            out.flush()
            if once or not follow:
                break
            idle = 0.0 if lines else idle + refresh_s
            if idle >= max_idle_s:
                break
            try:
                time.sleep(refresh_s)
            except KeyboardInterrupt:
                break
    return cockpit
