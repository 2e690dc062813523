"""The live telemetry surface: the plane, streaming writers, the cockpit.

:class:`TelemetryPlane` is the one consumer a *run* attaches to its
telemetry stream (health engine + writer + SLO abort).  Two more
consumers sit on the stream (``docs/observability.md`` → *Live telemetry
& SLOs*):

* :class:`TelemetryWriter` — appends one JSON line per frame/alert to a
  streaming JSONL file (flushed per record so ``tail -f`` and
  ``obs --live`` see it immediately) and maintains a Prometheus-style
  text exposition file next to it for external scrapers.
* :class:`Cockpit` — folds frames and alerts into a refreshing terminal
  dashboard: per-shard continuity sparklines, live gauges, the alert
  feed, and the running miss-cause histogram.  ``obs --live`` drives it
  from a telemetry JSONL (following appends like ``tail -f``); tests
  drive it directly from captured frames.

Neither consumer touches protocol state: both read the same frame
bodies the :class:`~repro.obs.health.HealthEngine` sees.
"""

from __future__ import annotations

import json
import re
import sys
import time
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, IO, Iterator, List, Optional, Union

from repro.obs.health import Alert, HealthEngine, SloSpec, SloViolation
from repro.obs.report import _sparkline

__all__ = ["TelemetryPlane", "TelemetryWriter", "Cockpit", "run_live", "load_telemetry_jsonl"]


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
    """Streams telemetry to JSONL and a Prometheus text exposition file.

    The JSONL is append-only and flushed per record: each line is
    ``{"type": "telemetry", ...frame body}`` or ``{"type": "alert",
    ...alert fields}``.  The exposition file (``<path>.prom`` by
    default) is atomically rewritten after every frame with the latest
    gauge levels and cumulative counters per shard, in the standard
    ``# TYPE`` / ``name{shard="N"} value`` text format.
    """

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
        self._gauges: Dict[int, Dict[str, float]] = {}
        self._counters: Dict[int, Dict[str, float]] = {}
        self.frames = 0
        self.alerts = 0

    # ------------------------------------------------------------------ intake
    def frame(self, body: Dict[str, Any]) -> None:
        """Append one telemetry frame body and refresh the exposition."""
        self._write_line({"type": "telemetry", **body})
        shard = int(body.get("shard") or 0)
        gauges = self._gauges.setdefault(shard, {})
        # Names are sanitized at fold time, so two raw names colliding
        # after sanitization merge here instead of producing duplicate
        # sample lines in the exposition.
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
        counters = self._counters.setdefault(shard, {})
        for name, delta in (body.get("counters") or {}).items():
            key = _prom_name(name)
            counters[key] = counters.get(key, 0.0) + float(delta)
        for cause, count in (body.get("miss_causes") or {}).items():
            key = _prom_name(f"miss_cause_{cause}")
            counters[key] = counters.get(key, 0.0) + float(count)
        for src, dst, _frames, nbytes in body.get("flows") or ():
            key = _prom_name(f"flow_bytes_s{src}_s{dst}")
            counters[key] = counters.get(key, 0.0) + float(nbytes)
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

    def _write_exposition(self) -> None:
        lines: List[str] = []
        names: Dict[str, str] = {}  # metric name -> prometheus type
        for per_shard, kind in ((self._gauges, "gauge"), (self._counters, "counter")):
            for metrics in per_shard.values():
                for name in metrics:
                    names.setdefault(name, kind)
        for name in sorted(names):
            kind = names[name]
            full = f"{self.namespace}_{name}"
            lines.append(f"# TYPE {full} {kind}")
            source = self._gauges if kind == "gauge" else self._counters
            for shard in sorted(source):
                value = source[shard].get(name)
                if value is None:
                    continue
                lines.append(
                    f'{full}{{shard="{_prom_escape(str(shard))}"}} '
                    f"{self._format_number(value)}"
                )
        tmp = self.exposition_path.with_suffix(self.exposition_path.suffix + ".tmp")
        tmp.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
        tmp.replace(self.exposition_path)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
            self._write_exposition()

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class _ShardView:
    """What the cockpit remembers about one shard."""

    __slots__ = ("continuity", "last", "periods")

    def __init__(self, window: int) -> None:
        self.continuity: Deque[float] = deque(maxlen=window)
        self.last: Dict[str, Any] = {}
        self.periods = 0

    def feed(self, body: Dict[str, Any]) -> None:
        self.continuity.append(float(body.get("continuity", 1.0)))
        self.last = body
        self.periods += 1


class TelemetryPlane:
    """The consumer side of one run's telemetry stream.

    Folds every frame body into a :class:`~repro.obs.health.HealthEngine`,
    streams frames and freshly raised alerts to a :class:`TelemetryWriter`
    (with ``telemetry_out``) and, with an ``slo``, turns a confirmed
    breach into :class:`~repro.obs.health.SloViolation`.  The in-process
    swarm attaches :meth:`sink` directly and shares its own recorder, so
    alerts and the breach postmortem land in the run's obs export; the
    cluster coordinator feeds :meth:`frame` from its control pipes and
    checks the SLO at its own barriers.

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
        telemetry_out: Optional[Union[str, Path]] = None,
    ) -> None:
        grace = slo.grace if slo is not None and slo.grace is not None else max(2, rounds // 3)
        self.health = HealthEngine(
            slo=slo, recorder=recorder, grace=grace, expected_shards=shards
        )
        self.writer = TelemetryWriter(telemetry_out) if telemetry_out else None

    def frame(self, body: Dict[str, Any]) -> None:
        """Fold one frame body into the health engine and the stream."""
        self.health.observe_frame(body)
        if self.writer is not None:
            self.writer.frame(body)
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
        """A swarm's ``telemetry_sink``: fold the frame, abort on breach."""
        self.frame(body)
        self.check_slo()

    def close(self) -> None:
        """Flush pending alerts and close the stream (idempotent)."""
        self.flush_alerts()
        if self.writer is not None:
            self.writer.close()


class Cockpit:
    """Folds the telemetry stream into a renderable dashboard state."""

    def __init__(self, window: int = 32, alert_tail: int = 8) -> None:
        self.window = window
        self.shards: Dict[int, _ShardView] = {}
        self.alerts: Deque[Dict[str, Any]] = deque(maxlen=alert_tail)
        self.alert_count = 0
        self.miss_causes: Dict[str, int] = {}
        #: Cumulative shard-pair flow matrix folded from frame deltas:
        #: ``(src_shard, dst_shard) -> [frames, bytes]``.
        self.flow_pairs: Dict[Any, List[int]] = {}
        self.frames = 0
        self.skipped = 0

    # ------------------------------------------------------------------ intake
    def feed(self, body: Dict[str, Any]) -> None:
        shard = int(body.get("shard") or 0)
        view = self.shards.get(shard)
        if view is None:
            view = self.shards[shard] = _ShardView(self.window)
        view.feed(body)
        for cause, count in (body.get("miss_causes") or {}).items():
            self.miss_causes[cause] = self.miss_causes.get(cause, 0) + int(count)
        for src, dst, frames, nbytes in body.get("flows") or ():
            acc = self.flow_pairs.setdefault((int(src), int(dst)), [0, 0])
            acc[0] += int(frames)
            acc[1] += int(nbytes)
        self.frames += 1

    def feed_alert(self, alert: Union[Alert, Dict[str, Any]]) -> None:
        fields = alert.to_dict() if isinstance(alert, Alert) else dict(alert)
        self.alerts.append(fields)
        self.alert_count += 1

    def feed_record(self, record: Dict[str, Any]) -> None:
        """Dispatch one JSONL record (``type`` = telemetry | alert)."""
        kind = record.get("type")
        if kind == "telemetry":
            self.feed(record)
        elif kind == "alert":
            self.feed_alert({k: v for k, v in record.items() if k != "type"})
        else:
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
            socket = last.get("socket") or {}
            for other in sorted(socket):
                s = socket[other]
                lost = "  LOST" if s.get("lost") else ""
                lines.append(
                    f"    socket →{other}  out {s.get('frames_out', 0)}f/"
                    f"{s.get('bytes_out', 0)}B  in {s.get('frames_in', 0)}f/"
                    f"{s.get('bytes_in', 0)}B  resets {s.get('disconnects', 0)}{lost}"
                )
        if self.flow_pairs:
            cells = "  ".join(
                f"{src}→{dst} {acc[0]}f/{acc[1]}B"
                for (src, dst), acc in sorted(self.flow_pairs.items())
            )
            lines.append(f"  flows: {cells}")
        if self.miss_causes:
            causes = ", ".join(
                f"{cause}={count}"
                for cause, count in sorted(self.miss_causes.items(), key=lambda kv: -kv[1])
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


def load_telemetry_jsonl(path: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """Yield telemetry/alert records from a streaming JSONL file.

    Malformed or truncated lines (a writer mid-append, a killed run) are
    skipped, matching the robustness contract of ``load_obs_jsonl``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                yield record


def run_live(
    path: Union[str, Path],
    refresh_s: float = 1.0,
    follow: bool = True,
    max_idle_s: float = 5.0,
    out: Optional[IO[str]] = None,
    once: bool = False,
) -> Cockpit:
    """Tail a telemetry JSONL and render the cockpit until the stream goes idle.

    With ``once=True`` the file is read once and rendered once (used by
    tests and CI).  Otherwise the file is followed like ``tail -f``,
    redrawing every ``refresh_s`` seconds, and the loop exits after
    ``max_idle_s`` seconds without a new record (or on Ctrl-C).
    """
    out = out if out is not None else sys.stdout
    cockpit = Cockpit()
    buffer = ""
    idle = 0.0
    clear = "\x1b[2J\x1b[H" if getattr(out, "isatty", lambda: False)() else ""
    with open(path, "r", encoding="utf-8") as fh:
        while True:
            chunk = fh.read()
            progressed = False
            if chunk:
                buffer += chunk
                while "\n" in buffer:
                    line, buffer = buffer.split("\n", 1)
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        cockpit.skipped += 1
                        continue
                    if isinstance(record, dict):
                        cockpit.feed_record(record)
                        progressed = True
            out.write(clear + cockpit.render() + "\n")
            out.flush()
            if once or not follow:
                break
            idle = 0.0 if progressed else idle + refresh_s
            if idle >= max_idle_s:
                break
            try:
                time.sleep(refresh_s)
            except KeyboardInterrupt:
                break
    return cockpit
