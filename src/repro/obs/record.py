"""The period record and the one obs file that carries it.

Each period of an obs-enabled run builds one **period record**
(:func:`build_record`, schema in ``docs/observability.md`` → *The
period record*): the shard's continuity sample, gauge levels,
*cumulative* counters, miss causes and shard-pair flow totals, the
period's histogram window, the flight events new since the last record,
and the topology and socket summaries.  The recorder keeps the records,
the cluster ships them to the coordinator as they are, and every reader
takes what it needs from them: :func:`period_series` rebuilds the summed
per-period curves the report and ``obs diff`` print, the health engine,
the cockpit and the Prometheus exposition keep each shard's latest one.

The one file (``--metrics-out``) is typed JSONL: ``period`` and
``alert`` lines streamed while the run is live, then the export lines
(``meta``, ``span``, ``flight``, ``flows``, ``topo``, ``socket_link``,
``postmortem``, ``summary``) appended at close.  :func:`parse_lines` is
its one reader: a torn or foreign line reads as ``None``, never raises.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import summarize_traces

__all__ = [
    "build_record",
    "export_lines",
    "load_obs_jsonl",
    "parse_lines",
    "period_series",
    "record_shard",
    "sum_flows",
    "write_obs_jsonl",
]


def build_record(
    obs: Any,
    shard: int,
    period: int,
    playing: int,
    total: int,
    peers_live: int,
    socket: Sequence[Dict[str, int]] = (),
) -> Dict[str, Any]:
    """Close ``period`` on recorder ``obs``: build, keep and return its record.

    Pure observation: nothing here touches protocol state, so an
    obs-enabled virtual run stays deterministic.
    """
    metrics = obs.metrics
    record: Dict[str, Any] = {
        "shard": shard,
        "period": period,
        "t": obs.now(),
        "playing": playing,
        "total": total,
        "continuity": (playing / total) if total else 1.0,
        "peers_live": peers_live,
        "gauges": dict(metrics.gauges),
        "counters": dict(metrics.counters),
        "miss_causes": dict(obs.miss_causes),
        "hists": metrics.drain_windows(),
        "flight": obs.new_flight(),
    }
    if obs.flows is not None:
        record["flows"] = [[s, d, *row] for (s, d), row in sorted(obs.flows.pairs.items())]
    if obs.topo is not None and obs.topo.last is not None:
        snap = obs.topo.last
        record["topo"] = {
            "coverage": round(snap["coverage"], 4),
            "components": snap["components"],
            "finger_health": round(snap["finger_health"], 4),
            "partner_pairs": snap["partner_pairs"],
        }
    if socket:
        record["socket"] = list(socket)
    obs.records.append(record)
    return record


def record_shard(record: Dict[str, Any]) -> Optional[int]:
    """A period record's shard id, or ``None`` when it has no valid one.

    Only a non-negative ``int`` counts (``bool`` is an ``int`` subclass and
    does not): a torn or foreign record must be rejected by every consumer,
    not coerced onto shard 0 or 1 where it would pollute a real series.
    """
    shard = record.get("shard")
    if isinstance(shard, bool) or not isinstance(shard, int) or shard < 0:
        return None
    return shard


def sum_flows(per_shard: Iterable[Iterable[List[int]]]) -> List[List[int]]:
    """Shard-pair ``[src, dst, frames, bytes]`` rows summed over shards' records."""
    pairs: Dict[Tuple[int, int], List[int]] = {}
    for rows in per_shard:
        for src, dst, frames, nbytes in rows:
            acc = pairs.setdefault((int(src), int(dst)), [0, 0])
            acc[0] += int(frames)
            acc[1] += int(nbytes)
    return [[src, dst, *acc] for (src, dst), acc in sorted(pairs.items())]


def period_series(records: Iterable[Dict[str, Any]]) -> Dict[str, List[List[float]]]:
    """Per-period curves summed over shards: ``{name: [[period, value], ...]}``.

    Every counter and gauge gives one curve, every histogram a
    ``<name>_mean`` and a ``<name>_max`` curve over its period windows.
    """
    curves: Dict[str, Dict[int, float]] = {}

    def add(name: str, period: int, value: float) -> None:
        curve = curves.setdefault(name, {})
        curve[period] = curve[period] + value if period in curve else value

    for record in records:
        period = record["period"]
        for source in (record.get("counters") or {}, record.get("gauges") or {}):
            for name, value in source.items():
                add(name, period, value)
        for name, (mean, peak) in (record.get("hists") or {}).items():
            add(f"{name}_mean", period, mean)
            add(f"{name}_max", period, peak)
    return {name: [[p, v] for p, v in sorted(curve.items())] for name, curve in curves.items()}


def parse_lines(lines: Iterable[str]) -> Iterator[Optional[Dict[str, Any]]]:
    """Each non-blank line's record; ``None`` for a torn or non-object line."""
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            yield None
            continue
        yield record if isinstance(record, dict) else None


def export_lines(obs: Dict[str, Any], records: bool = True) -> Iterator[Dict[str, Any]]:
    """The typed lines of an obs export; ``records=False`` leaves out the
    period records a live run already streamed."""
    metrics = obs.get("metrics", {})
    yield {
        "type": "meta",
        "shard": obs.get("shard"),
        "shards": obs.get("shards"),
        "spans_dropped": obs.get("spans_dropped", 0),
    }
    if records:
        for record in obs.get("records", ()):
            yield {"type": "period", **record}
    for span in obs.get("spans", ()):
        yield {"type": "span", **span}
    for event in obs.get("flight", ()):
        yield {"type": "flight", **event}
    if obs.get("flows"):
        yield {"type": "flows", **obs["flows"]}
    if obs.get("topo"):
        yield {"type": "topo", **obs["topo"]}
    for row in obs.get("socket_links", ()):
        yield {"type": "socket_link", **row}
    for dump in obs.get("postmortems", ()):
        yield {"type": "postmortem", **dump}
    yield {
        "type": "summary",
        "counters": metrics.get("counters", {}),
        "gauges": metrics.get("gauges", {}),
        "histograms": metrics.get("histograms", {}),
        "traces": obs.get("traces", {}),
    }


def write_obs_jsonl(path: Union[str, Path], obs: Dict[str, Any]) -> Path:
    """Write an obs export dict (``RuntimeResult.obs``) as one obs file."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for line in export_lines(obs):
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    return path


def load_obs_jsonl(path: Union[str, Path]) -> Dict[str, Any]:
    """Reconstruct an obs export dict from an obs file.

    Robust by contract: empty files, truncated trailing lines (a writer
    killed mid-append) and malformed records are *skipped*, not raised —
    a file cut before its export (a killed or aborted run) still renders.
    The skip count surfaces as ``skipped_lines`` and in the report footer.
    """
    obs: Dict[str, Any] = {
        "shard": None,
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        "records": [],
        "alerts": [],
        "spans": [],
        "flight": [],
        "postmortems": [],
        "spans_dropped": 0,
        "traces": {},
        "skipped_lines": 0,
    }
    lists = {"period": "records", "alert": "alerts", "span": "spans",
             "flight": "flight", "postmortem": "postmortems"}
    with Path(path).open("r", encoding="utf-8") as fh:
        for record in parse_lines(fh):
            kind = None if record is None else record.pop("type", None)
            if kind == "period" and (
                record_shard(record) is None or not isinstance(record.get("period"), int)
            ):
                obs["skipped_lines"] += 1
            elif kind in lists:
                obs[lists[kind]].append(record)
            elif kind == "meta":
                obs["shard"] = record.get("shard")
                if record.get("shards") is not None:
                    obs["shards"] = record["shards"]
                obs["spans_dropped"] = record.get("spans_dropped", 0)
            elif kind in ("flows", "topo"):
                obs[kind] = record
            elif kind == "socket_link":
                obs.setdefault("socket_links", []).append(record)
            elif kind == "summary":
                obs["metrics"] = {
                    name: record.get(name, {}) for name in ("counters", "gauges", "histograms")
                }
                obs["traces"] = record.get("traces", {})
            else:
                obs["skipped_lines"] += 1
    if not obs["traces"] and obs["spans"]:
        obs["traces"] = summarize_traces(obs["spans"])
    return obs
