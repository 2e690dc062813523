"""The metrics registry: counters, gauges, histograms.

A :class:`MetricsRegistry` is the numeric half of the observability plane
(``docs/observability.md``).  Instruments are created lazily on first
touch, so call sites never pre-declare anything:

* **counters** — monotone totals (``inc``);
* **gauges** — last-written level readings (``set_gauge``);
* **histograms** — streaming min/max/sum/count summaries (``observe``),
  with a per-period window that :meth:`MetricsRegistry.drain_windows`
  hands to the period record (:mod:`repro.obs.record`) and resets.

Per-period values live in the period records, not here.  Everything
exports to plain JSON-friendly dicts (:meth:`to_dict`) so the registry
can cross process boundaries inside a ``ShardResult`` and merge at the
coordinator (:func:`merge_metrics` / :func:`merge_obs`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.flows import merge_flows
from repro.obs.topo import merge_topo

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "merge_metrics",
    "merge_obs",
    "summarize_traces",
]


class Histogram:
    """A streaming summary: count/sum/min/max/p50/p95, plus a period window.

    Percentiles come from a deterministic decimating reservoir: every
    ``_stride``-th observation is retained; when the reservoir fills to
    ``RESERVOIR`` samples, every other retained sample is dropped and the
    stride doubles.  No RNG is involved, so same-seed runs produce
    identical percentile estimates, and memory stays O(RESERVOIR) no
    matter how many observations arrive.
    """

    RESERVOIR = 512

    __slots__ = (
        "count",
        "total",
        "min",
        "max",
        "_win_count",
        "_win_total",
        "_win_max",
        "_samples",
        "_stride",
        "_tick",
    )

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._win_count = 0
        self._win_total = 0.0
        self._win_max = float("-inf")
        self._samples: List[float] = []
        self._stride = 1
        self._tick = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._win_count += 1
        self._win_total += value
        if value > self._win_max:
            self._win_max = value
        if self._tick % self._stride == 0:
            self._samples.append(value)
            if len(self._samples) >= self.RESERVOIR:
                del self._samples[::2]
                self._stride *= 2
        self._tick += 1

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the retained reservoir."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    def drain_window(self) -> Optional[Tuple[float, float]]:
        """``(mean, max)`` of the current period's observations, then reset."""
        if not self._win_count:
            return None
        out = (self._win_total / self._win_count, self._win_max)
        self._win_count = 0
        self._win_total = 0.0
        self._win_max = float("-inf")
        return out

    def to_dict(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
        }


class MetricsRegistry:
    """Lazily created counters, gauges and histograms."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------ instruments
    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def drain_windows(self) -> Dict[str, List[float]]:
        """``{name: [mean, max]}`` of this period's observations, then reset."""
        windows: Dict[str, List[float]] = {}
        for name, hist in self.histograms.items():
            window = hist.drain_window()
            if window is not None:
                windows[name] = list(window)
        return windows

    # ----------------------------------------------------------------- export
    def to_dict(self) -> Dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {name: h.to_dict() for name, h in self.histograms.items()},
        }


def merge_metrics(parts: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge :meth:`MetricsRegistry.to_dict` exports from several shards.

    Counters and gauges sum (gauges here are swarm-wide totals like inbox
    depth, so addition is the cross-shard meaning); histograms combine
    their count/sum and take the min/max envelope.
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    hists: Dict[str, Dict[str, float]] = {}
    for part in parts:
        if not part:
            continue
        for name, value in part.get("counters", {}).items():
            counters[name] = counters.get(name, 0.0) + value
        for name, value in part.get("gauges", {}).items():
            gauges[name] = gauges.get(name, 0.0) + value
        for name, h in part.get("histograms", {}).items():
            agg = hists.setdefault(name, {"count": 0, "sum": 0.0, "min": float("inf"), "max": float("-inf")})
            if h.get("count"):
                agg["count"] += h["count"]
                agg["sum"] += h["sum"]
                agg["min"] = min(agg["min"], h["min"])
                agg["max"] = max(agg["max"], h["max"])
                # Percentiles merge as count-weighted averages — an
                # approximation (exact merging needs the raw samples),
                # good enough for the report/diff use they feed.
                for q in ("p50", "p95"):
                    if q in h:
                        agg[f"_{q}_weighted"] = (
                            agg.get(f"_{q}_weighted", 0.0) + h[q] * h["count"]
                        )
    for agg in hists.values():
        if not agg["count"]:
            agg["min"] = 0.0
            agg["max"] = 0.0
        for q in ("p50", "p95"):
            weighted = agg.pop(f"_{q}_weighted", None)
            if weighted is not None and agg["count"]:
                agg[q] = weighted / agg["count"]
    return {"counters": counters, "gauges": gauges, "histograms": hists}


def summarize_traces(spans: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Roll JSONL trace spans up into journey outcomes and hop latencies.

    Groups spans by trace id and classifies each sampled journey as
    ``played`` / ``missed`` (with the miss-cause histogram from the
    requester's attribution) / ``open`` (never resolved before the run
    ended).  ``request_to_deliver_s`` summarises the request→deliver
    latency over journeys that completed, and ``cross_shard`` counts
    journeys whose spans touched more than one shard.
    """
    journeys: Dict[int, List[Dict[str, Any]]] = {}
    for span in spans:
        journeys.setdefault(span["trace"], []).append(span)

    played = missed = opened = cross = 0
    causes: Dict[str, int] = {}
    latencies: List[float] = []
    for events in journeys.values():
        events.sort(key=lambda s: (s.get("t", 0.0), s.get("seq", 0)))
        kinds = {s["event"] for s in events}
        shards = {s.get("shard") for s in events if s.get("shard") is not None}
        if len(shards) > 1:
            cross += 1
        if "play" in kinds:
            played += 1
        elif "miss" in kinds:
            missed += 1
            for s in events:
                if s["event"] == "miss":
                    cause = s.get("cause", "unknown")
                    causes[cause] = causes.get(cause, 0) + 1
        else:
            opened += 1
        t_req = next((s["t"] for s in events if s["event"] == "request"), None)
        t_del = next((s["t"] for s in events if s["event"] == "deliver"), None)
        if t_req is not None and t_del is not None and t_del >= t_req:
            latencies.append(t_del - t_req)

    summary: Dict[str, Any] = {
        "sampled": len(journeys),
        "played": played,
        "missed": missed,
        "open": opened,
        "cross_shard": cross,
        "miss_causes": causes,
    }
    if latencies:
        latencies.sort()
        p50 = latencies[min(len(latencies) - 1, int(0.50 * len(latencies)))]
        p95 = latencies[min(len(latencies) - 1, int(0.95 * len(latencies)))]
        summary["request_to_deliver_s"] = {
            "mean": sum(latencies) / len(latencies),
            "p50": p50,
            "p95": p95,
            "max": latencies[-1],
        }
    return summary


def merge_obs(parts: List[Optional[Dict[str, Any]]], span_limit: int = 200_000) -> Optional[Dict[str, Any]]:
    """Merge per-shard ``ObsRecorder.export()`` dicts into one run view.

    Period records concatenate in ``(period, shard)`` order, spans and
    flight events concatenate and re-sort on their sim-time stamps (each
    span already carries its ``shard`` tag), postmortems concatenate,
    metrics merge via :func:`merge_metrics`, and the trace
    summary is recomputed over the combined span stream so cross-shard
    journeys count once.  Returns ``None`` when no shard exported obs.

    The span re-sort tie-breaks equal sim timestamps on ``(trace, seq)``
    — virtual-clock shards routinely stamp many spans at the same sim
    instant, and Python's stable sort would otherwise leave their order
    at the mercy of shard arrival order, making merged reports differ
    run-to-run.  Flight events tie-break on their shard tag.
    """
    parts = [p for p in parts if p]
    if not parts:
        return None
    records: List[Dict[str, Any]] = []
    spans: List[Dict[str, Any]] = []
    flight: List[Dict[str, Any]] = []
    postmortems: List[Dict[str, Any]] = []
    dropped = 0
    for part in parts:
        records.extend(part.get("records", ()))
        spans.extend(part.get("spans", ()))
        flight.extend(part.get("flight", ()))
        postmortems.extend(part.get("postmortems", ()))
        dropped += part.get("spans_dropped", 0)
    spans.sort(key=lambda s: (s.get("t", 0.0), s.get("trace", 0), s.get("seq", 0)))
    flight.sort(key=lambda s: (s.get("t", 0.0), s.get("shard") or 0))
    if len(spans) > span_limit:
        dropped += len(spans) - span_limit
        spans = spans[:span_limit]
    merged: Dict[str, Any] = {
        "shards": sorted({p.get("shard") for p in parts if p.get("shard") is not None}),
        "metrics": merge_metrics(p.get("metrics", {}) for p in parts),
        "records": sorted(records, key=lambda r: (r["period"], r["shard"])),
        "spans": spans,
        "flight": flight,
        "postmortems": postmortems,
        "spans_dropped": dropped,
        "traces": summarize_traces(spans),
    }
    flows = merge_flows(p.get("flows") for p in parts)
    if flows is not None:
        merged["flows"] = flows
    topo = merge_topo(p.get("topo") for p in parts)
    if topo is not None:
        merged["topo"] = topo
    socket_links = [row for p in parts for row in p.get("socket_links", ())]
    if socket_links:
        merged["socket_links"] = sorted(
            socket_links,
            key=lambda r: (r.get("src_shard", 0), r.get("dst_shard", 0)),
        )
    return merged
