"""Terminal reports of an obs export.

:func:`render_report` renders an obs export — a run's
``RuntimeResult.obs`` or an obs file loaded with
:func:`~repro.obs.record.load_obs_jsonl` (``continustreaming-experiments
obs --in run.jsonl``): per-period sparklines rebuilt from the period
records, the summary, flows, topology, traces and postmortems.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.record import period_series

__all__ = ["render_report", "format_postmortems"]

_SPARK = "▁▂▃▄▅▆▇█"


def _sparkline(values: List[float], width: int = 32) -> str:
    if not values:
        return ""
    if len(values) > width:
        # Downsample by striding so the line still spans the whole run.
        step = len(values) / width
        values = [values[int(i * step)] for i in range(width)]
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK[0] * len(values)
    scale = (len(_SPARK) - 1) / (hi - lo)
    return "".join(_SPARK[int((v - lo) * scale)] for v in values)


def render_report(obs: Dict[str, Any]) -> str:
    """A terminal report: metric sparklines, trace summary, postmortems."""
    lines: List[str] = []
    metrics = obs.get("metrics", {})
    series = period_series(obs.get("records") or ())
    if series:
        lines.append("timeseries (per period)")
        width = max(len(name) for name in series)
        for name in sorted(series):
            values = [v for _, v in series[name]]
            if not values:
                continue
            lines.append(
                f"  {name:<{width}}  {_sparkline(values)}  "
                f"last={values[-1]:.4g} min={min(values):.4g} max={max(values):.4g}"
            )
    else:
        lines.append("(no metric series in this export)")
    counters = metrics.get("counters", {})
    if counters:
        lines.append("counters")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {counters[name]:.6g}")
    hists = metrics.get("histograms", {})
    if hists:
        lines.append("histograms")
        width = max(len(name) for name in hists)
        for name in sorted(hists):
            h = hists[name]
            mean = h.get("sum", 0.0) / h["count"] if h.get("count") else 0.0
            quantiles = ""
            if "p50" in h:
                quantiles = f" p50={h['p50']:.4g} p95={h.get('p95', 0.0):.4g}"
            lines.append(
                f"  {name:<{width}}  n={h.get('count', 0)} mean={mean:.4g}"
                f"{quantiles} "
                f"min={h.get('min', 0.0):.4g} max={h.get('max', 0.0):.4g}"
            )
    flows = obs.get("flows")
    if flows:
        lines.append(_render_flows(flows))
    topo = obs.get("topo")
    if topo:
        lines.append(_render_topo(topo))
    socket_links = obs.get("socket_links")
    if socket_links:
        lines.append("socket links (per shard pair)")
        for row in socket_links:
            lines.append(
                "  {src}→{dst}  out {fo}f/{bo}B  in {fi}f/{bi}B  "
                "sheds={sheds} resets={resets}{lost}".format(
                    src=row.get("src_shard"),
                    dst=row.get("dst_shard"),
                    fo=row.get("frames_out", 0),
                    bo=row.get("bytes_out", 0),
                    fi=row.get("frames_in", 0),
                    bi=row.get("bytes_in", 0),
                    sheds=row.get("sheds", 0),
                    resets=row.get("disconnects", 0),
                    lost="  LOST" if row.get("lost") else "",
                )
            )
    traces = obs.get("traces") or {}
    if traces.get("sampled"):
        lines.append(
            "traces: {sampled} sampled journeys — {played} played, {missed} missed, "
            "{open} open, {cross_shard} cross-shard".format(**traces)
        )
        if traces.get("miss_causes"):
            causes = ", ".join(f"{k}={v}" for k, v in sorted(traces["miss_causes"].items()))
            lines.append(f"  miss causes: {causes}")
        rtd = traces.get("request_to_deliver_s")
        if rtd:
            p50 = f"p50={rtd['p50']:.3f}s " if "p50" in rtd else ""
            lines.append(
                f"  request→deliver: mean={rtd['mean']:.3f}s {p50}"
                f"p95={rtd['p95']:.3f}s max={rtd['max']:.3f}s"
            )
    dropped = obs.get("spans_dropped", 0)
    if dropped:
        lines.append(f"  ({dropped} spans dropped at the per-process cap)")
    skipped = obs.get("skipped_lines", 0)
    if skipped:
        lines.append(f"  ({skipped} malformed/unknown JSONL lines skipped)")
    pm = format_postmortems(obs)
    if pm:
        lines.append(pm)
    if not lines:
        lines.append("(empty obs export)")
    return "\n".join(lines)


def _render_flows(flows: Dict[str, Any], top: int = 8) -> str:
    """The flow-matrix section: shard pairs, top talkers, the tail."""
    lines = ["flow matrix"]
    pairs = flows.get("pairs") or []
    if pairs:
        total = sum(row[3] for row in pairs)
        lines.append(f"  shard pairs ({len(pairs)}, {total} wire bytes total)")
        for src, dst, frames, nbytes in pairs:
            lines.append(f"    shard {src}→{dst}  {frames}f  {nbytes}B")
    links = flows.get("links") or []
    if links:
        lines.append(f"  top talkers (of {len(links)} tracked links)")
        for src, dst, frames, nbytes, data_frames, data_bytes in links[:top]:
            lines.append(
                f"    {src}→{dst}  {frames}f/{nbytes}B"
                f"  (data {data_frames}f/{data_bytes}B)"
            )
    tail = flows.get("tail") or {}
    if tail.get("links"):
        lines.append(
            "  tail: {links} more links, {frames}f/{bytes}B".format(**tail)
        )
    return "\n".join(lines)


def _render_topo(topo: Dict[str, Any]) -> str:
    """The overlay-topology section of the report."""
    lines = ["overlay topology (last snapshot, period {})".format(topo.get("period"))]
    lines.append(
        "  gossip coverage: {:.1%} ({} of {} partner edges fresh within "
        "{} periods)".format(
            topo.get("coverage", 0.0),
            topo.get("covered_pairs", 0),
            topo.get("partner_pairs", 0),
            topo.get("coverage_periods", 0),
        )
    )
    components = topo.get("components", 0)
    partition = "  ⚠ OVERLAY PARTITIONED" if components and components > 1 else ""
    lines.append(
        f"  components: {components} over {topo.get('component_nodes', 0)} "
        f"live nodes{partition}"
    )
    lines.append(
        "  partner graph: {} nodes, {} edges, out-degree mean={:.2f} max={}".format(
            topo.get("nodes", 0),
            topo.get("edges", 0),
            topo.get("out_degree_mean", 0.0),
            topo.get("out_degree_max", 0),
        )
    )
    lines.append(
        "  ring fingers: {:.1%} alive ({} of {})".format(
            topo.get("finger_health", 0.0),
            topo.get("finger_alive", 0),
            topo.get("finger_total", 0),
        )
    )
    return "\n".join(lines)


def format_postmortems(obs: Optional[Dict[str, Any]], tail: int = 12) -> str:
    """The flight-recorder dumps, rendered for a job log (empty if none)."""
    if not obs or not obs.get("postmortems"):
        return ""
    lines: List[str] = []
    for dump in obs["postmortems"]:
        shard = dump.get("shard")
        where = f" [shard {shard}]" if shard is not None else ""
        lines.append(f"postmortem{where} t={dump.get('t', 0.0):.2f}: {dump.get('reason')}")
        events = dump.get("events", [])
        for event in events[-tail:]:
            extras = {
                k: v for k, v in event.items() if k not in ("event", "t", "shard")
            }
            detail = " ".join(f"{k}={v}" for k, v in sorted(extras.items()))
            lines.append(f"    t={event.get('t', 0.0):>8.2f}  {event.get('event'):<18} {detail}".rstrip())
        if len(events) > tail:
            lines.append(f"    (… {len(events) - tail} earlier events in the ring)")
    return "\n".join(lines)
