"""Compare two obs JSONL exports: baseline vs candidate.

``continustreaming-experiments obs diff --baseline a.jsonl --in b.jsonl``
loads both obs files (:func:`~repro.obs.record.load_obs_jsonl`), runs
:func:`diff_obs` and prints :func:`render_diff`; ``--verdict-out``
additionally writes the machine-readable verdict dict as JSON so CI can
gate (or warn) on it without parsing terminal output.

What counts as a **regression** (fails ``verdict["ok"]``):

- trace p50/p95 request→deliver latency worsening beyond the relative
  tolerance (default 10%, with a small absolute floor so microsecond
  jitter on near-zero latencies never trips it);
- the played fraction of sampled journeys dropping by more than 2pp;
- new postmortems in the candidate when the baseline had none.

Counter movements on *bad* counters (drops, sheds, misses, resets …)
beyond tolerance are **warnings**; everything else — series movers,
counter ratios, flow-matrix churn — is reported as informational
change.  Two same-seed virtual-clock runs export identical files, so a
same-seed diff reports zero regressions, zero warnings and zero changes
by construction (this is pinned in the tests).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.record import period_series

__all__ = ["diff_obs", "render_diff"]

#: Substrings marking counters where "more" means "worse".
_BAD_COUNTER_MARKS = (
    "dropped",
    "shed",
    "miss",
    "rejected",
    "misrouted",
    "lost",
    "reset",
    "disconnect",
    "stall",
)

#: Ignore latency shifts below this many seconds even when the relative
#: tolerance trips — sub-millisecond jitter is not a regression.
_ABS_LATENCY_FLOOR_S = 1e-3


def _is_bad_counter(name: str) -> bool:
    return any(mark in name for mark in _BAD_COUNTER_MARKS)


def _ratio(base: float, cand: float) -> Optional[float]:
    if base == 0:
        return None if cand == 0 else float("inf")
    return cand / base


def _series_stats(points: Iterable[Iterable[float]]) -> Optional[Tuple[float, float]]:
    values = [v for _, v in points]
    if not values:
        return None
    return (sum(values) / len(values), values[-1])


def _flow_links(obs: Dict[str, Any]) -> Dict[Tuple[int, int], int]:
    flows = obs.get("flows") or {}
    return {(s, d): nbytes for s, d, _f, nbytes, *_rest in flows.get("links", ())}


def _flow_pairs(obs: Dict[str, Any]) -> Dict[Tuple[int, int], int]:
    flows = obs.get("flows") or {}
    return {(s, d): nbytes for s, d, _f, nbytes in flows.get("pairs", ())}


def diff_obs(
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
    *,
    p95_tolerance: float = 0.10,
    counter_tolerance: float = 0.05,
    series_top: int = 8,
) -> Dict[str, Any]:
    """Diff two obs export dicts into a verdict dict (see module doc)."""
    regressions: List[Dict[str, Any]] = []
    warnings: List[Dict[str, Any]] = []
    changes: List[Dict[str, Any]] = []

    # ---------------------------------------------------------- counters
    base_counters = (baseline.get("metrics") or {}).get("counters", {})
    cand_counters = (candidate.get("metrics") or {}).get("counters", {})
    for name in sorted(set(base_counters) | set(cand_counters)):
        b = float(base_counters.get(name, 0.0))
        c = float(cand_counters.get(name, 0.0))
        if b == c:
            continue
        ratio = _ratio(b, c)
        entry = {"kind": "counter", "name": name, "baseline": b, "candidate": c, "ratio": ratio}
        moved = ratio is None or ratio == float("inf") or abs(ratio - 1.0) > counter_tolerance
        if moved and _is_bad_counter(name) and c > b and c - b > 2:
            warnings.append(entry)
        elif moved:
            changes.append(entry)

    # ------------------------------------------------------------ traces
    base_traces = baseline.get("traces") or {}
    cand_traces = candidate.get("traces") or {}
    trace_report: Dict[str, Any] = {}
    if base_traces.get("sampled") and cand_traces.get("sampled"):
        b_frac = base_traces.get("played", 0) / base_traces["sampled"]
        c_frac = cand_traces.get("played", 0) / cand_traces["sampled"]
        trace_report["played_fraction"] = {"baseline": b_frac, "candidate": c_frac}
        if b_frac - c_frac > 0.02:
            regressions.append(
                {
                    "kind": "trace_played_fraction",
                    "baseline": b_frac,
                    "candidate": c_frac,
                }
            )
        b_rtd = base_traces.get("request_to_deliver_s") or {}
        c_rtd = cand_traces.get("request_to_deliver_s") or {}
        for q in ("p50", "p95"):
            if q in b_rtd and q in c_rtd:
                trace_report[f"rtd_{q}"] = {"baseline": b_rtd[q], "candidate": c_rtd[q]}
                worse = c_rtd[q] - b_rtd[q]
                if (
                    worse > _ABS_LATENCY_FLOOR_S
                    and b_rtd[q] > 0
                    and worse / b_rtd[q] > p95_tolerance
                ):
                    regressions.append(
                        {
                            "kind": f"trace_{q}",
                            "baseline": b_rtd[q],
                            "candidate": c_rtd[q],
                        }
                    )

    # ------------------------------------------------------- postmortems
    base_pm = len(baseline.get("postmortems") or ())
    cand_pm = len(candidate.get("postmortems") or ())
    if cand_pm > base_pm:
        regressions.append(
            {"kind": "postmortems", "baseline": base_pm, "candidate": cand_pm}
        )

    # ------------------------------------------------------------ series
    base_series = period_series(baseline.get("records") or ())
    cand_series = period_series(candidate.get("records") or ())
    movers: List[Dict[str, Any]] = []
    for name in sorted(set(base_series) | set(cand_series)):
        b = _series_stats(base_series.get(name, ()))
        c = _series_stats(cand_series.get(name, ()))
        if b is None or c is None:
            if b is not c:
                movers.append(
                    {"name": name, "only_in": "candidate" if b is None else "baseline"}
                )
            continue
        if b == c:
            continue
        denom = abs(b[0]) if b[0] else 1.0
        movers.append(
            {
                "name": name,
                "baseline_mean": b[0],
                "candidate_mean": c[0],
                "baseline_last": b[1],
                "candidate_last": c[1],
                "rel_mean_shift": (c[0] - b[0]) / denom,
            }
        )
    movers.sort(key=lambda m: -abs(m.get("rel_mean_shift", 1.0)))
    movers = movers[:series_top]

    # ------------------------------------------------------------- flows
    flow_report: Dict[str, Any] = {}
    b_links, c_links = _flow_links(baseline), _flow_links(candidate)
    if b_links or c_links:
        union = set(b_links) | set(c_links)
        common = set(b_links) & set(c_links)
        flow_report["link_churn"] = 1.0 - (len(common) / len(union) if union else 1.0)
        flow_report["links"] = {"baseline": len(b_links), "candidate": len(c_links)}
    b_pairs, c_pairs = _flow_pairs(baseline), _flow_pairs(candidate)
    if b_pairs or c_pairs:
        pair_rows = []
        for key in sorted(set(b_pairs) | set(c_pairs)):
            b = b_pairs.get(key, 0)
            c = c_pairs.get(key, 0)
            pair_rows.append(
                {
                    "pair": list(key),
                    "baseline_bytes": b,
                    "candidate_bytes": c,
                    "ratio": _ratio(float(b), float(c)),
                }
            )
        flow_report["pairs"] = pair_rows
        b_total = sum(b_pairs.values())
        c_total = sum(c_pairs.values())
        flow_report["total_bytes"] = {
            "baseline": b_total,
            "candidate": c_total,
            "ratio": _ratio(float(b_total), float(c_total)),
        }

    return {
        "ok": not regressions,
        "regressions": regressions,
        "warnings": warnings,
        "changes": changes,
        "series_movers": movers,
        "traces": trace_report,
        "flows": flow_report,
        "tolerances": {
            "p95": p95_tolerance,
            "counter": counter_tolerance,
        },
    }


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_diff(diff: Dict[str, Any]) -> str:
    """Render a :func:`diff_obs` verdict for a terminal / job log."""
    lines: List[str] = []
    verdict = "OK" if diff.get("ok") else "REGRESSIONS"
    lines.append(
        f"obs diff: {verdict} — {len(diff.get('regressions', []))} regressions, "
        f"{len(diff.get('warnings', []))} warnings, "
        f"{len(diff.get('changes', []))} counter changes"
    )
    for label, rows in (("regression", diff.get("regressions", [])),
                        ("warning", diff.get("warnings", []))):
        for row in rows:
            name = row.get("name", row.get("kind"))
            lines.append(
                f"  {label}: {name}  baseline={_fmt(row.get('baseline'))} "
                f"candidate={_fmt(row.get('candidate'))}"
            )
    traces = diff.get("traces") or {}
    for key in ("rtd_p50", "rtd_p95", "played_fraction"):
        if key in traces:
            row = traces[key]
            lines.append(
                f"  traces.{key}: {_fmt(row['baseline'])} → {_fmt(row['candidate'])}"
            )
    movers = diff.get("series_movers") or []
    if movers:
        lines.append("  top series movers (by relative mean shift)")
        for m in movers:
            if "only_in" in m:
                lines.append(f"    {m['name']}: only in {m['only_in']}")
            else:
                lines.append(
                    "    {name}: mean {b} → {c} ({shift:+.1%})".format(
                        name=m["name"],
                        b=_fmt(m["baseline_mean"]),
                        c=_fmt(m["candidate_mean"]),
                        shift=m["rel_mean_shift"],
                    )
                )
    flows = diff.get("flows") or {}
    if "link_churn" in flows:
        lines.append(f"  flow link churn: {flows['link_churn']:.1%}")
    total = flows.get("total_bytes")
    if total:
        lines.append(
            "  wire bytes: {b} → {c}".format(
                b=_fmt(total["baseline"]), c=_fmt(total["candidate"])
            )
        )
    if len(lines) == 1:
        lines.append("  (exports are identical on every compared axis)")
    return "\n".join(lines)
