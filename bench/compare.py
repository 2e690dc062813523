"""``python -m bench.compare A.json B.json`` — is B worse than A?

Reads two result files written by ``bench.run --out`` (same seed, same
sizes) and prints, per workload and end-to-end metric: A's median, B's
median, how much B is *worse* (negative = better), the bound, and a verdict:

* ``ok`` — not worse by more than the bound;
* ``worse`` — worse by more than the bound, and every repeat of B reads
  worse than every repeat of A;
* ``unresolved`` — worse by more than the bound, but the two sides'
  min–max ranges overlap: the runs cannot tell the sides apart, so this is
  neither a pass nor a regression.  Rerun with more ``--repeats``.

Exits non-zero only on a ``worse`` row or when B lost a larger share of its
operations outright (``ops_lost / ops_attempted``: dead shards, codec
mismatches, failed output checks).  Peer·periods that merely did not play
are a quality miss, already judged through ``stable_continuity``'s bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench import metrics

OK, WORSE, UNRESOLVED = "ok", "worse", "unresolved"


def verdict(metric: metrics.EndToEnd, wall_clock: bool, a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Compare one metric's repeats (``{"median", "min", "max"}``) on the two sides."""
    bound = metric.same_seed_wall if wall_clock else metric.same_seed
    sign = 1.0 if metric.better == metrics.LOWER else -1.0
    worse_by = sign * (b["median"] - a["median"])
    if not metric.absolute:
        worse_by = worse_by / abs(a["median"]) if a["median"] else (0.0 if worse_by == 0 else float("inf"))
    if worse_by <= bound:
        outcome = OK
    elif a["min"] <= b["max"] and b["min"] <= a["max"]:
        outcome = UNRESOLVED
    else:
        outcome = WORSE
    return {"worse_by": worse_by, "bound": bound, "absolute": metric.absolute, "verdict": outcome}


def lost_share(summary: Dict[str, Any]) -> float:
    return summary["ops_lost"] / max(1, summary["ops_attempted"])


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per workload × metric present on both sides, plus an ``ops`` row each."""
    rows: List[Dict[str, Any]] = []
    for name, side_a in a["workloads"].items():
        side_b = b["workloads"].get(name)
        if side_b is None:
            continue
        wall_clock = name in metrics.WALL_CLOCK_WORKLOADS
        for metric in metrics.END_TO_END:
            row_a, row_b = side_a["end_to_end"].get(metric.name), side_b["end_to_end"].get(metric.name)
            if row_a is None or row_b is None:
                continue
            rows.append(
                dict(
                    verdict(metric, wall_clock, row_a, row_b),
                    workload=name, metric=metric.name, unit=metric.unit, a=row_a["median"], b=row_b["median"],
                )
            )
        rows.append(
            {
                "workload": name, "metric": "ops_lost/ops_attempted", "unit": "ratio",
                "a": lost_share(side_a), "b": lost_share(side_b),
                "worse_by": lost_share(side_b) - lost_share(side_a), "bound": 0.0, "absolute": True,
                "verdict": WORSE if lost_share(side_b) > lost_share(side_a) else OK,
            }
        )
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    if a["environment"]["seed"] != b["environment"]["seed"]:
        print(f"note: seeds differ ({a['environment']['seed']} vs {b['environment']['seed']}); "
              "the same-seed bounds below do not apply to count metrics", file=sys.stderr)
    rows = compare(a, b)
    print(f"{'workload':<15} {'metric':<24} {'A median':>14} {'B median':>14} {'worse by':>10} "
          f"{'bound':>8}  verdict")
    for row in rows:
        form = "{:>+10.4f}" if row["absolute"] else "{:>+10.2%}"
        bound = "{:>8.4g}" if row["absolute"] else "{:>8.0%}"
        print(f"{row['workload']:<15} {row['metric']:<24} {row['a']:>14.6g} {row['b']:>14.6g} "
              f"{form.format(row['worse_by'])} {bound.format(row['bound'])}  {row['verdict']}  [{row['unit']}]")
    counts = {kind: sum(row["verdict"] == kind for row in rows) for kind in (OK, UNRESOLVED, WORSE)}
    print(f"\n{counts[OK]} ok, {counts[UNRESOLVED]} unresolved, {counts[WORSE]} worse")
    return 1 if counts[WORSE] else 0


if __name__ == "__main__":
    sys.exit(main())
