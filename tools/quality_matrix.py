"""Stable continuity as a seed × scale matrix, for both systems and both drivers.

Each cell is one seeded run of the ``static`` scenario at one size, on the
discrete-event simulator (``sim``) or the virtual-clock live runtime
(``runtime``), for ContinuStreaming and for CoolStreaming.  For every
(driver, peers, periods, system) the tool prints the mean and the worst
seed of ``stable_continuity``, and for every (driver, peers, periods) the
gap Δ = ContinuStreaming − CoolStreaming of the means, which is the paper's
claim.  A runtime row also records, per seed and as a mean, the messages
and bytes its runs put on the wire (the simulator sends no frames).  Both
drivers are deterministic for a seed, so a rerun repeats every number to
the last digit.

The grid is the continuity-at-scale check: simulator n = 200 × 60 and
n = 500 × 40 periods, runtime n = 200 × 40, seeds 0–4: 30 runs, about
4 CPU-minutes on one core of a 2-vCPU host.

Usage::

    python3 tools/quality_matrix.py [--json PATH]

``--json`` writes the matrix (per-seed values included) in the form a
``BENCH_history.jsonl`` row stores under its ``matrix`` key.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import fmean
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SYSTEMS = ("continustreaming", "coolstreaming")

#: One row of the grid: ``(driver, peers, periods)``.
Row = Tuple[str, int, int]

GRID: List[Row] = [("sim", 200, 60), ("sim", 500, 40), ("runtime", 200, 40)]
SEEDS = range(5)
#: The wire counts a runtime cell records beside its continuity.
COUNTS = ("messages_sent", "bytes_on_wire")


def run_cell(
    driver: str, peers: int, periods: int, system: str, seed: int
) -> Tuple[float, Dict[str, int]]:
    """Stable continuity of one seeded ``static`` run, and for the runtime
    its ``COUNTS`` (an empty dict for the simulator)."""
    from repro.runtime import LiveSwarm
    from repro.scenarios import builtin_scenario

    spec = builtin_scenario("static").scaled(
        num_nodes=peers, rounds=periods, seed=seed, system=system
    )
    if driver == "sim":
        return spec.run().stable_continuity(), {}
    result = LiveSwarm(spec, clock="virtual").run()
    return result.stable_continuity(), {name: getattr(result, name) for name in COUNTS}


def label(row: Row) -> str:
    driver, peers, periods = row
    return f"{driver} {peers}x{periods}"


def matrix(rows: Sequence[Row], seeds: Sequence[int]) -> Dict:
    """Run every cell; per row and system the mean, the worst seed and the
    per-seed values of continuity (and of each runtime count, its mean and
    per-seed values), and per row ``delta`` (ContinuStreaming −
    CoolStreaming of the continuity means)."""
    cells = [(*row, system, seed) for row in rows for system in SYSTEMS for seed in seeds]
    by_cell = {cell: run_cell(*cell) for cell in cells}
    table: Dict[str, Dict] = {}
    for row in rows:
        entry: Dict = {}
        for system in SYSTEMS:
            runs = [by_cell[(*row, system, seed)] for seed in seeds]
            by_seed = [continuity for continuity, _ in runs]
            stats = {"mean": fmean(by_seed), "worst": min(by_seed), "by_seed": by_seed}
            for name in runs[0][1]:
                values = [counts[name] for _, counts in runs]
                stats[name] = {"mean": fmean(values), "by_seed": values}
            entry[system] = stats
        entry["delta"] = entry["continustreaming"]["mean"] - entry["coolstreaming"]["mean"]
        table[label(row)] = entry
    return {"seeds": list(seeds), "cells": table}


def render(result: Dict) -> List[str]:
    """The matrix as text lines, one per (row, system) plus each row's Δ;
    a runtime row adds its mean counts."""
    lines = [f"{'cell':<18} {'system':<18} {'mean':>8} {'worst':>8}  {'msgs':>9} {'bytes':>11}"]
    for name, entry in result["cells"].items():
        for system in SYSTEMS:
            stats = entry[system]
            line = f"{name:<18} {system:<18} {stats['mean']:8.4f} {stats['worst']:8.4f}"
            if all(count in stats for count in COUNTS):
                line += "  " + " ".join(
                    f"{stats[count]['mean']:{width}.0f}" for count, width in zip(COUNTS, (9, 11))
                )
            lines.append(line)
        lines.append(f"{name:<18} {'Δ continu - cool':<18} {entry['delta']:+8.4f}")
    return lines


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", type=Path, help="also write the matrix as JSON here")
    args = parser.parse_args(list(argv))
    result = matrix(GRID, SEEDS)
    print("\n".join(render(result)))
    if args.json is not None:
        args.json.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
