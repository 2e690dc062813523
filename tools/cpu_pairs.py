"""CPU claims through alternating pairs: a git ref against a change, per workload.

The host this project is measured on drifts 10–40 % between sets of runs,
so a CPU-time claim compares parent and change only in pairs taken back to
back, alternating which side runs first.  This tool builds those pairs:

1. it exports ``BASE`` (any git ref) with ``git archive`` into a temporary
   directory — and ``--change REF`` the same way, or else uses this checkout
   as it stands;
2. it runs ``python3 bench/run.py --workload W --seed S --seconds T --trace 0``
   ``--pairs`` times in each tree, the parent first in even pairs and the
   change first in odd ones, and reads each run's contract line (the last
   line of its output).  ``--workload`` takes a comma-separated list: pair
   *i* of every listed workload runs before pair *i + 1* of any, so one
   session shows a claimed workload's gain beside the others' standing
   still, under the same host drift;
3. for every workload and every end-to-end metric of ``BENCHMARK.json`` it
   prints each side's median and quartiles, the ratio of the medians and
   the pairs the change won (ties count for neither side), and the verdict
   of the claim rule:
   a **gain** needs wins in at least nine tenths of the pairs *and* a median
   better than the parent's by more than the distance between the parent's
   quartiles.

Nothing is written under ``bench/`` or in either tree; the exports live in
the system's temporary directory and are deleted at exit.

Usage::

    python3 tools/cpu_pairs.py BASE [--change REF] [--workload rt_static[,W2...]]
        [--seed 0] [--pairs 10] [--seconds 5]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, NamedTuple, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: A claimed gain must win at least this share of the pairs run.
WIN_SHARE = 0.9


class Summary(NamedTuple):
    """One metric over the pairs: each side's median and quartiles, the
    change's wins and the claim rule's verdict."""

    metric: str
    higher_is_better: bool
    base: Sequence[float]
    change: Sequence[float]
    wins: int
    gain: bool

    @property
    def ratio(self) -> float:
        base = median(self.base)
        return median(self.change) / base if base else float("nan")


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` (inclusive method, so two runs are enough)."""
    if len(values) == 1:
        return [values[0]] * 3
    return quantiles(values, n=4, method="inclusive")


def parse_metrics(stdout: str) -> Dict[str, float]:
    """The metric values of one ``bench/run.py`` run: its last line is the
    contract object ``{"correct", "attempted", "failed", "metrics"}``."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("bench/run.py printed nothing")
    contract = json.loads(lines[-1])
    if not contract.get("correct", False):
        raise ValueError("bench/run.py reported an incorrect run")
    return {name: float(entry["value"]) for name, entry in contract["metrics"].items()}


def summarize(
    metric: str, higher_is_better: bool, base: Sequence[float], change: Sequence[float]
) -> Summary:
    """Pair the runs up (``base[i]`` with ``change[i]``) and apply the rule."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same, non-zero number of runs on both sides")
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    q1, _, q3 = quartiles(base)
    gap = sign * (median(change) - median(base))
    gain = wins >= WIN_SHARE * len(base) and gap > q3 - q1
    return Summary(metric, higher_is_better, list(base), list(change), wins, gain)


def end_to_end_metrics(benchmark: Path) -> Dict[str, bool]:
    """``{metric: higher is better}`` for every end-to-end metric."""
    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    return {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}


def parse_workloads(text: str, known: Sequence[str]) -> List[str]:
    """The workloads of a comma-separated ``--workload`` value, in order;
    an empty, repeated or unknown name is a ``ValueError``."""
    names = [name.strip() for name in text.split(",")]
    if not all(names):
        raise ValueError(f"empty workload name in {text!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"a workload is listed twice in {text!r}")
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(f"unknown workloads {unknown}; known: {', '.join(known)}")
    return names


def benchmark_workloads(benchmark: Path) -> List[str]:
    """The workload names ``BENCHMARK.json`` declares."""
    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    return [w["name"] for w in spec["workloads"]]


def export(ref: str, into: Path) -> Path:
    """``git archive`` of ``ref`` unpacked into ``into``."""
    into.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> Dict[str, float]:
    """One benchmark run in ``tree``; its end-to-end metric values."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"bench/run.py failed in {tree}:\n{done.stderr[-2000:]}")
    return parse_metrics(done.stdout)


Runs = Dict[str, Dict[str, List[Dict[str, float]]]]


def run_pairs(
    trees: Dict[str, Path], workloads: Sequence[str], pairs: int, seed: int, seconds: float
) -> Runs:
    """``{workload: {"base": [...], "change": [...]}}``: pair by pair, every
    workload's runs, the base first in even pairs and the change first in
    odd ones."""
    runs: Runs = {w: {"base": [], "change": []} for w in workloads}
    for pair in range(pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for workload in workloads:
            sides = runs[workload]
            for side in order:
                sides[side].append(run_once(trees[side], workload, seed, seconds))
            print(
                f"pair {pair + 1}/{pairs} {workload} ({order[0]} first): "
                + ", ".join(
                    f"{side} {fmt(sides[side][-1].get('peer_periods_per_cpu_s', float('nan')))}"
                    for side in ("base", "change")
                ),
                file=sys.stderr,
            )
    return runs


def fmt(value: float) -> str:
    return f"{value:.6g}"


def report(summaries: Sequence[Summary]) -> str:
    """The table: one row per metric, then the verdicts."""
    rows = [f"{'metric':<24} {'better':<7} {'base median [q1, q3]':<34} "
            f"{'change median [q1, q3]':<34} {'ratio':>7} {'wins':>6}  verdict"]
    for s in summaries:
        sides = []
        for values in (s.base, s.change):
            q1, mid, q3 = quartiles(values)
            sides.append(f"{fmt(mid)} [{fmt(q1)}, {fmt(q3)}]")
        rows.append(
            f"{s.metric:<24} {'higher' if s.higher_is_better else 'lower':<7} "
            f"{sides[0]:<34} {sides[1]:<34} {s.ratio:>7.4f} "
            f"{s.wins:>3}/{len(s.base):<2}  {'gain' if s.gain else 'no gain'}"
        )
    return "\n".join(rows)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git ref of the parent side")
    parser.add_argument("--change", help="git ref of the change side (default: this checkout)")
    parser.add_argument(
        "--workload", default="rt_static", help="a workload, or a comma-separated list"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    try:
        workloads = parse_workloads(args.workload, benchmark_workloads(ROOT / "BENCHMARK.json"))
    except ValueError as exc:
        parser.error(str(exc))
    directions = end_to_end_metrics(ROOT / "BENCHMARK.json")
    with tempfile.TemporaryDirectory(prefix="cpu-pairs-") as scratch:
        trees = {"base": export(args.base, Path(scratch) / "base")}
        trees["change"] = (
            export(args.change, Path(scratch) / "change") if args.change else ROOT
        )
        runs = run_pairs(trees, workloads, args.pairs, args.seed, args.seconds)
    change = args.change or "this checkout"
    for index, workload in enumerate(workloads):
        base, changed = runs[workload]["base"], runs[workload]["change"]
        summaries = [
            summarize(name, higher, [r[name] for r in base], [r[name] for r in changed])
            for name, higher in directions.items()
            if all(name in r for r in base + changed)
        ]
        if index:
            print()
        print(f"{workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs: "
              f"base {args.base} vs change {change}")
        print(report(summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
