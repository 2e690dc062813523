"""Fail unless this tree streams exactly like the last ``BENCH_history.jsonl`` row.

The simulator and the virtual-clock runtime are deterministic for a seed, so
their quality numbers repeat to the last digit.  This runs
``bench/run.py --workload W --seed 0 --seconds 1 --trace 0`` for ``sim_static``,
``rt_static``, ``rt_churn`` and ``wire_replay`` and compares
``stable_continuity``, ``bytes_per_segment`` and ``control_overhead`` with the
history's last row, exactly.  ``rt_churn`` is the only one that reaches
joiners' first maps, desync resyncs and window jumps.  ``wire_replay``'s three
values are fixed by the codec alone (round-trip share, batched bytes per data
frame, map frame bits), so it is the frame-format gate.  The same runs
also print exact counts — messages and bytes on the wire, DHT routing
messages, pre-fetched and scheduled segments — and each of ``COUNTS`` is
compared too wherever the row records it (older rows do not).  A change
that moves any of them on purpose (a declared re-pin) commits a new row in
the same change; anything else that moves them is a behaviour change nobody
declared.  CPU-time metrics are not checked: they are host-dependent.

With ``--matrix PATH`` it runs no workload and checks a
``tools/quality_matrix.py --json PATH`` matrix instead: every cell's
per-seed continuity, and every per-seed count the row's ``matrix`` records
(wire and lookup counts of the runtime rows), must equal the row's.

Either way it also applies the quality matrix's fail rule to the history
itself, which runs nothing: of the last two rows that carry a ``matrix``,
paired by seed, a cell/system fails when its continuity mean drops by
more than ``MEAN_DROP`` (0.01) or any one seed by more than ``SEED_DROP``
(0.03).  Rises never fail.  A drop passes only when the newer row's
``note`` declares it by naming the cell and system as
``drop: <cell>/<system>``, e.g. ``drop: sim 500x40/continustreaming``.

Usage::

    python3 tools/check_fingerprints.py [--history BENCH_history.jsonl] [--matrix PATH]

Exit status: 0 equal, 1 a value differs, 2 a benchmark run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import fmean
from typing import Dict, List, Mapping, Sequence

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sim_static", "rt_static", "rt_churn", "wire_replay")
CHECKED = ("stable_continuity", "bytes_per_segment", "control_overhead")
COUNTS = (
    "swarm.msgs_sent",
    "swarm.bytes_on_wire",
    "dht.routing_msgs",
    "dht.prefetched_segments",
    "scheduler.scheduled_segments",
)
#: The fail rule's bounds on a continuity drop: of a cell's mean, and of
#: any one seed.
MEAN_DROP = 0.01
SEED_DROP = 0.03


def rows(history: Path) -> List[Dict]:
    """Every row of a JSON-lines history file, oldest first."""
    lines = history.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def last_row(history: Path) -> Dict:
    """The newest row of a JSON-lines history file."""
    return rows(history)[-1]


def measure(workload: str) -> Dict[str, float]:
    """One seed-0 run of ``workload``: its end-to-end metrics and the
    ``COUNTS`` it prints (``  name  value  unit`` lines), by name."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: bench/run.py exited {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    measured: Dict[str, float] = {}
    for line in lines[:-1]:
        parts = line.split()
        if parts and parts[0] in COUNTS:
            measured[parts[0]] = json.loads(parts[1])
    contract = json.loads(lines[-1])
    measured.update((name, metric["value"]) for name, metric in contract["metrics"].items())
    return measured


def mismatches(
    row: Mapping, measured: Mapping[str, Mapping[str, float]], workloads: Sequence[str]
) -> List[str]:
    """Every checked metric of ``workloads`` that is not exactly the row's;
    a count the row does not record is skipped."""
    problems = []
    for workload in workloads:
        recorded = row["workloads"][workload]
        for name in CHECKED + tuple(count for count in COUNTS if count in recorded):
            want = recorded[name]
            got = measured[workload].get(name)
            if got != want:
                problems.append(f"{workload}.{name}: history {want!r}, this tree {got!r}")
    return problems


def matrix_mismatches(recorded: Mapping, measured: Mapping) -> List[str]:
    """Every per-seed value of the ``recorded`` matrix (a history row's
    ``matrix``) that ``measured`` does not repeat exactly: each cell's
    continuity and each count the row records (older rows record none)."""
    problems = []
    if measured.get("seeds") != recorded["seeds"]:
        problems.append(f"matrix.seeds: history {recorded['seeds']!r}, "
                        f"this tree {measured.get('seeds')!r}")
    cells = measured.get("cells", {})
    for name in sorted(set(cells) - set(recorded["cells"])):
        problems.append(f"matrix[{name!r}]: not in the history row")
    for name, cell in recorded["cells"].items():
        for system, stats in cell.items():
            if system == "delta":  # derived from the continuity means
                continue
            got = cells.get(name, {}).get(system, {})
            checks = [("continuity", stats["by_seed"], got.get("by_seed"))]
            checks += [
                (count, value["by_seed"], got.get(count, {}).get("by_seed"))
                for count, value in stats.items()
                if isinstance(value, dict)
            ]
            problems += [
                f"matrix[{name!r}].{system}.{what}: history {want!r}, this tree {have!r}"
                for what, want, have in checks
                if have != want
            ]
    return problems


def matrix_drops(older: Mapping, newer: Mapping) -> List[str]:
    """Every cell/system whose continuity drops past the fail rule from
    ``older``'s matrix to ``newer``'s, paired by seed, unless ``newer``'s
    note declares the drop."""
    note = newer.get("note", "")
    before_cells = older["matrix"]["cells"]
    problems = []
    for name, cell in newer["matrix"]["cells"].items():
        for system, stats in cell.items():
            if system == "delta" or system not in before_cells.get(name, {}):
                continue
            before = dict(zip(older["matrix"]["seeds"], before_cells[name][system]["by_seed"]))
            after = dict(zip(newer["matrix"]["seeds"], stats["by_seed"]))
            seeds = [seed for seed in after if seed in before]
            if not seeds or f"drop: {name}/{system}" in note:
                continue
            old_mean = fmean(before[seed] for seed in seeds)
            new_mean = fmean(after[seed] for seed in seeds)
            worst = max(before[seed] - after[seed] for seed in seeds)
            if old_mean - new_mean > MEAN_DROP or worst > SEED_DROP:
                problems.append(
                    f"matrix[{name!r}].{system}: row {newer.get('commit')!r} drops the mean "
                    f"{old_mean:.4f} -> {new_mean:.4f}, a seed by up to {worst:.4f}, undeclared"
                )
    return problems


def history_drops(history: Path) -> List[str]:
    """The fail rule over the last two rows of ``history`` that carry a matrix."""
    matrices = [row for row in rows(history) if "matrix" in row]
    return matrix_drops(*matrices[-2:]) if len(matrices) > 1 else []


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--history", type=Path, default=ROOT / "BENCH_history.jsonl")
    parser.add_argument("--matrix", type=Path,
                        help="check this quality matrix JSON instead of running the workloads")
    args = parser.parse_args(argv)
    row = last_row(args.history)
    problems = history_drops(args.history)
    if args.matrix is not None:
        measured = json.loads(args.matrix.read_text(encoding="utf-8"))
        problems += matrix_mismatches(row["matrix"], measured)
        passed = f"matrix equals row {row['commit']!r}"
    else:
        try:
            measured = {workload: measure(workload) for workload in WORKLOADS}
        except RuntimeError as error:
            print(f"check_fingerprints: {error}", file=sys.stderr)
            return 2
        problems += mismatches(row, measured, WORKLOADS)
        passed = f"{', '.join(WORKLOADS)} equal row {row['commit']!r}"
    for problem in problems:
        print(f"check_fingerprints: {problem}", file=sys.stderr)
    if not problems:
        print(f"check_fingerprints: {passed}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
