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

Usage::

    python3 tools/check_fingerprints.py [--history BENCH_history.jsonl]

Exit status: 0 equal, 1 a value differs, 2 a benchmark run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
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


def last_row(history: Path) -> Dict:
    """The newest row of a JSON-lines history file."""
    lines = [line for line in history.read_text(encoding="utf-8").splitlines() if line.strip()]
    return json.loads(lines[-1])


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


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--history", type=Path, default=ROOT / "BENCH_history.jsonl")
    args = parser.parse_args(argv)
    row = last_row(args.history)
    try:
        measured = {workload: measure(workload) for workload in WORKLOADS}
    except RuntimeError as error:
        print(f"check_fingerprints: {error}", file=sys.stderr)
        return 2
    problems = mismatches(row, measured, WORKLOADS)
    for problem in problems:
        print(f"check_fingerprints: {problem}", file=sys.stderr)
    if not problems:
        print(f"check_fingerprints: {', '.join(WORKLOADS)} equal row {row['commit']!r}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
