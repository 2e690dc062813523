"""The benchmark's one command.

Two ways in, one measuring path:

* **One workload, one process** — what ``BENCHMARK.json``'s ``command``
  runs: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.
  Prints every metric by name with its unit, then — as the last line of
  standard output — one JSON object with exactly the keys ``correct``,
  ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
  ``--trace 0``, the per-layer metrics with ``--trace 1``).  The command
  itself only supervises: the workload is measured in one worker process
  (``PYTHONHASHSEED=0``, its own session), and the command returns only
  after the worker and every process the worker started — the cluster's
  shards, ``multiprocessing``'s resource tracker — has ended and been
  waited for, on every path out (see :func:`supervise`).
* **The whole suite** — ``python -m bench.run --seed 0 --out result.json``:
  every workload as above in a fresh subprocess, ``--repeats`` times
  round-robin (w1, w2, …, w1, w2, …, so a noisy minute cannot land on all
  repeats of one workload), then one traced pass per workload; verifies that
  same-seed repeats are identical and writes one result file that
  ``bench.compare`` reads.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    # Run as a script: make the ``bench`` package importable and keep its
    # files (``trace.py``) from shadowing standard-library modules.
    _here = str(Path(__file__).resolve().parent)
    sys.path[:] = [entry for entry in sys.path if entry != _here]
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))

from bench import harness, metrics  # noqa: E402

#: A workload's worker process that runs longer than this is killed, with
#: everything it started, and the workload is marked failed.  The command on
#: its own stays inside the contract's 180 s, reaping included; the suite is
#: more patient.
COMMAND_TIMEOUT_S = 160.0
DEFAULT_TIMEOUT_S = 600.0
DEFAULT_REPEATS = 3
#: How long :func:`reap` keeps killing and collecting stragglers.
REAP_S = 15.0
STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)


# ------------------------------------------------------------- one workload, here
def contract_line(result: Dict[str, Any]) -> str:
    """The driver's result object: exactly four keys, every value a number."""
    if result["traced"]:
        # "Not applicable to this workload" and "function no longer exists"
        # are null in the result file; the contract wants a number, and the
        # count of calls / seconds observed under that name is 0.
        values = {
            name: (result["per_layer"].get(name) or 0, unit)
            for name, unit in metrics.PER_LAYER_UNITS.items()
        }
    else:
        values = {m.name: (result["end_to_end"][m.name], m.unit) for m in metrics.CONTRACT_END_TO_END}
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": max(1, result["ops_attempted"]),
            "failed": result["ops_lost"],
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
        }
    )


def report(name: str, result: Dict[str, Any]) -> None:
    """Every metric by name, with its unit."""
    print(
        f"{name} seed={result['seed']} scale={result['scale']} iterations={result['iterations']} "
        f"valid_at_bar={result['valid_at_bar']} ops_failed={result['ops_failed']}/{result['ops_attempted']} "
        f"checks={result['checks']}"
    )
    for metric in metrics.END_TO_END:
        if metric.name in result["end_to_end"]:
            print(f"  {metric.name:<36} {result['end_to_end'][metric.name]!r:>24} {metric.unit}")
    table = result["per_layer"] if result["traced"] else result["counters"]
    for layer_name, value in table.items():
        if value is not None:
            print(f"  {layer_name:<36} {value!r:>24} {metrics.PER_LAYER_UNITS.get(layer_name, '')}")


def adopted_children() -> List[int]:
    """Pids whose parent is this process (children, and orphans adopted as subreaper)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text(encoding="ascii", errors="replace")
            except OSError:
                continue  # ended while we were listing
            if int(stat.rsplit(")", 1)[1].split()[1]) == me:
                found.append(int(entry))
    return found


def reap(worker: subprocess.Popen) -> None:
    """Kill what is left of the worker's session, then wait for every process of it.

    The worker's own children (the shards) are waited for by the program.
    What outlives the worker — the resource tracker, a shard after a crash —
    is orphaned, lands on this process (a subreaper) and is collected here,
    so nothing of a run is alive, or a zombie, once the command returns.
    """
    for signum in STOP_SIGNALS:
        signal.signal(signum, signal.SIG_IGN)  # nothing may cut this short
    try:
        os.killpg(worker.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass  # the whole session has already ended
    worker.wait()
    deadline = time.monotonic() + REAP_S
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no process of ours is left
        if pid == 0:
            # Alive, and outside the session that was just killed.
            for straggler in adopted_children():
                try:
                    os.kill(straggler, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.01)
    print(f"bench: processes {adopted_children()} would not end", file=sys.stderr)


def supervise(args: argparse.Namespace, argv: List[str]) -> int:
    """Measure one workload in a worker process; return once all of it has ended."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: the program's source is not at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        # PR_SET_CHILD_SUBREAPER: orphaned descendants become our children.
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: killing the worker's session is all there is

    def interrupted(signum, _frame):
        raise SystemExit(128 + signum)

    for signum in STOP_SIGNALS:
        signal.signal(signum, interrupted)
    # str hashes steer set order and dict probing; pin them so a seed means
    # the same work, and costs the same, in every worker.
    worker = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv, "--worker"],
        cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"), start_new_session=True,
    )
    timeout_s = args.timeout or COMMAND_TIMEOUT_S
    try:
        code = worker.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print(f"bench: {args.workload} exceeded {timeout_s:g} s; killing it", file=sys.stderr)
        code = 1
    finally:
        reap(worker)
    return code if code >= 0 else 1


def run_one(args: argparse.Namespace) -> int:
    """The worker: measure, print every metric, end with the result object."""
    try:
        # PR_SET_PDEATHSIG: do not outlive a supervisor that was killed outright.
        ctypes.CDLL(None, use_errno=True).prctl(1, int(signal.SIGKILL), 0, 0, 0)
    except (OSError, AttributeError):
        pass
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from bench import workloads

    program, import_s = workloads.load_program()
    result = harness.measure(
        workloads.WORKLOADS[args.workload],
        program,
        import_s,
        args.seed,
        args.seconds,
        bool(args.trace),
        harness.SCALES[args.scale],
        profiled=args.workload not in workloads.UNPROFILED,
    )
    report(args.workload, result)
    if args.detail:
        Path(args.detail).write_text(json.dumps(result), encoding="utf-8")
    print(contract_line(result), flush=True)
    return 0 if result["correct"] else 1


# ------------------------------------------------------------------- the suite
def environment(seed: int) -> Dict[str, Any]:
    def quiet(command: List[str]) -> Optional[str]:
        try:
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    numpy_version = quiet([sys.executable, "-c", "import numpy; print(numpy.__version__)"])
    return {
        "commit": quiet(["git", "rev-parse", "HEAD"]),
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "network": "cluster_2shard runs over 127.0.0.1 (host loopback); no real link is measured",
    }


def spawn(workload: str, seed: int, seconds: float, traced: bool, scale: str, timeout_s: float,
          scratch: Path) -> Optional[Dict[str, Any]]:
    """One workload through the one-workload command; ``None`` if it timed out or died."""
    detail = scratch / f"{workload}.json"
    detail.unlink(missing_ok=True)
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(traced)), "--scale", scale,
        "--detail", str(detail), "--timeout", str(timeout_s),
    ]
    # The command enforces the timeout and reaps the worker, the cluster's
    # shards included; it is only ever asked (SIGTERM) to stop, never killed,
    # so that it can.
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        child.wait(timeout=timeout_s + 2 * REAP_S)
    except subprocess.TimeoutExpired:
        child.terminate()
        child.wait()
    # Written last by the worker: there only if the workload ran to its end.
    return json.loads(detail.read_text(encoding="utf-8")) if detail.exists() else None


def spread(values: List[float]) -> Dict[str, Any]:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values), "values": values}


def summarise(name: str, runs: List[Optional[Dict[str, Any]]], traced: Optional[Dict[str, Any]],
              traced_ran: bool) -> Dict[str, Any]:
    """Fold one workload's repeats (``None`` = timed out) and traced pass."""
    done = [run for run in runs if run is not None]
    checks: Dict[str, bool] = {"every_repeat_finished": len(done) == len(runs) and bool(runs)}
    if traced_ran:
        checks["traced_pass_finished"] = traced is not None
    finished = done + ([traced] if traced else [])
    checks.update(harness.fold_checks([run["checks"] for run in finished]))
    prints = [run["fingerprint"] for run in finished]
    if prints and prints[0] is not None:
        checks["repeats_identical"] = all(p == prints[0] for p in prints)

    end_to_end = {}
    for metric in metrics.END_TO_END:
        values = [run["end_to_end"][metric.name] for run in done if metric.name in run["end_to_end"]]
        if values:
            end_to_end[metric.name] = dict(spread(values), unit=metric.unit)
    attempted = sum(run["ops_attempted"] for run in done)
    stable = end_to_end.get("stable_continuity", {}).get("median")
    at_bar = stable is not None and stable >= metrics.CONTINUITY_BAR
    if name in metrics.MUST_BE_AT_BAR and done and done[0]["scale"] == "full":
        checks["valid_at_bar"] = at_bar
    correct = all(checks.values())
    return {
        "workload": name,
        "correct": correct,
        "checks": checks,
        "valid_at_bar": at_bar,
        "end_to_end": end_to_end,
        "per_layer": traced["per_layer"] if traced else None,
        "ops_attempted": attempted,
        "ops_failed": sum(run["ops_failed"] for run in done),
        # A workload that failed a check or never finished lost all its work.
        "ops_lost": sum(run["ops_lost"] for run in done) if correct else max(1, attempted),
        "fingerprint": prints[0] if prints else None,
        "repeats": done,
    }


def run_suite(args: argparse.Namespace) -> int:
    timeout_s = args.timeout or DEFAULT_TIMEOUT_S
    names = args.workloads.split(",") if args.workloads else [name for name, _ in metrics.WORKLOADS]
    out = Path(args.out).resolve()
    out.parent.mkdir(parents=True, exist_ok=True)
    repeats: Dict[str, List[Optional[Dict[str, Any]]]] = {name: [] for name in names}
    traced: Dict[str, Optional[Dict[str, Any]]] = {}
    record: Dict[str, Any] = {"environment": environment(args.seed), "workloads": {}}
    started = time.perf_counter()

    def flush() -> None:
        # After every subprocess, so a timeout or a crash later still leaves
        # everything measured so far on disk.
        record["workloads"] = {
            name: summarise(name, repeats[name], traced.get(name), name in traced) for name in names
        }
        record["elapsed_s"] = time.perf_counter() - started
        out.write_text(json.dumps(record, indent=1), encoding="utf-8")

    with tempfile.TemporaryDirectory(dir=out.parent, prefix=".bench-") as scratch:
        for repeat in range(args.repeats):
            for name in names:
                print(f"[{repeat + 1}/{args.repeats}] {name}", flush=True)
                repeats[name].append(
                    spawn(name, args.seed, args.seconds, False, args.scale, timeout_s, Path(scratch))
                )
                flush()
        for name in names:
            print(f"[traced] {name}", flush=True)
            traced[name] = spawn(name, args.seed, args.seconds, True, args.scale, timeout_s,
                                 Path(scratch))
            flush()

    failed = False
    for name in names:
        summary = record["workloads"][name]
        failed = failed or not summary["correct"]
        print(f"\n{name}: correct={summary['correct']} valid_at_bar={summary['valid_at_bar']} "
              f"ops_failed={summary['ops_failed']}/{summary['ops_attempted']} "
              f"ops_lost={summary['ops_lost']} checks={summary['checks']}")
        for metric_name, row in summary["end_to_end"].items():
            print(f"  {metric_name:<36} median {row['median']:<22.10g} min {row['min']:<14.6g} "
                  f"max {row['max']:<14.6g} n={row['n']} {row['unit']}")
        for layer_name, value in (summary["per_layer"] or {}).items():
            if value is not None:  # null (not applicable / no longer exists) stays in the file
                print(f"  {layer_name:<36} {value:<29.10g} {metrics.PER_LAYER_UNITS.get(layer_name, '')}")
    print(f"\nresult: {out}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    names = [name for name, _ in metrics.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names, help="measure this one workload in this process")
    parser.add_argument("--seed", type=int, default=0, help="feeds every generated input (held-out seed: 1)")
    parser.add_argument("--seconds", type=float, default=float(metrics.RUN_SECONDS),
                        help="repeat whole iterations until this much timed region has elapsed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a profiled iteration and report the per-layer metrics")
    parser.add_argument("--out", help="suite mode: write the result file here")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS, help="suite mode: untraced repeats")
    parser.add_argument("--workloads", help="suite mode: comma-separated subset")
    parser.add_argument("--timeout", type=float,
                        help=f"seconds before a workload's worker process is killed "
                             f"(one workload: {COMMAND_TIMEOUT_S:g}, suite: {DEFAULT_TIMEOUT_S:g})")
    parser.add_argument("--scale", choices=sorted(harness.SCALES), default="full", help=argparse.SUPPRESS)
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args) if args.worker else supervise(args, argv)
    if not args.out:
        parser.error("give --workload (one workload) or --out (the whole suite)")
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
