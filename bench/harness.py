"""The measuring engine: timed regions, set-up samples, iterations → one result.

One process measures one workload.  The workload function (see
``bench.workloads``) performs one *iteration* — a complete closed-loop run
at the workload's fixed size — and the engine repeats whole iterations
until ``seconds`` of timed region have elapsed (always at least one), then
reports the median over iterations.  With tracing on, one more iteration
runs under the profiler and is folded into layers; the untraced iterations
before it are what the tracing overhead is measured against.

Measurement rules (the reasons are in ``README.md``):

* the timed region is the run call only; building the overlay / corpus and
  spawning processes is outside it and reported as ``setup_s``;
* CPU time is ``RUSAGE_SELF + RUSAGE_CHILDREN`` (user + system), so the
  cluster workload's reaped shard processes count; wall time is
  ``perf_counter``;
* nothing here touches a private attribute of the program, and every
  optional counter is looked up with :func:`maybe`, which yields ``None``
  rather than raising when a later change has removed it.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from bench import metrics, trace

Number = Optional[float]


# ------------------------------------------------------------------ small helpers
def maybe(obj: Any, *path: str) -> Any:
    """``obj.a["b"].c`` by attribute-or-key steps; ``None`` once a step is missing."""
    for step in path:
        if obj is None:
            return None
        obj = obj.get(step) if isinstance(obj, dict) else getattr(obj, step, None)
    return obj


def ratio(numerator: Number, denominator: Number) -> Number:
    """``numerator / denominator``, or ``None`` when either is missing or the base is 0."""
    if numerator is None or denominator is None or denominator == 0:
        return None
    return numerator / denominator


def by_kind(ledger: Any, table: str) -> Dict[str, float]:
    """A ``MessageLedger`` table (``"counts"`` / ``"bits"``) keyed by kind *name*."""
    return {
        str(getattr(kind, "value", kind)): value
        for kind, value in (maybe(ledger, table) or {}).items()
    }


def startup_periods(series: Sequence[float], rounds: int) -> int:
    """First period *t* whose window ``[t, t+5)`` averages ≥ 0.85; ``rounds`` if never."""
    window = metrics.STARTUP_WINDOW
    for start in range(len(series) - window + 1):
        if sum(series[start:start + window]) / window >= metrics.STARTUP_CONTINUITY:
            return start
    return rounds


def stable_ops(series: Sequence[float], sampled: Sequence[int]) -> tuple[int, int]:
    """``(attempted, not playing)`` peer·periods over the trailing third."""
    skip = (2 * len(series)) // 3
    attempted = sum(sampled[skip:])
    playing = sum(round(c * n) for c, n in zip(series[skip:], sampled[skip:]))
    return attempted, attempted - playing


def series_digest(series: Sequence[float]) -> str:
    return hashlib.sha256(",".join(repr(float(v)) for v in series).encode()).hexdigest()


def _cpu_split() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ----------------------------------------------------------------- the timed region
class Region:
    """Times (and, when tracing, profiles) exactly what runs inside ``with``."""

    def __init__(self, tracer: Optional[trace.Tracer]) -> None:
        self._tracer = tracer
        self.own_cpu_s = self.children_cpu_s = self.wall_s = 0.0

    @property
    def cpu_s(self) -> float:
        return self.own_cpu_s + self.children_cpu_s

    def __enter__(self) -> "Region":
        self._own0, self._kids0 = _cpu_split()
        self._wall0 = time.perf_counter()
        if self._tracer is not None:
            self._tracer.enable()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._tracer is not None:
            self._tracer.disable()
        self.wall_s = time.perf_counter() - self._wall0
        own, kids = _cpu_split()
        self.own_cpu_s = own - self._own0
        self.children_cpu_s = kids - self._kids0


@dataclass(frozen=True)
class Scale:
    """Workload sizes.  ``full`` is the benchmark; ``toy`` is the contract test's."""

    name: str
    rt_static: tuple[int, int]  # peers, periods
    rt_churn: tuple[int, int]
    sim_static: tuple[int, int]
    cluster: tuple[int, int, float]  # peers, periods, time_scale
    #: Extra one-period clusters spawned only to sample spawn/handshake/teardown.
    cluster_probes: int
    wire_blocks: int  # peer·periods of traffic in the codec corpus
    setup_repeats: int

    @property
    def full(self) -> bool:
        return self.name == "full"


SCALES = {
    "full": Scale("full", (200, 40), (120, 40), (200, 60), (120, 30, 0.4), 2, 1800, 5),
    "toy": Scale("toy", (20, 4), (20, 4), (20, 4), (20, 3, 0.2), 0, 36, 1),
}


class Run:
    """What a workload function needs from the engine for one process."""

    def __init__(self, program: Any, seed: int, scale: Scale) -> None:
        #: The program's stable surface (``workloads.load_program``).
        self.program = program
        self.seed = seed
        self.scale = scale
        self.tracer: Optional[trace.Tracer] = None
        self.setup_samples: List[float] = []
        self._kept: Dict[str, Any] = {}

    def build(self, factory: Callable[[], Any], keep_as: Optional[str] = None) -> Any:
        """Set up outside the timed region, timing each set-up as a sample.

        The first call sets up ``scale.setup_repeats`` times (fresh objects,
        all but the last dropped) so ``setup_s`` is a median, not one draw.
        ``keep_as`` names an input that iterations may share (the codec
        corpus): it is built on the first call and returned afterwards.
        """
        if keep_as is not None and keep_as in self._kept:
            return self._kept[keep_as]
        built = None
        for _ in range(self.scale.setup_repeats if not self.setup_samples else 1):
            built = None  # drop the previous one before building the next
            start = time.perf_counter()
            built = factory()
            self.setup_samples.append(time.perf_counter() - start)
        if keep_as is not None:
            self._kept[keep_as] = built
        return built

    def region(self) -> Region:
        return Region(self.tracer)


@dataclass
class Iteration:
    """One complete run of a workload, as the workload function reports it."""

    region: Region
    #: Units of work done: peer·periods, delivered segments, and messages
    #: sent (``None`` where the engine has no wire).
    peer_periods: int
    segments: int
    msgs: Optional[int]
    #: End-to-end values other than the throughputs, ``setup_s`` and
    #: ``peak_rss_mb``, which the engine derives.
    quality: Dict[str, float]
    #: Exact per-layer counters of this (untraced) iteration.
    counters: Dict[str, Number] = field(default_factory=dict)
    #: What must repeat exactly for a seed (``None``: wall-clock workload).
    fingerprint: Optional[Dict[str, Any]] = None
    ops_attempted: int = 0
    #: Quality misses (peer·periods not playing; frames that did not survive).
    ops_failed: int = 0
    #: Operations the program lost outright (a dead shard's peer·periods,
    #: codec mismatches) — the contract line's ``failed``.
    ops_lost: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    frames: Optional[int] = None  # wire_replay: frames encoded + decoded


def _median(values: Sequence[Number]) -> Number:
    present = [v for v in values if v is not None]
    return statistics.median(present) if present and len(present) == len(values) else None


#: Boundary entry points, found in the profile by file and public name:
#: ``(calls metric, cumulative-seconds metric or None, path suffix, function)``.
ENTRY_POINTS = (
    ("wire.encode_calls", "wire.encode_cum_s", "repro/runtime/wire.py", "encode"),
    ("wire.decode_calls", "wire.decode_cum_s", "repro/runtime/wire.py", "decode"),
    ("wire.encode_batch_calls", None, "repro/runtime/wire.py", "encode_batch"),
    ("links.send_calls", None, "repro/runtime/cluster/links.py", "send"),
    ("transport.inbox_put_calls", None, "repro/runtime/transport.py", "put"),
    ("scheduler.plan_calls", "scheduler.plan_cum_s", "repro/core/scheduler.py", "schedule"),
    ("dht.overhear_calls", None, "repro/membership/overhearing.py", "overhear_path"),
    ("loop.callbacks", None, "asyncio/events.py", "_run"),
    ("loop.timers", None, "asyncio/base_events.py", "call_at"),
    ("loop.heap_compares", None, "asyncio/events.py", "__lt__"),
)


def profile_metrics(stats: dict, traced: Iteration, untraced_cpu_s: float) -> Dict[str, Number]:
    """What one traced iteration's profile says: layer costs, call counts, entry points."""
    out: Dict[str, Number] = {}
    folded = trace.fold(stats)
    total_self = sum(bucket["self_s"] for bucket in folded.values())
    for layer in trace.LAYER_NAMES:
        out[f"{layer}.self_s"] = folded[layer]["self_s"]
        out[f"{layer}.calls"] = folded[layer]["calls"]
        out[f"{layer}.self_share"] = ratio(folded[layer]["self_s"], total_self)
    calls = trace.total_calls(stats)
    out["trace.py_calls_per_peer_period"] = ratio(calls, traced.peer_periods)
    out["trace.py_calls_per_msg"] = ratio(calls, traced.msgs)
    out["trace.overhead_ratio"] = ratio(traced.region.cpu_s, untraced_cpu_s)
    out["trace.unattributed_share"] = ratio(folded[trace.UNATTRIBUTED]["self_s"], total_self)
    out["trace.folded_over_cpu"] = ratio(total_self, traced.region.cpu_s)
    for calls_name, cum_name, suffix, function in ENTRY_POINTS:
        found = trace.entry_point(stats, suffix, [function])
        out[calls_name] = found[0] if found else None
        if cum_name is not None:
            out[cum_name] = found[1] if found else None
    return out


def fold_checks(records: Sequence[Dict[str, bool]]) -> Dict[str, bool]:
    """A check passes only if it passed in every record that made it."""
    checks: Dict[str, bool] = {}
    for record in records:
        for name, passed in record.items():
            checks[name] = checks.get(name, True) and passed
    return checks


def measure(
    workload: Callable[[Run], Iteration],
    program: Any,
    import_s: float,
    seed: int,
    seconds: float,
    traced: bool,
    scale: Scale,
    profiled: bool = True,
) -> Dict[str, Any]:
    """Run one workload in this process and return its full result record.

    A traced run makes exactly one untraced iteration before the profiled
    one, whatever ``seconds`` says: the interpreter specialises bytecode as
    it runs, and which built-in calls the profiler gets to see depends on
    that history, so the call counts only repeat exactly if the history does.
    ``profiled=False`` marks a workload whose work runs in child processes:
    its traced pass adds no profiled iteration and reports counters only.
    """
    run = Run(program, seed, scale)
    if traced:
        seconds = 0.0
    iterations: List[Iteration] = []
    while not iterations or sum(it.region.wall_s for it in iterations) < seconds:
        iterations.append(workload(run))
    # Read before the traced iteration inflates it with the profiler's tables.
    rss = peak_rss_mb()

    cpu = [it.region.cpu_s for it in iterations]
    end_to_end: Dict[str, Number] = {
        "peer_periods_per_cpu_s": _median([ratio(it.peer_periods, it.region.cpu_s) for it in iterations]),
        "segments_per_cpu_s": _median([ratio(it.segments, it.region.cpu_s) for it in iterations]),
        "wall_s": _median([it.region.wall_s for it in iterations]),
        "setup_s": import_s + statistics.median(run.setup_samples),
        "peak_rss_mb": rss,
    }
    if iterations[0].frames is not None:
        end_to_end["frames_per_cpu_s"] = _median([ratio(it.frames, it.region.cpu_s) for it in iterations])
    for name in iterations[0].quality:
        end_to_end[name] = _median([it.quality[name] for it in iterations])

    counters = {
        name: _median([it.counters.get(name) for it in iterations]) for name in iterations[0].counters
    }
    counters["swarm.msgs_per_cpu_s"] = _median([ratio(it.msgs, it.region.cpu_s) for it in iterations])
    for name, layer_name in metrics.SUITE_ONLY_AS_PER_LAYER.items():
        counters[layer_name] = end_to_end.get(name)

    per_layer = None
    every = list(iterations)
    if traced:
        # None = not applicable to this workload, or no longer in the program.
        per_layer = dict.fromkeys(metrics.PER_LAYER_UNITS)
        per_layer.update(counters)
        if profiled:
            run.tracer = trace.Tracer()
            every.append(workload(run))
            per_layer.update(profile_metrics(run.tracer.stats(), every[-1], statistics.median(cpu)))

    checks = fold_checks([it.checks for it in every])
    prints = [it.fingerprint for it in every if it.fingerprint is not None]
    if len(prints) > 1:
        checks["iterations_identical"] = all(p == prints[0] for p in prints)

    correct = all(checks.values())
    attempted = sum(it.ops_attempted for it in iterations)
    stable = end_to_end.get("stable_continuity")
    return {
        "seed": seed,
        "scale": scale.name,
        "traced": traced,
        "iterations": len(iterations),
        "end_to_end": end_to_end,
        "valid_at_bar": stable is not None and stable >= metrics.CONTINUITY_BAR,
        "per_layer": per_layer,
        "counters": counters,
        "raw": {
            "cpu_s": cpu,
            "wall_s": [it.region.wall_s for it in iterations],
            "setup_s": run.setup_samples,
            "import_s": import_s,
        },
        "fingerprint": prints[0] if prints else None,
        "ops_attempted": attempted,
        "ops_failed": sum(it.ops_failed for it in iterations),
        # A failed output check fails every operation of the run.
        "ops_lost": sum(it.ops_lost for it in iterations) if correct else attempted,
        "checks": checks,
        "correct": correct,
    }
