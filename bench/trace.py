"""The traced pass: fold a ``cProfile`` run into per-layer costs, from outside.

Nothing in ``src/`` is patched or imported here.  A workload's timed region
runs under :class:`cProfile.Profile`; every profiled function is then filed
under a layer **by the path of the module that defines it**, so renaming or
deleting a private function cannot break the split — only moving a file
can, and a file that matches no layer shows up in ``unattributed`` instead
of being silently mis-filed.

Built-in and standard-library rows (``list.append``, ``struct.pack``,
dataclass-generated ``__init__``, numpy, ...) are not layers of their own:
each is charged to the layers of the functions that called it, edge by
edge through the profile's ``callers`` table, so ``wire`` pays for the
``struct`` calls it makes and ``loop`` for the task steps it drives.
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

#: ``(file, line, function name)`` — how ``pstats`` keys a profiled function.
FuncKey = Tuple[str, int, str]

UNATTRIBUTED = "unattributed"
#: The harness's own frames (replay loops, output checks inside the region).
BENCH = "bench"

#: layer → path prefixes relative to the ``repro`` package.  First match
#: wins, so the specific files are listed before the directories they sit in.
REPRO_LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("wire", ("runtime/wire.py",)),
    ("links", ("runtime/cluster/links.py",)),
    ("cluster", ("runtime/cluster/",)),
    ("transport", ("runtime/transport.py",)),
    ("peer", ("runtime/peer.py",)),
    ("swarm", ("runtime/swarm.py", "runtime/slim.py")),
    ("loop", ("runtime/clock.py",)),
    (
        "scheduler",
        (
            "core/scheduler.py",
            "core/node.py",
            "core/urgent_line.py",
            "core/rate_controller.py",
            "core/continu.py",
            "core/baseline.py",
        ),
    ),
    (
        "dht",
        ("dht/", "membership/", "core/backup.py", "core/ondemand.py", "core/phases/ondemand.py"),
    ),
    ("streaming", ("streaming/",)),
    ("net", ("net/",)),
    ("overlay", ("core/overlay.py",)),
    ("sim", ("sim/", "core/system.py", "core/phases/")),
    ("obs", ("obs/",)),
)

#: Standard-library modules that *are* a layer: the event loop's machinery.
STDLIB_LOOP = ("/asyncio/", "/selectors.py", "/heapq.py")

LAYER_NAMES: Tuple[str, ...] = tuple(name for name, _ in REPRO_LAYERS) + (BENCH,)

_BENCH_DIR = str(Path(__file__).resolve().parent).replace("\\", "/") + "/"


def layer_of(path: str) -> Optional[str]:
    """The layer a source file belongs to.

    ``None`` means "not a layer of its own — charge it to its callers"
    (built-ins, the standard library, site-packages).  A file inside the
    ``repro`` package that no rule names is :data:`UNATTRIBUTED`.
    """
    path = path.replace("\\", "/")
    cut = path.rfind("/repro/")
    if cut >= 0:
        relative = path[cut + len("/repro/"):]
        for layer, prefixes in REPRO_LAYERS:
            if relative.startswith(prefixes):
                return layer
        return UNATTRIBUTED
    if any(marker in path for marker in STDLIB_LOOP):
        return "loop"
    if path.startswith(_BENCH_DIR):
        return BENCH
    return None


class Tracer:
    """Profiles whatever runs between :meth:`enable` and :meth:`disable`."""

    def __init__(self) -> None:
        self._profile = cProfile.Profile()
        self.enable = self._profile.enable
        self.disable = self._profile.disable

    def stats(self) -> Dict[FuncKey, tuple]:
        """``{func: (primitive calls, calls, self s, cumulative s, callers)}``."""
        return pstats.Stats(self._profile).stats  # type: ignore[attr-defined]


def fold(stats: Dict[FuncKey, tuple]) -> Dict[str, Dict[str, float]]:
    """Per-layer ``{"self_s": ..., "calls": ...}`` for one profile.

    Every row's self time and call count end up in exactly one bucket per
    calling edge, so the buckets sum to the profile's totals.
    """
    totals = {name: {"self_s": 0.0, "calls": 0.0} for name in LAYER_NAMES + (UNATTRIBUTED,)}
    memo: Dict[FuncKey, Tuple[Dict[str, float], Dict[str, float]]] = {}

    def shares(func: FuncKey, trail: Tuple[FuncKey, ...]):
        """(time shares, call shares) over layers for one function's cost."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}, {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        if not callers:
            # No caller on record: it was called from the frame that switched
            # the profiler on, which is the harness's.
            return {BENCH: 1.0}, {BENCH: 1.0}
        if func in trail:
            # A cycle of unlayered functions has nobody to charge: say so
            # rather than guess.
            return {UNATTRIBUTED: 1.0}, {UNATTRIBUTED: 1.0}
        edge_calls = sum(edge[0] for edge in callers.values())
        edge_time = sum(edge[2] for edge in callers.values())
        time_shares: Dict[str, float] = {}
        call_shares: Dict[str, float] = {}
        for caller in sorted(callers):
            calls, _, self_s, _ = callers[caller]
            by_calls = calls / edge_calls if edge_calls else 1.0 / len(callers)
            by_time = self_s / edge_time if edge_time > 0 else by_calls
            caller_time, caller_calls = shares(caller, trail + (func,))
            for name, share in caller_time.items():
                time_shares[name] = time_shares.get(name, 0.0) + by_time * share
            for name, share in caller_calls.items():
                call_shares[name] = call_shares.get(name, 0.0) + by_calls * share
        memo[func] = (time_shares, call_shares)
        return memo[func]

    for func in sorted(stats):
        _, calls, self_s, _, _ = stats[func]
        time_shares, call_shares = shares(func, ())
        for name, share in time_shares.items():
            totals[name]["self_s"] += self_s * share
        for name, share in call_shares.items():
            totals[name]["calls"] += calls * share
    return totals


def total_calls(stats: Dict[FuncKey, tuple]) -> int:
    """Every profiled call, built-ins included (``pstats``' "function calls")."""
    return sum(row[1] for row in stats.values())


def entry_point(
    stats: Dict[FuncKey, tuple], path_suffix: str, names: Iterable[str]
) -> Optional[Tuple[int, float]]:
    """``(calls, cumulative seconds)`` of a public function, by file and name.

    Sums every profiled function called one of ``names`` in a file whose
    path ends with ``path_suffix`` (two classes' ``send`` in one module
    count together).  ``None`` when the profile holds no such function —
    it was renamed, removed, or this workload never reaches it.
    """
    wanted = set(names)
    calls, cumulative, found = 0, 0.0, False
    for (path, _, name), row in stats.items():
        if name in wanted and path.replace("\\", "/").endswith(path_suffix):
            calls += row[1]
            cumulative += row[3]
            found = True
    return (calls, cumulative) if found else None
