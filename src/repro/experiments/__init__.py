"""Experiment harness: one module per table/figure of the paper's evaluation.

Every experiment function takes a scale knob so it can run both at the
paper's sizes (hundreds to thousands of nodes, 30+ rounds) and at a
laptop-friendly scale for CI and the benchmark suite.  The
``benchmarks/test_bench_fig*`` and ``test_bench_table_theory`` modules
regenerate each figure/table at either scale (``CONTINU_BENCH_SCALE``)
and assert the shape the paper reports.
"""

from repro.experiments.fig3_dht import Fig3Point, run_fig3_dht
from repro.experiments.fig5_6_track import TrackResult, run_continuity_track
from repro.experiments.fig7_8_scale import ScalePoint, run_scale_sweep
from repro.experiments.fig9_control import ControlOverheadPoint, run_control_overhead
from repro.experiments.fig10_11_prefetch import (
    PrefetchOverheadPoint,
    run_prefetch_overhead_scale,
    run_prefetch_overhead_track,
)
from repro.experiments.table_theory import TheoryRow, run_theory_table

__all__ = [
    "run_fig3_dht",
    "Fig3Point",
    "run_theory_table",
    "TheoryRow",
    "run_continuity_track",
    "TrackResult",
    "run_scale_sweep",
    "ScalePoint",
    "run_control_overhead",
    "ControlOverheadPoint",
    "run_prefetch_overhead_track",
    "run_prefetch_overhead_scale",
    "PrefetchOverheadPoint",
]
