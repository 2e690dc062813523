"""Experiment harness: one module per table/figure of the paper's evaluation.

Each module's ``run_*`` function takes its sizes, rounds and seed as
plain arguments and defaults to the paper's own sweep.  It names every
simulation as a :class:`~repro.scenarios.cell.Cell` — the ``static`` or
``paper-dynamic`` scenario, or a :class:`~repro.scenarios.spec.ScenarioSpec`
whose ``config_overrides`` set Fig. 9's ``M`` or an ablated parameter — and
runs it with :func:`~repro.scenarios.cell.run_cell`, the runner campaigns,
parity and the quality matrix use too.  The two scales a
figure runs at, ``small`` (laptop-sized) and ``paper``, are its row of
:data:`repro.experiments.figures.FIGURES`.  The CLI's figure commands and
``benchmarks/test_bench_figures.py`` both run that table; the benchmark
asserts the shape the paper reports at ``CONTINU_BENCH_SCALE``.
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
