"""The figure table: one row per experiment of the paper's evaluation.

A :class:`Figure` row (Fig. 3, the Section 5.1 table, Figs. 5-11, the
ablations) holds an id, an adapter onto its module's ``run_*`` function,
the module's ``format_*`` and one :class:`Params` record per scale:
``small``, the laptop-sized record the benchmark suite checks, and
``paper``, the paper's own sweep (slow; unmeasured beyond n = 1000).
The CLI's figure commands and ``benchmarks/test_bench_figures.py`` both
run a row as :meth:`Figure.resolve` → ``run`` → ``format``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Tuple

from repro.core.config import SystemConfig
from repro.experiments import ablations, fig3_dht, fig5_6_track, fig7_8_scale
from repro.experiments import fig9_control, fig10_11_prefetch, table_theory

#: The scales every row has a record for.
SCALES = ("small", "paper")


@dataclass(frozen=True)
class Params:
    """One scale's parameters of a figure; ``None`` marks one it does not take."""

    nodes: Optional[int] = None
    sizes: Optional[Tuple[int, ...]] = None
    rounds: Optional[int] = None
    lookups: Optional[int] = None
    seed: int = 0

    def config(self) -> SystemConfig:
        return SystemConfig(num_nodes=self.nodes, rounds=self.rounds, seed=self.seed)


@dataclass(frozen=True)
class Figure:
    """One experiment: how to run it, how to print it, and its two scales."""

    id: str
    run: Callable[[Params], Any]
    format: Callable[[Any], str]
    small: Params
    paper: Params

    def resolve(self, scale: str = "small", **given: Any) -> Params:
        """The ``scale`` record with every given value laid over it.

        A value of ``None`` was not given; a value for a parameter the
        figure does not take is ignored.
        """
        if scale not in SCALES:
            raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
        record = getattr(self, scale)
        return replace(record, **{
            name: value for name, value in given.items()
            if value is not None and getattr(record, name) is not None
        })


def _track(dynamic: bool) -> Callable[[Params], Any]:
    return lambda p: fig5_6_track.run_continuity_track(
        num_nodes=p.nodes, rounds=p.rounds, dynamic=dynamic, seed=p.seed
    )


def _sweep(dynamic: bool) -> Callable[[Params], Any]:
    return lambda p: fig7_8_scale.run_scale_sweep(
        sizes=p.sizes, dynamic=dynamic, rounds=p.rounds, seed=p.seed
    )


def _format_table(rows) -> str:
    measured = table_theory.format_theory_table(rows)
    reference = table_theory.format_theory_table(table_theory.paper_reference_rows())
    return f"measured:\n{measured}\n\npaper reference:\n{reference}"


_TRACK = dict(small=Params(nodes=200, rounds=35), paper=Params(nodes=1000, rounds=30))
_SWEEP = dict(
    small=Params(sizes=(80, 150, 250), rounds=30),
    paper=Params(sizes=fig7_8_scale.PAPER_SIZES, rounds=40),
)

#: Every figure experiment, in the order ``all`` runs them.
FIGURES: Tuple[Figure, ...] = (
    Figure(
        "fig3",
        lambda p: fig3_dht.run_fig3_dht(p.sizes, lookups_per_size=p.lookups, seed=p.seed),
        fig3_dht.format_fig3,
        small=Params(sizes=(200, 500, 1000), lookups=500),
        paper=Params(sizes=fig3_dht.PAPER_NODE_COUNTS, lookups=2000),
    ),
    Figure(
        "table",
        lambda p: table_theory.run_theory_table(p.config()),
        _format_table,
        small=Params(nodes=150, rounds=30),
        paper=Params(nodes=1000, rounds=40),
    ),
    Figure("fig5", _track(False), fig5_6_track.format_track, **_TRACK),
    Figure("fig6", _track(True), fig5_6_track.format_track, **_TRACK),
    Figure("fig7", _sweep(False), fig7_8_scale.format_scale_sweep, **_SWEEP),
    Figure("fig8", _sweep(True), fig7_8_scale.format_scale_sweep, **_SWEEP),
    Figure(
        "fig9",
        lambda p: fig9_control.run_control_overhead(p.sizes, rounds=p.rounds, seed=p.seed),
        fig9_control.format_control_overhead,
        small=Params(sizes=(80, 150), rounds=25),
        paper=Params(sizes=fig9_control.PAPER_SIZES, rounds=30),
    ),
    Figure(
        "fig10",
        lambda p: fig10_11_prefetch.run_prefetch_overhead_track(
            p.nodes, rounds=p.rounds, seed=p.seed
        ),
        fig10_11_prefetch.format_prefetch_track,
        small=Params(nodes=150, rounds=30),
        paper=Params(nodes=1000, rounds=30),
    ),
    Figure(
        "fig11",
        lambda p: fig10_11_prefetch.run_prefetch_overhead_scale(
            p.sizes, rounds=p.rounds, seed=p.seed
        ),
        fig10_11_prefetch.format_prefetch_scale,
        small=Params(sizes=(80, 150, 250), rounds=25),
        paper=Params(sizes=fig10_11_prefetch.PAPER_SIZES, rounds=30),
    ),
    Figure(
        "ablations",
        lambda p: ablations.run_ablations(p.config()),
        ablations.format_ablations,
        small=Params(nodes=120, rounds=25),
        paper=Params(nodes=500, rounds=40),
    ),
)
