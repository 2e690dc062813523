"""The paper's evaluation as one benchmark: a case per row of the figure table.

Each case runs one row of :data:`repro.experiments.figures.FIGURES` (Fig. 3,
the Section 5.1 table, Figs. 5-11, the ablations) the way the
``continustreaming-experiments`` CLI does: ``resolve`` the row's record for
``CONTINU_BENCH_SCALE``, ``run`` it, print ``format(result)``.  Its entry
in ``CHECKS`` then asserts the shape the paper reports.

``CONTINU_BENCH_SCALE`` is ``small`` (default, about a minute in all) or
``paper`` (the paper's own sweeps, thousands of nodes: slow).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.figures import FIGURES, SCALES

SCALE = os.environ.get("CONTINU_BENCH_SCALE", "small")
if SCALE not in SCALES:
    raise pytest.UsageError(
        f"CONTINU_BENCH_SCALE must be one of {', '.join(SCALES)}, got {SCALE!r}"
    )


def check_fig3(points):
    """Paper (N = 8192): hops very close to log2(n)/2, success very close to 1.0."""
    for point in points:
        assert point.success_rate > 0.9
        assert point.average_hops < point.expected_hops + 2.0
        assert point.average_hops > point.expected_hops - 2.5


def check_table(rows):
    """Paper (1000 nodes): theory λ=15 gives 0.8815 / 0.9989; the simulated
    environments range from 0.8166-0.8748 (PC_old) to 0.9537-0.9979 (PC_new)."""
    by_env = {row.environment: row for row in rows}
    # Analytic rows must match the paper exactly (they are closed-form).
    assert abs(by_env["theory λ=15"].pc_old - 0.8815) < 5e-3
    assert abs(by_env["theory λ=15"].pc_new - 0.9989) < 5e-3
    # Pre-fetch improves continuity in every static environment, and the
    # static environment is no worse than its dynamic counterpart.
    for env in ("homogeneous static", "heterogeneous static"):
        assert by_env[env].pc_new > by_env[env].pc_old
    assert (
        by_env["homogeneous static"].pc_new
        >= by_env["homogeneous dynamic"].pc_new - 0.05
    )


def check_fig5(results):
    """Paper (1000 nodes, static): CoolStreaming stable at ~0.83 from ~26 s,
    ContinuStreaming at ~0.97 from ~18 s."""
    cool, conti = results["coolstreaming"], results["continustreaming"]
    assert conti.stable_continuity > cool.stable_continuity
    assert conti.stable_continuity > 0.85
    # Both start from (near) zero and ramp up.
    assert cool.continuity[0] < 0.2
    assert conti.continuity[0] < 0.2


def check_fig6(results):
    """Paper (1000 nodes, 5 % join + 5 % leave per period): ~0.78 vs ~0.95."""
    cool, conti = results["coolstreaming"], results["continustreaming"]
    assert conti.stable_continuity >= cool.stable_continuity - 0.02
    assert 0.0 < cool.stable_continuity < 1.0


def check_fig7(points):
    """Paper (static, 100-8000 nodes): ContinuStreaming well above
    CoolStreaming at every size."""
    for point in points:
        assert point.continustreaming > point.coolstreaming
        assert point.continustreaming > 0.8


def check_fig8(points):
    """Paper (dynamic): Figure 7's ordering at lower values under churn."""
    for point in points:
        assert point.continustreaming >= point.coolstreaming - 0.05
        assert 0.0 < point.coolstreaming < 1.0


def check_fig9(points):
    """Paper: control overhead below 0.02 for M = 4, 5, 6 at every size."""
    for point in points:
        assert point.control_overhead < 0.05
    # More neighbours -> more buffer-map traffic, for every size.
    for size in {point.num_nodes for point in points}:
        by_m = {p.connected_neighbors: p.control_overhead for p in points if p.num_nodes == size}
        assert by_m[4] < by_m[6]


def check_fig10(tracks):
    """Paper (1000 nodes): near zero at first, then stable around 0.023
    (static) and 0.03 (dynamic)."""
    assert tracks["static"].stable_overhead < 0.08
    assert tracks["dynamic"].stable_overhead < 0.12
    # The urgent-line trigger suppresses pre-fetch in the very first round,
    # while most nodes miss more than l segments.
    assert tracks["static"].overhead[0] < 0.01


def check_fig11(points):
    """Paper: below 0.04 at every size, dynamic costlier than static."""
    for point in points:
        assert point.prefetch_overhead < 0.10
    for size in {point.num_nodes for point in points}:
        static = next(p for p in points if p.num_nodes == size and not p.dynamic)
        dynamic = next(p for p in points if p.num_nodes == size and p.dynamic)
        assert dynamic.prefetch_overhead >= static.prefetch_overhead - 0.01


def check_ablations(sections):
    """Not a paper figure: what each mechanism contributes."""
    by_name = {point.name: point for points in sections.values() for point in points}
    full = by_name["continustreaming full"]
    baseline = by_name["coolstreaming (rarest-first)"]
    assert full.stable_continuity > baseline.stable_continuity
    # Only the full system pays pre-fetch overhead.
    assert full.prefetch_overhead > 0.0
    assert baseline.prefetch_overhead == 0.0
    # The paper's k = 4 keeps the overhead small and loses no continuity.
    assert len(sections["backup replicas k"]) == 3
    assert by_name["k=4"].prefetch_overhead < 0.10
    assert by_name["k=4"].stable_continuity >= by_name["k=1"].stable_continuity - 0.05
    # Disabling the pre-fetch removes its overhead; enabling it must not
    # hurt continuity.
    assert by_name["l=0"].prefetch_overhead == 0.0
    assert by_name["l=5"].stable_continuity >= by_name["l=0"].stable_continuity - 0.03


CHECKS = {
    "fig3": check_fig3,
    "table": check_table,
    "fig5": check_fig5,
    "fig6": check_fig6,
    "fig7": check_fig7,
    "fig8": check_fig8,
    "fig9": check_fig9,
    "fig10": check_fig10,
    "fig11": check_fig11,
    "ablations": check_ablations,
}


@pytest.mark.parametrize("row", FIGURES, ids=lambda row: row.id)
def test_bench_figure(benchmark, row):
    result = benchmark.pedantic(row.run, args=(row.resolve(SCALE),), rounds=1, iterations=1)
    print("\n" + row.format(result))
    CHECKS[row.id](result)
