"""Tests for the experiment harness (at small scales)."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.ablations import format_ablation, format_ablations, run_ablations
from repro.experiments.fig3_dht import format_fig3, run_fig3_dht
from repro.experiments.fig5_6_track import format_track, run_continuity_track
from repro.experiments.fig7_8_scale import format_scale_sweep, run_scale_sweep
from repro.experiments.fig9_control import format_control_overhead, run_control_overhead
from repro.experiments.fig10_11_prefetch import (
    format_prefetch_scale,
    format_prefetch_track,
    run_prefetch_overhead_scale,
    run_prefetch_overhead_track,
)
from repro.experiments import fig3_dht, fig7_8_scale, fig9_control, fig10_11_prefetch
from repro.experiments.figures import FIGURES, Params
from repro.experiments.runner import build_parser, main
from repro.experiments.table_theory import (
    format_theory_table,
    paper_reference_rows,
    run_theory_table,
    theoretical_rows,
)


class TestFig3:
    def test_points_and_shape(self):
        points = run_fig3_dht(node_counts=[100, 400], lookups_per_size=200, seed=1)
        assert [p.num_nodes for p in points] == [100, 400]
        for point in points:
            assert point.success_rate > 0.85
            assert 0 < point.average_hops < 15
        # Hops grow with the population, matching the log2(n)/2 trend.
        assert points[1].average_hops > points[0].average_hops

    def test_formatting(self):
        points = run_fig3_dht(node_counts=[50], lookups_per_size=50, seed=1)
        text = format_fig3(points)
        assert "avg hops" in text and "50" in text


class TestTheoryTable:
    def test_theoretical_rows_match_paper(self):
        rows = theoretical_rows()
        by_env = {row.environment: row for row in rows}
        assert by_env["theory λ=15"].pc_old == pytest.approx(0.8815, abs=2e-3)
        assert by_env["theory λ=14"].pc_new == pytest.approx(0.9975, abs=2e-3)

    def test_simulated_rows_present(self):
        rows = run_theory_table(nodes=40, rounds=10, seed=2)
        assert rows[:2] == theoretical_rows()
        rows = rows[2:]
        assert [row.environment for row in rows] == [
            "homogeneous static",
            "homogeneous dynamic",
            "heterogeneous static",
            "heterogeneous dynamic",
        ]
        for row in rows:
            assert 0.0 <= row.pc_old <= 1.0
            assert 0.0 <= row.pc_new <= 1.0

    def test_formatting_and_reference(self):
        text = format_theory_table(paper_reference_rows())
        assert "heterogeneous dynamic" in text
        assert "0.9537" in text


class TestTracks:
    def test_static_track(self):
        results = run_continuity_track(num_nodes=40, rounds=10, seed=2)
        assert set(results) == {"coolstreaming", "continustreaming"}
        for result in results.values():
            assert len(result.continuity) == 10
            assert not result.dynamic

    def test_dynamic_track_flag(self):
        results = run_continuity_track(num_nodes=40, rounds=8, dynamic=True, seed=2)
        assert all(result.dynamic for result in results.values())

    def test_formatting(self):
        results = run_continuity_track(num_nodes=40, rounds=6, seed=2)
        text = format_track(results)
        assert "coolstreaming" in text and "track" in text


class TestScaleSweeps:
    def test_scale_sweep_points(self):
        points = run_scale_sweep(sizes=[40, 60], rounds=10, seed=2)
        assert [point.num_nodes for point in points] == [40, 60]
        for point in points:
            assert 0.0 <= point.coolstreaming <= 1.0
            assert 0.0 <= point.continustreaming <= 1.0
            assert point.delta == pytest.approx(
                point.continustreaming - point.coolstreaming
            )

    def test_formatting(self):
        points = run_scale_sweep(sizes=[40], rounds=8, seed=2)
        assert "ContinuStreaming" in format_scale_sweep(points)


class TestOverheadExperiments:
    def test_control_overhead_points(self):
        points = run_control_overhead(sizes=[40], neighbor_counts=[4, 5], rounds=8, seed=2)
        assert len(points) == 2
        for point in points:
            assert point.control_overhead > 0
            # The analytic estimate uses the configured buffer size: with the
            # default 600-slot buffer a map costs 620 bits per neighbour.
            expected = 620 * point.connected_neighbors / (30 * 1024 * 10)
            assert point.analytic_estimate == pytest.approx(expected, rel=0.01)
            # Measured overhead is the same order of magnitude as the estimate
            # (it exceeds it when continuity is below 1.0, as the paper notes).
            assert point.control_overhead < 20 * point.analytic_estimate
        # More neighbours cost more control traffic.
        assert points[1].control_overhead > points[0].control_overhead

    def test_control_overhead_formatting(self):
        points = run_control_overhead(sizes=[40], neighbor_counts=[5], rounds=6, seed=2)
        assert "control overhead" in format_control_overhead(points)

    def test_prefetch_track(self):
        tracks = run_prefetch_overhead_track(num_nodes=40, rounds=10, seed=2)
        assert set(tracks) == {"static", "dynamic"}
        for track in tracks.values():
            assert len(track.overhead) == 10
            assert track.stable_overhead >= 0.0
        text = format_prefetch_track(tracks)
        assert text.splitlines()[0].startswith("static: stable pre-fetch overhead ")
        assert text.splitlines()[3].startswith("  track: [")

    def test_prefetch_scale(self):
        points = run_prefetch_overhead_scale(sizes=[40], rounds=8, seed=2)
        assert len(points) == 2  # static + dynamic
        assert {point.dynamic for point in points} == {False, True}
        assert "pre-fetch overhead" in format_prefetch_scale(points)


@pytest.fixture(scope="module")
def ablations():
    return run_ablations(nodes=40, rounds=10, seed=2)


class TestAblations:
    def test_sections_in_order(self, ablations):
        assert list(ablations) == [
            "priority / pre-fetch", "backup replicas k", "pre-fetch cap l", "pipeline phases",
        ]

    def test_priority_ablation_rows(self, ablations):
        points = ablations["priority / pre-fetch"]
        assert len(points) == 3
        assert points[0].name.startswith("coolstreaming")
        assert all(0.0 <= p.stable_continuity <= 1.0 for p in points)

    def test_replica_ablation(self, ablations):
        points = ablations["backup replicas k"]
        assert [point.name for point in points] == ["k=1", "k=2", "k=4"]

    def test_prefetch_limit_ablation(self, ablations):
        points = ablations["pre-fetch cap l"]
        assert points[0].name == "l=0"
        assert points[0].prefetch_overhead == 0.0

    def test_phase_ablation_switches_off_prefetch_traffic(self, ablations):
        points = ablations["pipeline phases"]
        assert [point.name for point in points] == [
            "full pipeline",
            "no on-demand retrieval phase",
            "no prediction, no retrieval",
        ]
        assert points[0].prefetch_overhead > 0.0
        assert points[1].prefetch_overhead == 0.0
        assert points[2].prefetch_overhead == 0.0

    def test_phase_ablation_rejects_unknown_phase_names(self):
        from repro.experiments.ablations import _pipeline_without

        with pytest.raises(ValueError, match="cannot ablate"):
            _pipeline_without("continustreaming", "ondemand-retrieval")  # typo

    def test_formatting(self, ablations):
        assert "k=1" in format_ablation(ablations["backup replicas k"])
        assert format_ablations(ablations).startswith("== priority / pre-fetch ==\n")


class TestRunnerCli:
    def test_parser_accepts_known_experiments(self):
        parser = build_parser()
        args = parser.parse_args(["fig3", "--sizes", "50", "--lookups", "100"])
        assert args.experiment == "fig3"
        assert args.sizes == [50]

    def test_parser_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figX"])

    def test_main_runs_fig3(self, capsys):
        exit_code = main(["fig3", "--sizes", "60", "--lookups", "100"])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "fig3" in captured and "avg hops" in captured

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig5", "--nodes", "0"],
            ["fig3", "--sizes", "60", "0"],
            ["fig10", "--rounds", "0"],
            ["fig3", "--lookups", "-1"],
            ["runtime", "--rounds", "0"],
        ],
        ids=["nodes", "sizes", "rounds", "lookups", "runtime-rounds"],
    )
    def test_sizes_and_counts_below_one_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {argv[1]}: must be at least 1, got {argv[-1]}" in err
        assert "Traceback" not in err


REPO = Path(__file__).resolve().parents[1]
BENCH = REPO / "benchmarks" / "test_bench_figures.py"
#: The printed output of every figure row at toy sizes (the CI figures smoke).
FIGURES_GOLDEN = Path(__file__).parent / "data" / "figures_small.txt"
FIGURES_SMOKE = ["all", "--nodes", "40", "--sizes", "40", "60", "--rounds", "8",
                 "--lookups", "100"]


def _bench_checks():
    spec = importlib.util.spec_from_file_location("bench_figures", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CHECKS


class TestFigureGolden:
    def test_every_figure_prints_its_pinned_output(self, capsys):
        """Every figure row's printed table at toy sizes, byte for byte.

        Re-capture ``tests/data/figures_small.txt`` only for an intended
        behaviour change (``python -m repro.experiments.runner`` with the
        flags of ``FIGURES_SMOKE``).
        """
        assert main(FIGURES_SMOKE) == 0
        assert capsys.readouterr().out == FIGURES_GOLDEN.read_text(encoding="utf-8")


class TestFigureTable:
    """The figure table's shape; no row is run here."""

    def test_ids_in_table_order(self):
        assert [row.id for row in FIGURES] == [
            "fig3", "table", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
            "ablations",
        ]

    def test_every_row_has_checks_and_every_check_a_row(self):
        assert set(_bench_checks()) == {row.id for row in FIGURES}

    def test_parser_choices_are_the_rows_the_live_commands_and_all(self):
        (action,) = [a for a in build_parser()._actions if a.dest == "experiment"]
        assert list(action.choices) == [
            *(row.id for row in FIGURES), "campaign", "runtime", "cluster", "obs", "all"
        ]

    def test_paper_sizes_are_the_modules_paper_sweeps(self):
        assert {row.id: row.paper.sizes for row in FIGURES if row.paper.sizes} == {
            "fig3": fig3_dht.PAPER_NODE_COUNTS,
            "fig7": fig7_8_scale.PAPER_SIZES,
            "fig8": fig7_8_scale.PAPER_SIZES,
            "fig9": fig9_control.PAPER_SIZES,
            "fig11": fig10_11_prefetch.PAPER_SIZES,
        }

    def test_both_scales_take_the_same_parameters(self):
        for row in FIGURES:
            taken = [value is not None for value in vars(row.small).values()]
            assert taken == [value is not None for value in vars(row.paper).values()], row.id

    def test_resolve_overlays_only_what_the_figure_takes(self):
        rows = {row.id: row for row in FIGURES}
        given = dict(nodes=40, sizes=(40, 60), rounds=8, lookups=100, seed=3)
        assert rows["fig3"].resolve("small", **given) == Params(
            sizes=(40, 60), lookups=100, seed=3
        )
        assert rows["table"].resolve("paper", **given) == Params(nodes=40, rounds=8, seed=3)
        assert rows["fig7"].resolve("paper", rounds=None) == rows["fig7"].paper
        with pytest.raises(ValueError, match="scale"):
            rows["fig5"].resolve("Paper")

    def test_bench_refuses_an_unknown_scale(self):
        env = dict(os.environ, CONTINU_BENCH_SCALE="Paper", PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", str(BENCH), "--collect-only", "-q",
             "-p", "no:cacheprovider"],
            cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0
        assert "CONTINU_BENCH_SCALE must be one of small, paper, got 'Paper'" in proc.stdout
