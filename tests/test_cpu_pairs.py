"""``tools/cpu_pairs.py``: its output parser and the claim rule, on synthetic runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("cpu_pairs", ROOT / "tools" / "cpu_pairs.py")
cpu_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cpu_pairs)


def _stdout(correct: bool = True, **values: float) -> str:
    contract = {
        "correct": correct,
        "attempted": 10,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": "1/s"} for name, value in values.items()},
    }
    return (
        "rt_static seed=0 scale=full iterations=1\n"
        "  peer_periods_per_cpu_s        873.6 1/s\n"
        f"{json.dumps(contract)}\n"
    )


class TestParser:
    def test_reads_the_contract_line(self):
        out = _stdout(peer_periods_per_cpu_s=873.5, stable_continuity=0.98)
        assert cpu_pairs.parse_metrics(out) == {
            "peer_periods_per_cpu_s": 873.5,
            "stable_continuity": 0.98,
        }

    def test_an_incorrect_run_is_refused(self):
        with pytest.raises(ValueError):
            cpu_pairs.parse_metrics(_stdout(correct=False, setup_s=1.0))

    def test_an_empty_output_is_refused(self):
        with pytest.raises(ValueError):
            cpu_pairs.parse_metrics("\n")

    def test_every_end_to_end_metric_has_a_direction(self):
        directions = cpu_pairs.end_to_end_metrics(ROOT / "BENCHMARK.json")
        assert directions["peer_periods_per_cpu_s"] is True
        assert directions["setup_s"] is False


BASE = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


class TestClaimRule:
    def test_ten_wins_and_a_gap_past_the_iqr_is_a_gain(self):
        change = [b + 10.0 for b in BASE]
        s = cpu_pairs.summarize("peer_periods_per_cpu_s", True, BASE, change)
        assert (s.wins, s.gain) == (10, True)
        assert s.ratio == pytest.approx(110.0 / 100.0)

    def test_nine_wins_of_ten_is_enough_eight_is_not(self):
        nine = [b + 10.0 for b in BASE[:9]] + [BASE[9] - 1.0]
        assert cpu_pairs.summarize("m", True, BASE, nine).gain
        eight = [b + 10.0 for b in BASE[:8]] + [b - 1.0 for b in BASE[8:]]
        s = cpu_pairs.summarize("m", True, BASE, eight)
        assert (s.wins, s.gain) == (8, False)

    def test_ties_count_for_neither_side(self):
        change = [b + 10.0 for b in BASE[:9]] + [BASE[9]]
        s = cpu_pairs.summarize("m", True, BASE, change)
        assert (s.wins, s.gain) == (9, True)
        change = [b + 10.0 for b in BASE[:8]] + BASE[8:]
        assert not cpu_pairs.summarize("m", True, BASE, change).gain

    def test_every_pair_won_by_less_than_the_iqr_is_no_gain(self):
        change = [b + 0.5 for b in BASE]
        s = cpu_pairs.summarize("m", True, BASE, change)
        assert s.wins == 10 and not s.gain  # IQR of BASE is 2.0

    def test_lower_is_better_metrics_win_downwards(self):
        change = [b - 10.0 for b in BASE]
        assert cpu_pairs.summarize("setup_s", False, BASE, change).gain
        assert not cpu_pairs.summarize("setup_s", True, BASE, change).gain

    def test_the_sides_must_pair_up(self):
        with pytest.raises(ValueError):
            cpu_pairs.summarize("m", True, BASE, BASE[:-1])

    def test_the_report_prints_medians_quartiles_wins_and_verdicts(self):
        gain = cpu_pairs.summarize("peer_periods_per_cpu_s", True, BASE, [b + 10 for b in BASE])
        flat = cpu_pairs.summarize("setup_s", False, BASE, BASE)
        lines = cpu_pairs.report([gain, flat]).splitlines()
        assert len(lines) == 3
        assert "100 [99.25, 101]" in lines[1] and "110 [109.25, 111]" in lines[1]
        assert lines[1].endswith("10/10  gain")
        assert lines[2].endswith(" 0/10  no gain")


class TestWorkloadList:
    KNOWN = ["rt_static", "rt_churn", "cluster_2shard"]

    def test_a_comma_separated_list_keeps_its_order(self):
        assert cpu_pairs.parse_workloads("cluster_2shard, rt_static", self.KNOWN) == [
            "cluster_2shard",
            "rt_static",
        ]
        assert cpu_pairs.parse_workloads("rt_churn", self.KNOWN) == ["rt_churn"]

    @pytest.mark.parametrize("text", ["rt_static,", "rt_static,rt_static", "rt_statics"])
    def test_empty_repeated_or_unknown_names_are_refused(self, text):
        with pytest.raises(ValueError):
            cpu_pairs.parse_workloads(text, self.KNOWN)

    def test_the_benchmark_declares_every_workload_the_list_may_name(self):
        declared = cpu_pairs.benchmark_workloads(ROOT / "BENCHMARK.json")
        assert {"rt_static", "cluster_2shard"} <= set(declared)

    def test_pairs_interleave_the_workloads_and_alternate_the_first_side(self, monkeypatch):
        calls = []

        def run_once(tree, workload, seed, seconds):
            calls.append((tree.name, workload))
            return {"peer_periods_per_cpu_s": float(len(calls))}

        monkeypatch.setattr(cpu_pairs, "run_once", run_once)
        trees = {"base": Path("base"), "change": Path("change")}
        runs = cpu_pairs.run_pairs(trees, ["rt_static", "rt_churn"], 2, 0, 5.0)
        assert calls == [
            ("base", "rt_static"), ("change", "rt_static"),
            ("base", "rt_churn"), ("change", "rt_churn"),
            ("change", "rt_static"), ("base", "rt_static"),
            ("change", "rt_churn"), ("base", "rt_churn"),
        ]
        assert [r["peer_periods_per_cpu_s"] for r in runs["rt_churn"]["base"]] == [3.0, 8.0]
        assert [r["peer_periods_per_cpu_s"] for r in runs["rt_churn"]["change"]] == [4.0, 7.0]
