"""The CI count gate (``tools/check_fingerprints.py``) fails on any drift."""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_fingerprints", ROOT / "tools" / "check_fingerprints.py"
)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


@pytest.fixture
def row():
    return checker.last_row(ROOT / "BENCH_history.jsonl")


def _as_measured(row):
    return {w: dict(row["workloads"][w]) for w in checker.WORKLOADS}


def test_the_history_row_matches_itself(row):
    assert checker.mismatches(row, _as_measured(row), checker.WORKLOADS) == []


@pytest.mark.parametrize("workload", checker.WORKLOADS)
@pytest.mark.parametrize("metric", checker.CHECKED)
def test_a_one_ulp_perturbation_fails(row, workload, metric):
    measured = _as_measured(row)
    measured[workload][metric] = math.nextafter(measured[workload][metric], math.inf)
    (problem,) = checker.mismatches(row, measured, checker.WORKLOADS)
    assert problem.startswith(f"{workload}.{metric}: history ")


def test_a_missing_metric_fails(row):
    measured = _as_measured(row)
    del measured["sim_static"]["control_overhead"]
    assert checker.mismatches(row, measured, checker.WORKLOADS) == [
        f"sim_static.control_overhead: history "
        f"{row['workloads']['sim_static']['control_overhead']!r}, this tree None"
    ]


def _recorded_counts(row):
    return [
        (workload, count)
        for workload in checker.WORKLOADS
        for count in checker.COUNTS
        if count in row["workloads"][workload]
    ]


def test_the_row_records_the_runtime_and_simulator_counts(row):
    recorded = _recorded_counts(row)
    assert ("rt_churn", "swarm.msgs_sent") in recorded
    assert ("sim_static", "dht.routing_msgs") in recorded
    assert all(isinstance(row["workloads"][w][c], int) for w, c in recorded)


def test_a_perturbed_count_fails(row):
    for workload, count in _recorded_counts(row):
        measured = _as_measured(row)
        measured[workload][count] += 1
        assert checker.mismatches(row, measured, checker.WORKLOADS) == [
            f"{workload}.{count}: history {row['workloads'][workload][count]!r}, "
            f"this tree {measured[workload][count]!r}"
        ]


def test_a_count_the_row_lacks_is_skipped(row):
    measured = _as_measured(row)
    older = json.loads(json.dumps(row))
    for workload, count in _recorded_counts(row):
        del older["workloads"][workload][count]
        measured[workload][count] += 1
    assert checker.mismatches(older, measured, checker.WORKLOADS) == []


def test_measure_reads_the_printed_counts(row, monkeypatch):
    printed = "\n".join([
        "rt_churn seed=0 scale=full iterations=1 valid_at_bar=False",
        "  stable_continuity                          0.9 ratio",
        "  swarm.msgs_sent                         286583 count",
        "  swarm.bytes_on_wire                    4835508 B",
        "  dht.routing_msgs_per_prefetch        151.7981 count",
        "",
        json.dumps({"correct": True, "metrics": {"stable_continuity": {"value": 0.9}}}),
    ])

    def run(*args, **kwargs):
        return checker.subprocess.CompletedProcess(args, 0, stdout=printed, stderr="")

    monkeypatch.setattr(checker.subprocess, "run", run)
    assert checker.measure("rt_churn") == {
        "swarm.msgs_sent": 286583, "swarm.bytes_on_wire": 4835508, "stable_continuity": 0.9,
    }


def test_main_exit_status(row, monkeypatch, tmp_path, capsys):
    history = tmp_path / "history.jsonl"
    history.write_text(json.dumps({"commit": "old"}) + "\n" + json.dumps(row) + "\n\n")
    measured = _as_measured(row)
    monkeypatch.setattr(checker, "measure", lambda workload: measured[workload])
    assert checker.main(["--history", str(history)]) == 0
    out = capsys.readouterr().out
    assert repr(row["commit"]) in out and "sim_static, rt_static, rt_churn, wire_replay" in out

    measured["rt_churn"]["stable_continuity"] -= 0.01
    assert checker.main(["--history", str(history)]) == 1
    assert "rt_churn.stable_continuity" in capsys.readouterr().err

    measured["rt_static"]["bytes_per_segment"] += 1.0
    assert checker.main(["--history", str(history)]) == 1
    assert "rt_static.bytes_per_segment" in capsys.readouterr().err

    # A frame-format change moves the codec workload's bytes on its own.
    measured = _as_measured(row)
    measured["wire_replay"]["bytes_per_segment"] -= 0.5
    assert checker.main(["--history", str(history)]) == 1
    assert capsys.readouterr().err.strip() == (
        f"check_fingerprints: wire_replay.bytes_per_segment: history "
        f"{row['workloads']['wire_replay']['bytes_per_segment']!r}, "
        f"this tree {measured['wire_replay']['bytes_per_segment']!r}"
    )

    def broken(workload):
        raise RuntimeError(f"{workload}: bench/run.py exited 1")

    monkeypatch.setattr(checker, "measure", broken)
    assert checker.main(["--history", str(history)]) == 2


def _matrix_history(tmp_path, row):
    history = tmp_path / "history.jsonl"
    history.write_text(json.dumps(row) + "\n")
    return history


def test_an_equal_matrix_passes(row, tmp_path, capsys):
    history = _matrix_history(tmp_path, row)
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(row["matrix"]))
    assert checker.matrix_mismatches(row["matrix"], json.loads(json.dumps(row["matrix"]))) == []
    assert checker.main(["--history", str(history), "--matrix", str(matrix)]) == 0
    assert repr(row["commit"]) in capsys.readouterr().out


def test_a_differing_matrix_fails(row, tmp_path, capsys):
    history = _matrix_history(tmp_path, row)
    runtime = next(name for name in row["matrix"]["cells"] if name.startswith("runtime"))
    for path, label in (
        (("by_seed",), "continuity"),
        (("bytes_on_wire", "by_seed"), "bytes_on_wire"),
        (("messages_sent", "by_seed"), "messages_sent"),
    ):
        measured = json.loads(json.dumps(row["matrix"]))
        stats = measured["cells"][runtime]["continustreaming"]
        for key in path:
            stats = stats[key]
        stats[-1] = stats[-1] + 1
        (problem,) = checker.matrix_mismatches(row["matrix"], measured)
        assert problem.startswith(f"matrix[{runtime!r}].continustreaming.{label}: history ")
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps(measured))
        assert checker.main(["--history", str(history), "--matrix", str(matrix)]) == 1
        assert f"{label}: history" in capsys.readouterr().err


def test_a_matrix_missing_a_cell_or_a_count_fails(row):
    measured = json.loads(json.dumps(row["matrix"]))
    sim = next(name for name in measured["cells"] if name.startswith("sim"))
    del measured["cells"][sim]
    runtime = next(name for name in measured["cells"] if name.startswith("runtime"))
    del measured["cells"][runtime]["coolstreaming"]["bytes_on_wire"]
    problems = checker.matrix_mismatches(row["matrix"], measured)
    assert any(p.startswith(f"matrix[{sim!r}].continustreaming.continuity") for p in problems)
    assert f"matrix[{runtime!r}].coolstreaming.bytes_on_wire" in " ".join(problems)
    measured["cells"]["runtime 9x9"] = {}
    assert "matrix['runtime 9x9']: not in the history row" in checker.matrix_mismatches(
        row["matrix"], measured
    )


def test_a_count_the_row_matrix_lacks_is_skipped(row):
    older = json.loads(json.dumps(row["matrix"]))
    measured = json.loads(json.dumps(row["matrix"]))
    for cell in older["cells"].values():
        for stats in cell.values():
            if isinstance(stats, dict):
                for count in [k for k, v in stats.items() if isinstance(v, dict)]:
                    del stats[count]
    for cell in measured["cells"].values():
        for stats in cell.values():
            if isinstance(stats, dict) and "bytes_on_wire" in stats:
                stats["bytes_on_wire"]["by_seed"][0] += 1
    assert checker.matrix_mismatches(older, measured) == []


def _matrix_row(commit, means, note=""):
    """A history row whose matrix holds ``{cell: {system: mean}}``, every
    seed at the mean."""
    return {
        "commit": commit,
        "note": note,
        "matrix": {
            "seeds": [0, 1, 2, 3, 4],
            "cells": {
                cell: {system: {"mean": mean, "worst": mean, "by_seed": [mean] * 5}
                       for system, mean in systems.items()}
                for cell, systems in means.items()
            },
        },
    }


def test_the_pr30_sim_500_drop_is_flagged():
    older = _matrix_row("92c7e05", {"sim 500x40": {"continustreaming": 0.9317}})
    newer = _matrix_row("PR30", {"sim 500x40": {"continustreaming": 0.9053}})
    (problem,) = checker.matrix_drops(older, newer)
    assert problem.startswith("matrix['sim 500x40'].continustreaming: row 'PR30' drops")
    assert "0.9317 -> 0.9053" in problem


def test_one_seed_dropping_past_its_bound_fails_on_its_own():
    older = _matrix_row("a", {"runtime 200x40": {"coolstreaming": 0.90}})
    newer = json.loads(json.dumps(older))
    newer["matrix"]["cells"]["runtime 200x40"]["coolstreaming"]["by_seed"][2] = 0.86
    assert len(checker.matrix_drops(older, newer)) == 1  # mean -0.008, seed 2 -0.04
    newer["matrix"]["cells"]["runtime 200x40"]["coolstreaming"]["by_seed"][2] = 0.875
    assert checker.matrix_drops(older, newer) == []  # mean -0.005, seed 2 -0.025


def test_seeds_are_paired_by_value_not_position():
    older = _matrix_row("a", {"sim 200x60": {"continustreaming": 0.95}})
    older["matrix"]["cells"]["sim 200x60"]["continustreaming"]["by_seed"] = [0.95, 0.5]
    older["matrix"]["seeds"] = [0, 1]
    newer = _matrix_row("b", {"sim 200x60": {"continustreaming": 0.95}})
    newer["matrix"]["seeds"] = [0]
    newer["matrix"]["cells"]["sim 200x60"]["continustreaming"]["by_seed"] = [0.95]
    assert checker.matrix_drops(older, newer) == []


def test_a_rise_passes():
    older = _matrix_row("a", {"sim 500x40": {"continustreaming": 0.6}})
    newer = _matrix_row("b", {"sim 500x40": {"continustreaming": 0.95}})
    assert checker.matrix_drops(older, newer) == []


def test_a_declared_drop_passes_and_only_for_the_cell_it_names():
    older = _matrix_row("a", {"sim 500x40": {"continustreaming": 0.9317, "coolstreaming": 0.9}})
    newer = _matrix_row(
        "b", {"sim 500x40": {"continustreaming": 0.9053, "coolstreaming": 0.8}},
        note="re-pin; drop: sim 500x40/continustreaming (item 1)",
    )
    (problem,) = checker.matrix_drops(older, newer)
    assert problem.startswith("matrix['sim 500x40'].coolstreaming:")


def test_the_real_matrix_rows_pass():
    matrices = [row for row in checker.rows(ROOT / "BENCH_history.jsonl") if "matrix" in row]
    assert [row["commit"] for row in matrices][:4] == ["PR31", "PR32", "PR33", "PR34"]
    for older, newer in zip(matrices, matrices[1:]):
        assert checker.matrix_drops(older, newer) == []
    assert checker.history_drops(ROOT / "BENCH_history.jsonl") == []


def test_both_invocations_apply_the_rule(row, tmp_path, monkeypatch, capsys):
    dropped = json.loads(json.dumps(row))
    for cell in dropped["matrix"]["cells"].values():
        cell["continustreaming"]["by_seed"][0] -= 0.05
    history = tmp_path / "history.jsonl"
    history.write_text(json.dumps(row) + "\n" + json.dumps(dropped) + "\n")
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(dropped["matrix"]))
    assert checker.main(["--history", str(history), "--matrix", str(matrix)]) == 1
    assert "continustreaming: row" in capsys.readouterr().err
    monkeypatch.setattr(checker, "measure", lambda workload: dict(row["workloads"][workload]))
    assert checker.main(["--history", str(history)]) == 1
    assert len(capsys.readouterr().err.strip().splitlines()) == len(row["matrix"]["cells"])
