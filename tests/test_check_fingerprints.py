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


def test_main_exit_status(row, monkeypatch, tmp_path, capsys):
    history = tmp_path / "history.jsonl"
    history.write_text(json.dumps({"commit": "old"}) + "\n" + json.dumps(row) + "\n\n")
    measured = _as_measured(row)
    monkeypatch.setattr(checker, "measure", lambda workload: measured[workload])
    assert checker.main(["--history", str(history)]) == 0
    assert repr(row["commit"]) in capsys.readouterr().out

    measured["rt_static"]["bytes_per_segment"] += 1.0
    assert checker.main(["--history", str(history)]) == 1
    assert "rt_static.bytes_per_segment" in capsys.readouterr().err

    def broken(workload):
        raise RuntimeError(f"{workload}: bench/run.py exited 1")

    monkeypatch.setattr(checker, "measure", broken)
    assert checker.main(["--history", str(history)]) == 2
