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
