"""One cell runner: the quality matrix, campaigns and parity read one record.

``tests/data/comparison_goldens.json`` holds the outputs of the three
comparison paths as they were before they shared a runner — each path's own
result shape, measured at toy size with the wall-time fields masked.  The
cell runner must reproduce every one of them byte for byte.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import re
from pathlib import Path

import pytest

from repro.experiments.runner import main
from repro.runtime import RunOptions
from repro.scenarios import (
    COUNT_NAMES,
    METRIC_NAMES,
    CampaignSpec,
    Cell,
    Record,
    ResultsStore,
    builtin_scenario,
    run_campaign,
    run_cell,
)
from repro.scenarios import campaign
from repro.scenarios.cell import parity_pair, parity_table, parity_text

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = json.loads((ROOT / "tests" / "data" / "comparison_goldens.json").read_text())
_spec = importlib.util.spec_from_file_location("quality_matrix", ROOT / "tools" / "quality_matrix.py")
quality_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(quality_matrix)

VIRTUAL = RunOptions(clock="virtual")
#: The wall-time field at the end of a ``format_results`` line.
WALL = re.compile(r"\d+\.\d\ds$", re.M)


def without_wall_time(record: Record) -> dict:
    data = record.to_dict()
    del data["wall_time_s"]
    return data


def test_the_quality_matrix_json_is_unchanged():
    result = quality_matrix.matrix([("sim", 20, 8), ("runtime", 20, 8)], range(2))
    assert json.dumps(result, indent=1) == GOLDENS["matrix_json"]


@pytest.mark.parametrize("backend", ["sim", "runtime"])
def test_a_campaign_reads_the_same(backend, tmp_path):
    store = run_campaign(
        ["static"], seeds=(0, 1), node_counts=[20], rounds=8,
        systems=("continustreaming", "coolstreaming"), backend=backend,
        results_path=tmp_path / "cells.jsonl",
    )
    golden = GOLDENS["campaign"][backend]
    assert [record.metrics for record in store] == golden["metrics"]
    assert store.write_summary(tmp_path / "summary.json").read_text() == golden["summary_json"]
    assert WALL.sub("<wall>", store.format_results()) == golden["format_results"]
    assert store.format_summary() == golden["format_summary"]
    assert {record.driver for record in ResultsStore.load(tmp_path / "cells.jsonl")} == {backend}


def test_the_parity_table_and_report_are_unchanged():
    pairs = [parity_pair(name, 40, 10, 0, VIRTUAL) for name in ("static", "paper-dynamic")]
    assert parity_table(pairs) == GOLDENS["parity_matrix"]
    assert parity_text(pairs[0]) == GOLDENS["parity_report"]


@pytest.mark.parametrize("case, argv", [
    ("cli_parity", ["runtime", "--parity"]),
    ("cli_parity_matrix", ["runtime", "--parity-matrix", "--scenario", "static", "paper-dynamic"]),
    ("cli_parity_matrix_tolerant", [
        "runtime", "--parity-matrix", "--tolerance", "0.1", "--scenario", "static", "paper-dynamic",
    ]),
])
def test_the_parity_commands_print_the_same(case, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv + ["--clock", "virtual", "--nodes", "40", "--rounds", "10"])
        except SystemExit as exc:
            code = str(exc.code)
    assert {"stdout": out.getvalue(), "exit": code} == GOLDENS[case]


def test_one_set_of_runtime_coordinates_gives_one_record():
    """The campaign payload, the matrix and the parity pair reach the same
    run: ``static`` 20 × 8, ContinuStreaming, seed 3, virtual clock."""
    options = CampaignSpec(scenarios=(builtin_scenario("static"),), backend="runtime").cell_options()
    through_campaign = Record.from_dict(campaign.run_cell({
        "scenario": builtin_scenario("static").to_dict(), "system": "continustreaming",
        "num_nodes": 20, "rounds": 8, "seed": 3, "cell_seed": 3,
        "backend": "runtime", "options": options,
    }))
    through_matrix = run_cell(quality_matrix.cell("runtime", 20, 8, "continustreaming", 3))
    _, through_parity = parity_pair("static", 20, 8, 3, VIRTUAL)
    record = without_wall_time(through_matrix)
    assert without_wall_time(through_campaign) == record
    assert without_wall_time(through_parity) == record
    golden = GOLDENS["static_20x8_seed3"]
    assert record["counts"]["messages_sent"] == golden["messages_sent"] == 3466
    assert record["counts"]["bytes_on_wire"] == golden["bytes_on_wire"] == 48281
    assert record["metrics"]["stable_continuity"] == golden["stable_continuity"]
    assert list(record["counts"]) == list(COUNT_NAMES)
    assert list(record["metrics"]) == list(METRIC_NAMES)
    assert (record["version"], record["seed"], record["cell_seed"]) == (2, 3, 3)


def test_a_simulator_record_has_no_counts_and_round_trips():
    record = run_cell(Cell("static", "sim", 20, 4, "coolstreaming", 1))
    assert record.counts == {} and record.result is not None
    data = json.loads(json.dumps(record.to_dict()))
    assert "result" not in data
    assert Record.from_dict(data) == record


def test_an_unknown_driver_is_refused():
    with pytest.raises(ValueError, match="unknown backend"):
        Cell("static", "telepathy", 20, 4, "continustreaming")


def test_the_store_still_loads_a_version_1_line(tmp_path):
    path = tmp_path / "old.jsonl"
    path.write_text(GOLDENS["parent_jsonl_line"] + "\n")
    (record,) = ResultsStore.load(path)
    old = json.loads(GOLDENS["parent_jsonl_line"])
    assert (record.driver, record.nodes, record.periods) == (
        old["backend"], old["num_nodes"], old["rounds"],
    )
    assert (record.seed, record.cell_seed, record.metrics) == (
        old["seed"], old["cell_seed"], old["metrics"],
    )
    assert record.counts == {} and record.version == 2
    assert record.group_key == "static/continustreaming/n20"
