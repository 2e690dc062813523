"""The seed × scale quality matrix (``tools/quality_matrix.py``) at toy size."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from statistics import fmean

import pytest

from repro.scenarios import COUNT_NAMES, run_cell

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("quality_matrix", ROOT / "tools" / "quality_matrix.py")
quality_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(quality_matrix)


def test_toy_matrix_has_mean_worst_and_delta_per_row():
    result = quality_matrix.matrix([("sim", 20, 8), ("runtime", 20, 8)], range(2))
    assert json.loads(json.dumps(result)) == result  # what ``--json`` writes
    assert result["seeds"] == [0, 1]
    assert list(result["cells"]) == ["sim 20x8", "runtime 20x8"]
    for entry in result["cells"].values():
        for system in quality_matrix.SYSTEMS:
            stats = entry[system]
            assert len(stats["by_seed"]) == 2
            assert all(0.0 <= value <= 1.0 for value in stats["by_seed"])
            assert stats["mean"] == pytest.approx(fmean(stats["by_seed"]))
            assert stats["worst"] == min(stats["by_seed"])
        expected = entry["continustreaming"]["mean"] - entry["coolstreaming"]["mean"]
        assert entry["delta"] == pytest.approx(expected)
    for system in quality_matrix.SYSTEMS:
        # Runtime rows record their wire counts per seed; the simulator sends none.
        assert not set(COUNT_NAMES) & set(result["cells"]["sim 20x8"][system])
        stats = result["cells"]["runtime 20x8"][system]
        for count in COUNT_NAMES:
            assert len(stats[count]["by_seed"]) == 2
            assert all(isinstance(value, int) and value >= 0 for value in stats[count]["by_seed"])
            assert stats[count]["mean"] == pytest.approx(fmean(stats[count]["by_seed"]))
        for count in quality_matrix.WIRE_COUNTS:
            assert all(value > 0 for value in stats[count]["by_seed"])
    # Algorithm 2's lookups: ContinuStreaming decides some and walks the
    # DHT for them; CoolStreaming has no on-demand phase.
    lookups = result["cells"]["runtime 20x8"]
    assert all(value > 0 for value in lookups["continustreaming"]["lookup_walks"]["by_seed"])
    assert all(
        value > 0 for value in lookups["continustreaming"]["lookups_located"]["by_seed"]
    )
    assert all(
        lookups["coolstreaming"][count]["by_seed"] == [0, 0]
        for count in COUNT_NAMES if count not in quality_matrix.WIRE_COUNTS
    )
    lines = quality_matrix.render(result)
    assert sum("Δ continu - cool" in line for line in lines) == 2


def test_the_runtime_counts_are_the_wire_and_lookup_counters():
    assert COUNT_NAMES == (
        "messages_sent", "bytes_on_wire",
        "lookups_located", "lookups_no_holder", "lookups_no_rate", "lookups_repeated",
        "lookup_walks",
    )


def test_a_cell_repeats_exactly():
    cell = quality_matrix.cell("runtime", 20, 8, "continustreaming", 3)
    first, second = run_cell(cell), run_cell(cell)
    assert (first.metrics, first.counts) == (second.metrics, second.counts)

