"""The seed × scale quality matrix (``tools/quality_matrix.py``) at toy size."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from statistics import fmean

import pytest

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
        assert not set(quality_matrix.COUNTS) & set(result["cells"]["sim 20x8"][system])
        stats = result["cells"]["runtime 20x8"][system]
        for count in quality_matrix.COUNTS:
            assert len(stats[count]["by_seed"]) == 2
            assert all(value > 0 for value in stats[count]["by_seed"])
            assert stats[count]["mean"] == pytest.approx(fmean(stats[count]["by_seed"]))
    lines = quality_matrix.render(result)
    assert sum("Δ continu - cool" in line for line in lines) == 2


def test_a_cell_repeats_exactly():
    cell = ("runtime", 20, 8, "continustreaming", 3)
    assert quality_matrix.run_cell(*cell) == quality_matrix.run_cell(*cell)

