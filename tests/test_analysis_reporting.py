"""Tests for the plain-text reporting helpers."""

from __future__ import annotations

import pytest

from repro.analysis.reporting import (
    compare_results,
    continuity_increment,
    describe_result,
    per_round_table,
    sparkline,
)
from repro.core.system import run_comparison


@pytest.fixture(scope="module")
def comparison(request):
    from repro.core.config import SystemConfig

    config = SystemConfig(
        num_nodes=40, rounds=10, buffer_capacity=200, scheduling_window=80,
        playback_lag_segments=40, seed=4,
    )
    return run_comparison(config)


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_length_capped_at_width(self):
        assert len(sparkline([0.5] * 200, width=40)) == 40

    def test_short_series_keeps_length(self):
        assert len(sparkline([0.0, 0.5, 1.0])) == 3

    def test_extremes_map_to_extreme_glyphs(self):
        line = sparkline([0.0, 1.0])
        assert line[0] == " "
        assert line[-1] == "@"

    def test_values_clamped(self):
        assert sparkline([-1.0, 2.0]) == sparkline([0.0, 1.0])


class TestResultReports:
    def test_describe_result_mentions_key_metrics(self, comparison):
        text = describe_result(comparison["continustreaming"])
        assert "stable continuity" in text
        assert "pre-fetch overhead" in text
        assert "continustreaming" in text

    def test_compare_results_contains_both_rows(self, comparison):
        text = compare_results(comparison)
        assert "coolstreaming" in text and "continustreaming" in text

    def test_continuity_increment(self, comparison):
        delta = continuity_increment(comparison)
        assert delta == pytest.approx(
            comparison["continustreaming"].stable_continuity()
            - comparison["coolstreaming"].stable_continuity()
        )

    def test_continuity_increment_requires_both_systems(self, comparison):
        with pytest.raises(KeyError):
            continuity_increment({"coolstreaming": comparison["coolstreaming"]})

    def test_per_round_table(self, comparison):
        result = comparison["continustreaming"]
        table = per_round_table(result, every=2)
        assert "continuity" in table
        assert len(table.splitlines()) == 2 + len(result.rounds[::2])
        with pytest.raises(ValueError):
            per_round_table(result, every=0)
