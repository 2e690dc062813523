"""Sim-vs-runtime parity across the built-in scenario matrix.

The acceptance bar: |Δ stable continuity| ≤ 0.03 per scenario, between
the deterministic simulator and a live swarm of the same spec on the
deterministic virtual clock.  Two tiers:

* a **2-scenario smoke** (static + paper-dynamic) that runs on every
  push — both engines, real churn, one overlay size;
* the **full 6-scenario matrix** at a larger size, which takes minutes
  and runs in the nightly/manual CI job (set ``CONTINU_NIGHTLY=1``).

Both tiers run on the virtual clock, so the numbers are bit-reproducible
and independent of machine load — a failure is a real divergence, never
scheduling noise.
"""

import os

import pytest

from repro.runtime import RunOptions
from repro.scenarios import Record
from repro.scenarios.cell import PARITY_TOLERANCE, continuity_delta, parity_pair, parity_table

SMOKE_SCENARIOS = ("static", "paper-dynamic")
VIRTUAL = RunOptions(clock="virtual")


def _pair(scenario: str, sim: float, live: float, driver: str = "runtime"):
    def record(driver: str, continuity: float) -> Record:
        return Record(scenario, driver, 0, 0, "continustreaming", 0, 0,
                      metrics={"stable_continuity": continuity})

    return record("sim", sim), record(driver, live)


def _failures(pairs, tolerance=PARITY_TOLERANCE):
    return [pair for pair in pairs if continuity_delta(pair) > tolerance]


class TestParityMatrixHelpers:
    def test_failures_and_max_delta(self):
        pairs = [_pair("good", 0.95, 0.96), _pair("bad", 0.95, 0.80)]
        assert max(map(continuity_delta, pairs)) == pytest.approx(0.15)
        assert [sim.scenario for sim, _ in _failures(pairs, 0.03)] == ["bad"]
        assert _failures(pairs, 0.2) == []

    def test_formatted_carries_verdicts(self):
        text = parity_table([_pair("good", 0.95, 0.96), _pair("bad", 0.95, 0.80)], 0.03)
        assert "ok" in text and "FAIL" in text
        assert "max |Δ stable continuity|" in text
        assert text.splitlines()[0].split()[:3] == ["scenario", "sim", "runtime"]

    def test_a_cluster_matrix_labels_its_live_column_cluster(self):
        text = parity_table([_pair("static", 0.95, 0.94, driver="cluster")], 0.03)
        assert text.splitlines() == [
            "scenario            sim  cluster      |Δ|  verdict",
            "static           0.9500   0.9400   0.0100  ok",
            "max |Δ stable continuity| = 0.0100 (tolerance 0.03)",
        ]

    def test_empty_matrix_is_trivially_clean(self):
        assert _failures([]) == []
        assert parity_table([]).splitlines()[-1] == (
            f"max |Δ stable continuity| = 0.0000 (tolerance {PARITY_TOLERANCE})"
        )


@pytest.mark.slow
class TestParitySmoke:
    """The 2-scenario parity smoke that runs on every push."""

    def test_static_and_dynamic_parity_within_tolerance(self):
        pairs = [parity_pair(name, 80, 30, 0, VIRTUAL) for name in SMOKE_SCENARIOS]
        assert [sim.scenario for sim, _ in pairs] == list(SMOKE_SCENARIOS)
        for sim, live in pairs:
            # both engines must actually stream, not vacuously agree at 0
            assert sim.metrics["stable_continuity"] > 0.5, parity_table(pairs)
            assert live.metrics["stable_continuity"] > 0.5, parity_table(pairs)
        assert _failures(pairs) == [], parity_table(pairs)


@pytest.mark.nightly
@pytest.mark.skipif(
    os.environ.get("CONTINU_NIGHTLY") != "1",
    reason="full 6-scenario parity matrix runs in the nightly/manual CI job "
    "(set CONTINU_NIGHTLY=1 to run locally)",
)
class TestParityFullMatrix:
    """All six built-in scenarios, the ISSUE-4 acceptance matrix."""

    def test_every_builtin_scenario_within_tolerance(self):
        from repro.scenarios.library import builtin_names

        pairs = [parity_pair(name, 120, 40, 0, VIRTUAL) for name in builtin_names()]
        assert [sim.scenario for sim, _ in pairs] == list(builtin_names())
        assert _failures(pairs) == [], parity_table(pairs)
