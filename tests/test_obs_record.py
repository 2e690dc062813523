"""The period record: one record per shard and period, one obs file.

Every reader of an obs-enabled run reads the same period records
(``repro.obs.record``): the report and ``obs diff`` rebuild their
per-period curves from them, the health engine, the cockpit and the
Prometheus exposition keep each shard's latest one.  These tests pin:

* the outputs of the two-dialect plane this record replaced — the
  ``render_report`` text, the ``obs --live --once`` cockpit, the ``.prom``
  exposition, ``HealthEngine.snapshot()`` and the ``obs diff`` verdict of
  seed 0 against seed 1 — on virtual ``static`` and ``paper-dynamic``
  40 x 12 runs with ``--slo continuity>=0.5``, byte for byte
  (``tests/data/obs_pins``), now read from the one file;
* that the records a run streams are the records it exports, and that
  each shard's last record holds its exported totals;
* that a file cut before its export still renders, in ``obs --in`` and
  ``obs --live``.

Phase timings (``phase_*_s``) are host CPU time; the pinned runs read a
counter instead, so their histograms are deterministic.
"""

import dataclasses
import io
import itertools
import json
import types
from pathlib import Path

import pytest

import repro.runtime.peer as peer_module
from repro.experiments.runner import main
from repro.obs import (
    ObsConfig,
    ObsRecorder,
    diff_obs,
    load_obs_jsonl,
    parse_slo,
    period_series,
    render_diff,
    render_report,
    run_live,
)
from repro.obs.record import parse_lines
from repro.runtime import RunOptions, run
from repro.scenarios.library import builtin_scenario

PINS = Path(__file__).parent / "data" / "obs_pins"
SCENARIOS = ("static", "paper-dynamic")
SLO = "continuity>=0.5"


def counter_time():
    """A stand-in ``time`` module whose clock advances 2**-20 s a read."""
    ticks = itertools.count()
    return types.SimpleNamespace(perf_counter=lambda: next(ticks) * 2.0 ** -20)


def pinned_run(name, seed, path):
    """One virtual 40 x 12 run streaming its obs file to ``path``."""
    spec = builtin_scenario(name).scaled(num_nodes=40, rounds=12, seed=seed)
    options = RunOptions(clock="virtual", obs=ObsConfig(), slo=parse_slo(SLO), obs_out=str(path))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(peer_module, "time", counter_time())
        return run(spec, options)


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    """Per scenario: the seed-0 result and both seeds' obs files."""
    out = {}
    for name in SCENARIOS:
        paths = [tmp_path_factory.mktemp(name) / f"seed{seed}.jsonl" for seed in (0, 1)]
        results = [pinned_run(name, seed, path) for seed, path in enumerate(paths)]
        out[name] = (results[0], paths)
    return out


def pin(name, what):
    return (PINS / f"{name}.{what}").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", SCENARIOS)
class TestPinnedOutputs:
    def test_report(self, pinned, name):
        _, (path, _) = pinned[name]
        assert render_report(load_obs_jsonl(path)) + "\n" == pin(name, "report.txt")

    def test_cockpit(self, pinned, name):
        _, (path, _) = pinned[name]
        out = io.StringIO()
        run_live(path, once=True, out=out)
        assert out.getvalue() == pin(name, "cockpit.txt")

    def test_exposition(self, pinned, name):
        _, (path, _) = pinned[name]
        assert Path(f"{path}.prom").read_text(encoding="utf-8") == pin(name, "prom")

    def test_health_snapshot(self, pinned, name):
        result, _ = pinned[name]
        assert json.dumps(result.health, sort_keys=True, indent=1) + "\n" == pin(
            name, "health.json"
        )

    def test_diff_verdict(self, pinned, name):
        _, (seed0, seed1) = pinned[name]
        verdict = diff_obs(load_obs_jsonl(seed0), load_obs_jsonl(seed1))
        assert json.dumps(verdict, sort_keys=True, indent=1) + "\n" == pin(name, "diff.json")
        assert render_diff(verdict) + "\n" == pin(name, "diff.txt")


def file_lines(path):
    with open(path, encoding="utf-8") as fh:
        return list(parse_lines(fh))


@pytest.mark.parametrize("name", SCENARIOS)
class TestOneFile:
    def test_streamed_records_are_the_exported_records(self, pinned, name):
        result, (path, _) = pinned[name]
        streamed = [
            {k: v for k, v in line.items() if k != "type"}
            for line in file_lines(path)
            if line["type"] == "period"
        ]
        assert [r["period"] for r in streamed] == list(range(12))
        assert streamed == json.loads(json.dumps(result.obs["records"]))

    def test_live_lines_come_first_then_the_export(self, pinned, name):
        _, (path, _) = pinned[name]
        kinds = [line["type"] for line in file_lines(path)]
        live = kinds.index("meta")
        assert set(kinds[:live]) <= {"period", "alert"}
        assert "period" not in kinds[live:]
        assert kinds[-1] == "summary"

    def test_a_file_cut_before_its_export_still_renders(self, pinned, name, tmp_path, capsys):
        _, (path, _) = pinned[name]
        text = path.read_text(encoding="utf-8")
        live = text.rindex("\n", 0, text.index('"type": "meta"')) + 1
        cut = tmp_path / "cut.jsonl"
        cut.write_text(text[:live] + text[live:live + 40], encoding="utf-8")  # torn mid-line
        loaded = load_obs_jsonl(cut)
        assert len(loaded["records"]) == 12
        assert loaded["skipped_lines"] == 1
        assert main(["obs", "--in", str(cut)]) == 0
        report = capsys.readouterr().out
        assert "timeseries (per period)" in report
        assert "messages_sent" in report
        assert main(["obs", "--live", "--once", "--in", str(cut)]) == 0
        cockpit = capsys.readouterr().out
        assert "live cockpit — period 11, 1 shard(s), 12 frame(s)" in cockpit


class TestRecordTotals:
    """A record's counters, gauges and flows are cumulative: the last one
    holds the run's exported totals, and nothing needs adding up."""

    @pytest.fixture(scope="class")
    def counted(self):
        """A run whose histograms also count into counters, so every
        period record carries counters that grow."""
        observe = ObsRecorder.observe

        def counting(self, name, value):
            observe(self, name, value)
            self.inc(f"{name}_count")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ObsRecorder, "observe", counting)
            spec = builtin_scenario("paper-dynamic").scaled(num_nodes=40, rounds=12, seed=2)
            return run(spec, RunOptions(clock="virtual", obs=ObsConfig(trace_sample=4))).obs

    def test_counters_grow_record_by_record(self, counted):
        counts = [r["counters"]["phase_gossip_s_count"] for r in counted["records"]]
        assert counts == sorted(counts) and counts[0] < counts[-1]

    def test_the_last_record_holds_the_exported_totals(self, counted):
        last = counted["records"][-1]
        assert last["counters"] and last["counters"] == counted["metrics"]["counters"]
        assert last["gauges"] == counted["metrics"]["gauges"]
        assert last["flows"] == counted["flows"]["pairs"]

    def test_the_summed_series_ends_at_the_totals(self, counted):
        series = period_series(counted["records"])
        for name, total in counted["metrics"]["counters"].items():
            assert series[name][-1] == [11, total]

    def test_each_histograms_count_is_its_last_counter(self, counted):
        last = counted["records"][-1]["counters"]
        for name, hist in counted["metrics"]["histograms"].items():
            assert last[f"{name}_count"] == hist["count"]


class TestTheObsOptions:
    def test_obs_config_has_seven_fields(self):
        assert [f.name for f in dataclasses.fields(ObsConfig)] == [
            "metrics", "tracing", "trace_sample", "flight_window", "span_limit",
            "flows", "topo",
        ]

    def test_metrics_out_streams_the_one_file_and_its_exposition(self, tmp_path, capsys):
        path = tmp_path / "obs.jsonl"
        assert main(["runtime", "--clock", "virtual", "--nodes", "20", "--rounds", "4",
                     "--metrics-out", str(path)]) == 0
        assert f"written to {path}" in capsys.readouterr().out
        kinds = [line["type"] for line in file_lines(path)]
        assert kinds[:4] == ["period"] * 4 and kinds[-1] == "summary"
        assert Path(f"{path}.prom").read_text(encoding="utf-8").startswith("# TYPE ")
