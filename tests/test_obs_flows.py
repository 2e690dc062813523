"""Flow matrix, overlay topology, and run diffing (the obs plane's
cross-shard introspection layer).

Covers the bounded :class:`FlowMatrix` accounting (compaction must
conserve totals), :func:`merge_topo`'s cross-shard graph union,
:func:`diff_obs` verdict semantics (what is a regression vs a warning
vs noise), the JSONL round-trip of the new record kinds, and the
``obs diff`` CLI end-to-end — including the load-bearing promise that
two same-seed virtual runs diff clean.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import main
from repro.obs import (
    FlowMatrix,
    ObsConfig,
    TopologyObserver,
    diff_obs,
    load_obs_jsonl,
    merge_flows,
    merge_topo,
    render_diff,
    write_obs_jsonl,
)
from repro.runtime import LiveSwarm
from repro.scenarios.library import builtin_scenario


@pytest.fixture(scope="module")
def traced_export():
    """One small traced virtual run's merged obs export."""
    spec = builtin_scenario("static").scaled(num_nodes=30, rounds=8, seed=3)
    result = LiveSwarm(spec, clock="virtual", obs=ObsConfig(trace_sample=4)).run()
    assert result.obs is not None
    return result.obs


class TestFlowMatrix:
    def test_record_splits_data_from_control(self):
        fm = FlowMatrix(top_links=8)
        fm.record(1, 2, 100, data=True)
        fm.record(1, 2, 40, data=False)
        fm.record(2, 1, 10, data=False)
        out = fm.to_dict()
        assert out["links"] == [[1, 2, 2, 140, 1, 100], [2, 1, 1, 10, 0, 0]]
        assert out["tail"]["links"] == 0

    def test_compaction_bounds_memory_and_conserves_totals(self):
        fm = FlowMatrix(top_links=2)
        frames = 0
        nbytes = 0
        for src in range(20):
            for _ in range(src + 1):  # heavier links for higher src
                fm.record(src, 99, 10, data=True)
                frames += 1
                nbytes += 10
        assert len(fm.links) <= 4 * fm.top_links
        out = fm.to_dict()
        assert len(out["links"]) <= 2
        # The heaviest talkers survive compaction...
        assert [row[:2] for row in out["links"]] == [[19, 99], [18, 99]]
        # ...and nothing is lost: links + tail add back to the totals.
        total_frames = sum(r[2] for r in out["links"]) + out["tail"]["frames"]
        total_bytes = sum(r[3] for r in out["links"]) + out["tail"]["bytes"]
        assert (total_frames, total_bytes) == (frames, nbytes)
        assert out["tail"]["data_bytes"] + sum(r[5] for r in out["links"]) == nbytes

    def test_to_dict_export_is_nondestructive(self):
        fm = FlowMatrix(top_links=1)
        for src in range(3):
            fm.record(src, 9, 10 * (src + 1), data=False)
        first = fm.to_dict()
        second = fm.to_dict()
        assert first == second
        assert len(fm.links) == 3  # live table untouched by export folding

    def test_shard_pairs_accumulate_totals(self):
        fm = FlowMatrix()
        fm.record_physical(0, 1, 500, frames=3)
        assert fm.to_dict()["pairs"] == [[0, 1, 3, 500]]
        fm.record_physical(0, 1, 100, frames=1)
        fm.record_physical(1, 0, 50, frames=1)
        out = fm.to_dict()
        assert out["pairs"] == [[0, 1, 4, 600], [1, 0, 1, 50]]

    def test_empty_and_validation(self):
        assert FlowMatrix().empty
        fm = FlowMatrix()
        fm.record(1, 2, 1, data=False)
        assert not fm.empty
        with pytest.raises(ValueError):
            FlowMatrix(top_links=0)

    def test_merge_flows_sums_links_pairs_and_tails(self):
        a = FlowMatrix(top_links=4)
        a.record(1, 2, 100, data=True)
        a.record_physical(0, 1, 100)
        b = FlowMatrix(top_links=4)
        b.record(1, 2, 50, data=False)
        b.record(3, 4, 10, data=False)
        b.record_physical(0, 1, 50)
        b.record_physical(1, 0, 5)
        merged = merge_flows([a.to_dict(), None, b.to_dict()])
        assert merged["links"][0] == [1, 2, 2, 150, 1, 100]
        assert [3, 4, 1, 10, 0, 0] in merged["links"]
        assert merged["pairs"] == [[0, 1, 2, 150], [1, 0, 1, 5]]
        assert merge_flows([None, None]) is None

    def test_merge_rebounds_to_top_k(self):
        parts = []
        for shard in range(3):
            fm = FlowMatrix(top_links=2)
            fm.record(shard * 10, 99, 100 - shard, data=False)
            fm.record(shard * 10 + 1, 99, 1, data=False)
            parts.append(fm.to_dict())
        merged = merge_flows(parts)
        assert merged["top_links"] == 2
        assert len(merged["links"]) == 2
        kept = sum(r[3] for r in merged["links"])
        assert kept + merged["tail"]["bytes"] == sum(
            sum(r[3] for r in p["links"]) for p in parts
        )


class TestTopology:
    def test_observer_validates_coverage_periods(self):
        with pytest.raises(ValueError):
            TopologyObserver(coverage_periods=0)
        assert TopologyObserver().last is None

    def test_merge_topo_unions_shards_and_detects_partitions(self):
        part_a = {
            "period": 5, "coverage_periods": 3,
            "adjacency": [[1, [2]], [2, [1]]],
            "partner_pairs": 2, "covered_pairs": 2,
            "finger_alive": 3, "finger_total": 4,
        }
        part_b = {
            "period": 6, "coverage_periods": 3,
            "adjacency": [[7, [8]], [8, [7]]],
            "partner_pairs": 2, "covered_pairs": 1,
            "finger_alive": 1, "finger_total": 4,
        }
        merged = merge_topo([part_a, None, part_b])
        assert merged["shards_merged"] == 2
        assert merged["period"] == 6
        # {1,2} and {7,8} never connect: the union has two components.
        assert merged["components"] == 2
        assert merged["component_nodes"] == 4
        assert merged["coverage"] == pytest.approx(3 / 4)
        assert merged["finger_health"] == pytest.approx(4 / 8)
        assert merged["nodes"] == 4 and merged["edges"] == 4
        assert merge_topo([None]) is None

    def test_merge_topo_bridged_shards_form_one_component(self):
        part_a = {"adjacency": [[1, [2]]], "partner_pairs": 1, "covered_pairs": 1}
        part_b = {"adjacency": [[2, [3]], [3, [1]]],
                  "partner_pairs": 2, "covered_pairs": 2}
        merged = merge_topo([part_a, part_b])
        assert merged["components"] == 1
        assert merged["component_nodes"] == 3

    def test_live_run_exports_consistent_topology(self, traced_export):
        topo = traced_export["topo"]
        degree_sum = sum(len(nbrs) for _, nbrs in topo["adjacency"])
        assert degree_sum == topo["edges"] == topo["partner_pairs"]
        assert topo["nodes"] == len(topo["adjacency"])
        assert sum(n for _, n in topo["out_degree_hist"]) == topo["nodes"]


def continuity_records(*values):
    """One shard's period records carrying a ``continuity`` gauge."""
    return [
        {"shard": 0, "period": period, "gauges": {"continuity": value}}
        for period, value in enumerate(values)
    ]


class TestDiffObs:
    def _export(self, **over):
        base = {
            "metrics": {
                "counters": {"messages_sent": 1000.0, "segments_dropped": 10.0},
            },
            "records": continuity_records(0.9, 0.95),
            "traces": {
                "sampled": 100, "played": 95,
                "request_to_deliver_s": {"p50": 0.5, "p95": 1.0},
            },
            "postmortems": [],
            "flows": {
                "links": [[1, 2, 10, 1000, 5, 800]],
                "pairs": [[0, 1, 10, 1000]],
            },
        }
        base.update(over)
        return base

    def test_identical_exports_diff_clean(self):
        diff = diff_obs(self._export(), self._export())
        assert diff["ok"]
        assert diff["regressions"] == []
        assert diff["warnings"] == []
        assert diff["changes"] == []
        assert "OK" in render_diff(diff)

    def test_p95_latency_regression_is_flagged(self):
        cand = self._export()
        cand["traces"] = dict(cand["traces"],
                              request_to_deliver_s={"p50": 0.5, "p95": 1.3})
        diff = diff_obs(self._export(), cand)
        assert not diff["ok"]
        assert any(r["kind"] == "trace_p95" for r in diff["regressions"])
        assert "regression: trace_p95" in render_diff(diff)

    def test_sub_millisecond_jitter_never_regresses(self):
        base = self._export()
        base["traces"] = dict(base["traces"],
                              request_to_deliver_s={"p50": 1e-4, "p95": 2e-4})
        cand = self._export()
        cand["traces"] = dict(cand["traces"],
                              request_to_deliver_s={"p50": 5e-4, "p95": 9e-4})
        assert diff_obs(base, cand)["ok"]  # 350% worse but under the abs floor

    def test_played_fraction_drop_and_new_postmortems_regress(self):
        cand = self._export(postmortems=[{"reason": "stall"}])
        cand["traces"] = dict(cand["traces"], played=80)
        diff = diff_obs(self._export(), cand)
        kinds = {r["kind"] for r in diff["regressions"]}
        assert {"trace_played_fraction", "postmortems"} <= kinds

    def test_bad_counter_growth_warns_but_does_not_fail(self):
        cand = self._export()
        cand["metrics"] = {
            "counters": {"messages_sent": 1020.0, "segments_dropped": 30.0},
        }
        diff = diff_obs(self._export(), cand)
        assert diff["ok"]
        assert [w["name"] for w in diff["warnings"]] == ["segments_dropped"]
        # messages_sent moved 2% — inside the 5% counter tolerance.
        assert diff["changes"] == []

    def test_flow_churn_and_byte_ratio_are_informational(self):
        cand = self._export()
        cand["flows"] = {
            "links": [[1, 3, 10, 900, 5, 700]],  # different link set
            "pairs": [[0, 1, 12, 1500]],
        }
        diff = diff_obs(self._export(), cand)
        assert diff["ok"]
        assert diff["flows"]["link_churn"] == pytest.approx(1.0)
        assert diff["flows"]["total_bytes"]["ratio"] == pytest.approx(1.5)
        report = render_diff(diff)
        assert "flow link churn" in report
        assert "wire bytes" in report

    def test_series_movers_rank_by_relative_shift(self):
        cand = self._export(records=continuity_records(0.45, 0.475))
        diff = diff_obs(self._export(), cand)
        movers = diff["series_movers"]
        assert movers[0]["name"] == "continuity"
        assert movers[0]["rel_mean_shift"] == pytest.approx(-0.5)


class TestJsonlRoundTrip:
    def test_flows_topo_and_socket_links_survive_the_artifact(
        self, traced_export, tmp_path
    ):
        obs = dict(traced_export)
        obs["socket_links"] = [
            {"src_shard": 0, "dst_shard": 1, "frames_out": 9, "frames_in": 8,
             "bytes_out": 900, "bytes_in": 800, "sheds": 0, "disconnects": 1,
             "reconnects": 1, "lost": 0},
        ]
        path = write_obs_jsonl(tmp_path / "obs.jsonl", obs)
        kinds = {json.loads(line)["type"] for line in path.read_text().splitlines()}
        assert {"flows", "topo", "socket_link"} <= kinds
        loaded = load_obs_jsonl(path)
        normalize = lambda value: json.loads(json.dumps(value))  # noqa: E731
        assert loaded["flows"] == normalize(obs["flows"])
        assert loaded["topo"] == normalize(obs["topo"])
        assert loaded["socket_links"] == normalize(obs["socket_links"])


class TestObsDiffCli:
    def _export_run(self, tmp_path, name):
        spec = builtin_scenario("static").scaled(num_nodes=24, rounds=6, seed=7)
        result = LiveSwarm(spec, clock="virtual", obs=ObsConfig(trace_sample=4)).run()
        return write_obs_jsonl(tmp_path / name, result.obs)

    def test_same_seed_runs_diff_with_zero_regressions(self, tmp_path, capsys):
        baseline = self._export_run(tmp_path, "a.jsonl")
        candidate = self._export_run(tmp_path, "b.jsonl")
        verdict_path = tmp_path / "verdict.json"
        code = main([
            "obs", "diff", "--baseline", str(baseline), "--in", str(candidate),
            "--verdict-out", str(verdict_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "obs diff: OK" in out
        verdict = json.loads(verdict_path.read_text())
        assert verdict["ok"] is True
        assert verdict["regressions"] == []
        assert verdict["warnings"] == []
        assert verdict["baseline"] == str(baseline)
        assert verdict["candidate"] == str(candidate)

    def test_strict_mode_gates_on_regressions(self, tmp_path):
        base = {"traces": {"sampled": 10, "played": 10,
                           "request_to_deliver_s": {"p95": 1.0}}}
        cand = {"traces": {"sampled": 10, "played": 10,
                           "request_to_deliver_s": {"p95": 2.0}}}
        a = write_obs_jsonl(tmp_path / "a.jsonl", base)
        b = write_obs_jsonl(tmp_path / "b.jsonl", cand)
        with pytest.raises(SystemExit, match="REGRESSIONS"):
            main(["obs", "diff", "--baseline", str(a), "--in", str(b), "--strict"])
        # warn-only default: the same diff exits 0
        assert main(["obs", "diff", "--baseline", str(a), "--in", str(b)]) == 0

    def test_cli_guards(self, tmp_path):
        with pytest.raises(SystemExit, match="needs --baseline"):
            main(["obs", "diff", "--in", str(tmp_path / "x.jsonl")])
        with pytest.raises(SystemExit, match="unknown obs mode"):
            main(["obs", "frobnicate", "--in", str(tmp_path / "x.jsonl")])
        with pytest.raises(SystemExit, match="no sub-mode"):
            main(["fig3", "diff"])
