"""Tests for the campaign runner and the unified results store."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.experiments import runner as cli_runner
from repro.experiments.figures import FIGURES
from repro.scenarios import (
    CampaignRunner,
    CampaignSpec,
    Record,
    ResultsStore,
    ScenarioSpec,
    builtin_scenario,
    cell_seed_for,
    run_campaign,
)

TINY_OVERRIDES = dict(
    buffer_capacity=200, scheduling_window=80, playback_lag_segments=40
)


def tiny_scenarios():
    """Two fast scenarios (30 nodes) for grid tests."""
    return tuple(
        ScenarioSpec.from_dict(
            {
                **builtin_scenario(name).scaled(num_nodes=30, rounds=4).to_dict(),
                "config_overrides": TINY_OVERRIDES,
            }
        )
        for name in ("static", "paper-dynamic")
    )


def comparable_records(store: ResultsStore):
    """Record dicts with the wall-clock timing stripped."""
    records = []
    for result in store:
        record = result.to_dict()
        record.pop("wall_time_s")
        records.append(record)
    return records


class TestCellSeeding:
    def test_cell_seed_is_deterministic_and_coordinate_dependent(self):
        assert cell_seed_for(0, "static", 30) == cell_seed_for(0, "static", 30)
        seeds = {
            cell_seed_for(0, "static", 30),
            cell_seed_for(1, "static", 30),
            cell_seed_for(0, "flash-crowd", 30),
            cell_seed_for(0, "static", 60),
        }
        assert len(seeds) == 4

    def test_systems_are_paired_on_the_same_cell_seed(self):
        # Cross-system comparisons must run on identical topology/bandwidth
        # (the repo's paired A/B methodology), so the cell seed is
        # independent of the protocol.
        campaign = CampaignSpec(
            scenarios=tiny_scenarios()[:1],
            seeds=(0,),
            systems=("coolstreaming", "continustreaming"),
        )
        payloads = campaign.cell_payloads()
        assert len(payloads) == 2
        assert payloads[0]["cell_seed"] == payloads[1]["cell_seed"]
        assert {p["system"] for p in payloads} == {
            "coolstreaming", "continustreaming"
        }

    def test_grid_order_is_deterministic(self):
        campaign = CampaignSpec(
            scenarios=tiny_scenarios(), seeds=(0, 1), node_counts=(30,)
        )
        payloads = campaign.cell_payloads()
        assert len(payloads) == 4
        coordinates = [
            (p["scenario"]["name"], p["num_nodes"], p["seed"]) for p in payloads
        ]
        assert coordinates == [
            ("static", 30, 0),
            ("static", 30, 1),
            ("paper-dynamic", 30, 0),
            ("paper-dynamic", 30, 1),
        ]
        assert campaign.cell_payloads() == payloads

    def test_campaign_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(scenarios=())
        with pytest.raises(ValueError):
            CampaignSpec(scenarios=tiny_scenarios(), seeds=())
        with pytest.raises(ValueError):
            CampaignRunner(CampaignSpec(scenarios=tiny_scenarios()), workers=0)

    def test_duplicate_scenario_names_rejected(self):
        # Seeds and result groups key on the name; two different workloads
        # sharing one would silently merge.
        static = builtin_scenario("static")
        variant = static.scaled(num_nodes=60)
        with pytest.raises(ValueError, match="duplicate scenario names.*static"):
            CampaignSpec(scenarios=(static, variant))

    def test_results_stream_to_jsonl_as_cells_finish(self, tmp_path):
        # The serial path appends each cell before starting the next, so an
        # interrupted campaign keeps its finished prefix on disk.
        path = tmp_path / "cells.jsonl"
        store = ResultsStore(path=path)
        campaign = CampaignSpec(scenarios=tiny_scenarios()[:1], seeds=(0, 1))
        seen_lines = []
        original_append = ResultsStore.append

        def tracking_append(self, result):
            original_append(self, result)
            seen_lines.append(len(path.read_text().strip().splitlines()))

        ResultsStore.append = tracking_append
        try:
            CampaignRunner(campaign, workers=1).run(store)
        finally:
            ResultsStore.append = original_append
        assert seen_lines == [1, 2]


class TestCampaignDeterminism:
    def test_same_seeds_produce_identical_metrics(self):
        campaign = CampaignSpec(scenarios=tiny_scenarios(), seeds=(0, 1))
        first = CampaignRunner(campaign, workers=1).run()
        second = CampaignRunner(campaign, workers=1).run()
        assert comparable_records(first) == comparable_records(second)
        assert json.dumps(first.summary(), sort_keys=True) == json.dumps(
            second.summary(), sort_keys=True
        )

    def test_parallel_equals_serial(self):
        campaign = CampaignSpec(scenarios=tiny_scenarios(), seeds=(0, 1))
        serial = CampaignRunner(campaign, workers=1).run()
        parallel = CampaignRunner(campaign, workers=2).run()
        assert comparable_records(serial) == comparable_records(parallel)
        assert json.dumps(serial.summary(), sort_keys=True) == json.dumps(
            parallel.summary(), sort_keys=True
        )

    def test_run_campaign_wrapper_with_store(self, tmp_path):
        store = run_campaign(
            ["static"],
            seeds=[0],
            node_counts=[30],
            rounds=3,
            workers=1,
            results_path=tmp_path / "results.jsonl",
        )
        assert len(store) == 1
        reloaded = ResultsStore.load(tmp_path / "results.jsonl")
        assert comparable_records(reloaded) == comparable_records(store)


class TestResultsStore:
    @staticmethod
    def make_result(seed: int, continuity: float) -> Record:
        return Record(
            scenario="static",
            driver="sim",
            nodes=30,
            periods=4,
            system="continustreaming",
            seed=seed,
            cell_seed=seed,
            metrics={"stable_continuity": continuity},
            wall_time_s=0.5,
        )

    def test_summary_statistics(self):
        store = ResultsStore()
        store.append(self.make_result(0, 0.8))
        store.append(self.make_result(1, 0.9))
        summary = store.summary()
        stats = summary["static/continustreaming/n30"]["stable_continuity"]
        assert stats["mean"] == pytest.approx(0.85)
        assert stats["count"] == 2
        # ci95 uses the sample std (ddof=1), not the population std.
        sample_std = stats["std"] * (2 / 1) ** 0.5
        assert stats["ci95"] == pytest.approx(1.96 * sample_std / 2**0.5)
        assert store.total_wall_time_s() == pytest.approx(1.0)

    def test_single_seed_has_zero_ci(self):
        store = ResultsStore()
        store.append(self.make_result(0, 0.8))
        stats = store.summary()["static/continustreaming/n30"]["stable_continuity"]
        assert stats["ci95"] == 0.0

    def test_jsonl_streaming_and_summary_file(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        store = ResultsStore(path=path)
        store.append(self.make_result(0, 0.8))
        store.append(self.make_result(1, 0.9))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["seed"] == 0
        summary_path = store.write_summary(tmp_path / "summary.json")
        payload = json.loads(summary_path.read_text())
        assert "static/continustreaming/n30" in payload

    def test_formatting_smoke(self):
        store = ResultsStore()
        store.append(self.make_result(0, 0.8))
        assert "seed=0" in store.format_results()
        assert "static/continustreaming/n30" in store.format_summary()


class TestCampaignCli:
    def test_campaign_command(self, capsys):
        exit_code = cli_runner.main(
            [
                "campaign",
                "--scenario", "static",
                "--seeds", "2",
                "--workers", "2",
                "--nodes", "30",
                "--rounds", "3",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "per-seed results:" in output
        assert "seed=0" in output and "seed=1" in output
        assert "aggregates (mean ± 95% CI over seeds):" in output

    def test_campaign_writes_output_files(self, capsys, tmp_path):
        exit_code = cli_runner.main(
            [
                "campaign",
                "--scenario", "static",
                "--seeds", "1",
                "--nodes", "30",
                "--rounds", "3",
                "--out", str(tmp_path),
            ]
        )
        assert exit_code == 0
        assert (tmp_path / "campaign_results.jsonl").is_file()
        assert (tmp_path / "campaign_summary.json").is_file()

    def test_seed_flag_offsets_the_sweep(self, capsys):
        exit_code = cli_runner.main(
            [
                "campaign",
                "--scenario", "static",
                "--seed", "7",
                "--seeds", "2",
                "--nodes", "30",
                "--rounds", "3",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "seed=7" in output and "seed=8" in output
        assert "seed=0" not in output

    def test_all_excludes_campaign_and_runtime(self, capsys, monkeypatch):
        """``all`` runs exactly the figure table's rows, in table order, and
        none of the live commands."""
        ran = []
        monkeypatch.setattr(cli_runner, "FIGURES", tuple(
            replace(row, run=lambda params, name=row.id: ran.append(name), format=repr)
            for row in FIGURES
        ))

        def refuse(args):
            raise AssertionError(f"'all' ran the live {args.experiment} command")

        monkeypatch.setattr(
            cli_runner, "COMMANDS", {name: refuse for name in cli_runner.COMMANDS}
        )
        assert cli_runner.main(["all", "--nodes", "40"]) == 0
        ids = [row.id for row in FIGURES]
        assert ran == ids
        headers = [
            line for line in capsys.readouterr().out.splitlines() if line.startswith("====")
        ]
        assert headers == [f"==== {name} ====" for name in ids]
        assert not {"campaign", "runtime", "cluster", "obs"} & set(ids)


class TestIncompleteCampaigns:
    """Interrupts and worker death flush partial results instead of losing them."""

    def test_keyboard_interrupt_flushes_partial_jsonl(self, tmp_path, monkeypatch):
        from repro.scenarios import campaign as campaign_mod

        campaign = CampaignSpec(scenarios=tiny_scenarios(), seeds=(0, 1))
        assert len(campaign.cell_payloads()) == 4
        original = campaign_mod.run_cell
        calls = {"done": 0}

        def interrupted_run_cell(payload):
            if calls["done"] >= 2:
                raise KeyboardInterrupt
            calls["done"] += 1
            return original(payload)

        monkeypatch.setattr(campaign_mod, "run_cell", interrupted_run_cell)
        path = tmp_path / "results.jsonl"
        store = CampaignRunner(campaign, workers=1).run(ResultsStore(path=path))
        assert len(store) == 2
        assert not store.is_complete
        assert "KeyboardInterrupt" in store.incomplete_reason
        assert len(store.missing_cells) == 2
        for cell in store.missing_cells:
            assert set(cell) == {"scenario", "system", "num_nodes", "seed"}
        # the finished prefix and the marker both survived on disk
        loaded = ResultsStore.load(path)
        assert len(loaded) == 2
        assert not loaded.is_complete
        assert loaded.incomplete_reason == store.incomplete_reason
        assert loaded.missing_cells == store.missing_cells

    def test_worker_failure_marks_incomplete_instead_of_raising(self, tmp_path):
        good = tiny_scenarios()[0].scaled(rounds=2)
        bad = ScenarioSpec.from_dict(
            {
                **good.to_dict(),
                "name": "bad-cell",
                # passes spec validation, explodes inside the worker's
                # SystemConfig construction — a deterministic worker death
                "config_overrides": {"no_such_config_option": 1},
            }
        )
        campaign = CampaignSpec(scenarios=(good, bad), seeds=(0,))
        path = tmp_path / "results.jsonl"
        store = CampaignRunner(campaign, workers=2).run(ResultsStore(path=path))
        assert len(store) == 1
        assert not store.is_complete
        assert store.incomplete_reason.startswith("worker failed")
        assert [cell["scenario"] for cell in store.missing_cells] == ["bad-cell"]

    def test_incomplete_summary_file_is_self_describing(self, tmp_path, monkeypatch):
        from repro.scenarios import campaign as campaign_mod

        campaign = CampaignSpec(scenarios=tiny_scenarios()[:1], seeds=(0, 1))

        def always_interrupt(payload):
            raise KeyboardInterrupt

        monkeypatch.setattr(campaign_mod, "run_cell", always_interrupt)
        store = CampaignRunner(campaign, workers=1).run()
        summary_path = tmp_path / "summary.json"
        store.write_summary(summary_path)
        payload = json.loads(summary_path.read_text())
        assert "__incomplete__" in payload
        assert payload["__incomplete__"]["reason"] == store.incomplete_reason
        assert len(payload["__incomplete__"]["missing_cells"]) == 2
        assert "WARNING" in store.format_incomplete()

    def test_complete_campaign_stays_unmarked(self, tmp_path):
        store = run_campaign(
            [tiny_scenarios()[0].scaled(rounds=2)],
            seeds=(0,),
            results_path=tmp_path / "results.jsonl",
        )
        assert store.is_complete
        assert store.format_incomplete() == ""
        summary_path = store.write_summary(tmp_path / "summary.json")
        assert "__incomplete__" not in json.loads(summary_path.read_text())
