"""The campaign runner's live-runtime backend.

ISSUE 4's tentpole acceptance: ``campaign --backend runtime`` fans the
same scenario × seed × size grid over live virtual-clock swarms with the
same SHA-256 per-cell seeding and a byte-compatible JSONL schema, and the
run is **deterministic modulo wall-time fields** — the only field of a
cell record allowed to differ between two runs of the same grid is
``wall_time_s`` (wall-clock cost is machine-dependent by nature; every
metric is produced on the deterministic virtual clock).
"""

import json

import pytest

from repro.runtime import RunOptions
from repro.scenarios import (
    BACKENDS,
    CampaignSpec,
    METRIC_NAMES,
    Record,
    builtin_scenario,
    run_campaign,
)
from repro.scenarios.campaign import cell_seed_for, run_cell

#: The one record field excluded from the determinism guarantee (see the
#: module docstring and docs/scenarios.md).
WALL_TIME_FIELDS = ("wall_time_s",)


def tiny_spec(name="static", num_nodes=25, rounds=6):
    return builtin_scenario(name).scaled(num_nodes=num_nodes, rounds=rounds)


def stripped(record):
    data = dict(record)
    for field in WALL_TIME_FIELDS:
        data.pop(field, None)
    return data


class TestBackendValidation:
    def test_known_backends(self):
        assert BACKENDS == ("sim", "runtime", "cluster")

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            CampaignSpec(
                scenarios=(tiny_spec(),), backend="cluster", options=RunOptions(shards=0)
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            CampaignSpec(scenarios=(tiny_spec(),), backend="telepathy")

    def test_bad_time_scale_rejected(self):
        with pytest.raises(ValueError, match="time_scale"):
            CampaignSpec(
                scenarios=(tiny_spec(),), backend="runtime",
                options=RunOptions(time_scale=0.0),
            )

    def test_run_cell_rejects_unknown_backend(self):
        payload = {
            "scenario": tiny_spec().to_dict(),
            "system": "continustreaming",
            "num_nodes": 25,
            "rounds": 2,
            "seed": 0,
            "cell_seed": 1,
            "backend": "telepathy",
        }
        with pytest.raises(ValueError, match="backend"):
            run_cell(payload)


class TestSchemaCompatibility:
    """Runtime cells are byte-compatible with sim cells: same fields,
    same metric names, same summary structure."""

    @pytest.fixture(scope="class")
    def paired_stores(self):
        stores = {}
        for backend in BACKENDS:
            stores[backend] = run_campaign(
                [tiny_spec()], seeds=(0, 1), backend=backend
            )
        return stores

    def test_metric_names_identical_across_backends(self, paired_stores):
        for backend, store in paired_stores.items():
            for cell in store:
                assert tuple(sorted(cell.metrics)) == tuple(sorted(METRIC_NAMES)), (
                    backend
                )

    def test_record_fields_identical_across_backends(self, paired_stores):
        sim_fields = {
            frozenset(cell.to_dict()) for cell in paired_stores["sim"]
        }
        runtime_fields = {
            frozenset(cell.to_dict()) for cell in paired_stores["runtime"]
        }
        assert sim_fields == runtime_fields

    def test_summary_structure_identical_across_backends(self, paired_stores):
        summaries = {
            backend: store.summary() for backend, store in paired_stores.items()
        }
        assert set(summaries["sim"]) == set(summaries["runtime"])
        for group in summaries["sim"]:
            assert set(summaries["sim"][group]) == set(summaries["runtime"][group])

    def test_cell_seeds_are_backend_independent(self, paired_stores):
        sim_seeds = {
            (c.scenario, c.nodes, c.seed): c.cell_seed
            for c in paired_stores["sim"]
        }
        runtime_seeds = {
            (c.scenario, c.nodes, c.seed): c.cell_seed
            for c in paired_stores["runtime"]
        }
        assert sim_seeds == runtime_seeds
        for (scenario, nodes, seed), cell_seed in sim_seeds.items():
            assert cell_seed == cell_seed_for(seed, scenario, nodes)

    def test_backend_recorded_on_every_cell(self, paired_stores):
        for backend, store in paired_stores.items():
            assert {cell.driver for cell in store} == {backend}

    def test_runtime_cells_actually_streamed(self, paired_stores):
        for cell in paired_stores["runtime"]:
            assert cell.metrics["stable_continuity"] > 0.5
            assert cell.periods == 6

    def test_legacy_records_without_backend_still_load(self):
        record = {
            "scenario": "static", "system": "continustreaming",
            "num_nodes": 10, "seed": 0, "cell_seed": 1, "rounds": 2,
            "metrics": {"stable_continuity": 1.0}, "wall_time_s": 0.1,
        }
        cell = Record.from_dict(record)
        assert cell.driver == "sim"


class TestRuntimeBackendDeterminism:
    """Same grid twice ⇒ identical JSONL modulo wall-time fields."""

    def _run(self, tmp_path, tag, workers):
        path = tmp_path / f"{tag}.jsonl"
        store = run_campaign(
            [tiny_spec(), tiny_spec("paper-dynamic")],
            seeds=(0, 1),
            backend="runtime",
            workers=workers,
            results_path=path,
        )
        assert store.is_complete
        return [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]

    @pytest.mark.slow
    def test_repeated_grids_identical_modulo_wall_time(self, tmp_path):
        first = self._run(tmp_path, "first", workers=1)
        second = self._run(tmp_path, "second", workers=1)
        assert [stripped(r) for r in first] == [stripped(r) for r in second]

    @pytest.mark.slow
    def test_worker_count_does_not_change_results(self, tmp_path):
        serial = self._run(tmp_path, "serial", workers=1)
        parallel = self._run(tmp_path, "parallel", workers=2)
        assert [stripped(r) for r in serial] == [stripped(r) for r in parallel]

    def test_wall_time_is_the_only_machine_dependent_field(self):
        """The exclusion list documents itself: a cell record consists of
        its version, the coordinates (the driver among them), deterministic
        metrics and counts — and the wall-time field(s) listed in
        :data:`WALL_TIME_FIELDS`."""
        record = run_cell(
            {
                "scenario": tiny_spec().to_dict(),
                "system": "continustreaming",
                "num_nodes": 25,
                "rounds": 3,
                "seed": 0,
                "cell_seed": 42,
                "backend": "runtime",
            }
        )
        assert set(WALL_TIME_FIELDS) <= set(record)
        deterministic_fields = set(stripped(record))
        assert deterministic_fields == {
            "version", "scenario", "driver", "nodes", "periods", "system",
            "seed", "cell_seed", "metrics", "counts",
        }


class TestRuntimeBackendCli:
    def test_campaign_backend_flag(self, capsys):
        from repro.experiments.runner import main

        code = main(
            [
                "campaign", "--backend", "runtime", "--scenario", "static",
                "--seeds", "2", "--nodes", "20", "--rounds", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign[runtime]" in out
        assert "static/continustreaming/n20" in out

    def test_campaign_defaults_to_sim_backend(self, capsys):
        from repro.experiments.runner import main

        code = main(
            [
                "campaign", "--scenario", "static",
                "--seeds", "1", "--nodes", "20", "--rounds", "2",
            ]
        )
        assert code == 0
        assert "campaign[sim]" in capsys.readouterr().out


class TestClusterBackend:
    """Cluster cells: multi-process swarms behind the same campaign schema."""

    def test_cluster_cell_reports_the_standard_schema(self):
        store = run_campaign(
            [tiny_spec(num_nodes=24, rounds=6)],
            seeds=[0],
            backend="cluster",
            options=RunOptions(shards=2),
            # Pool workers are daemonic and cannot host shard processes;
            # the runner must fall back to serial cells on its own.
            workers=4,
        )
        assert store.is_complete
        (cell,) = list(store)
        assert cell.driver == "cluster"
        assert set(cell.metrics) == set(METRIC_NAMES)
        assert cell.metrics["stable_continuity"] > 0.0
        assert cell.cell_seed == cell_seed_for(0, "static", 24)


class TestCampaignObs:
    """``--obs`` rides the grid: collision-free per-cell obs JSONL exports."""

    def test_runtime_grid_writes_one_obs_file_per_cell(self, tmp_path):
        from repro.obs import ObsConfig, load_obs_jsonl

        store = run_campaign(
            [tiny_spec(num_nodes=20, rounds=4)],
            seeds=(0, 1),
            backend="runtime",
            options=RunOptions(obs=ObsConfig(trace_sample=8)),
            obs_dir=tmp_path,
        )
        assert store.is_complete
        files = sorted(p.name for p in tmp_path.glob("obs_*.jsonl"))
        assert files == [
            "obs_static_continustreaming_n20_s0_runtime.jsonl",
            "obs_static_continustreaming_n20_s1_runtime.jsonl",
        ]
        for path in tmp_path.glob("obs_*.jsonl"):
            loaded = load_obs_jsonl(path)
            assert loaded["records"], path
        # ...and the grid results themselves are untouched by obs.
        for cell in store:
            assert cell.metrics["stable_continuity"] > 0.5

    def test_cell_obs_filenames_cannot_collide_and_are_sanitized(self):
        from repro.scenarios.campaign import cell_obs_filename

        payloads = [
            {"scenario": {"name": "static"}, "system": "continustreaming",
             "num_nodes": 20, "seed": 0, "backend": "runtime"},
            {"scenario": {"name": "static"}, "system": "continustreaming",
             "num_nodes": 20, "seed": 1, "backend": "runtime"},
            {"scenario": {"name": "static"}, "system": "continustreaming",
             "num_nodes": 200, "seed": 0, "backend": "runtime"},
            {"scenario": {"name": "static"}, "system": "continustreaming",
             "num_nodes": 20, "seed": 0, "backend": "cluster"},
            {"scenario": {"name": "paper-dynamic"}, "system": "continustreaming",
             "num_nodes": 20, "seed": 0, "backend": "runtime"},
        ]
        names = [cell_obs_filename(p) for p in payloads]
        assert len(set(names)) == len(names), names
        hostile = cell_obs_filename(
            {"scenario": {"name": "evil/../name with spaces"},
             "system": "sys$tem", "num_nodes": 5, "seed": 0}
        )
        assert "/" not in hostile and " " not in hostile
        assert hostile.startswith("obs_") and hostile.endswith(".jsonl")

    def test_the_runtime_cell_name_is_pinned_with_and_without_options(self):
        from repro.scenarios.campaign import cell_obs_filename

        cell = {"scenario": {"name": "static"}, "system": "continustreaming",
                "num_nodes": 20, "seed": 0, "backend": "runtime"}
        full = cell_obs_filename(cell)
        # The name is pinned: a run option must not rename every obs
        # artifact ever written by earlier releases.
        assert full == "obs_static_continustreaming_n20_s0_runtime.jsonl"
        assert cell_obs_filename({**cell, "options": RunOptions()}) == full

    def test_sim_backend_rejects_obs(self):
        from repro.obs import ObsConfig

        with pytest.raises(ValueError, match="sim backend"):
            CampaignSpec(
                scenarios=(tiny_spec(),), backend="sim",
                options=RunOptions(obs=ObsConfig()),
            )

    def test_obs_dir_requires_obs(self):
        with pytest.raises(ValueError, match="obs"):
            CampaignSpec(
                scenarios=(tiny_spec(),), backend="runtime", obs_dir="/tmp/x",
            )
