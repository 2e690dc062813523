"""The composition matrix through the one entry.

There is one swarm class, one options record and one merge: placement
(``shards``) is a value of :class:`RunOptions`, not a class.  These tests
drive both placements (in-process on both clocks) through
:func:`repro.runtime.run` at toy scale and pin

* the result contract — both placements return a :class:`RuntimeResult`
  with the same populated fields, ``cluster`` set iff the run was
  sharded;
* that in-process really is the one-shard case — default placement and an
  explicit ``shards=1`` are the same run, and the in-process result is the
  merge of its single partial;
* the single validation site — every invalid combination raises
  ``ValueError`` from the record, and the CLI turns it into one
  ``SystemExit`` line (including the flags the ``runtime`` / ``cluster``
  commands used to drop silently).
"""

import asyncio
import dataclasses

import pytest

import repro.runtime
from repro.experiments.runner import main
from repro.obs import ObsConfig, SloSpec
from repro.runtime import LiveSwarm, RunOptions, RuntimeResult, merge_results, run
from repro.scenarios.library import builtin_scenario

NODES, ROUNDS = 24, 5

#: name -> RunOptions fields; the two placements, in-process on both clocks.
MATRIX = {
    "in-process": dict(clock="virtual"),
    "in-process-wall": dict(clock="wall"),
    "2-shard": dict(shards=2, time_scale=0.25),
}


def toy_spec(**scaled):
    return builtin_scenario("static").scaled(
        **{"num_nodes": NODES, "rounds": ROUNDS, "seed": 3, **scaled}
    )


@pytest.fixture(scope="module")
def results():
    return {name: run(toy_spec(), **fields) for name, fields in MATRIX.items()}


def populated(result):
    return {
        f.name
        for f in dataclasses.fields(result)
        if getattr(result, f.name) is not None and f.name != "cluster"
    }


class TestCompositionMatrix:
    @pytest.mark.parametrize("name", MATRIX)
    def test_every_corner_returns_the_same_result_shape(self, results, name):
        result = results[name]
        options = RunOptions(**MATRIX[name])
        assert isinstance(result, RuntimeResult)
        assert populated(result) == populated(results["in-process"])
        assert result.shards == options.shards
        assert (result.cluster is None) == (options.shards == 1)
        assert len(result.continuity_series()) == ROUNDS
        assert result.rounds == ROUNDS and result.clock == options.clock
        assert len(result.per_peer_ledgers) == NODES
        assert result.messages_sent > 0 and result.bytes_on_wire > 0
        assert result.ledger.total_count() > 0

    def test_sharded_corners_carry_the_cluster_facts(self, results):
        cluster = results["2-shard"].cluster
        assert cluster["shards"] == 2 and cluster["shards_lost"] == 0
        assert cluster["socket"]["frames_out"] > 0
        assert [row["shard"] for row in cluster["per_shard"]] == [0, 1]
        assert sum(row["hosted_peers"] for row in cluster["per_shard"]) == NODES


class TestOneShardIsInProcess:
    def test_default_placement_equals_explicit_one_shard(self):
        spec = toy_spec(rounds=8)
        default = LiveSwarm(spec, clock="virtual").run()
        explicit = LiveSwarm(spec, clock="virtual", shards=1, shard_index=0).run()
        via_entry = run(spec, RunOptions(clock="virtual", shards=1))
        for other in (explicit, via_entry):
            assert other.continuity_series() == default.continuity_series()
            assert other.messages_sent == default.messages_sent
            assert other.bytes_on_wire == default.bytes_on_wire

    def test_in_process_result_is_the_merge_of_its_one_partial(self):
        # churn, so joiners and retired peers go through the merge too
        spec = builtin_scenario("paper-dynamic").scaled(num_nodes=NODES, rounds=8, seed=3)
        result = LiveSwarm(spec, clock="virtual").run()
        assert result.peers_left > 0
        partial = asyncio.run(LiveSwarm(spec, clock="virtual").run_async())
        assert partial.shard_index == 0 and partial.hosted_peers == NODES
        assert partial.hosts_source and partial.socket == {}
        # a partial has no continuity of its own — that exists after the merge
        assert partial.result.tracker.continuity == []
        merged = merge_results([partial])
        skip = ("wall_time_s", "tracker", "ledger", "per_peer_ledgers")
        for f in dataclasses.fields(merged):
            if f.name not in skip:
                assert getattr(merged, f.name) == getattr(result, f.name), f.name
        assert merged.continuity_series() == result.continuity_series()
        assert merged.tracker.nodes_sampled == result.tracker.nodes_sampled
        assert merged.ledger.bits == result.ledger.bits
        assert merged.ledger.counts == result.ledger.counts

    def test_one_shard_of_many_cannot_run_alone(self):
        with pytest.raises(ValueError, match="sharded run"):
            LiveSwarm(toy_spec(), shards=2, shard_index=1).run()


METRICS_OFF = ObsConfig(metrics=False)
INVALID = {
    "virtual clock on a sharded run": dict(clock="virtual", shards=2),
    "slo without obs": dict(slo=SloSpec.parse("continuity>=0.9")),
    "slo with metrics off": dict(slo=SloSpec.parse("continuity>=0.9"), obs=METRICS_OFF),
    "obs_out without obs": dict(obs_out="t.jsonl"),
    "obs_out with metrics off": dict(obs_out="t.jsonl", obs=METRICS_OFF),
    "no shards": dict(shards=0),
    "negative shards": dict(shards=-1),
    "zero time_scale": dict(time_scale=0.0),
    "negative time_scale": dict(time_scale=-1.0),
    "zero rounds": dict(rounds=0),
    "negative rounds": dict(rounds=-2),
    "unknown clock": dict(clock="sundial"),
}


class TestTheRecordValidates:
    @pytest.mark.parametrize("case", INVALID)
    def test_invalid_combination_raises_from_the_record(self, case):
        with pytest.raises(ValueError):
            RunOptions(**INVALID[case])
        # ...and therefore from every caller that spells it as overrides
        with pytest.raises(ValueError):
            run(toy_spec(), **INVALID[case])
        with pytest.raises(ValueError):
            LiveSwarm(toy_spec(), **INVALID[case])

    def test_resolved_fills_every_default_and_is_idempotent(self):
        spec = toy_spec()
        resolved = RunOptions().resolved(spec)
        assert (resolved.rounds, resolved.time_scale) == (ROUNDS, 0.1)
        assert resolved.resolved(spec) == resolved
        # a sharded run sizes its clock on the peers per core
        assert RunOptions(shards=2).resolved(toy_spec(num_nodes=4000)).time_scale > 0.1

    def test_unknown_override_is_a_type_error_not_a_silent_knob(self):
        with pytest.raises(TypeError):
            run(toy_spec(), start_margin_s=1.0)

    def test_the_record_has_nine_fields(self):
        assert [f.name for f in dataclasses.fields(RunOptions)] == [
            "shards", "rounds", "time_scale", "transport", "link", "clock",
            "obs", "slo", "obs_out",
        ]

    @pytest.mark.parametrize("field", ["batching", "delta_maps", "fidelity", "core_peers"])
    def test_the_retired_wire_switches_are_type_errors_everywhere(self, field):
        """The fast path is the only wire path and every runtime peer is
        live: neither switching them off nor a fidelity tier is a knob."""
        with pytest.raises(TypeError):
            RunOptions(**{field: False})
        with pytest.raises(TypeError):
            run(toy_spec(), **{field: False})
        with pytest.raises(TypeError):
            LiveSwarm(toy_spec(), **{field: False})


CLI_REJECTS = {
    "cluster --clock virtual": ["cluster", "--clock", "virtual"],
    "runtime --shards 2 --clock virtual": ["runtime", "--shards", "2", "--clock", "virtual"],
    "cluster --parity": ["cluster", "--parity"],
    "cluster --parity-matrix": ["cluster", "--parity-matrix"],
    "cluster --shards 0": ["cluster", "--shards", "0"],
    "runtime --time-scale 0": ["runtime", "--time-scale", "0"],
    "runtime malformed --slo": ["runtime", "--slo", "continuity<<1"],
}


class TestCliSurfacesTheRecord:
    @pytest.mark.parametrize("case", CLI_REJECTS)
    def test_invalid_flags_exit_with_one_line(self, case):
        argv = CLI_REJECTS[case]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value)
        assert message.startswith(f"{argv[0]} error: "), message
        assert "\n" not in message

    @pytest.mark.parametrize("command", ["runtime", "cluster", "campaign"])
    @pytest.mark.parametrize("flag", ["--no-batch", "--no-delta"])
    def test_retired_wire_flags_are_unknown_arguments(self, capsys, command, flag):
        with pytest.raises(SystemExit) as excinfo:
            main([command, flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["runtime", "cluster", "campaign"])
    @pytest.mark.parametrize("flag, value", [("--fidelity", "hybrid"), ("--core-peers", "8")])
    def test_retired_fidelity_flags_are_unknown_arguments(self, capsys, command, flag, value):
        """Every runtime peer is live: there is no tier to pick or size."""
        with pytest.raises(SystemExit) as excinfo:
            main([command, flag, value])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["runtime", "cluster", "campaign"])
    @pytest.mark.parametrize(
        "flag, value", [("--telemetry-out", "t.jsonl"), ("--telemetry-every", "2")]
    )
    def test_retired_telemetry_flags_are_unknown_arguments(self, capsys, command, flag, value):
        """``--metrics-out`` streams the one obs file: there is no second
        stream to name or thin."""
        with pytest.raises(SystemExit) as excinfo:
            main([command, flag, value])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, nodes, rounds, shards",
        [
            (["runtime"], 50, 20, 1),
            (["cluster"], 1000, 30, 4),
            (["runtime", "--shards", "3"], 50, 20, 3),
            (["cluster", "--shards", "1", "--nodes", "80"], 80, 30, 1),
        ],
    )
    def test_command_defaults_reach_the_entry(self, monkeypatch, argv, nodes, rounds, shards):
        seen = {}

        def fake_run(spec, options):
            seen.update(nodes=spec.num_nodes, rounds=spec.rounds, shards=options.shards)
            raise ValueError("stop here")

        monkeypatch.setattr(repro.runtime, "run", fake_run)
        with pytest.raises(SystemExit, match="stop here"):
            main(argv)
        assert seen == dict(nodes=nodes, rounds=rounds, shards=shards)

    def test_runtime_shards_runs_sharded(self, capsys):
        assert main(["runtime", "--shards", "2", "--nodes", "20", "--rounds", "4",
                     "--time-scale", "0.25", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "runtime static n=20 rounds=4 shards=2 " in out
        assert "sockets: " in out and "shards lost 0" in out
