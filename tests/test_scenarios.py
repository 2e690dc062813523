"""Tests for the scenario engine: schedules, specs, built-ins, phases."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.phases import CoolStreamingProtocol, ProtocolRegistry
from repro.core.phases.base import RoundContext
from repro.net.bandwidth import BandwidthClass, ClassMixBandwidthModel
from repro.net.churn import (
    BlackoutChurn,
    ChurnProcess,
    ConstantChurn,
    DiurnalChurn,
    FlashCrowdChurn,
    PiecewiseChurn,
    schedule_from_dict,
)
from repro.net.message import MessageLedger
from repro.scenarios import (
    BUILTIN_SCENARIOS,
    LossyNetworkPhase,
    ScenarioSpec,
    builtin_names,
    builtin_scenario,
    load_scenarios,
)
from repro.streaming.source import MediaSource

TINY = dict(num_nodes=30, rounds=5)
TINY_OVERRIDES = dict(
    buffer_capacity=200, scheduling_window=80, playback_lag_segments=40
)


# =========================================================================
# Churn schedules
# =========================================================================
class TestChurnSchedules:
    def test_constant_matches_flat_fractions(self):
        schedule = ConstantChurn(leave_fraction=0.05, join_fraction=0.07)
        for round_index in (0, 3, 100):
            assert schedule.fractions(round_index) == (0.05, 0.07)
        assert not schedule.is_static
        assert ConstantChurn().is_static

    def test_diurnal_oscillates_around_base(self):
        schedule = DiurnalChurn(
            base_leave_fraction=0.04,
            base_join_fraction=0.04,
            amplitude=0.75,
            period_rounds=20,
        )
        joins = [schedule.fractions(r)[1] for r in range(20)]
        leaves = [schedule.fractions(r)[0] for r in range(20)]
        assert max(joins) > 0.04 > min(joins)
        # Joins peak on the rising half-cycle where leaves trough.
        assert joins.index(max(joins)) == leaves.index(min(leaves))
        assert abs(float(np.mean(joins)) - 0.04) < 1e-9

    def test_flash_crowd_windows(self):
        schedule = FlashCrowdChurn(
            base_leave_fraction=0.01,
            base_join_fraction=0.01,
            spike_round=5,
            spike_duration=3,
            spike_join_fraction=0.25,
            drain_duration=2,
            drain_leave_fraction=0.08,
        )
        assert schedule.fractions(4) == (0.01, 0.01)
        assert schedule.fractions(5) == (0.01, 0.25)
        assert schedule.fractions(7) == (0.01, 0.25)
        assert schedule.fractions(8) == (0.08, 0.01)
        assert schedule.fractions(9) == (0.08, 0.01)
        assert schedule.fractions(10) == (0.01, 0.01)

    def test_blackout_and_recovery(self):
        schedule = BlackoutChurn(
            blackout_round=4,
            failure_fraction=0.3,
            recovery_duration=2,
            recovery_join_fraction=0.1,
        )
        assert schedule.fractions(3) == (0.0, 0.0)
        assert schedule.fractions(4) == (0.3, 0.0)
        assert schedule.fractions(5) == (0.0, 0.1)
        assert schedule.fractions(6) == (0.0, 0.1)
        assert schedule.fractions(7) == (0.0, 0.0)

    def test_piecewise_steps(self):
        schedule = PiecewiseChurn(steps=((2, 0.1, 0.0), (5, 0.0, 0.2)))
        assert schedule.fractions(0) == (0.0, 0.0)
        assert schedule.fractions(2) == (0.1, 0.0)
        assert schedule.fractions(4) == (0.1, 0.0)
        assert schedule.fractions(9) == (0.0, 0.2)
        with pytest.raises(ValueError):
            PiecewiseChurn(steps=((5, 0.1, 0.0), (2, 0.0, 0.2)))

    def test_schedule_dict_round_trip(self):
        schedules = [
            ConstantChurn(leave_fraction=0.05, join_fraction=0.05),
            DiurnalChurn(base_leave_fraction=0.03, base_join_fraction=0.02),
            FlashCrowdChurn(spike_round=7),
            BlackoutChurn(failure_fraction=0.4),
            PiecewiseChurn(steps=((0, 0.01, 0.01), (10, 0.2, 0.0))),
        ]
        for schedule in schedules:
            payload = schedule.to_dict()
            assert payload["kind"] == schedule.kind
            rebuilt = schedule_from_dict(payload)
            assert rebuilt == schedule

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown churn schedule kind"):
            schedule_from_dict({"kind": "martian"})
        with pytest.raises(ValueError, match="'kind'"):
            schedule_from_dict({"leave_fraction": 0.1})

    def test_misspelled_schedule_field_raises_value_error(self):
        # A typo in a YAML spec must surface as the CLI-friendly ValueError,
        # not a raw TypeError from the dataclass constructor.
        with pytest.raises(ValueError, match="invalid parameters.*constant"):
            schedule_from_dict({"kind": "constant", "leave_fractoin": 0.05})

    def test_piecewise_accepts_json_lists(self):
        # JSON/YAML loads produce lists; the schedule must coerce and stay
        # equal to (and as hashable as) its tuple-built twin.
        from_lists = schedule_from_dict(
            {"kind": "piecewise", "steps": [[2, 0.1, 0.0], [5, 0.0, 0.2]]}
        )
        from_tuples = PiecewiseChurn(steps=((2, 0.1, 0.0), (5, 0.0, 0.2)))
        assert from_lists == from_tuples
        assert hash(from_lists) == hash(from_tuples)

    def test_invalid_schedule_parameters(self):
        with pytest.raises(ValueError):
            ConstantChurn(leave_fraction=1.0)
        with pytest.raises(ValueError):
            DiurnalChurn(amplitude=1.5)
        with pytest.raises(ValueError):
            FlashCrowdChurn(spike_join_fraction=1.5)
        with pytest.raises(ValueError):
            BlackoutChurn(failure_fraction=1.0)

    def test_churn_process_uses_schedule(self, rng):
        process = ChurnProcess(
            schedule=BlackoutChurn(blackout_round=2, failure_fraction=0.5)
        )
        assert not process.is_static
        quiet = process.step(0, list(range(20)), rng)
        assert quiet.is_empty
        blackout = process.step(2, list(range(20)), rng)
        assert len(blackout.leaving) == 10

    def test_static_schedule_keeps_process_static(self, rng):
        process = ChurnProcess(schedule=ConstantChurn())
        assert process.is_static
        assert process.step(0, [1, 2, 3], rng).is_empty


# =========================================================================
# Bandwidth class mixes
# =========================================================================
class TestClassMixBandwidthModel:
    CLASSES = (
        BandwidthClass(name="ethernet", fraction=0.2, min_inbound=25.0, max_inbound=33.0),
        BandwidthClass(
            name="dsl", fraction=0.8, min_inbound=10.0, max_inbound=14.0,
            min_outbound=8.0, max_outbound=12.0,
        ),
    )

    def test_rates_within_class_ranges(self, rng):
        model = ClassMixBandwidthModel(self.CLASSES)
        model.assign(range(200), rng, source_id=0)
        for node in range(1, 200):
            capacity = model.of(node)
            # The two classes' inbound ranges are disjoint, so the inbound
            # rate names the class and the outbound must come from it too.
            if capacity.inbound >= 25.0:
                assert capacity.inbound <= 33.0
                assert 25.0 <= capacity.outbound <= 33.0
            else:
                assert 10.0 <= capacity.inbound <= 14.0
                assert 8.0 <= capacity.outbound <= 12.0
        assert model.of(0).inbound == 0.0

    def test_class_shares_track_fractions(self, rng):
        model = ClassMixBandwidthModel(self.CLASSES)
        model.assign(range(500), rng)
        ethernet = sum(model.of(node).inbound >= 25.0 for node in range(500))
        assert 0.1 < ethernet / 500 < 0.3

    def test_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ClassMixBandwidthModel(
                (BandwidthClass(name="a", fraction=0.5, min_inbound=1, max_inbound=2),)
            )
        with pytest.raises(ValueError, match="at least one"):
            ClassMixBandwidthModel(())
        with pytest.raises(ValueError):
            BandwidthClass(name="bad", fraction=0.5, min_inbound=5.0, max_inbound=2.0)


# =========================================================================
# The lossy-network phase
# =========================================================================
class TestLossyNetworkPhase:
    def test_scales_budgets(self, tiny_config, rng):
        phase = LossyNetworkPhase(0.25)
        ctx = RoundContext(
            config=tiny_config,
            protocol="continustreaming",
            round_index=0,
            round_start=0.0,
            period=1.0,
            rng=rng,
            ledger=MessageLedger(),
            nodes={},
            source=MediaSource(),
            source_id=0,
        )
        ctx.inbound_budget = {1: 16.0, 2: 8.0}
        ctx.outbound_budget = {1: 4.0}
        report = phase.execute(ctx)
        assert ctx.inbound_budget == {1: 12.0, 2: 6.0}
        assert ctx.outbound_budget == {1: 3.0}
        assert report.details["loss_rate"] == 0.25

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            LossyNetworkPhase(1.0)
        with pytest.raises(ValueError):
            LossyNetworkPhase(-0.1)


# =========================================================================
# ScenarioSpec
# =========================================================================
class TestScenarioSpec:
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtin_dict_round_trip(self, name):
        spec = builtin_scenario(name)
        payload = spec.to_dict()
        rebuilt = ScenarioSpec.from_dict(payload)
        assert rebuilt == spec
        assert rebuilt.to_dict() == payload

    @pytest.mark.parametrize("system", ["continustreaming", "coolstreaming"])
    def test_loss_is_spliced_just_before_the_scheduler(self, system):
        spec = builtin_scenario("hetero-swarm").scaled(system=system)
        names = [phase.name for phase in spec.build_pipeline()]
        assert names[names.index("lossy-network") + 1] == "data-scheduling"

    def test_loss_without_a_scheduler_is_spliced_before_playback(self, monkeypatch):
        monkeypatch.setattr(ProtocolRegistry, "_protocols", dict(ProtocolRegistry._protocols))

        @ProtocolRegistry.register("no-scheduler")
        class NoSchedulerProtocol(CoolStreamingProtocol):
            def build_pipeline(self):
                return tuple(
                    phase for phase in super().build_pipeline()
                    if phase.name != "data-scheduling"
                )

        spec = builtin_scenario("hetero-swarm").scaled(system="no-scheduler")
        names = [phase.name for phase in spec.build_pipeline()]
        assert names[-3:] == ["lossy-network", "playback", "churn-maintenance"]

    def test_loss_with_neither_scheduler_nor_playback_goes_last(self, monkeypatch):
        monkeypatch.setattr(ProtocolRegistry, "_protocols", dict(ProtocolRegistry._protocols))
        kept = ("buffer-map-gossip", "churn-maintenance")

        @ProtocolRegistry.register("gossip-only")
        class GossipOnlyProtocol(CoolStreamingProtocol):
            def build_pipeline(self):
                return tuple(p for p in super().build_pipeline() if p.name in kept)

        spec = builtin_scenario("hetero-swarm").scaled(system="gossip-only")
        names = [phase.name for phase in spec.build_pipeline()]
        assert names == [*kept, "lossy-network"]

    @pytest.mark.parametrize("loss_rate", [0.0, 0.02])
    @pytest.mark.parametrize("system", ["continustreaming", "coolstreaming"])
    def test_loss_is_the_only_phase_a_spec_adds(self, system, loss_rate):
        spec = dataclasses.replace(
            builtin_scenario("static").scaled(system=system), loss_rate=loss_rate
        )
        pipeline = spec.build_pipeline()
        lossy = [phase for phase in pipeline if isinstance(phase, LossyNetworkPhase)]
        protocol = ProtocolRegistry.get(system).build_pipeline()
        assert [p.name for p in pipeline if p not in lossy] == [p.name for p in protocol]
        assert [phase.loss_rate for phase in lossy] == ([loss_rate] if loss_rate else [])

    def test_file_round_trip_json(self, tmp_path):
        spec = builtin_scenario("flash-crowd")
        path = spec.to_file(tmp_path / "spec.json")
        assert ScenarioSpec.from_file(path) == spec

    def test_file_round_trip_yaml(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        assert yaml is not None
        spec = builtin_scenario("hetero-swarm")
        path = spec.to_file(tmp_path / "spec.yaml")
        assert ScenarioSpec.from_file(path) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            ScenarioSpec.from_dict({"name": "x", "nodes": 10})

    def test_missing_name_raises_value_error(self):
        with pytest.raises(ValueError, match="invalid scenario spec"):
            ScenarioSpec.from_dict({"rounds": 5})

    def test_unknown_config_override_key_raises_value_error(self):
        spec = ScenarioSpec(name="x", config_overrides={"bogus_key": 1})
        with pytest.raises(ValueError, match="invalid config_overrides"):
            spec.to_config()

    def test_empty_bandwidth_classes_rejected(self):
        with pytest.raises(ValueError, match="at least one class"):
            ScenarioSpec(name="x", bandwidth_classes=())

    def test_static_schedule_with_flat_fractions_reports_static(self):
        from repro.core.config import SystemConfig

        config = SystemConfig(
            num_nodes=10, leave_fraction=0.05, churn_schedule=ConstantChurn()
        )
        # The schedule drives churn and overrides the flat fractions, so it
        # alone decides the environment label.
        assert not config.is_dynamic

    def test_misspelled_bandwidth_class_field_raises_value_error(self):
        with pytest.raises(ValueError, match="invalid bandwidth class"):
            ScenarioSpec.from_dict(
                {
                    "name": "x",
                    "bandwidth_classes": [
                        {"name": "dsl", "fraction": 1.0, "min_inbound": 10,
                         "max_inbond": 14}
                    ],
                }
            )

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ValueError, match="built-in scenarios"):
            builtin_scenario("nope")

    def test_load_scenarios_mixes_names_files_and_specs(self, tmp_path):
        path = builtin_scenario("static").to_file(tmp_path / "s.json")
        specs = load_scenarios(["diurnal", path, builtin_scenario("blackout")])
        assert [spec.name for spec in specs] == ["diurnal", "static", "blackout"]

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="")
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", num_nodes=1)
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", loss_rate=1.0)

    def test_reserved_config_overrides_rejected(self):
        # The spec's own fields own these keys; shadowing them in
        # config_overrides would be silently overwritten by to_config.
        with pytest.raises(ValueError, match="num_nodes"):
            ScenarioSpec(name="x", config_overrides={"num_nodes": 500})
        with pytest.raises(ValueError, match="leave_fraction"):
            ScenarioSpec(name="x", config_overrides={"leave_fraction": 0.05})

    def test_bandwidth_overrides_rejected_with_class_mix(self):
        # A class mix replaces the uniform draw, so uniform-bandwidth
        # overrides would be silently ignored — reject them instead.
        from repro.scenarios.library import HETERO_SWARM_CLASSES

        with pytest.raises(ValueError, match="mean_inbound"):
            ScenarioSpec(
                name="x",
                bandwidth_classes=HETERO_SWARM_CLASSES,
                config_overrides={"mean_inbound": 30.0},
            )
        # Without a class mix the same override is legitimate.
        spec = ScenarioSpec(name="x", config_overrides={"mean_inbound": 20.0,
                                                        "max_inbound": 40.0})
        assert spec.to_config().mean_inbound == 20.0

    def test_blackout_fires_when_rounds_cover_it(self):
        result = builtin_scenario("blackout").scaled(num_nodes=30, rounds=12).run()
        by_round = {rep.round_index: rep for rep in result.rounds}
        assert by_round[10].nodes_left >= 9  # 30% of 30

    def test_constant_churn_maps_to_config_fractions(self):
        spec = builtin_scenario("paper-dynamic")
        config = spec.to_config()
        assert config.leave_fraction == 0.05
        assert config.join_fraction == 0.05

    def test_scheduled_churn_attached_to_process(self):
        spec = builtin_scenario("blackout").scaled(**TINY)
        system = spec.build_system()
        assert system.manager.churn.schedule is not None
        assert not system.manager.churn.is_static
        # A schedule-driven run must report as dynamic even though the flat
        # config fractions stay zero.
        assert system.config.is_dynamic
        assert spec.scaled(system="coolstreaming").to_config().is_dynamic
        assert not builtin_scenario("static").to_config().is_dynamic

    def test_loss_phase_inserted_before_scheduler(self):
        spec = builtin_scenario("hetero-swarm")
        names = [phase.name for phase in spec.build_pipeline()]
        assert "lossy-network" in names
        assert names.index("lossy-network") < names.index("data-scheduling")
        assert "lossy-network" not in [
            phase.name for phase in builtin_scenario("static").build_pipeline()
        ]

    def test_bandwidth_classes_swap_the_model(self):
        spec = builtin_scenario("hetero-swarm").scaled(**TINY)
        system = spec.build_system()
        assert isinstance(system.manager.bandwidth, ClassMixBandwidthModel)

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtin_runs_five_rounds(self, name):
        spec = builtin_scenario(name).scaled(**TINY)
        spec = ScenarioSpec.from_dict({**spec.to_dict(), "config_overrides": TINY_OVERRIDES})
        result = spec.run()
        assert len(result.rounds) == 5
        assert all(0.0 <= report.continuity <= 1.0 for report in result.rounds)

    def test_schedule_driven_churn_fires_in_simulation(self):
        spec = ScenarioSpec(
            name="early-blackout",
            num_nodes=30,
            rounds=5,
            seed=3,
            churn=BlackoutChurn(
                blackout_round=2,
                failure_fraction=0.3,
                recovery_duration=1,
                recovery_join_fraction=0.2,
            ),
            config_overrides=TINY_OVERRIDES,
        )
        result = spec.run()
        by_round = {report.round_index: report for report in result.rounds}
        assert by_round[2].nodes_left == 9  # 30% of 30
        assert by_round[3].nodes_joined > 0
        assert by_round[1].nodes_left == 0

    def test_builtins_cover_names(self):
        assert builtin_names() == (
            "static", "paper-dynamic", "flash-crowd", "diurnal", "blackout",
            "hetero-swarm",
        )
