"""Hybrid-fidelity runtime: slim statistical tier around a live core.

Pins the tentpole contracts from ``docs/runtime.md`` → *Hybrid
fidelity*:

* the :class:`SlimTier` is deterministic — same seed ⇒ bit-identical
  per-period samples — and costs ~5 bytes of state per slim peer;
* a virtual-clock ``fidelity="hybrid"`` :class:`LiveSwarm` run is
  bit-identical across repeats, and its telemetry frames count core +
  slim as one population (so the health engine and cockpit see a single
  swarm);
* parity: at overlapping sizes the hybrid swarm's stable continuity
  tracks the full runtime within ``PARITY_DELTA`` on both a static and a
  churning scenario (slow-marked — two full n=200 runs);
* ``--fidelity full`` is untouched: the tier is an optional object the one
  swarm class holds, not a second class;
* a sharded hybrid run reports the same ``fidelity`` key set as an
  in-process one, summed across shards.
"""

import pytest

from repro.runtime import LiveSwarm, RunOptions, SlimTier, run
from repro.runtime.slim import DEFAULT_CORE_PEERS, default_core_peers
from repro.scenarios import CampaignSpec
from repro.scenarios.library import builtin_scenario
from repro.sim.rng import derive_seed

#: The tentpole's parity contract: |Δ stable continuity| between a hybrid
#: run and the full runtime at the same total size.
PARITY_DELTA = 0.03


def spec_for(name="static", num_nodes=300, rounds=10, seed=0):
    return builtin_scenario(name).scaled(
        num_nodes=num_nodes, rounds=rounds, seed=seed
    )


def run_hybrid(spec, core_peers=20, **kwargs):
    return LiveSwarm(
        spec, fidelity="hybrid", core_peers=core_peers, clock="virtual", **kwargs
    ).run()


class TestSlimTier:
    def make_tier(self, count=1000, spec=None, seed=7):
        spec = spec or spec_for("flash-crowd")
        return SlimTier(
            count=count,
            config=spec.to_config(),
            churn=spec.churn,
            loss_rate=spec.loss_rate,
            seed=seed,
        )

    def test_same_seed_is_bit_identical(self):
        histories = []
        for _ in range(2):
            tier = self.make_tier()
            for r in range(12):
                tier.step(r, core_playing=19, core_total=20)
            histories.append(list(tier.history))
        assert histories[0] == histories[1]

    def test_different_seeds_diverge(self):
        samples = []
        for seed in (1, 2):
            tier = self.make_tier(seed=seed)
            for r in range(12):
                tier.step(r, core_playing=19, core_total=20)
            samples.append(list(tier.history))
        assert samples[0] != samples[1]

    def test_memory_is_about_five_bytes_per_peer(self):
        tier = self.make_tier(count=100_000, spec=spec_for("static"))
        assert tier.memory_bytes == 100_000 * 5
        assert tier.memory_bytes / tier.count == pytest.approx(5.0)

    def test_joiners_buffer_before_counting_as_started(self):
        # No churn schedule: drive joins by hand via a flash-crowd tier.
        spec = spec_for("flash-crowd", rounds=12)
        tier = self.make_tier(count=500, spec=spec)
        for r in range(12):
            tier.step(r, core_playing=20, core_total=20)
        assert tier.joined > 0, "flash-crowd must add slim joiners"
        assert tier.count == 500 + tier.joined
        # Every period's sample stays within its population.
        for playing, total in tier.history:
            assert 0 <= playing <= total

    def test_history_is_indexed_by_tick(self):
        tier = self.make_tier(count=50, spec=spec_for("static"))
        tier.step(0, core_playing=10, core_total=10)
        assert tier.sample_for(0) == tier.history[0]
        assert tier.sample_for(99) == (0, 0)


class TestCoreSizing:
    def test_default_core_is_capped_by_the_swarm(self):
        assert default_core_peers(100_000) == DEFAULT_CORE_PEERS
        assert default_core_peers(10) == 10
        assert default_core_peers(1) == 2

    def test_core_below_minimum_rejected(self):
        with pytest.raises(ValueError, match="core_peers"):
            LiveSwarm(spec_for(num_nodes=100), fidelity="hybrid", core_peers=1)

    def test_core_exceeding_swarm_rejected(self):
        with pytest.raises(ValueError, match="cannot exceed"):
            LiveSwarm(spec_for(num_nodes=100), fidelity="hybrid", core_peers=101)


class TestHybridSwarm:
    def test_same_seed_runs_are_bit_identical(self):
        spec = spec_for("flash-crowd", num_nodes=300, rounds=10, seed=5)
        swarms = [
            LiveSwarm(spec, fidelity="hybrid", core_peers=20, clock="virtual")
            for _ in range(2)
        ]
        first, second = (swarm.run() for swarm in swarms)
        assert first.continuity_series() == second.continuity_series()
        assert swarms[0].playback_samples() == swarms[1].playback_samples()
        assert first.messages_sent == second.messages_sent
        assert first.fidelity == second.fidelity

    def test_fidelity_export_accounts_for_the_whole_population(self):
        spec = spec_for("static", num_nodes=300, rounds=8)
        result = run_hybrid(spec, core_peers=20)
        fid = result.fidelity
        assert fid["mode"] == "hybrid"
        assert fid["core_peers"] == 20
        assert fid["slim_peers"] == 280
        assert fid["total_peers"] == 300
        assert fid["slim_memory_bytes"] == 280 * 5
        assert result.peers_joined == 0 and result.peers_left == 0

    def test_full_fidelity_results_carry_no_export(self):
        result = LiveSwarm(spec_for(num_nodes=20, rounds=4), clock="virtual").run()
        assert result.fidelity is None

    def test_telemetry_frames_cover_core_plus_slim(self):
        from repro.obs import ObsConfig

        spec = spec_for("static", num_nodes=300, rounds=8)
        swarm = LiveSwarm(
            spec, fidelity="hybrid", core_peers=20, clock="virtual",
            obs=ObsConfig(trace_sample=8),
        )
        frames = []
        swarm.telemetry_sink = frames.append
        swarm.run()
        assert [f["period"] for f in frames] == list(range(8))
        body = frames[-1]
        assert body["shard"] == 0
        assert body["peers_live"] == 300, "core + slim report as one swarm"
        assert body["total"] > 250, "the sample spans the slim tier too"
        assert 0.0 <= body["continuity"] <= 1.0

    def test_slim_churn_follows_the_schedule(self):
        spec = spec_for("flash-crowd", num_nodes=300, rounds=10)
        result = run_hybrid(spec)
        fid = result.fidelity
        assert fid["slim_joined"] > 0
        assert fid["slim_peers"] == 280 + fid["slim_joined"]
        assert fid["slim_alive"] == fid["slim_peers"] - fid["slim_left"]

    def test_shard_slices_partition_the_slim_tier(self):
        spec = spec_for("static", num_nodes=1003, rounds=4)
        shards = [
            LiveSwarm(spec, shards=3, shard_index=i, fidelity="hybrid", core_peers=9)
            for i in range(3)
        ]
        sizes = [s.slim.count for s in shards]
        assert sum(sizes) == 1003 - 9
        assert max(sizes) - min(sizes) <= 1
        seeds = {derive_seed(spec.seed, f"slim-tier/{i}") for i in range(3)}
        assert len(seeds) == 3, "each shard draws from its own stream"

    def test_sharded_run_reports_the_in_process_key_set_summed(self):
        """A 2-shard hybrid run used to drop ``slim_alive`` / ``slim_joined``
        / ``slim_left`` (the coordinator hand-built a 5-key dict)."""
        spec = spec_for("flash-crowd", num_nodes=120, rounds=6)
        local = run_hybrid(spec, core_peers=12)
        sharded = run(spec, shards=2, fidelity="hybrid", core_peers=12, time_scale=0.25)
        assert set(sharded.fidelity) == set(local.fidelity)
        fid = sharded.fidelity
        assert (fid["mode"], fid["core_peers"], fid["total_peers"]) == ("hybrid", 12, 120)
        # the slim_* facts are sums over the two shards' slices
        assert fid["slim_peers"] == 108 + fid["slim_joined"]
        assert fid["slim_alive"] == fid["slim_peers"] - fid["slim_left"]
        assert fid["slim_memory_bytes"] == fid["slim_peers"] * 5


class TestCampaignValidation:
    def scenarios(self):
        return (spec_for(num_nodes=30, rounds=4),)

    def test_hybrid_rejected_on_the_sim_backend(self):
        with pytest.raises(ValueError, match="sim backend"):
            CampaignSpec(
                scenarios=self.scenarios(), backend="sim",
                options=RunOptions(fidelity="hybrid"),
            )

    def test_core_peers_requires_hybrid(self):
        with pytest.raises(ValueError, match="core_peers"):
            CampaignSpec(
                scenarios=self.scenarios(), backend="runtime",
                options=RunOptions(core_peers=10),
            )

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="fidelity"):
            CampaignSpec(
                scenarios=self.scenarios(), backend="runtime",
                options=RunOptions(fidelity="cubist"),
            )

    def test_payloads_carry_the_fidelity_coordinates(self):
        spec = CampaignSpec(
            scenarios=self.scenarios(),
            backend="runtime",
            options=RunOptions(fidelity="hybrid", core_peers=10),
        )
        for payload in spec.cell_payloads():
            assert payload["options"].fidelity == "hybrid"
            assert payload["options"].core_peers == 10


@pytest.mark.slow
class TestHybridParity:
    """The tentpole acceptance: hybrid tracks the full runtime.

    Both runs are virtual-clock deterministic, so the asserted deltas are
    exact repeatable numbers, not statistical flake surface: at n=200 /
    rounds=30 / seed=0 the measured gaps are 0.026 (static) and 0.007
    (flash-crowd) against the 0.03 contract.
    """

    NODES, ROUNDS, SEED, CORE = 200, 30, 0, 50

    @pytest.mark.parametrize("scenario", ["static", "flash-crowd"])
    def test_stable_continuity_within_delta_of_full_runtime(self, scenario):
        spec = spec_for(scenario, num_nodes=self.NODES, rounds=self.ROUNDS,
                        seed=self.SEED)
        full = LiveSwarm(spec, clock="virtual").run()
        hybrid = run_hybrid(spec, core_peers=self.CORE)
        delta = abs(hybrid.stable_continuity() - full.stable_continuity())
        assert delta <= PARITY_DELTA, (
            f"{scenario}: hybrid {hybrid.stable_continuity():.4f} vs "
            f"full {full.stable_continuity():.4f} (Δ={delta:.4f})"
        )
