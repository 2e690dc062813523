"""Every runtime peer is live: the swarm is one population.

A run hosts every peer of the scenario as a live actor, so each figure it
reports is counted over that one population.  These tests pin, on the
virtual clock at toy scale, for a static, a flash-crowd and a churning
scenario:

* determinism — the same seed gives bit-identical series, samples and
  counters;
* one aggregation point — period records, playback samples and the
  merged tracker agree period by period, every sample stays within its
  population, and the swarm's per-tick playback tally equals the
  per-peer aggregation it replaced;
* population accounting — every non-source peer is sampled, live-peer
  counts follow the joins and departures, and each peer that ever ran
  keeps its ledger;
* placement — shards own contiguous ring ranges that partition the
  swarm;
* that the statistical fidelity tier is gone from the package surface.
"""

import dataclasses
import importlib.util

import pytest

import repro.runtime
from repro.obs import ObsConfig
from repro.runtime import LiveSwarm, RunOptions, RuntimeResult
from repro.runtime.swarm import shard_of
from repro.scenarios import CampaignSpec
from repro.scenarios.library import builtin_scenario

NODES, ROUNDS, SEED = 40, 8, 3
SCENARIOS = ("static", "flash-crowd", "paper-dynamic")


def spec_for(name, **scaled):
    return builtin_scenario(name).scaled(
        **{"num_nodes": NODES, "rounds": ROUNDS, "seed": SEED, **scaled}
    )


def observed_run(name):
    """One virtual-clock run with a record sink attached."""
    swarm = LiveSwarm(spec_for(name), clock="virtual", obs=ObsConfig(trace_sample=8))
    frames = []
    swarm.record_sink = frames.append
    return swarm, swarm.run(), frames


@pytest.fixture(scope="module")
def runs():
    return {name: observed_run(name) for name in SCENARIOS}


class TestDeterminism:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_same_seed_runs_are_bit_identical(self, runs, name):
        swarm, result, frames = runs[name]
        again_swarm, again, again_frames = observed_run(name)
        assert again.continuity_series() == result.continuity_series()
        assert again_swarm.playback_samples() == swarm.playback_samples()
        assert again.messages_sent == result.messages_sent
        assert again.bytes_on_wire == result.bytes_on_wire
        assert (again.peers_joined, again.peers_left) == (result.peers_joined, result.peers_left)
        assert [f["playing"] for f in again_frames] == [f["playing"] for f in frames]


class TestOneAggregationPoint:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_samples_stay_within_their_population(self, runs, name):
        swarm, result, _ = runs[name]
        samples = swarm.playback_samples()
        assert [tick for tick, _, _ in samples] == list(range(ROUNDS))
        ever_ran = NODES + result.peers_joined
        for _, playing, total in samples:
            # the source is never sampled
            assert 0 <= playing <= total <= ever_ran - 1

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_frames_tracker_and_samples_agree(self, runs, name):
        swarm, result, frames = runs[name]
        samples = swarm.playback_samples()
        assert [f["period"] for f in frames] == list(range(ROUNDS))
        assert [(f["playing"], f["total"]) for f in frames] == [s[1:] for s in samples]
        assert result.tracker.nodes_sampled == [total for _, _, total in samples]
        assert result.continuity_series() == pytest.approx(
            [playing / total for _, playing, total in samples]
        )


class TestPopulationAccounting:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_every_peer_that_ran_keeps_its_ledger(self, runs, name):
        swarm, result, frames = runs[name]
        assert len(result.per_peer_ledgers) == NODES + result.peers_joined
        assert swarm.peers_live() == NODES + result.peers_joined - result.peers_left
        assert frames[-1]["peers_live"] == swarm.peers_live()
        assert len(swarm.retired_peers) == result.peers_left

    def test_a_static_swarm_samples_every_non_source_peer(self, runs):
        swarm, result, frames = runs["static"]
        assert (result.peers_joined, result.peers_left) == (0, 0)
        assert result.tracker.nodes_sampled == [NODES - 1] * ROUNDS
        assert [f["peers_live"] for f in frames] == [NODES] * ROUNDS

    def test_flash_crowd_joiners_are_live_peers(self, runs):
        swarm, result, frames = runs["flash-crowd"]
        assert result.peers_joined > 0 and result.peers_left == 0
        assert max(result.tracker.nodes_sampled) == NODES + result.peers_joined - 1
        live = [f["peers_live"] for f in frames]
        assert live == sorted(live) and live[-1] == NODES + result.peers_joined

    def test_churn_replaces_peers_without_shrinking_the_sample(self, runs):
        swarm, result, _ = runs["paper-dynamic"]
        assert result.peers_joined > 0 and result.peers_left > 0
        assert all(total > 0 for total in result.tracker.nodes_sampled)


#: ``(playing, total)`` per period of 40-peer x 16-period virtual runs,
#: seed 3, as the per-peer aggregation counted them: every peer logged one
#: sample per period it closed, and each read scanned the live and the
#: retired peers, skipping the source.  The swarm's tally must agree.
PER_PEER_SAMPLES = {
    "paper-dynamic": [
        (4, 39), (9, 39), (16, 39), (27, 39), (36, 39), (38, 39), (34, 39), (35, 39),
        (33, 39), (36, 39), (36, 39), (36, 39), (37, 39), (38, 39), (37, 39), (36, 39),
    ],
    "flash-crowd": [
        (4, 39), (9, 39), (17, 39), (29, 39), (32, 39), (36, 39), (40, 49), (35, 61),
        (42, 76), (46, 71), (57, 66), (57, 62), (56, 58), (53, 54), (52, 54), (53, 54),
    ],
}


class TestPlaybackTally:
    @pytest.mark.parametrize("name", sorted(PER_PEER_SAMPLES))
    def test_the_tally_equals_the_per_peer_aggregation(self, name):
        rounds = len(PER_PEER_SAMPLES[name])
        swarm = LiveSwarm(spec_for(name, rounds=rounds), clock="virtual")
        result = swarm.run()
        assert result.peers_joined > 0
        samples = swarm.playback_samples()
        assert [tick for tick, _, _ in samples] == list(range(rounds))
        assert [tuple(s[1:]) for s in samples] == PER_PEER_SAMPLES[name]
        # One sample per non-source peer per period it closed: every
        # period from its first tick to the last one it opened.
        closed = [0] * rounds
        for peer in list(swarm.peers.values()) + swarm.retired_peers:
            if not peer.is_source:
                for tick in range(peer.first_tick, min(peer._current_tick, rounds)):
                    closed[tick] += 1
        assert [total for _, _, total in samples] == closed


class TestPlacement:
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_shards_own_contiguous_ring_ranges(self, shards):
        id_space = 1 << 10
        owners = [shard_of(ring_id, shards, id_space) for ring_id in range(id_space)]
        assert owners == sorted(owners)
        assert set(owners) == set(range(shards))

    @pytest.mark.parametrize("shards", [2, 3])
    def test_hosted_peers_partition_the_swarm(self, shards):
        spec = spec_for("static")
        hosted = [
            set(LiveSwarm(spec, shards=shards, shard_index=i).build().peers)
            for i in range(shards)
        ]
        assert sum(len(ids) for ids in hosted) == NODES
        assert set().union(*hosted) == set(LiveSwarm(spec).build().manager.nodes)


class TestTheFidelityTierIsGone:
    @pytest.mark.parametrize("name", ["SlimTier", "default_core_peers"])
    def test_the_package_exports_no_tier(self, name):
        assert not hasattr(repro.runtime, name)
        assert name not in repro.runtime.__all__

    def test_the_slim_module_is_gone(self):
        assert importlib.util.find_spec("repro.runtime.slim") is None

    def test_results_carry_no_fidelity_export(self):
        assert "fidelity" not in {f.name for f in dataclasses.fields(RuntimeResult)}

    def test_campaign_cells_carry_the_one_options_record(self):
        options = RunOptions(clock="virtual", rounds=4)
        campaign = CampaignSpec(
            scenarios=(spec_for("static", num_nodes=20),), backend="runtime",
            seeds=(0, 1), options=options,
        )
        payloads = campaign.cell_payloads()
        assert len(payloads) == 2
        assert all(payload["options"] == options for payload in payloads)
