"""Live-swarm integration tests and the sim-vs-runtime parity acceptance.

The runtime is real concurrency: results carry wall-clock noise, so these
tests assert generous envelopes (and the parity test compares stable-phase
*means*, the metric the harness documents).  ``CONTINU_RUNTIME_TIME_SCALE``
slows the swarm clock down on busy machines.
"""

import asyncio
import os

import pytest

from repro.net.message import MessageKind, MessageLedger
from repro.runtime import LiveSwarm, run, run_parity, wire
from repro.runtime import peer as peer_module
from repro.scenarios.library import builtin_scenario

#: Wall seconds per simulated second for the tests in this module; CI can
#: raise it if the runners are too slow to keep a swarm's periods on time.
TIME_SCALE = float(os.environ.get("CONTINU_RUNTIME_TIME_SCALE", "0.5"))

#: Smaller swarms need far less wall time per period than the 200-node
#: parity swarm; scale down proportionally but keep a floor.
SMALL_SCALE = max(0.1, TIME_SCALE / 4)


class TestLiveSwarmStatic:
    @pytest.fixture(scope="class")
    def static_result(self):
        spec = builtin_scenario("static").scaled(num_nodes=40, rounds=15)
        return run(spec, time_scale=SMALL_SCALE)

    def test_continuity_climbs_to_stable_playback(self, static_result):
        series = static_result.continuity_series()
        assert len(series) == 15
        assert static_result.stable_continuity() > 0.6
        # the ramp: late rounds beat early rounds decisively
        assert sum(series[-5:]) > sum(series[:5])

    def test_all_traffic_planes_flowed(self, static_result):
        ledger = static_result.ledger
        assert ledger.count_of(MessageKind.BUFFER_MAP) > 0
        assert ledger.count_of(MessageKind.DATA_SCHEDULED) > 0
        assert ledger.bits_of(MessageKind.BUFFER_MAP) > 0
        # overheads are well-defined and in a sane band
        assert 0.0 < static_result.control_overhead() < 1.0
        assert 0.0 <= static_result.prefetch_overhead() < 1.0

    def test_throughput_metrics_are_positive(self, static_result):
        assert static_result.messages_sent > 0
        assert static_result.wall_time_s > 0
        assert static_result.messages_per_wall_second() > 0
        assert static_result.segments_delivered() > 0
        assert static_result.segments_per_wall_second() > 0

    def test_per_peer_ledgers_merge_to_the_swarm_ledger(self, static_result):
        merged = MessageLedger.merged(list(static_result.per_peer_ledgers.values()))
        for kind in MessageKind:
            assert merged.bits_of(kind) == static_result.ledger.bits_of(kind)
            assert merged.count_of(kind) == static_result.ledger.count_of(kind)

    def test_static_swarm_has_no_churn(self, static_result):
        assert static_result.peers_joined == 0
        assert static_result.peers_left == 0


class TestLiveSwarmDynamic:
    def test_live_churn_kills_and_admits_peers(self):
        spec = builtin_scenario("paper-dynamic").scaled(num_nodes=30, rounds=10)
        result = run(spec, time_scale=SMALL_SCALE)
        assert result.peers_left > 0
        assert result.peers_joined > 0
        # joiners announce themselves over the wire: PING/PONG traffic
        assert result.ledger.count_of(MessageKind.MEMBERSHIP) > 0
        assert len(result.continuity_series()) == 10

    def test_coolstreaming_swarm_runs_without_dht_traffic(self):
        spec = builtin_scenario("static").scaled(
            num_nodes=25, rounds=8, system="coolstreaming"
        )
        result = run(spec, time_scale=SMALL_SCALE)
        assert result.ledger.count_of(MessageKind.DHT_ROUTING) == 0
        assert result.ledger.count_of(MessageKind.DATA_PREFETCH) == 0
        assert result.ledger.count_of(MessageKind.DATA_SCHEDULED) > 0

    def test_lossy_scenario_drops_frames(self):
        spec = builtin_scenario("hetero-swarm").scaled(num_nodes=25, rounds=8)
        result = run(spec, time_scale=SMALL_SCALE)
        assert result.messages_dropped > 0


class TestLiveSwarmLifecycle:
    def test_invalid_parameters_are_rejected(self):
        spec = builtin_scenario("static")
        with pytest.raises(ValueError):
            LiveSwarm(spec, time_scale=0.0)
        with pytest.raises(ValueError):
            LiveSwarm(spec, rounds=0)

    def test_graceful_shutdown_leaves_no_running_tasks(self):
        spec = builtin_scenario("static").scaled(num_nodes=10, rounds=3)
        swarm = LiveSwarm(spec, time_scale=SMALL_SCALE)
        swarm.run()
        for peer in swarm.peers.values():
            assert peer.stopped
            assert peer._task is None

    def test_build_is_idempotent_and_reuses_sim_construction(self):
        spec = builtin_scenario("static").scaled(num_nodes=12, rounds=2)
        swarm = LiveSwarm(spec, time_scale=SMALL_SCALE)
        swarm.build()
        peers_before = dict(swarm.peers)
        swarm.build()
        assert swarm.peers == peers_before
        # identical overlay construction to the simulator's
        assert set(swarm.peers) == set(swarm.manager.nodes)
        assert swarm.manager.source_id in swarm.peers


class TestHandlerFailuresAreLoud:
    """A handler that raises used to kill that peer's reader task, which
    nobody awaited: the run finished with one peer deaf and a quietly
    lower continuity.  With the callback reader the run fails instead."""

    @pytest.mark.parametrize("clock", ["virtual", "wall"])
    def test_a_handler_exception_fails_the_run(self, clock, monkeypatch):
        seen = {"requests": 0}
        handle_request = peer_module._DISPATCH[wire.SegmentRequest]

        def flaky(peer, msg):
            seen["requests"] += 1
            if seen["requests"] == 25:
                raise RuntimeError("handler blew up on request 25")
            handle_request(peer, msg)

        monkeypatch.setitem(peer_module._DISPATCH, wire.SegmentRequest, flaky)
        spec = builtin_scenario("static").scaled(num_nodes=12, rounds=4)
        swarm = LiveSwarm(spec, clock=clock, time_scale=SMALL_SCALE)
        with pytest.raises(RuntimeError, match="request 25") as failure:
            swarm.run()
        # the traceback still points at the handler that raised
        frames = [entry.name for entry in failure.traceback]
        assert "flaky" in frames
        assert all(peer.stopped for peer in swarm.peers.values())

    def test_the_embedding_loops_exception_handler_is_chained_and_restored(
        self, monkeypatch
    ):
        def broken(peer, msg):
            raise RuntimeError("handler blew up")

        monkeypatch.setitem(peer_module._DISPATCH, wire.SegmentRequest, broken)
        spec = builtin_scenario("static").scaled(num_nodes=12, rounds=3)
        reported = []

        def outer_handler(loop, context):
            reported.append(context["exception"])

        async def embed():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(outer_handler)
            with pytest.raises(RuntimeError, match="handler blew up") as failure:
                await LiveSwarm(spec, time_scale=SMALL_SCALE).run_async()
            assert loop.get_exception_handler() is outer_handler
            return failure.value

        raised = asyncio.run(embed())
        assert reported and reported[0] is raised


@pytest.mark.slow
class TestSimRuntimeParity:
    """The PR's acceptance bar, documented in docs/runtime.md."""

    def test_static_200_node_parity_within_two_points(self):
        report = run_parity(
            "static", num_nodes=200, rounds=60, seed=0, time_scale=TIME_SCALE
        )
        assert report.sim_stable_continuity > 0.95
        assert report.runtime_stable_continuity > 0.95
        assert report.continuity_delta <= 0.02, report.formatted()
