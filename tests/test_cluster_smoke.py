"""Cluster-runtime integration tests: real processes, real TCP sockets.

The smoke test is the satellite acceptance: 2 shards × 50 peers over
localhost TCP reach stable continuity ≥ 0.9; a 4-shard run shows every
ordered shard pair's socket carrying frames.  The kill test is the
failure-semantics acceptance: SIGKILL one shard mid-run and the
survivors refund their in-flight credits (``link_resets``), re-partner,
and finish every round — no wedge, no hang.  The shard-process tests pin
what a forked shard owes its caller: it exits with its own schedule when
the coordinator is SIGKILLed, and it is the caller's child, reaped at the
end of the run.  ``CONTINU_RUNTIME_TIME_SCALE``
slows the swarm clock on busy machines, exactly as for the single-process
runtime tests.
"""

import dataclasses
import multiprocessing
import os
import resource
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.core.config import SystemConfig
from repro.net.message import MessageKind, MessageLedger
from repro.obs import (
    Cockpit,
    ObsConfig,
    SloSpec,
    SloViolation,
    load_obs_jsonl,
    period_series,
    write_obs_jsonl,
)
from repro.obs.record import parse_lines
from repro.runtime import (
    LiveSwarm,
    RunOptions,
    RuntimeResult,
    ShardResult,
    merge_results,
)
from repro.runtime.cluster import ClusterCoordinator, LinkConfig, run_cluster
from repro.runtime.cluster.coordinator import START_FLOOR_S
from repro.runtime.swarm import shard_of
from repro.streaming.playback import ContinuityTracker
from repro.runtime.transport import TransportSummary
from repro.scenarios.cell import continuity_delta, parity_pair, parity_text
from repro.scenarios.library import builtin_scenario

TIME_SCALE = float(os.environ.get("CONTINU_RUNTIME_TIME_SCALE", "0.5"))

#: Cluster swarms here are small (≤ 25 peers per shard), so they need far
#: less wall time per period than the 200-node parity swarm the env knob
#: is calibrated for.
SMALL_SCALE = max(0.25, TIME_SCALE / 2)


class TestShardPartition:
    def test_every_ring_id_has_exactly_one_owner(self):
        space = 8192
        for shards in (1, 2, 3, 4, 7):
            owners = [shard_of(rid, shards, space) for rid in range(0, space, 13)]
            assert all(0 <= owner < shards for owner in owners)
            # contiguous ranges: owner is monotone in the ring id
            assert owners == sorted(owners)
        assert shard_of(0, 4, space) == 0
        assert shard_of(space - 1, 4, space) == 3

    def test_shard_swarm_hosts_only_its_range(self):
        spec = builtin_scenario("static").scaled(num_nodes=24, rounds=2)
        swarms = [
            LiveSwarm(spec, shards=3, shard_index=i, time_scale=SMALL_SCALE) for i in range(3)
        ]
        for swarm in swarms:
            swarm.build()
        all_nodes = set(swarms[0].manager.nodes)
        hosted = [set(swarm.peers) for swarm in swarms]
        # identical deterministic construction on every shard
        for swarm in swarms[1:]:
            assert set(swarm.manager.nodes) == all_nodes
        # the hosted sets partition the overlay
        assert set.union(*hosted) == all_nodes
        assert sum(len(h) for h in hosted) == len(all_nodes)
        for swarm, mine in zip(swarms, hosted):
            assert all(swarm.hosts(rid) for rid in mine)

    def test_invalid_parameters_are_rejected(self):
        spec = builtin_scenario("static")
        with pytest.raises(ValueError):
            LiveSwarm(spec, shards=2, shard_index=2)
        with pytest.raises(ValueError):
            RunOptions(shards=0)
        with pytest.raises(ValueError):
            RunOptions(shards=2, time_scale=0.0)
        with pytest.raises(ValueError):
            LinkConfig(queue_limit=0)


def _shard_result(shard_index, samples, msgs=100, lateness=0.0):
    ledger = MessageLedger()
    ledger.record(MessageKind.DATA_SCHEDULED, 1000.0, 2)
    config = SystemConfig(num_nodes=10, rounds=len(samples))
    return ShardResult(
        shard_index=shard_index,
        hosted_peers=5,
        hosts_source=shard_index == 0,
        samples=samples,
        result=RuntimeResult(
            system="continustreaming",
            config=config,
            rounds=len(samples),
            time_scale=0.5,
            tracker=ContinuityTracker(round_duration=config.scheduling_period),
            ledger=ledger,
            per_peer_ledgers={shard_index * 100: ledger},
            transport=TransportSummary(send_stalls=1, link_resets=shard_index),
            messages_sent=msgs,
            messages_dropped=3,
            peers_joined=1,
            peers_left=2,
            wall_time_s=1.5 + shard_index,
            clock_dilation_s=0.25,
            clock_dilations=2,
        ),
        worst_lateness_s=lateness,
        socket={"frames_out": 10, "frames_in": 9},
    )


class TestMergeShardResults:
    def test_samples_sum_per_tick_before_trimming(self):
        a = _shard_result(0, [(0, 2, 4), (1, 3, 4), (2, 0, 0)])
        b = _shard_result(1, [(0, 1, 5), (1, 5, 5), (2, 0, 0)], lateness=0.5)
        merged = merge_results([a, b], shards=2)
        series = merged.continuity_series()
        # tick 2 sampled nobody on either shard: trimmed, not perfect
        assert len(series) == 2
        assert series[0] == pytest.approx(3 / 9)
        assert series[1] == pytest.approx(8 / 9)
        assert merged.messages_sent == 200
        assert merged.peers_left == 4
        assert merged.shards == 2
        assert merged.cluster["worst_lateness_s"] == 0.5
        assert merged.cluster["socket"]["frames_out"] == 20
        assert merged.transport.send_stalls == 2
        assert merged.transport.link_resets == 1
        # per-peer ledgers union disjointly and merge into the swarm ledger
        assert set(merged.per_peer_ledgers) == {0, 100}
        assert merged.ledger.count_of(MessageKind.DATA_SCHEDULED) == 4

    def test_lost_shards_are_reported(self):
        a = _shard_result(0, [(0, 1, 2), (1, 2, 2)])
        merged = merge_results([a], shards=2, lost_shards=[1])
        assert merged.cluster["shards_lost"] == 1
        assert merged.cluster["lost_shards"] == [1]

    def test_merge_requires_at_least_one_shard(self):
        with pytest.raises(ValueError):
            merge_results([], shards=2, lost_shards=[0, 1])


class TestClusterSmoke:
    """2 shards × 50 peers over localhost TCP (the satellite acceptance)."""

    @pytest.fixture(scope="class")
    def smoke_result(self):
        spec = builtin_scenario("static").scaled(num_nodes=50, rounds=20)
        return run_cluster(spec, shards=2, rounds=20, time_scale=SMALL_SCALE)

    def test_stable_continuity_at_least_0_9(self, smoke_result):
        assert smoke_result.stable_continuity() >= 0.9, smoke_result.cluster

    def test_no_shard_was_lost_and_sockets_carried_traffic(self, smoke_result):
        cluster = smoke_result.cluster
        assert cluster["shards_lost"] == 0
        assert cluster["socket"]["frames_out"] > 0
        assert cluster["socket"]["frames_in"] > 0
        assert cluster["socket"]["misrouted_frames"] == 0
        assert smoke_result.shards == 2

    def test_all_traffic_planes_flowed_and_merge_into_one_ledger(self, smoke_result):
        ledger = smoke_result.ledger
        assert ledger.count_of(MessageKind.BUFFER_MAP) > 0
        assert ledger.count_of(MessageKind.DATA_SCHEDULED) > 0
        assert 0.0 < smoke_result.control_overhead() < 1.0
        merged = MessageLedger.merged(list(smoke_result.per_peer_ledgers.values()))
        for kind in MessageKind:
            assert merged.bits_of(kind) == ledger.bits_of(kind)

    def test_both_shards_hosted_peers_and_one_hosted_the_source(self, smoke_result):
        rows = smoke_result.cluster["per_shard"]
        assert len(rows) == 2
        assert all(row["hosted_peers"] > 0 for row in rows)
        assert sum(1 for row in rows if row["hosts_source"]) == 1


class TestFourShardSmoke:
    """4 shards × 15 peers: each shard holds three remote links, so all 12
    ordered shard pairs ride their own socket."""

    @pytest.fixture(scope="class")
    def four_shard_result(self):
        spec = builtin_scenario("static").scaled(num_nodes=60, rounds=8)
        # Metrics only: the export carries the per-pair socket rows.
        obs = ObsConfig(tracing=False, flows=False, topo=False)
        return run_cluster(spec, shards=4, rounds=8, time_scale=SMALL_SCALE, obs=obs)

    def test_no_shard_is_lost(self, four_shard_result):
        assert four_shard_result.shards == 4
        assert four_shard_result.cluster["shards_lost"] == 0

    def test_every_ordered_shard_pair_moved_frames(self, four_shard_result):
        rows = four_shard_result.obs["socket_links"]
        pairs = {(row["src_shard"], row["dst_shard"]) for row in rows}
        assert pairs == {(a, b) for a in range(4) for b in range(4) if a != b}
        for row in rows:
            assert row["frames_out"] > 0 and row["frames_in"] > 0, row

    def test_merged_ledger_is_non_empty(self, four_shard_result):
        ledger = four_shard_result.ledger
        assert ledger.total_count() > 0
        assert ledger.count_of(MessageKind.DATA_SCHEDULED) > 0
        assert len(four_shard_result.per_peer_ledgers) >= 60


class TestClusterObs:
    """Trace ids ride the shard sockets: journeys span worker processes."""

    @pytest.fixture(scope="class")
    def traced_result(self):
        spec = builtin_scenario("static").scaled(num_nodes=24, rounds=8, seed=11)
        result = run_cluster(
            spec, shards=2, rounds=8, time_scale=SMALL_SCALE,
            obs=ObsConfig(trace_sample=4),
        )
        assert result.obs is not None
        return result

    @pytest.fixture(scope="class")
    def traced_obs(self, traced_result):
        return traced_result.obs

    def test_traces_propagate_across_the_shard_socket_hop(self, traced_obs):
        by_trace = {}
        for span in traced_obs["spans"]:
            if span.get("trace"):
                by_trace.setdefault(span["trace"], set()).add(span.get("shard"))
        cross = [t for t, shards in by_trace.items() if len(shards - {None}) > 1]
        # A 2-shard swarm partners across the ring: some sampled journeys
        # must cross the socket, and their spans carry both shard tags.
        assert cross, "no journey crossed the shard socket"
        assert traced_obs["traces"]["cross_shard"] == len(cross)

    def test_cross_shard_ships_name_the_remote_hop(self, traced_obs):
        via = [
            s for s in traced_obs["spans"]
            if s["event"] == "ship" and s.get("via_shard") is not None
        ]
        assert via, "no ship span recorded its socket hop"
        assert all(s["via_shard"] != s["shard"] for s in via)

    def test_cross_shard_journeys_carry_per_hop_timestamps(self, traced_obs):
        by_trace = {}
        for span in traced_obs["spans"]:
            if span.get("trace"):
                by_trace.setdefault(span["trace"], []).append(span)
        complete = [
            spans for spans in by_trace.values()
            if len({s.get("shard") for s in spans}) > 1
            and {s["event"] for s in spans} >= {"request", "ship", "deliver"}
        ]
        assert complete, "no cross-shard journey completed"
        for spans in complete:
            assert all(isinstance(s["t"], float) for s in spans)

    def test_merged_metrics_cover_both_shards(self, traced_obs):
        assert traced_obs["shards"] == [0, 1]
        # gauges sum across shards: the merged view reads as cluster totals
        assert traced_obs["metrics"]["gauges"].get("messages_sent", 0) > 0
        assert "messages_sent" in period_series(traced_obs["records"])
        assert {r["shard"] for r in traced_obs["records"]} == {0, 1}

    def test_each_shards_last_record_matches_its_export(self, traced_obs):
        """A record's counters, gauges and flows are cumulative: each
        shard's last record holds its final counters and gauges, which the
        merge sums.  A shard keeps relaying frames for the others until the
        close barrier, so its flows can still grow after its last record."""
        last = {}
        for record in traced_obs["records"]:
            last[record["shard"]] = record
        assert sorted(last) == [0, 1]
        for name in ("counters", "gauges"):
            summed = {}
            for record in last.values():
                for key, value in record[name].items():
                    summed[key] = summed.get(key, 0) + value
            assert summed == traced_obs["metrics"][name]
        exported = {(src, dst): row for src, dst, *row in traced_obs["flows"]["pairs"]}
        for record in last.values():
            for src, dst, frames, nbytes in record["flows"]:
                total_frames, total_bytes = exported[(src, dst)]
                assert frames <= total_frames and nbytes <= total_bytes

    def test_flow_pairs_reconcile_with_cluster_wire_bytes(
        self, traced_result, traced_obs
    ):
        """The merged shard-pair matrix accounts for every wire byte —
        charged at the same line as ``bytes_on_wire``, so equality is by
        construction, and any drift means a send path went dark."""
        pairs = traced_obs["flows"]["pairs"]
        assert sum(row[3] for row in pairs) == traced_result.bytes_on_wire
        shards_seen = {(src, dst) for src, dst, _f, _b in pairs}
        # 24 nodes over 2 shards partner across the ring: both the
        # intra-shard diagonals and a cross-shard direction must carry.
        assert {(0, 0), (1, 1)} <= shards_seen
        assert any(src != dst for src, dst in shards_seen)

    def test_merged_topology_spans_both_shards(self, traced_obs):
        topo = traced_obs["topo"]
        assert topo["shards_merged"] == 2
        assert topo["components"] == 1  # a static 24-node overlay never splits
        assert 0 < topo["coverage"] <= 1.0
        assert topo["nodes"] == 24
        assert topo["finger_total"] > 0

    def test_socket_link_stats_are_exported_per_shard_pair(self, traced_obs):
        rows = traced_obs["socket_links"]
        assert {(r["src_shard"], r["dst_shard"]) for r in rows} == {(0, 1), (1, 0)}
        for row in rows:
            assert row["bytes_out"] > 0 and row["frames_out"] > 0
            assert row["lost"] == 0


class TestClusterParity:
    """Small-scale cluster-vs-sim parity (the ``--backend cluster`` axis)."""

    def test_cluster_matches_the_simulator_within_tolerance(self):
        pair = parity_pair("static", 50, 20, 0, RunOptions(time_scale=SMALL_SCALE, shards=2))
        sim, live = pair
        assert live.driver == "cluster"
        assert sim.metrics["stable_continuity"] > 0.9
        assert continuity_delta(pair) <= 0.03, parity_text(pair)

    def test_virtual_clock_cannot_drive_the_cluster_side(self):
        with pytest.raises(ValueError, match="virtual clock"):
            parity_pair("static", 10, 2, options=RunOptions(shards=2, clock="virtual"))


class TestKillOneShard:
    """SIGKILL a shard mid-run: survivors refund credits and never wedge."""

    def test_surviving_shard_completes_with_credits_refunded(self, tmp_path):
        spec = builtin_scenario("static").scaled(num_nodes=30, rounds=12)
        obs_path = tmp_path / "obs.jsonl"
        coordinator = ClusterCoordinator(
            spec,
            RunOptions(
                shards=2,
                rounds=12,
                time_scale=SMALL_SCALE,
                link=LinkConfig(
                    reconnect_attempts=1, reconnect_delay_s=0.1, reconnect_grace_s=0.5
                ),
                obs=ObsConfig(trace_sample=8),
                obs_out=str(obs_path),
            ),
        )
        outcome = {}

        def drive():
            outcome["result"] = coordinator.run()

        thread = threading.Thread(target=drive, daemon=True)
        thread.start()
        deadline = time.monotonic() + 60
        while coordinator.phase != "running":
            assert time.monotonic() < deadline, "cluster never reached running"
            assert thread.is_alive(), "coordinator died during setup"
            time.sleep(0.05)
        # Let a few periods stream, then kill the shard NOT hosting the
        # source (killing the stream origin would test nothing but decay).
        time.sleep(4 * SMALL_SCALE)
        victim = next(
            shard
            for shard, info in coordinator.shard_infos.items()
            if not info["hosts_source"]
        )
        channel = next(c for c in coordinator.channels if c.shard == victim)
        channel.process.kill()
        # The HealthEngine must raise the shard_dead alert *while the run
        # is still going* — that is the live-telemetry acceptance: the
        # operator learns about the death from the stream, not the exit.
        saw_alert_live = False
        alert_deadline = time.monotonic() + 120
        while thread.is_alive() and time.monotonic() < alert_deadline:
            health = coordinator.health
            if health is not None and any(
                a.kind == "shard_dead" and a.shard == victim for a in health.alerts
            ):
                saw_alert_live = True
                break
            time.sleep(0.02)
        thread.join(timeout=180)
        assert not thread.is_alive(), "coordinator hung after a shard died"
        assert saw_alert_live, "shard_dead alert did not surface before run end"
        result = outcome["result"]
        assert result.cluster["shards_lost"] == 1
        assert result.cluster["lost_shards"] == [victim]
        # The invariant under test: the survivor reset its credit windows
        # towards the dead shard, so no link wedged and every round ran.
        assert result.transport.link_resets > 0
        assert len(result.continuity_series()) == 12
        # The surviving shard keeps streaming after re-partnering.
        assert result.continuity_series()[-1] > 0.0
        # The killed shard cannot dump its own flight ring, so the
        # survivor's postmortem is the readable record of its death.
        assert result.obs is not None
        dumps = result.obs["postmortems"]
        assert any(
            f"shard {victim} presumed dead" in dump["reason"] for dump in dumps
        ), dumps
        dead_dump = next(
            d for d in dumps if f"shard {victim} presumed dead" in d["reason"]
        )
        assert any(
            e["event"] == "link_lost" and e.get("remote_shard") == victim
            for e in dead_dump["events"]
        )
        # ...and the whole thing exports as a readable JSONL artifact.
        artifact = tmp_path / "postmortem.jsonl"
        write_obs_jsonl(artifact, result.obs)
        assert any(
            '"type": "postmortem"' in line or '"type":"postmortem"' in line
            for line in artifact.read_text().splitlines()
        )
        # The streamed obs file stayed consistent through the death: both
        # shards fed records, the survivor kept reporting past the
        # victim's last period, and the cockpit renders the whole story.
        frames = load_obs_jsonl(obs_path)["records"]
        shards_seen = {f["shard"] for f in frames}
        assert shards_seen == {0, 1}, frames
        victim_last = max(f["period"] for f in frames if f["shard"] == victim)
        survivor_last = max(f["period"] for f in frames if f["shard"] != victim)
        assert survivor_last > victim_last
        cockpit = Cockpit()
        for body in frames:
            cockpit.feed(body)
        for alert in coordinator.health.alerts:
            cockpit.feed_alert(alert)
        rendered = cockpit.render()
        assert "shard 0" in rendered and "shard 1" in rendered
        assert "shard_dead" in rendered
        # ...and the run-level health verdict survives into the result.
        health = result.health
        assert health["dead_shards"] == [victim]
        assert any(a["kind"] == "shard_dead" for a in health["alerts"])


#: A coordinator the orphan test SIGKILLs: it prints its shards' pids as
#: the run enters ``phase == "running"`` (the relay loop starts), then
#: drives the run, so no thread has to poll the phase.
_ORPHANING_COORDINATOR = """
from repro.runtime import RunOptions
from repro.runtime.cluster import ClusterCoordinator
from repro.scenarios.library import builtin_scenario

relay = ClusterCoordinator._relay_lateness

def announce(self):
    assert self.phase == "running"
    print(" ".join(str(c.process.pid) for c in self.channels), flush=True)
    relay(self)

ClusterCoordinator._relay_lateness = announce
spec = builtin_scenario("static").scaled(num_nodes=30, rounds={rounds})
ClusterCoordinator(spec, RunOptions(shards=3, rounds={rounds}, time_scale={scale})).run()
"""


def _process_gone(pid: int) -> bool:
    """No such process, or a zombie nobody has reaped yet (an orphan's
    new parent may be slow to, or never, reap it)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            stat = fh.read()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


class TestShardProcesses:
    """What a shard process inherits from, and owes to, its caller."""

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
    def test_an_orphaned_shard_ends_with_its_schedule(self, tmp_path):
        """SIGKILL the coordinator once the run is live: every shard must
        see its control pipe close, run out its own schedule without
        waiting on the relay, and exit.  A shard that still holds the
        coordinator's end of a pipe (its own, or an earlier shard's, as
        a fork copies them) never sees that EOF and sits out every
        relay and close timeout instead (> 120 s)."""
        rounds, scale = 8, 0.2
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        script = _ORPHANING_COORDINATOR.format(rounds=rounds, scale=scale)
        stderr = tmp_path / "coordinator.err"
        with open(stderr, "w") as err:
            proc = subprocess.Popen(
                [sys.executable, "-c", script], env=env,
                stdout=subprocess.PIPE, stderr=err, text=True,
            )
        pids = []
        try:
            line = proc.stdout.readline()
            running_at = time.monotonic()
            pids = [int(pid) for pid in line.split()]
            assert len(pids) == 3, f"no run reached running:\n{stderr.read_text()}"
            proc.kill()
            proc.wait(timeout=10)
            # The agreed start follows ``running`` by the floor plus a
            # pipe delivery; then the schedule is ``rounds`` periods.
            schedule = rounds * builtin_scenario("static").to_config().scheduling_period * scale
            deadline = running_at + START_FLOOR_S + schedule + 2.0
            while not all(_process_gone(pid) for pid in pids):
                assert time.monotonic() < deadline, (
                    f"shards {[p for p in pids if not _process_gone(p)]} outlived "
                    f"the dead coordinator's {schedule:.1f} s schedule by 2 s"
                )
                time.sleep(0.05)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for pid in pids:
                if not _process_gone(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.stdout.close()

    def test_shards_are_the_callers_reaped_children(self):
        """The shards run as direct children of the caller and are waited
        for: their CPU lands in the caller's ``RUSAGE_CHILDREN``, which is
        how the benchmark times a cluster run, and none outlives it."""
        def children_cpu() -> float:
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            return usage.ru_utime + usage.ru_stime

        before = children_cpu()
        spec = builtin_scenario("static").scaled(num_nodes=20, rounds=1)
        result = run_cluster(spec, shards=2, rounds=1, time_scale=SMALL_SCALE)
        assert result.shards == 2 and result.cluster["shards_lost"] == 0
        assert children_cpu() > before
        assert multiprocessing.active_children() == []


class TestClusterSlo:
    """``--slo`` aborts a breaching cluster run early (the acceptance)."""

    def test_burning_run_aborts_with_postmortem_and_stream(self, tmp_path):
        # 45% frame loss cannot hold continuity>=0.95: the budget burns
        # at well over 2x from the first scored period.
        spec = builtin_scenario("static").scaled(num_nodes=40, rounds=24, seed=5)
        spec = dataclasses.replace(spec, loss_rate=0.45)
        obs_path = tmp_path / "obs.jsonl"
        slo = SloSpec.parse("continuity>=0.95:burn=2x:grace=4")
        with pytest.raises(SloViolation) as excinfo:
            run_cluster(
                spec,
                shards=2,
                rounds=24,
                time_scale=SMALL_SCALE,
                obs=ObsConfig(trace_sample=8),
                slo=slo,
                obs_out=str(obs_path),
            )
        exc = excinfo.value
        assert exc.alert.kind == "continuity_burn"
        assert exc.alert.severity == "critical"
        # Breach confirms within 2 periods of becoming eligible (grace=4,
        # confirm=2 => period 5), well before the 24-round run ends.
        assert exc.alert.period is not None
        assert exc.alert.period <= 7, exc.alert
        assert "burned the error budget" in exc.alert.message
        # The abort carries the obs export whose postmortem names the breach.
        assert exc.obs is not None
        assert any(
            "SLO breach" in dump["reason"] for dump in exc.obs["postmortems"]
        ), exc.obs["postmortems"]
        # The obs file captured the run up to the abort: period records
        # from both shards plus the breach alert, but nowhere near the
        # full 24 periods x 2 shards.
        with open(obs_path, encoding="utf-8") as fh:
            records = list(parse_lines(fh))
        frames = [r for r in records if r["type"] == "period"]
        alerts = [r for r in records if r["type"] == "alert"]
        assert {f["shard"] for f in frames} == {0, 1}
        assert len(frames) < 48
        assert any(a["kind"] == "continuity_burn" for a in alerts)
        # The cockpit renders the same stream a live `obs --live` would.
        cockpit = Cockpit()
        for record in records:
            cockpit.feed_record(record)
        rendered = cockpit.render()
        assert "continuity_burn" in rendered
        assert "shard 0" in rendered and "shard 1" in rendered
        # ...and the Prometheus exposition file is left for scrapers.
        prom = obs_path.with_suffix(".jsonl.prom").read_text()
        assert "# TYPE continu_continuity gauge" in prom
