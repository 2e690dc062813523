"""Cluster scaling benchmark — aggregate throughput vs shard count.

Runs one fixed workload (the ``static`` scenario at an aggressive time
scale, i.e. deliberately past what a single event loop can sustain) as a
cluster of 1, 2 and 4 shard processes and emits ``BENCH_cluster.json``:
peers hosted, aggregate wire messages/sec, delivered segments/sec, the
stable continuity each run still reached, and the speedup/efficiency of
each shard count over the single-shard baseline
(:func:`repro.analysis.metrics.throughput_scaling`).

The workload is overload-shaped on purpose: the coherent cluster-wide
dilation stretches every run to its *sustainable* rate while continuity
stays high, so messages/sec measures the throughput ceiling the process
topology can actually sustain — the number the ROADMAP says to move.
Honesty note: sharding buys throughput only where there are cores to
run the shards on.  The artifact records ``cpus`` (the CPU affinity
count), and the ≥-scaling assertion is enforced only when at least as
many cores as shards are available; on a 1-core box the 4-shard figure
legitimately lands near 1× and the JSON says so.
"""

from __future__ import annotations

import json
import os

from conftest import ARTIFACT_DIR, SCALE, scaled, write_bench_artifact

from repro.analysis.metrics import throughput_scaling
from repro.runtime import LiveSwarm
from repro.runtime.cluster import run_cluster
from repro.scenarios import builtin_scenario

#: Shard counts swept; {1, 2, 4} is the scaling curve CI tracks.
SHARD_COUNTS = [1, 2, 4]

#: Total peers across the cluster (fixed per sweep: the curve isolates
#: the process topology, not the swarm size).
SMALL_PEERS = 120
PAPER_PEERS = 600

#: Long enough for the dilation to converge and for a real stable phase
#: past the startup ramp (the same 30-round lesson as BENCH_runtime).
SMALL_ROUNDS = 30
PAPER_ROUNDS = 30


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _run_one(peers: int, rounds: int, shards: int):
    spec = builtin_scenario("static").scaled(num_nodes=peers, rounds=rounds)
    # Saturation heuristic: ~1 ms of wall time per peer per simulated
    # second — below what one loop sustains (the dilation engages), yet
    # inside the MAX_STRETCH ceiling even for the single-shard baseline,
    # so every topology stretches to its own *sustainable* rate and
    # messages/sec compares those ceilings rather than collapse regimes.
    time_scale = 0.001 * peers
    return run_cluster(spec, shards=shards, rounds=rounds, time_scale=time_scale)


def test_bench_cluster(benchmark):
    peers = scaled(SMALL_PEERS, PAPER_PEERS)
    rounds = scaled(SMALL_ROUNDS, PAPER_ROUNDS)

    def sweep():
        return {shards: _run_one(peers, rounds, shards) for shards in SHARD_COUNTS}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    throughput = {
        shards: result.messages_per_wall_second() for shards, result in results.items()
    }
    scaling = throughput_scaling(throughput)
    artifact = {"cpus": _cpus(), "peers": peers, "rounds": rounds}
    for shards, result in results.items():
        artifact[str(shards)] = {
            "shards": shards,
            "time_scale": result.time_scale,
            "wall_time_s": round(result.wall_time_s, 4),
            "messages_sent": result.messages_sent,
            "messages_per_s": round(result.messages_per_wall_second(), 1),
            "segments_delivered": result.segments_delivered(),
            "segments_per_s": round(result.segments_per_wall_second(), 1),
            "peer_periods_per_s": round(
                peers * rounds / result.wall_time_s, 1
            ) if result.wall_time_s > 0 else 0.0,
            "stable_continuity": round(result.stable_continuity(), 4),
            "clock_dilations": result.clock_dilations,
            "clock_dilation_s": round(result.clock_dilation_s, 4),
            "socket": (result.cluster or {}).get("socket", {}),
            "shards_lost": (result.cluster or {}).get("shards_lost", 0),
            "bytes_on_wire": result.bytes_on_wire,
            "speedup": round(scaling[shards]["speedup"], 3),
            "efficiency": round(scaling[shards]["efficiency"], 3),
        }
    path = write_bench_artifact("cluster", artifact)

    lines = [
        f"shards={shards}: {entry['messages_per_s']:.0f} msg/s "
        f"(speedup {entry['speedup']:.2f}x), "
        f"continuity {entry['stable_continuity']:.3f}, "
        f"dilated {entry['clock_dilations']}x, "
        f"{entry['socket'].get('frames_out', 0)} socket frames"
        for shards, entry in ((s, artifact[str(s)]) for s in SHARD_COUNTS)
    ]
    print(f"\n{peers} peers on {artifact['cpus']} cpus\n" + "\n".join(lines)
          + f"\nartifact: {path}")

    for shards, result in results.items():
        assert result.messages_per_wall_second() > 0, shards
        assert result.segments_delivered() > 0, shards
        assert (result.cluster or {}).get("shards_lost", 0) == 0, shards
        # dilation keeps an overloaded cluster streaming, not collapsing
        # (a loose floor: the artifact records the exact figure, and the
        # CI smoke step gates the unsaturated regime at >= 0.9)
        assert result.stable_continuity() > 0.4, shards
    if _cpus() >= max(SHARD_COUNTS):
        # The headline scaling claim, gated on the cores existing.  At
        # paper scale (the nightly acceptance regime) 4 shards must hit
        # the ISSUE's >= 2x of the single-shard figure; the small-scale
        # push-CI sweep uses a tolerant floor — tiny swarms amortise the
        # routing overhead badly, and the JSON records the exact ratio
        # either way.
        floor = 2.0 if SCALE == "paper" else 1.5
        assert throughput[4] >= floor * throughput[1], throughput


#: The hybrid-fidelity headline row: a six-figure swarm on one host.
HYBRID_PEERS = 100_000
HYBRID_CORE = 50
HYBRID_ROUNDS = 30


def test_bench_hybrid_100k(benchmark):
    """100k peers as a hybrid swarm: 50 live core + ~100k slim tier.

    Runs on the virtual clock (deterministic, minutes-free) and merges a
    ``hybrid_100k`` row into ``BENCH_cluster.json`` next to the shard
    scaling curve: peers hosted, memory per slim peer, messages/sec and
    the stable continuity the statistical tier still certifies.  The
    continuity floor is the ISSUE's 100k acceptance (≥ 0.95; the seed-0
    figure is 0.953).
    """
    spec = builtin_scenario("static").scaled(
        num_nodes=HYBRID_PEERS, rounds=HYBRID_ROUNDS, seed=0
    )

    def run():
        return LiveSwarm(spec, fidelity="hybrid", core_peers=HYBRID_CORE, clock="virtual").run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    fid = result.fidelity or {}
    slim_peers = int(fid.get("slim_peers", 0))
    slim_memory = int(fid.get("slim_memory_bytes", 0))
    row = {
        "fidelity": "hybrid",
        "peers": HYBRID_PEERS,
        "core_peers": HYBRID_CORE,
        "slim_peers": slim_peers,
        "rounds": HYBRID_ROUNDS,
        "clock": "virtual",
        "stable_continuity": round(result.stable_continuity(), 4),
        "messages_sent": result.messages_sent,
        "messages_per_s": round(result.messages_per_wall_second(), 1),
        "memory_per_peer_bytes": round(slim_memory / slim_peers, 2)
        if slim_peers else 0.0,
        "slim_memory_bytes": slim_memory,
        "wall_time_s": round(result.wall_time_s, 4),
    }
    # The shard-scaling sweep owns the artifact's top-level shape and
    # rewrites it wholesale; this row must *merge*, not clobber.
    path = ARTIFACT_DIR / "BENCH_cluster.json"
    artifact = json.loads(path.read_text()) if path.exists() else {}
    artifact["hybrid_100k"] = row
    path = write_bench_artifact("cluster", artifact)

    print(
        f"\nhybrid 100k: continuity {row['stable_continuity']:.4f}, "
        f"{row['messages_per_s']:.0f} msg/s, "
        f"{row['memory_per_peer_bytes']:.1f} B/slim peer, "
        f"wall {row['wall_time_s']:.1f}s\nartifact: {path}"
    )

    assert slim_peers == HYBRID_PEERS - HYBRID_CORE
    assert result.stable_continuity() >= 0.95
    assert 0 < row["memory_per_peer_bytes"] <= 8.0
