"""The five workloads.  Each function performs one iteration for a :class:`Run`.

Only the program's stable surface is imported (see ``README.md``): the
scenario library, ``LiveSwarm``, ``run_cluster``, ``SystemConfig``,
``StreamingSystem`` and the codec's message classes and entry points.  The
imports live inside :func:`load_program` so that importing this module is
free and the program's import cost can be timed as part of ``setup_s``.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Tuple

from bench.harness import (
    Iteration,
    Number,
    Run,
    by_kind,
    maybe,
    ratio,
    series_digest,
    stable_ops,
    startup_periods,
)

def load_program() -> Tuple[SimpleNamespace, float]:
    """Import the program's stable surface: ``(the names, seconds it took)``."""
    start = time.perf_counter()
    from repro.core.config import SystemConfig
    from repro.core.system import StreamingSystem
    from repro.runtime import LiveSwarm, wire
    from repro.runtime.cluster import run_cluster
    from repro.scenarios import builtin_scenario

    program = SimpleNamespace(
        SystemConfig=SystemConfig,
        StreamingSystem=StreamingSystem,
        LiveSwarm=LiveSwarm,
        wire=wire,
        run_cluster=run_cluster,
        builtin_scenario=builtin_scenario,
    )
    return program, time.perf_counter() - start


# ====================================================================== runtime
def _runtime_counters(result: Any, peer_periods: int) -> Dict[str, Number]:
    """The exact per-layer counters a ``RuntimeResult`` carries."""
    transport = maybe(result, "transport")
    counts = by_kind(maybe(result, "ledger"), "counts")
    fulls = maybe(transport, "map_fulls_sent")
    deltas = maybe(transport, "map_deltas_sent")
    socket = maybe(result, "cluster", "socket")
    out: Dict[str, Number] = {
        "swarm.msgs_sent": maybe(result, "messages_sent"),
        "swarm.msgs_per_peer_period": ratio(maybe(result, "messages_sent"), peer_periods),
        "swarm.msgs_dropped": maybe(result, "messages_dropped"),
        "swarm.bytes_on_wire": maybe(result, "bytes_on_wire"),
        "swarm.clock_dilations": maybe(result, "clock_dilations"),
        "swarm.clock_dilation_s": maybe(result, "clock_dilation_s"),
        "wire.gossip_delta_ratio": ratio(
            maybe(transport, "gossip_bytes"), maybe(transport, "gossip_bytes_full")
        ),
        "wire.map_fulls_share": ratio(fulls, None if fulls is None or deltas is None else fulls + deltas),
        "wire.map_desyncs": maybe(transport, "map_desyncs"),
        "dht.routing_msgs": counts.get("dht_routing"),
        "dht.prefetched_segments": counts.get("data_prefetch"),
        "dht.routing_msgs_per_prefetch": ratio(counts.get("dht_routing"), counts.get("data_prefetch")),
        "scheduler.scheduled_segments": counts.get("data_scheduled"),
        "links.socket_frames_out": maybe(socket, "frames_out"),
        "links.socket_frames_in": maybe(socket, "frames_in"),
        "links.socket_bytes_out": maybe(socket, "bytes_out"),
        "links.socket_sheds": maybe(socket, "sheds"),
        "links.socket_reconnects": maybe(socket, "reconnects"),
        "cluster.shards_lost": maybe(result, "cluster", "shards_lost"),
    }
    for name in (
        "send_stalls",
        "inbox_high_watermark",
        "pending_high_watermark",
        "pending_shed",
        "inbox_dropped_data",
        "credits_granted",
        "link_resets",
    ):
        out[f"transport.{name}"] = maybe(transport, name)
    frames_out, frames_in = out["links.socket_frames_out"], out["links.socket_frames_in"]
    if frames_out is not None and frames_in is not None:
        # Reported, not failed: the known conservation defect (README).
        out["links.socket_frames_unaccounted"] = frames_out - frames_in
    return out


def _runtime_iteration(result: Any, region, peers: int, rounds: int, virtual: bool) -> Iteration:
    series = result.continuity_series()
    segments = result.segments_delivered()
    attempted, not_playing = stable_ops(series, result.tracker.nodes_sampled)
    return Iteration(
        region=region,
        peer_periods=peers * rounds,
        segments=segments,
        msgs=result.messages_sent,
        quality={
            "stable_continuity": result.stable_continuity(),
            "startup_periods": startup_periods(series, rounds),
            "bytes_per_segment": result.bytes_on_wire / max(1, segments),
            "control_overhead": result.control_overhead(),
            "prefetch_overhead": result.prefetch_overhead(),
        },
        counters=_runtime_counters(result, peers * rounds),
        fingerprint={
            "msgs_sent": result.messages_sent,
            "segments": segments,
            "bytes_on_wire": result.bytes_on_wire,
            "continuity_sha256": series_digest(series),
        }
        if virtual
        else None,
        ops_attempted=attempted,
        ops_failed=not_playing,
    )


def _virtual_swarm(run: Run, spec: Any) -> Iteration:
    swarm = run.build(lambda: run.program.LiveSwarm(spec, clock="virtual").build())
    with run.region() as region:
        result = swarm.run()
    return _runtime_iteration(result, region, spec.num_nodes, spec.rounds, virtual=True)


def rt_static(run: Run) -> Iteration:
    peers, rounds = run.scale.rt_static
    spec = run.program.builtin_scenario("static").scaled(num_nodes=peers, rounds=rounds, seed=run.seed)
    return _virtual_swarm(run, spec)


def rt_churn(run: Run) -> Iteration:
    peers, rounds = run.scale.rt_churn
    spec = dataclasses.replace(
        run.program.builtin_scenario("paper-dynamic").scaled(num_nodes=peers, rounds=rounds, seed=run.seed),
        loss_rate=0.02,
    )
    return _virtual_swarm(run, spec)


# ==================================================================== simulator
def sim_static(run: Run) -> Iteration:
    peers, rounds = run.scale.sim_static
    config = run.program.SystemConfig(num_nodes=peers, rounds=rounds, seed=run.seed).static_variant()
    systems = run.build(
        lambda: [
            run.program.StreamingSystem(config, system=name).build()
            for name in ("coolstreaming", "continustreaming")
        ]
    )
    with run.region() as region:
        cool, continu = [system.run() for system in systems]

    def delivered(result: Any) -> int:
        return sum(r.segments_scheduled + r.segments_prefetched for r in result.rounds)

    series = continu.continuity_series()
    segments = delivered(continu)
    ledger = maybe(continu, "traffic")
    ledger = ledger.cumulative() if ledger is not None else None
    bits, counts = by_kind(ledger, "bits"), by_kind(ledger, "counts")
    # The simulator moves no bytes; its analogue of wire bytes per segment is
    # every non-payload bit the ledger charged (maps, routing, membership).
    overhead_bits = sum(v for kind, v in bits.items() if not kind.startswith("data_"))
    attempted, not_playing = stable_ops(series, continu.tracker.nodes_sampled)
    gain = continu.stable_continuity() - cool.stable_continuity()
    return Iteration(
        region=region,
        peer_periods=2 * peers * rounds,
        segments=segments + delivered(cool),
        msgs=None,
        quality={
            "stable_continuity": continu.stable_continuity(),
            "continuity_gain": gain,
            "startup_periods": startup_periods(series, rounds),
            "bytes_per_segment": overhead_bits / 8.0 / max(1, segments),
            "control_overhead": continu.control_overhead(),
            "prefetch_overhead": continu.prefetch_overhead(),
        },
        counters={
            "dht.routing_msgs": counts.get("dht_routing"),
            "dht.prefetched_segments": counts.get("data_prefetch"),
            "dht.routing_msgs_per_prefetch": ratio(counts.get("dht_routing"), counts.get("data_prefetch")),
            "scheduler.scheduled_segments": counts.get("data_scheduled"),
        },
        fingerprint={
            "segments": segments + delivered(cool),
            "ledger_bits": sum(bits.values()),
            "continuity_sha256": series_digest(series + cool.continuity_series()),
        },
        ops_attempted=attempted,
        ops_failed=not_playing,
        checks={"continu_beats_cool": gain > 0} if run.scale.full else {},
    )


# ====================================================================== cluster
def shard_count() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        cpus = os.cpu_count() or 1
    return min(2, cpus)


def cluster_2shard(run: Run) -> Iteration:
    peers, rounds, time_scale = run.scale.cluster
    spec = run.program.builtin_scenario("static").scaled(num_nodes=peers, rounds=rounds, seed=run.seed)
    shards = shard_count()

    def spawn_overhead(periods: int) -> Tuple[Any, float]:
        """Run a cluster; seconds of it that were spawn, handshake and teardown."""
        start = time.perf_counter()
        result = run.program.run_cluster(spec, shards=shards, rounds=periods, time_scale=time_scale)
        return result, time.perf_counter() - start - result.wall_time_s

    # run_cluster is one call, so set-up cannot be built ahead of the region:
    # one-period probe clusters sample it, and so does the measured run.
    if not run.setup_samples:
        for _ in range(run.scale.cluster_probes):
            run.setup_samples.append(spawn_overhead(1)[1])
    with run.region() as region:
        result, overhead = spawn_overhead(rounds)
    run.setup_samples.append(overhead)
    # The fixed schedule is the timed region a user waits for; spawn and
    # teardown around it are set-up.  CPU covers the whole call: the shard
    # processes' import and build cannot be told apart from outside.
    region.wall_s = result.wall_time_s

    iteration = _runtime_iteration(result, region, peers, rounds, virtual=False)
    iteration.counters["cluster.coordinator_cpu_s"] = region.own_cpu_s
    iteration.counters["cluster.workers_cpu_s"] = region.children_cpu_s
    lost = maybe(result, "cluster", "shards_lost") or 0
    hosted = sum(row.get("hosted_peers", 0) for row in maybe(result, "cluster", "per_shard") or [])
    stable_rounds = rounds - (2 * rounds) // 3
    iteration.ops_lost = (peers - hosted) * stable_rounds if lost else 0
    iteration.ops_attempted += iteration.ops_lost
    iteration.checks["no_shard_lost"] = lost == 0
    return iteration


# ================================================================== wire replay
#: Frames per peer·period, by kind, as rt_static sends them (455 808 messages
#: over 8 000 peer·periods at seed 0: 15.0 lookups, 14.1 requests, 8.8 data,
#: 5.3 NACKs, 5.0 responses, 5.35 map deltas, 3.2 credits; one full map per
#: ~7.5 and — under churn — a ping/pong pair now and then).
BLOCK_MIX = (("lookup", 15), ("request", 14), ("data", 9), ("nack", 5), ("response", 5),
             ("delta", 5), ("credit", 3))
FULL_MAP_EVERY = 8
PING_PONG_EVERY = 16
BATCH_OF = 8
MAP_CAPACITY = 600
SEGMENT_BITS = 30_720


def make_corpus(wire: Any, seed: int, blocks: int) -> List[Any]:
    """``blocks`` peer·periods of ``wire`` messages in :data:`BLOCK_MIX`, from ``seed``."""
    rng = random.Random(seed)
    ring = 8192

    def path(shortest: int, longest: int) -> Tuple[int, ...]:
        # Greedy routes are short: mean 2.2 hops on lookups, 4.0 on responses.
        hops = min(longest, shortest + int(rng.expovariate(0.8)))
        return tuple(rng.randrange(ring) for _ in range(hops))

    def runs() -> Tuple[Tuple[int, int], ...]:
        out, offset = [], 0
        for _ in range(rng.randint(0, 11)):  # mean 5.4 toggled runs per delta
            offset += rng.randint(1, 40)
            length = 1 if rng.random() < 0.7 else rng.randint(2, 6)
            if offset + length > MAP_CAPACITY:
                break
            out.append((offset, length))
            offset += length
        return tuple(out)

    makers: Dict[str, Callable[[int], Any]] = {
        "lookup": lambda seg: wire.DhtLookup(
            origin=rng.randrange(ring), target_key=rng.randrange(ring), segment_id=seg, path=path(1, 7)
        ),
        "request": lambda seg: wire.SegmentRequest(
            sender=rng.randrange(ring), segment_id=seg, prefetch=rng.random() < 0.01
        ),
        "data": lambda seg: wire.SegmentData(
            sender=rng.randrange(ring), segment_id=seg, size_bits=SEGMENT_BITS,
            prefetch=rng.random() < 0.01,
        ),
        "nack": lambda seg: wire.SegmentNack(sender=rng.randrange(ring), segment_id=seg),
        "response": lambda seg: wire.DhtResponse(
            responder=rng.randrange(ring), origin=rng.randrange(ring), target_key=rng.randrange(ring),
            segment_id=seg, has_data=rng.random() < 0.75,
            rate=rng.randrange(40, 133) / 4.0,  # exact in the frame's float32
            path=path(2, 8),
        ),
        "delta": lambda seg: wire.BufferMapDelta(
            sender=rng.randrange(ring), seq=rng.randrange(1, 1 << 16), newest_id=seg,
            head_id=max(0, seg - MAP_CAPACITY), capacity=MAP_CAPACITY, runs=runs(),
        ),
        "credit": lambda seg: wire.CreditGrant(sender=rng.randrange(ring), credits=rng.randint(1, 8)),
    }
    corpus: List[Any] = []
    for block in range(blocks):
        newest = 10 * block + rng.randrange(10)
        messages = [
            makers[kind](max(0, newest - rng.randrange(150)))
            for kind, count in BLOCK_MIX
            for _ in range(count)
        ]
        if block % FULL_MAP_EVERY == 0:
            messages.append(
                wire.BufferMapMsg(
                    sender=rng.randrange(ring), newest_id=newest, head_id=max(0, newest - MAP_CAPACITY),
                    capacity=MAP_CAPACITY, bitmap=rng.randbytes((MAP_CAPACITY + 7) // 8),
                    seq=rng.randrange(1 << 16),
                )
            )
        if block % PING_PONG_EVERY == 0:
            nonce = rng.randrange(1 << 16)
            messages += [wire.Ping(sender=rng.randrange(ring), nonce=nonce),
                         wire.Pong(sender=rng.randrange(ring), nonce=nonce)]
        rng.shuffle(messages)
        corpus.extend(messages)
    return corpus


def wire_replay(run: Run) -> Iteration:
    wire = run.program.wire
    blocks = run.scale.wire_blocks
    corpus = run.build(lambda: make_corpus(wire, run.seed, blocks), keep_as="corpus")
    encode, encode_batch, decode = wire.encode, wire.encode_batch, wire.decode
    clock = time.process_time

    def replay():
        # Its own frame, entered inside the region, so the profiler sees the
        # replay loops themselves (as the ``bench`` layer) and not only
        # what they call.
        t0 = clock()
        frames = [encode(msg) for msg in corpus]
        t1 = clock()
        envelopes: List[bytes] = []
        for start in range(0, len(frames), BATCH_OF):
            envelopes.extend(encode_batch(frames[start:start + BATCH_OF]))
        t2 = clock()
        loose: List[Any] = []
        decoder = wire.FrameDecoder()
        for frame in frames:
            loose.extend(decoder.feed(frame))
        t3 = clock()
        batched: List[Any] = []
        decoder = wire.FrameDecoder()
        for envelope in envelopes:
            for message in decoder.feed(envelope):
                inner = getattr(message, "frames", None)
                if inner is None:  # a lone frame passes through unbatched
                    batched.append(message)
                else:
                    batched.extend(decode(frame)[0] for frame in inner)
        t4 = clock()
        return frames, envelopes, loose, batched, (t1 - t0, t3 - t2, t4 - t3)

    with run.region() as region:
        frames, envelopes, loose, batched, (encode_s, decode_s, batch_decode_s) = replay()

    # Output check, outside the region: both decode paths return the corpus.
    count = len(corpus)
    mismatches = sum(
        max(len(got), count) - sum(a == b for a, b in zip(got, corpus))
        for got in (loose, batched)
        if got != corpus  # one C-level comparison on the path that always holds
    )

    frame_bits: Dict[str, int] = {}
    for msg, frame in zip(corpus, frames):
        kind = type(msg).__name__
        frame_bits[kind] = frame_bits.get(kind, 0) + 8 * len(frame)
    map_bits = frame_bits.get("BufferMapMsg", 0) + frame_bits.get("BufferMapDelta", 0)
    routing_bits = frame_bits.get("DhtLookup", 0) + frame_bits.get("DhtResponse", 0)
    data = [msg for msg in corpus if type(msg).__name__ == "SegmentData"]
    scheduled_bits = sum(msg.size_bits for msg in data if not msg.prefetch)
    prefetched_bits = sum(msg.size_bits for msg in data if msg.prefetch)
    loose_bytes = sum(frame_bits.values()) // 8
    wire_bytes = sum(len(envelope) for envelope in envelopes)
    return Iteration(
        region=region,
        peer_periods=blocks,
        segments=len(data),
        msgs=None,
        frames=3 * count,  # encoded once, decoded loose and decoded from batches
        quality={
            # The codec's analogues, so every workload reports every contract
            # metric: share of frames that arrive intact, physical bytes per
            # data frame, and map / lookup bits per scheduled payload bit.
            "stable_continuity": 1.0 - mismatches / (2.0 * count),
            "bytes_per_segment": wire_bytes / max(1, len(data)),
            "control_overhead": map_bits / max(1, scheduled_bits),
            "prefetch_overhead": (routing_bits + prefetched_bits) / max(1, scheduled_bits),
        },
        counters={
            "wire.encode_ops_per_cpu_s": ratio(count, encode_s),
            "wire.decode_ops_per_cpu_s": ratio(count, decode_s),
            "wire.batch_decode_ops_per_cpu_s": ratio(count, batch_decode_s),
            "wire.bytes_per_frame": loose_bytes / count,
            "wire.roundtrip_mismatches": mismatches,
        },
        fingerprint={"frames": count, "wire_bytes": wire_bytes, "loose_bytes": loose_bytes},
        ops_attempted=2 * count,
        ops_failed=mismatches,
        ops_lost=mismatches,
        checks={"codec_roundtrip": mismatches == 0},
    )


#: Workloads whose work happens in child processes the profiler cannot see:
#: their traced pass reports counters only.
UNPROFILED = frozenset({"cluster_2shard"})

WORKLOADS: Dict[str, Callable[[Run], Iteration]] = {
    "rt_static": rt_static,
    "rt_churn": rt_churn,
    "sim_static": sim_static,
    "cluster_2shard": cluster_2shard,
    "wire_replay": wire_replay,
}
