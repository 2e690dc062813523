#!/usr/bin/env python3
"""Quickstart: stream to a small overlay and compare both systems.

Builds a 150-node overlay from a synthetic Gnutella-like trace, streams a
300 Kbps media stream for 30 scheduling periods with CoolStreaming
(rarest-first pull gossip) and with ContinuStreaming (urgency+rarity
scheduling plus DHT-assisted pre-fetch), and prints the playback-continuity
tracks and the overhead metrics of both runs.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import StreamingSystem, SystemConfig
from repro.core.phases import Phase, PhaseReport, ProtocolRegistry, RoundContext


class MetricsTapPhase(Phase):
    """Custom last phase: tally pipeline counters as the run goes.

    Any object implementing ``Phase.execute(ctx) -> PhaseReport`` can be
    spliced into the round pipeline via ``StreamingSystem(..., pipeline=...)``
    — no changes to the system or the registered protocols required.
    """

    name = "metrics-tap"  # appended after playback/churn: the counters are final

    def __init__(self) -> None:
        self.scheduled = 0
        self.prefetched = 0

    def execute(self, ctx: RoundContext) -> PhaseReport:
        self.scheduled += ctx.segments_scheduled
        self.prefetched += ctx.segments_prefetched
        return self.report(scheduled=self.scheduled, prefetched=self.prefetched)


def run_with_custom_phase(config: SystemConfig) -> None:
    """Demonstrate the pipeline hook: the default pipeline plus a tap."""
    tap = MetricsTapPhase()
    default = ProtocolRegistry.get("continustreaming").build_pipeline()
    StreamingSystem(config, pipeline=[*default, tap]).run()
    print("== custom metrics-tap phase ==")
    print(f"  segments via gossip scheduling: {tap.scheduled}")
    print(f"  segments via DHT pre-fetch    : {tap.prefetched}\n")


def main() -> None:
    config = SystemConfig(
        num_nodes=150,      # overlay size, including the media source
        rounds=30,          # scheduling periods (1 s each)
        mean_inbound=15.0,  # segments/s, i.e. 450 Kbps at 30 Kbit segments
        backup_replicas=4,  # each segment is backed up on k = 4 DHT nodes
        prefetch_limit=5,   # at most l = 5 pre-fetches per node per period
        seed=42,
    )

    print(f"Overlay: {config.num_nodes} nodes, id space {config.effective_id_space}, "
          f"stream {config.playback_rate:g} segments/s for {config.duration:g} s\n")

    for system in ("coolstreaming", "continustreaming"):
        result = StreamingSystem(config, system=system).run()
        track = ", ".join(f"{value:.2f}" for value in result.continuity_series())
        print(f"== {system} ==")
        print(f"  continuity track : [{track}]")
        print(f"  stable continuity: {result.stable_continuity():.3f}")
        print(f"  control overhead : {result.control_overhead():.4f}")
        if system == "continustreaming":
            print(f"  pre-fetch overhead: {result.prefetch_overhead():.4f}")
        print()

    run_with_custom_phase(config)

    print("ContinuStreaming should hold a visibly higher stable continuity while")
    print("its pre-fetch overhead stays in the low single-digit percent range.")


if __name__ == "__main__":
    main()
