"""Phase 6 — playback and the round's continuity sample (period end)."""

from __future__ import annotations

from repro.core.phases.base import Phase, PhaseReport, RoundContext


class PlaybackPhase(Phase):
    """Every consumer plays one period of media; continuity is sampled.

    A node that has not started yet waits for its startup buffer, then
    begins ``playback_lag`` behind the live edge — "following its
    neighbours' current steps", since every neighbour maintains the same
    lag.  The continuity sample is the fraction of started nodes that could
    play the whole period without stalling (or, under hard deadlines,
    without skipping).
    """

    name = "playback"

    def execute(self, ctx: RoundContext) -> PhaseReport:
        cfg = ctx.config
        playing = 0
        for nid in ctx.consumers:
            node = ctx.nodes[nid]
            if not node.playback.started:
                node.maybe_start_playback(
                    cfg.startup_segments, newest_available_id=ctx.newest_segment_id
                )
            if node.playback.started and node.can_play_round():
                playing += 1
            node.play_round(newest_available_id=ctx.newest_segment_id)
        ctx.nodes_playing = playing
        if ctx.tracker is not None:
            ctx.continuity = ctx.tracker.record_round(
                ctx.round_end, playing, len(ctx.consumers)
            )
        elif ctx.consumers:
            ctx.continuity = playing / len(ctx.consumers)
        return self.report(nodes_playing=playing, continuity=ctx.continuity)
