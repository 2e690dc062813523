"""Phase 1 — the media source generates this period's segments."""

from __future__ import annotations

from repro.core.phases.base import Phase, PhaseReport, RoundContext


class SourceGenerationPhase(Phase):
    """Emit every segment whose generation time falls inside this period.

    The source node buffers its own segments immediately (it is the origin
    of the gossip dissemination), and the context learns the new live edge
    ``newest_segment_id`` that every later phase anchors its windows on.
    """

    name = "source-generation"

    def execute(self, ctx: RoundContext) -> PhaseReport:
        generated = ctx.source.generate_until(ctx.round_end)
        buffer = ctx.nodes[ctx.source_id].buffer
        for segment_id in generated:
            buffer.add(segment_id)
        ctx.newest_segment_id = ctx.source.newest_segment_id
        return self.report(
            segments_generated=len(generated), newest_segment_id=ctx.newest_segment_id
        )
