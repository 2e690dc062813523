"""Per-link flow matrix: who talks to whom, in frames and bytes.

Two accounting layers, both opt-in via :class:`~repro.obs.ObsConfig`:

- **Logical links** — every ``LiveSwarm.deliver()`` call records the
  directed peer pair ``(src, dst)`` with frame/byte totals split into
  data (segment-carrying) vs control traffic.  The table is bounded:
  when it outgrows ``4 * top_links`` distinct pairs it is compacted to
  the ``top_links`` heaviest talkers (by bytes) and the remainder is
  folded into an aggregate *tail* so totals are conserved while memory
  stays O(top_links).
- **Physical shard pairs** — the loopback delivery tail records
  post-batch wire bytes per ``(src_shard, dst_shard)`` at the exact
  point ``bytes_on_wire`` is charged, so the pair matrix reconciles
  with the physical byte counter by construction.

The shard-pair totals also ride every period record
(:mod:`repro.obs.record`), giving the coordinator's ``HealthEngine`` and
the live cockpit a cross-shard flow view while the run is in flight.

Everything here is deterministic (insertion-ordered dicts, stable
sorts, no RNG, no wall clock) so same-seed virtual runs export
identical matrices — which is what lets ``obs diff`` promise zero
regressions on a same-seed comparison.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["FlowMatrix", "merge_flows"]

# links row layout: [frames, bytes, data_frames, data_bytes]
_FRAMES, _BYTES, _DATA_FRAMES, _DATA_BYTES = range(4)


class FlowMatrix:
    """Bounded directed-link and shard-pair traffic accounting."""

    __slots__ = ("top_links", "links", "tail_links", "tail", "pairs")

    def __init__(self, top_links: int = 32) -> None:
        if top_links < 1:
            raise ValueError("top_links must be >= 1")
        self.top_links = top_links
        self.links: Dict[Tuple[int, int], List[int]] = {}
        self.tail_links = 0
        self.tail = [0, 0, 0, 0]
        self.pairs: Dict[Tuple[int, int], List[int]] = {}

    # -- recording (hot path: one dict hit + list adds) ----------------

    def record(self, src: int, dst: int, nbytes: int, data: bool) -> None:
        """Account one logical frame on the directed link ``src -> dst``."""
        row = self.links.get((src, dst))
        if row is None:
            if len(self.links) >= 4 * self.top_links:
                self._compact()
            row = self.links[(src, dst)] = [0, 0, 0, 0]
        row[_FRAMES] += 1
        row[_BYTES] += nbytes
        if data:
            row[_DATA_FRAMES] += 1
            row[_DATA_BYTES] += nbytes

    def record_physical(
        self, src_shard: int, dst_shard: int, nbytes: int, frames: int = 1
    ) -> None:
        """Account post-batch wire bytes on the ``src_shard -> dst_shard`` pair."""
        row = self.pairs.get((src_shard, dst_shard))
        if row is None:
            row = self.pairs[(src_shard, dst_shard)] = [0, 0]
        row[0] += frames
        row[1] += nbytes

    def _compact(self) -> None:
        """Keep the ``top_links`` heaviest links, fold the rest into the tail."""
        ranked = sorted(
            self.links.items(), key=lambda kv: (-kv[1][_BYTES], kv[0])
        )
        self.links = dict(ranked[: self.top_links])
        for _, row in ranked[self.top_links :]:
            self.tail_links += 1
            for i in range(4):
                self.tail[i] += row[i]

    # -- export ---------------------------------------------------------

    @property
    def empty(self) -> bool:
        return not self.links and not self.pairs

    def to_dict(self) -> Dict[str, Any]:
        ranked = sorted(
            self.links.items(), key=lambda kv: (-kv[1][_BYTES], kv[0])
        )
        # The live table may hold up to 4*top_links between compactions;
        # the export is always bounded at top_links, overflow folded
        # into the (copied) tail so totals stay conserved.
        tail_links = self.tail_links
        tail = list(self.tail)
        for _, row in ranked[self.top_links :]:
            tail_links += 1
            for i in range(4):
                tail[i] += row[i]
        return {
            "top_links": self.top_links,
            "links": [[s, d, *row] for (s, d), row in ranked[: self.top_links]],
            "tail": {
                "links": tail_links,
                "frames": tail[_FRAMES],
                "bytes": tail[_BYTES],
                "data_frames": tail[_DATA_FRAMES],
                "data_bytes": tail[_DATA_BYTES],
            },
            "pairs": [
                [s, d, row[0], row[1]]
                for (s, d), row in sorted(self.pairs.items())
            ],
        }


def merge_flows(parts: Iterable[Optional[Dict[str, Any]]]) -> Optional[Dict[str, Any]]:
    """Merge per-shard flow exports: sum links/pairs, re-bound to top-K."""
    parts = [p for p in parts if p]
    if not parts:
        return None
    top = max(int(p.get("top_links", 32)) for p in parts)
    links: Dict[Tuple[int, int], List[int]] = {}
    tail_links = 0
    tail = [0, 0, 0, 0]
    pairs: Dict[Tuple[int, int], List[int]] = {}
    for part in parts:
        for s, d, *row in part.get("links", ()):
            acc = links.setdefault((s, d), [0, 0, 0, 0])
            for i in range(4):
                acc[i] += row[i]
        t = part.get("tail") or {}
        tail_links += int(t.get("links", 0))
        tail[_FRAMES] += int(t.get("frames", 0))
        tail[_BYTES] += int(t.get("bytes", 0))
        tail[_DATA_FRAMES] += int(t.get("data_frames", 0))
        tail[_DATA_BYTES] += int(t.get("data_bytes", 0))
    for part in parts:
        for s, d, frames, nbytes in part.get("pairs", ()):
            acc = pairs.setdefault((s, d), [0, 0])
            acc[0] += frames
            acc[1] += nbytes
    ranked = sorted(links.items(), key=lambda kv: (-kv[1][_BYTES], kv[0]))
    for _, row in ranked[top:]:
        tail_links += 1
        for i in range(4):
            tail[i] += row[i]
    return {
        "top_links": top,
        "links": [[s, d, *row] for (s, d), row in ranked[:top]],
        "tail": {
            "links": tail_links,
            "frames": tail[_FRAMES],
            "bytes": tail[_BYTES],
            "data_frames": tail[_DATA_FRAMES],
            "data_bytes": tail[_DATA_BYTES],
        },
        "pairs": [
            [s, d, row[0], row[1]] for (s, d), row in sorted(pairs.items())
        ],
    }
