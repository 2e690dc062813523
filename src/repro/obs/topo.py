"""Overlay topology introspection: partner graph, coverage, partitions.

:class:`TopologyObserver` takes a periodic snapshot of the overlay as a
hosted swarm actually sees it:

- **Partner graph** — directed adjacency from every hosted live peer to
  its live gossip partners, with the out-degree distribution.
- **Gossip coverage** — the fraction of (peer, partner) edges on which
  the partner's *newest* buffer map arrived within the last ``k``
  periods (tracked via the per-partner map sequence numbers the delta
  gossip chain already maintains).  A coverage collapse means buffer
  maps stopped disseminating — the precondition for scheduling decay
  under churn that the paper's gossip argument rests on.
- **Ring-finger health** — the fraction of DHT finger entries that
  still point at live peers.
- **Partition detection** — the weakly-connected-component count of
  the local overlay view (every live node and its partner edges); any
  value above 1 means the overlay has split.

Snapshots are cheap (O(nodes + edges), no RNG, no wall clock) and ride
the normal ``RuntimeResult.obs`` export; :func:`merge_topo` unions the
per-shard partner graphs into the true cross-shard graph and recomputes
degrees and components over the union.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["TopologyObserver", "merge_topo"]


def _components(adjacency: Dict[int, Iterable[int]]) -> Tuple[int, int]:
    """Weakly-connected components of a directed graph: (count, nodes)."""
    undirected: Dict[int, set] = {}
    for node, nbrs in adjacency.items():
        mine = undirected.setdefault(node, set())
        for nbr in nbrs:
            mine.add(nbr)
            undirected.setdefault(nbr, set()).add(node)
    seen: set = set()
    count = 0
    for start in undirected:
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            for nbr in undirected[stack.pop()]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
    return count, len(undirected)


def _degree_stats(adjacency: Dict[int, List[int]]) -> Dict[str, Any]:
    """Out/in degree distribution of a directed adjacency."""
    out_hist: Dict[int, int] = {}
    in_deg: Dict[int, int] = {}
    for node, nbrs in adjacency.items():
        out_hist[len(nbrs)] = out_hist.get(len(nbrs), 0) + 1
        in_deg.setdefault(node, 0)
        for nbr in nbrs:
            in_deg[nbr] = in_deg.get(nbr, 0) + 1
    in_hist: Dict[int, int] = {}
    for deg in in_deg.values():
        in_hist[deg] = in_hist.get(deg, 0) + 1
    n = len(adjacency)
    edges = sum(len(nbrs) for nbrs in adjacency.values())
    return {
        "nodes": n,
        "edges": edges,
        "out_degree_mean": edges / n if n else 0.0,
        "out_degree_max": max((len(v) for v in adjacency.values()), default=0),
        "out_degree_hist": sorted(out_hist.items()),
        "in_degree_hist": sorted(in_hist.items()),
    }


class TopologyObserver:
    """Periodic overlay snapshots for one (shard of a) live swarm."""

    __slots__ = ("coverage_periods", "last", "_map_seen")

    def __init__(self, coverage_periods: int = 3) -> None:
        if coverage_periods < 1:
            raise ValueError("coverage_periods must be >= 1")
        self.coverage_periods = coverage_periods
        self.last: Optional[Dict[str, Any]] = None
        # (peer, partner) -> (last map seq seen, period it changed)
        self._map_seen: Dict[Tuple[int, int], Tuple[Optional[int], int]] = {}

    def observe(self, swarm: Any, period: int) -> Dict[str, Any]:
        """Snapshot the overlay as ``swarm``'s hosted peers see it now."""
        adjacency: Dict[int, List[int]] = {}
        covered = 0
        edges = 0
        finger_alive = 0
        finger_total = 0
        map_seen: Dict[Tuple[int, int], Tuple[Optional[int], int]] = {}
        k = self.coverage_periods
        for pid, peer in swarm.peers.items():
            node = peer.node
            if not node.alive:
                continue
            partners = sorted(n for n in node.neighbors if swarm.is_alive(n))
            adjacency[pid] = partners
            seqs = peer._neighbor_map_seq
            for partner in partners:
                edges += 1
                seq = seqs.get(partner)
                prev = self._map_seen.get((pid, partner))
                if seq is None:
                    # No map from this partner yet: the edge is dark.
                    map_seen[(pid, partner)] = (None, period)
                    continue
                if prev is None or prev[0] != seq:
                    prev = (seq, period)
                map_seen[(pid, partner)] = prev
                if period - prev[1] < k:
                    covered += 1
            table = getattr(node, "peer_table", None)
            if table is not None:
                for fid in table.dht_peer_ids():
                    finger_total += 1
                    if swarm.is_alive(fid):
                        finger_alive += 1
        self._map_seen = map_seen

        # Partition detection over the *local view* of the full overlay
        # (each process replicates the ring, so this is global within
        # one run; the merged export recomputes over the true union of
        # hosted partner edges instead).
        view = {
            nid: [n for n in node.neighbors if swarm.is_alive(n)]
            for nid, node in swarm.manager.nodes.items()
            if node.alive
        }
        components, component_nodes = _components(view)

        snap: Dict[str, Any] = {
            "period": period,
            "coverage_periods": k,
            "adjacency": [[pid, nbrs] for pid, nbrs in sorted(adjacency.items())],
            "partner_pairs": edges,
            "covered_pairs": covered,
            "coverage": covered / edges if edges else 1.0,
            "components": components,
            "component_nodes": component_nodes,
            "finger_alive": finger_alive,
            "finger_total": finger_total,
            "finger_health": finger_alive / finger_total if finger_total else 1.0,
        }
        snap.update(_degree_stats(adjacency))
        self.last = snap
        return snap

    def to_dict(self) -> Optional[Dict[str, Any]]:
        return self.last


def merge_topo(parts: Iterable[Optional[Dict[str, Any]]]) -> Optional[Dict[str, Any]]:
    """Union per-shard snapshots into one cross-shard topology view."""
    parts = [p for p in parts if p]
    if not parts:
        return None
    adjacency: Dict[int, List[int]] = {}
    covered = 0
    edges = 0
    finger_alive = 0
    finger_total = 0
    for part in parts:
        for pid, nbrs in part.get("adjacency", ()):
            adjacency[int(pid)] = [int(n) for n in nbrs]
        covered += int(part.get("covered_pairs", 0))
        edges += int(part.get("partner_pairs", 0))
        finger_alive += int(part.get("finger_alive", 0))
        finger_total += int(part.get("finger_total", 0))
    components, component_nodes = _components(adjacency)
    merged: Dict[str, Any] = {
        "period": max(int(p.get("period", 0)) for p in parts),
        "coverage_periods": max(int(p.get("coverage_periods", 1)) for p in parts),
        "shards_merged": len(parts),
        "adjacency": [[pid, nbrs] for pid, nbrs in sorted(adjacency.items())],
        "partner_pairs": edges,
        "covered_pairs": covered,
        "coverage": covered / edges if edges else 1.0,
        "components": components,
        "component_nodes": component_nodes,
        "finger_alive": finger_alive,
        "finger_total": finger_total,
        "finger_health": finger_alive / finger_total if finger_total else 1.0,
    }
    merged.update(_degree_stats(adjacency))
    return merged
