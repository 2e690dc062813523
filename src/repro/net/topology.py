"""Undirected overlay topology.

A thin adjacency-set graph specialised for the simulator's needs: node
addition/removal under churn and random edge densification to a target
degree.  We intentionally do not depend on :mod:`networkx` for the hot
path (the simulator touches adjacency sets every round), but the graph can
be exported to networkx for analysis.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

import numpy as np


class OverlayTopology:
    """Mutable undirected graph over integer node ids."""

    def __init__(self, nodes: Optional[Iterable[int]] = None) -> None:
        self._adj: Dict[int, Set[int]] = {}
        if nodes is not None:
            for node in nodes:
                self.add_node(int(node))

    # ------------------------------------------------------------------ nodes
    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, node: int) -> bool:
        return node in self._adj

    def nodes(self) -> List[int]:
        """Sorted list of node ids."""
        return sorted(self._adj)

    def add_node(self, node: int) -> None:
        """Add a node (no-op if already present)."""
        self._adj.setdefault(int(node), set())

    def remove_node(self, node: int) -> Set[int]:
        """Remove a node and its incident edges; returns its old neighbours."""
        neighbours = self._adj.pop(node, set())
        for other in neighbours:
            self._adj[other].discard(node)
        return neighbours

    # ------------------------------------------------------------------ edges
    def add_edge(self, a: int, b: int) -> bool:
        """Add an undirected edge; returns False for self-loops/duplicates."""
        if a == b:
            return False
        self.add_node(a)
        self.add_node(b)
        if b in self._adj[a]:
            return False
        self._adj[a].add(b)
        self._adj[b].add(a)
        return True

    def has_edge(self, a: int, b: int) -> bool:
        return a in self._adj and b in self._adj[a]

    def neighbors(self, node: int) -> Set[int]:
        """A copy of the neighbour set of ``node``."""
        return set(self._adj.get(node, set()))

    def degree(self, node: int) -> int:
        return len(self._adj.get(node, set()))

    def edge_count(self) -> int:
        return sum(len(neigh) for neigh in self._adj.values()) // 2

    def average_degree(self) -> float:
        if not self._adj:
            return 0.0
        return 2.0 * self.edge_count() / len(self._adj)

    def edges(self) -> List[tuple[int, int]]:
        """All undirected edges as ``(min, max)`` pairs, sorted."""
        seen = set()
        for a, neigh in self._adj.items():
            for b in neigh:
                seen.add((a, b) if a < b else (b, a))
        return sorted(seen)

    # ------------------------------------------------------------- operations
    def densify_to_degree(
        self, target_degree: int, rng: np.random.Generator
    ) -> int:
        """Add random edges until every node has at least ``target_degree``
        neighbours (the paper adds random edges so every node holds ``M = 5``
        connected neighbours).

        Returns the number of edges added.  Nodes that cannot reach the
        target (graph too small) get as many as possible.
        """
        node_list = self.nodes()
        n = len(node_list)
        if n <= 1:
            return 0
        added = 0
        max_possible = min(target_degree, n - 1)
        deficient = [v for v in node_list if self.degree(v) < max_possible]
        attempts_budget = 50 * n * max(1, target_degree)
        attempts = 0
        while deficient and attempts < attempts_budget:
            attempts += 1
            v = deficient[int(rng.integers(len(deficient)))]
            w = node_list[int(rng.integers(n))]
            if w == v or self.has_edge(v, w):
                continue
            self.add_edge(v, w)
            added += 1
            # Only v and w gained an edge; one that just reached the target
            # was deficient until now (degrees only grow).
            for u in (v, w):
                if self.degree(u) == max_possible:
                    deficient.remove(u)
        return added

    def copy(self) -> "OverlayTopology":
        """Deep copy of the topology."""
        clone = OverlayTopology()
        clone._adj = {node: set(neigh) for node, neigh in self._adj.items()}
        return clone
