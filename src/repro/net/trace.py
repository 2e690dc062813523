"""Synthetic Gnutella-like trace topologies.

The paper uses 30 crawls of the early Gnutella network collected by
``dss.clip2.com`` between December 2000 and June 2001.  Each trace record
contains a node id, IP address, port, ping time measured from a central
crawler, and link speed; the paper only uses the id, IP, and ping time.  The
crawled graphs span 100-10000 nodes with an average degree between <1 and
3.5, which is too sparse for streaming, so the paper densifies them with
random edges until every node has ``M = 5`` connected neighbours.

Those traces are no longer available, so this module generates synthetic
equivalents preserving the properties the paper actually relies on:

* the same record schema (id, IP, port, ping time, speed),
* the same node-count range and sparse average degree (sampled in [0.8, 3.5]),
* a heavy-tailed degree distribution (preferential attachment over a random
  backbone), matching early Gnutella measurements, and
* ping times drawn from a log-normal distribution with a median of ~100 ms,
  from which pairwise latencies are later derived exactly as the paper does
  (difference of ping times from the central vantage point).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.net.topology import OverlayTopology


@dataclass(frozen=True)
class TraceNodeRecord:
    """One row of a (synthetic) crawl trace.

    Attributes:
        node_id: integer id assigned by the crawler.
        ip: dotted-quad IP address (synthetic, only used for realism).
        port: TCP port the servent listened on.
        ping_ms: ping time from the central crawler, in milliseconds.
        speed_kbps: advertised link speed in Kbps.
    """

    node_id: int
    ip: str
    port: int
    ping_ms: float
    speed_kbps: int


@dataclass(frozen=True)
class TraceTopology:
    """A generated trace: node records plus the sparse crawl graph."""

    records: tuple[TraceNodeRecord, ...]
    graph: OverlayTopology

    def node_ids(self) -> List[int]:
        return [rec.node_id for rec in self.records]


class TraceTopologyGenerator:
    """Generates synthetic Gnutella-like crawl traces.

    Example:
        >>> gen = TraceTopologyGenerator(seed=1)
        >>> trace = gen.generate(num_nodes=200)
        >>> len(trace.records)
        200
        >>> 0.5 <= trace.graph.average_degree() <= 4.0
        True
    """

    #: Typical modem/DSL/T1 speed labels seen in the clip2 traces, in Kbps.
    SPEED_CLASSES: Sequence[int] = (28, 33, 56, 64, 128, 384, 768, 1544)
    SPEED_WEIGHTS: Sequence[float] = (0.08, 0.07, 0.30, 0.10, 0.15, 0.15, 0.10, 0.05)

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ records
    def _random_ip(self, rng: np.random.Generator) -> str:
        octets = rng.integers(1, 255, size=4)
        return ".".join(str(int(o)) for o in octets)

    def _ping_times_ms(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Log-normal ping times, median ~100 ms, clipped to [5 ms, 1.5 s].

        The pairwise one-hop latency the simulator derives from these (half
        the absolute ping-time difference) then averages ~50 ms, matching the
        ``t_hop ≈ 50 ms`` the paper reports for its traces.
        """
        pings = rng.lognormal(mean=np.log(100.0), sigma=0.6, size=count)
        return np.clip(pings, 5.0, 1500.0)

    def generate_records(self, num_nodes: int, rng: Optional[np.random.Generator] = None
                         ) -> List[TraceNodeRecord]:
        """Generate ``num_nodes`` synthetic crawl records."""
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        rng = rng or self._rng
        pings = self._ping_times_ms(rng, num_nodes)
        speeds = rng.choice(
            self.SPEED_CLASSES, size=num_nodes, p=np.asarray(self.SPEED_WEIGHTS)
        )
        records = []
        for node_id in range(num_nodes):
            records.append(
                TraceNodeRecord(
                    node_id=node_id,
                    ip=self._random_ip(rng),
                    port=int(rng.integers(1024, 65535)),
                    ping_ms=float(pings[node_id]),
                    speed_kbps=int(speeds[node_id]),
                )
            )
        return records

    # -------------------------------------------------------------------- graph
    def _crawl_graph(
        self,
        num_nodes: int,
        average_degree: float,
        rng: np.random.Generator,
    ) -> OverlayTopology:
        """Heavy-tailed sparse graph approximating an early Gnutella crawl.

        Preferential attachment with a fractional number of edges per new
        node reproduces both the power-law tail and the sub-1 average degrees
        seen in the smallest crawls (some crawled servents have no resolved
        neighbours at all).
        """
        graph = OverlayTopology(range(num_nodes))
        if num_nodes <= 1:
            return graph
        edges_target = max(0, int(round(average_degree * num_nodes / 2.0)))
        # Preferential attachment: weight each endpoint by degree + 1.
        degrees = np.ones(num_nodes, dtype=np.float64)
        added = 0
        attempts = 0
        max_attempts = 20 * max(edges_target, 1)
        while added < edges_target and attempts < max_attempts:
            attempts += 1
            probs = degrees / degrees.sum()
            a = int(rng.choice(num_nodes, p=probs))
            b = int(rng.choice(num_nodes, p=probs))
            if a == b or graph.has_edge(a, b):
                continue
            graph.add_edge(a, b)
            degrees[a] += 1.0
            degrees[b] += 1.0
            added += 1
        return graph

    def generate(
        self,
        num_nodes: int,
        average_degree: Optional[float] = None,
        seed: Optional[int] = None,
    ) -> TraceTopology:
        """Generate one synthetic trace of ``num_nodes`` nodes.

        Args:
            num_nodes: number of crawled servents (paper range: 100-10000).
            average_degree: target crawl-graph average degree; sampled
                uniformly in ``[0.8, 3.5]`` when omitted (paper: "<1 to 3.5").
            seed: optional per-trace seed overriding the generator's stream.
        """
        rng = np.random.default_rng(seed) if seed is not None else self._rng
        if average_degree is None:
            average_degree = float(rng.uniform(0.8, 3.5))
        records = self.generate_records(num_nodes, rng)
        graph = self._crawl_graph(num_nodes, average_degree, rng)
        return TraceTopology(records=tuple(records), graph=graph)


def build_streaming_overlay(
    trace: TraceTopology,
    target_degree: int,
    rng: np.random.Generator,
) -> OverlayTopology:
    """Densify a sparse crawl graph for streaming, as the paper does.

    Random edges are added until every node has at least ``target_degree``
    neighbours (``M = 5`` by default in the paper); the original crawl edges
    are preserved.
    """
    overlay = trace.graph.copy()
    overlay.densify_to_degree(target_degree, rng)
    return overlay
