"""Overlay construction and maintenance, factored out of the system facade.

:class:`OverlayManager` owns everything about *who is in the overlay and how
they are wired*: the synthetic trace topology, the Rendezvous Point, latency
and bandwidth models, symmetric gossip partnerships, DHT finger tables,
churn-time admission/removal, and neighbour repair.  It deliberately knows
nothing about rounds, scheduling or playback — those live in the phase
pipeline (:mod:`repro.core.phases`), which reaches the manager through the
:class:`~repro.core.phases.base.RoundContext`.

Node construction is delegated to a ``node_factory`` callable (supplied by
the active :class:`~repro.core.phases.registry.ProtocolRegistry` entry), so
new protocols plug in without this module changing.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import SystemConfig
from repro.core.continu import ContinuStreamingNode
from repro.core.node import StreamingNode
from repro.dht.peer_table import NeighborEntry
from repro.dht.ring import IdRing
from repro.dht.routing import GreedyRouter
from repro.membership.overhearing import OverhearingService
from repro.membership.rendezvous import RendezvousPoint
from repro.net.bandwidth import BandwidthModel
from repro.net.churn import ChurnProcess
from repro.net.latency import LatencyModel
from repro.net.topology import OverlayTopology
from repro.net.trace import TraceTopologyGenerator, build_streaming_overlay
from repro.sim.rng import RngStreams

#: Builds a protocol-appropriate node for a ring id.
NodeFactory = Callable[[int], StreamingNode]


class OverlayManager:
    """Builds and maintains one streaming overlay.

    Args:
        config: the run configuration.
        streams: the run's named random streams (shared with the facade so
            both draw from the same seeded universe).
        node_factory: creates the protocol-appropriate node for a ring id;
            assigned by the facade after the protocol is resolved.
    """

    def __init__(
        self,
        config: SystemConfig,
        streams: RngStreams,
        node_factory: Optional[NodeFactory] = None,
    ) -> None:
        self.config = config
        self.streams = streams
        self.node_factory = node_factory
        self.ring = IdRing(config.effective_id_space)
        self.nodes: Dict[int, StreamingNode] = {}
        self.overlay = OverlayTopology()
        self.source_id: Optional[int] = None
        self.rendezvous = RendezvousPoint(ring=self.ring)
        self.rendezvous.seed_rng(streams.get("rendezvous"))
        self.bandwidth = BandwidthModel(
            mean_rate=config.mean_inbound,
            min_rate=config.min_inbound,
            max_rate=config.max_inbound,
            heterogeneous=config.heterogeneous,
            source_outbound=config.source_outbound,
        )
        self.latency: Optional[LatencyModel] = None
        self.churn = ChurnProcess(
            leave_fraction=config.leave_fraction,
            join_fraction=config.join_fraction,
            schedule=config.churn_schedule,
        )
        self.hop_latency_s = 0.05
        self.fetch_time_s = 0.4
        self.router = GreedyRouter(self.ring, self._routing_peers_of)
        self.overhearing = OverhearingService(
            latency_of=self.latency_ms, is_alive=self.is_alive
        )
        #: node id -> (its table's candidate tuple, the alive ones among them);
        #: dropped whenever liveness changes (see :meth:`alive_routing_peers`).
        self._alive_peers: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
        self._built = False

    # ======================================================================= build
    def build(self) -> "OverlayManager":
        """Construct the overlay, models and nodes.  Idempotent."""
        if self._built:
            return self
        if self.node_factory is None:
            raise RuntimeError("node_factory must be set before build()")
        cfg = self.config
        trace_gen = TraceTopologyGenerator(seed=cfg.seed)
        trace = trace_gen.generate(cfg.num_nodes)

        # Ring ids come from the Rendezvous Point; trace index i -> ring id.
        ring_ids: List[int] = []
        for _ in range(cfg.num_nodes):
            ticket = self.rendezvous.admit()
            ring_ids.append(ticket.node_id)
        index_to_ring = {i: ring_ids[i] for i in range(cfg.num_nodes)}

        # Latency model keyed by ring id, ping times from the trace records.
        self.latency = LatencyModel(
            {index_to_ring[rec.node_id]: rec.ping_ms for rec in trace.records}
        )
        self.hop_latency_s = (
            cfg.hop_latency_ms / 1000.0
            if cfg.hop_latency_ms is not None
            else self.latency.mean_hop_latency_ms(
                sample_pairs=min(2000, cfg.num_nodes * 4),
                rng=self.streams.get("latency-estimate"),
            )
            / 1000.0
        )
        self.fetch_time_s = cfg.expected_fetch_time(self.hop_latency_s)

        # Streaming overlay: crawl graph densified to M neighbours, re-keyed
        # onto ring ids.
        dense = build_streaming_overlay(
            trace, cfg.connected_neighbors, self.streams.get("topology")
        )
        self.overlay = OverlayTopology(ring_ids)
        for a, b in dense.edges():
            self.overlay.add_edge(index_to_ring[a], index_to_ring[b])

        # The source is the node with the lowest ping time (closest to the
        # crawler / best connected), as good a stand-in as any.
        source_index = min(trace.records, key=lambda r: r.ping_ms).node_id
        self.source_id = index_to_ring[source_index]
        self.churn.protected.add(self.source_id)
        self.churn.reserve_ids(range(cfg.num_nodes))

        # Bandwidth assignment (paired across systems via the shared stream).
        self.bandwidth.assign(
            ring_ids, self.streams.get("bandwidth"), source_id=self.source_id
        )

        # Node objects, built by the active protocol's factory.
        for ring_id in ring_ids:
            self.nodes[ring_id] = self.node_factory(ring_id)

        # Connected neighbours: symmetric partnerships (buffer-map exchange is
        # mutual), ~M partners each, preferring low-latency overlay edges.
        self._install_partnerships()

        # DHT peer tables: loosely organised fingers over the joined ids.
        self._build_all_fingers()
        self._built = True
        return self

    def _install_partnerships(self) -> None:
        """Build the connected-neighbour (partner) relation, symmetrically.

        The buffer-map exchange of Section 4.2 is mutual, so partnerships are
        undirected: every overlay edge ``(a, b)`` becomes a partnership when
        both endpoints still have a free slot, walking the edges in order of
        increasing latency (the paper replaces neighbours by low-latency
        overheard nodes, so low-latency edges are preferred).  A second pass
        tops up nodes that are still short of ``M`` partners with random
        partners, tolerating a slight overshoot on the other endpoint so that
        nobody is left isolated.
        """
        assert self.latency is not None
        edges = sorted(
            self.overlay.edges(),
            key=lambda edge: self.latency_ms(edge[0], edge[1]),
        )
        for a, b in edges:
            self._try_partner(a, b, allow_overflow=False)
        rng = self.streams.get("partners")
        all_ids = sorted(self.nodes)
        for nid in all_ids:
            node = self.nodes[nid]
            attempts = 0
            while node.peer_table.neighbor_slots_free() > 0 and attempts < 50:
                attempts += 1
                other = int(all_ids[int(rng.integers(len(all_ids)))])
                if other == nid or node.peer_table.has_neighbor(other):
                    continue
                self._try_partner(nid, other, allow_overflow=True)

    def _try_partner(self, a: int, b: int, allow_overflow: bool) -> bool:
        """Create the symmetric partnership ``a <-> b`` if slots permit."""
        node_a, node_b = self.nodes.get(a), self.nodes.get(b)
        if node_a is None or node_b is None or a == b:
            return False
        if node_a.peer_table.has_neighbor(b) or node_b.peer_table.has_neighbor(a):
            return False
        if node_a.peer_table.neighbor_slots_free() == 0:
            return False
        if node_b.peer_table.neighbor_slots_free() == 0 and not allow_overflow:
            return False
        latency = self.latency_ms(a, b)
        added_a = node_a.peer_table.add_neighbor(
            NeighborEntry(peer_id=b, latency_ms=latency)
        )
        if not added_a:
            return False
        # Overflow path: the reciprocal entry is forced so the relation stays
        # symmetric even when b is already at capacity.
        node_b.peer_table.add_neighbor(
            NeighborEntry(peer_id=a, latency_ms=latency), allow_overflow=True
        )
        self.overlay.add_edge(a, b)
        # Optimistic rate priors: a TCP pull takes whatever the supplier's
        # uplink has to spare; contention is enforced by the per-period
        # outbound budgets rather than pre-divided here.
        node_a.rate_controller.register_neighbor(b, node_b.outbound_rate, 1)
        node_b.rate_controller.register_neighbor(a, node_a.outbound_rate, 1)
        return True

    def ensure_reciprocal(self, a: int, b: int) -> None:
        """Make sure the partnership ``a -> b`` also exists as ``b -> a``."""
        node_a, node_b = self.nodes.get(a), self.nodes.get(b)
        if node_a is None or node_b is None or a == b:
            return
        latency = self.latency_ms(a, b)
        if node_b.peer_table.add_neighbor(
            NeighborEntry(peer_id=a, latency_ms=latency), allow_overflow=True
        ):
            node_b.rate_controller.register_neighbor(a, node_a.outbound_rate, 1)
        if node_a.peer_table.add_neighbor(
            NeighborEntry(peer_id=b, latency_ms=latency), allow_overflow=True
        ):
            node_a.rate_controller.register_neighbor(b, node_b.outbound_rate, 1)
        self.overlay.add_edge(a, b)

    def _build_all_fingers(self) -> None:
        """Fill every node's DHT peers with random nodes from each level interval."""
        ids = np.asarray(sorted(self.nodes), dtype=np.int64)
        rng = self.streams.get("dht-fingers")
        for node in self.nodes.values():
            self.fill_fingers_for(node, ids, rng)

    def fill_fingers_for(
        self, node: StreamingNode, sorted_ids: np.ndarray, rng: np.random.Generator
    ) -> None:
        """Populate ``node``'s DHT peer table from each ring-level interval."""
        owner = node.node_id
        for level in range(1, self.ring.bits + 1):
            start, end = self.ring.level_interval(owner, level)
            candidates = self._ids_in_interval(sorted_ids, start, end)
            if candidates.size == 0:
                continue
            peer = int(candidates[int(rng.integers(candidates.size))])
            if peer != owner:
                node.peer_table.set_dht_peer(peer, self.latency_ms(owner, peer))

    @staticmethod
    def _ids_in_interval(sorted_ids: np.ndarray, start: int, end: int) -> np.ndarray:
        if sorted_ids.size == 0 or start == end:
            return np.empty(0, dtype=np.int64)
        if start < end:
            lo = np.searchsorted(sorted_ids, start, side="left")
            hi = np.searchsorted(sorted_ids, end, side="left")
            return sorted_ids[lo:hi]
        lo = np.searchsorted(sorted_ids, start, side="left")
        hi = np.searchsorted(sorted_ids, end, side="left")
        return np.concatenate([sorted_ids[lo:], sorted_ids[:hi]])

    # ================================================================ small helpers
    def latency_ms(self, a: int, b: int) -> float:
        """One-way latency between two nodes (default when unmodelled)."""
        if self.latency is None:
            return 50.0
        try:
            return self.latency.one_way_ms(a, b)
        except KeyError:  # either end unmodelled
            return 50.0

    def is_alive(self, node_id: int) -> bool:
        """Whether ``node_id`` exists and has not departed."""
        node = self.nodes.get(node_id)
        return node is not None and node.alive

    def _routing_peers_of(self, node_id: int) -> Tuple[int, ...]:
        node = self.nodes.get(node_id)
        if node is None or not node.alive:
            return ()
        return self.alive_routing_peers(node)

    def alive_routing_peers(self, node: StreamingNode) -> Tuple[int, ...]:
        """``node``'s routing candidates that are currently alive.

        Cached per node.  The entry is reused only while the table still
        hands back the same candidate tuple (it builds a new one after any
        mutation), and the whole cache is dropped when liveness changes —
        :meth:`admit_node` and :meth:`mark_departed` are the only two places.
        """
        candidates = node.peer_table.routing_candidates()
        cached = self._alive_peers.get(node.node_id)
        if cached is not None and cached[0] is candidates:
            return cached[1]
        alive = tuple(peer for peer in candidates if self.is_alive(peer))
        self._alive_peers[node.node_id] = (candidates, alive)
        return alive

    def mark_departed(self, node_id: int) -> None:
        """Flip ``node_id`` to dead (every departure must come through here)."""
        self.nodes[node_id].mark_departed()
        self._alive_peers.clear()

    def alive_node_ids(self, include_source: bool = True) -> List[int]:
        """Ids of the currently alive nodes."""
        ids = [nid for nid, node in self.nodes.items() if node.alive]
        if not include_source and self.source_id is not None:
            ids = [nid for nid in ids if nid != self.source_id]
        return sorted(ids)

    # ======================================================== churn-time surgery
    def remove_node(
        self,
        node_id: int,
        rng: np.random.Generator,
        graceful: Optional[bool] = None,
        handover: bool = True,
    ) -> None:
        """Take ``node_id`` out of the overlay (graceful or abrupt).

        Args:
            node_id: the departing node.
            rng: random stream deciding graceful vs abrupt when ``graceful``
                is ``None`` (the simulator's path).
            graceful: force the departure kind instead of drawing it.
            handover: perform the graceful-leave backup handover in-memory.
                The live runtime passes ``False`` because its peers ship the
                handover as a wire message before the removal.
        """
        node = self.nodes.get(node_id)
        if node is None or not node.alive or node_id == self.source_id:
            return
        if graceful is None:
            graceful = rng.random() >= self.config.abrupt_leave_fraction
        if graceful and handover and isinstance(node, ContinuStreamingNode):
            successor = self.counter_clockwise_closest(node_id)
            if successor is not None:
                succ_node = self.nodes.get(successor)
                if isinstance(succ_node, ContinuStreamingNode):
                    succ_node.absorb_handover(node.handover_backup())
        self.mark_departed(node_id)
        self.overlay.remove_node(node_id)
        if self.latency is not None:
            self.latency.remove_node(node_id)
        self.bandwidth.remove(node_id)
        self.rendezvous.report_failure(node_id)
        # Other nodes purge it lazily through the overhearing service's
        # is_alive checks during neighbour repair and routing.

    def counter_clockwise_closest(self, node_id: int) -> Optional[int]:
        """The alive node counter-clockwise closest to ``node_id``."""
        best: Optional[int] = None
        best_dist: Optional[int] = None
        for other in self.alive_node_ids():
            if other == node_id:
                continue
            dist = self.ring.counter_clockwise_distance(node_id, other)
            if best_dist is None or dist < best_dist:
                best, best_dist = other, dist
        return best

    def admit_node(self, rng: np.random.Generator, now: float = 0.0) -> int:
        """Admit a newcomer via the Rendezvous Point and wire it up."""
        if self.node_factory is None:
            raise RuntimeError("node_factory must be set before admit_node()")
        cfg = self.config
        ticket = self.rendezvous.admit()
        ring_id = ticket.node_id
        # Synthetic ping time for the newcomer, same distribution as the trace.
        ping_ms = float(np.clip(rng.lognormal(np.log(100.0), 0.6), 5.0, 1500.0))
        if self.latency is not None:
            self.latency.add_node(ring_id, ping_ms)
        self.bandwidth.assign_one(ring_id, self.streams.get("bandwidth"))
        self.overlay.add_node(ring_id)
        node = self.node_factory(ring_id)
        node.join_time = now
        self.nodes[ring_id] = node
        self._alive_peers.clear()

        # Contact the closest alive contacts (PING), adopt the nearest one's
        # peer table as a base, and wire up overlay edges.
        alive = self.alive_node_ids(include_source=True)
        contacts = [c for c in ticket.contacts if self.is_alive(c)]
        if not contacts and alive:
            contacts = [alive[int(rng.integers(len(alive)))]]
        if contacts:
            nearest = min(contacts, key=lambda c: self.latency_ms(ring_id, c))
            node.peer_table.adopt_base_table(self.nodes[nearest].peer_table)
        # Connected neighbours: contacts first, then random alive nodes.
        candidates = list(contacts)
        pool = [nid for nid in alive if nid != ring_id]
        if pool:
            extra = rng.choice(
                len(pool), size=min(len(pool), 3 * cfg.connected_neighbors),
                replace=False,
            )
            candidates.extend(pool[int(i)] for i in extra)
        self.overhearing.fill_neighbor_slots(node.peer_table, candidates)
        for nbr in node.neighbors:
            other = self.nodes.get(nbr)
            if other is not None:
                node.rate_controller.register_neighbor(nbr, other.outbound_rate, 1)
            self.ensure_reciprocal(ring_id, nbr)
        # DHT fingers for the newcomer (bootstrap + random fill).
        ids = np.asarray(alive + [ring_id], dtype=np.int64)
        ids.sort()
        self.fill_fingers_for(node, ids, self.streams.get("dht-fingers"))
        return ring_id

    def repair_neighbors(self) -> None:
        """Drop dead neighbours and refill slots from overheard/alive nodes."""
        rng = self.streams.get("repair")
        alive = self.alive_node_ids()
        if len(alive) <= 1:
            return
        for nid in alive:
            node = self.nodes[nid]
            table = node.peer_table
            for nbr in list(table.neighbor_ids()):
                if not self.is_alive(nbr):
                    replacement = self.overhearing.replace_failed_neighbor(table, nbr)
                    node.rate_controller.forget_neighbor(nbr)
                    if replacement is not None:
                        other = self.nodes.get(replacement)
                        if other is not None:
                            node.rate_controller.register_neighbor(
                                replacement, other.outbound_rate, 1
                            )
                        self.ensure_reciprocal(nid, replacement)
            self.overhearing.refresh(table)
            missing = table.neighbor_slots_free()
            if missing > 0:
                pool = [x for x in alive if x != nid and not table.has_neighbor(x)]
                if pool:
                    picks = rng.choice(
                        len(pool), size=min(len(pool), missing), replace=False
                    )
                    chosen = [pool[int(i)] for i in picks]
                    added = self.overhearing.fill_neighbor_slots(table, chosen)
                    for nbr in chosen[:added]:
                        other = self.nodes.get(nbr)
                        if other is not None:
                            node.rate_controller.register_neighbor(
                                nbr, other.outbound_rate, 1
                            )
                        self.ensure_reciprocal(nid, nbr)
