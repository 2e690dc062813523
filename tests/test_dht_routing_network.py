"""Tests for greedy routing and the standalone DHT network (Figure 3 substrate)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.theory import dht_hop_upper_bound
from repro.dht.network import DhtNetwork
from repro.dht.peer_table import PeerTable
from repro.dht.ring import IdRing
from repro.dht.routing import GreedyRouter


class TestGreedyRouterOnFullRing:
    """With a complete finger table per node, routing must behave like Chord."""

    def _full_network(self, size: int) -> DhtNetwork:
        network = DhtNetwork(id_space=size, rng=np.random.default_rng(0))
        for node_id in range(size):
            network.add_node(node_id)
        network.rebuild_fingers()
        return network

    def test_route_to_self_is_zero_hops(self):
        network = self._full_network(64)
        outcome = network.lookup(5, 5)
        assert outcome.hops == 0
        assert outcome.success
        assert outcome.final_node == 5

    def test_route_reaches_responsible_node(self):
        network = self._full_network(64)
        for origin, key in [(0, 33), (10, 9), (63, 0)]:
            outcome = network.lookup(origin, key)
            assert outcome.success
            assert outcome.final_node == network.responsible_node(key)

    def test_hops_respect_appendix_bound(self):
        network = self._full_network(128)
        bound = dht_hop_upper_bound(128)
        rng = np.random.default_rng(1)
        for _ in range(200):
            origin = int(rng.integers(128))
            key = int(rng.integers(128))
            outcome = network.lookup(origin, key)
            assert outcome.success
            assert outcome.hops <= bound

    def test_distance_strictly_decreases_along_path(self):
        network = self._full_network(128)
        ring = network.ring
        outcome = network.lookup(3, 97)
        distances = [ring.clockwise_distance(hop, 97) for hop in outcome.path]
        assert all(b < a for a, b in zip(distances, distances[1:]))


class TestGreedyRouterEdgeCases:
    def test_dead_end_reports_failure_against_oracle(self, ring):
        # A node with no peers cannot make progress.
        tables = {5: PeerTable(owner_id=5, ring=ring)}
        router = GreedyRouter(ring, lambda nid: tables[nid].routing_candidates())
        outcome = router.route(5, 400, responsible=77)
        assert not outcome.success
        assert outcome.final_node == 5

    def test_dead_end_without_oracle_counts_as_termination(self, ring):
        tables = {5: PeerTable(owner_id=5, ring=ring)}
        router = GreedyRouter(ring, lambda nid: tables[nid].routing_candidates())
        assert router.route(5, 400).success

    def test_hop_budget_exhaustion_fails(self):
        ring = IdRing(64)
        # Peers only ever advance by one, so a faraway key needs many hops.
        router = GreedyRouter(
            ring, lambda nid: [ring.normalize(nid + 1)], max_hops=3
        )
        outcome = router.route(0, 40, responsible=40)
        assert not outcome.success
        assert outcome.hops <= 3


class TestDhtNetwork:
    def test_populate_assigns_distinct_ids(self):
        network = DhtNetwork(id_space=2048, rng=np.random.default_rng(3))
        ids = network.populate(300)
        assert len(ids) == 300
        assert len(set(ids)) == 300
        assert len(network) == 300

    def test_populate_rejects_bad_sizes(self):
        network = DhtNetwork(id_space=16)
        with pytest.raises(ValueError):
            network.populate(0)
        with pytest.raises(ValueError):
            network.populate(17)

    def test_add_duplicate_node_rejected(self):
        network = DhtNetwork(id_space=64)
        network.add_node(5)
        with pytest.raises(ValueError):
            network.add_node(5)

    def test_remove_node(self):
        network = DhtNetwork(id_space=64)
        network.add_node(5)
        network.remove_node(5)
        assert 5 not in network
        network.remove_node(5)  # idempotent

    def test_fingers_lie_in_level_intervals(self):
        network = DhtNetwork(id_space=1024, rng=np.random.default_rng(4))
        network.populate(200)
        ring = network.ring
        for node_id in network.node_ids()[:50]:
            table = network._tables[node_id]
            for level, (peer, _) in table.dht_peers.items():
                start, end = ring.level_interval(node_id, level)
                assert ring.in_clockwise_interval(peer, start, end)

    def test_responsible_node_is_counter_clockwise_closest(self):
        network = DhtNetwork(id_space=256, rng=np.random.default_rng(5))
        network.populate(20)
        ids = network.node_ids()
        for key in range(0, 256, 17):
            owner = network.responsible_node(key)
            # No other node may sit strictly between the owner and the key.
            owner_dist = network.ring.clockwise_distance(owner, key)
            for other in ids:
                assert network.ring.clockwise_distance(other, key) >= owner_dist

    def test_lookup_requires_population(self):
        network = DhtNetwork(id_space=64)
        with pytest.raises(RuntimeError):
            network.run_random_lookups(5)

    def test_random_lookups_statistics(self):
        network = DhtNetwork(id_space=8192, rng=np.random.default_rng(6))
        network.populate(500)
        result = network.run_random_lookups(400)
        assert result.lookups == 400
        assert result.success_rate > 0.9
        assert 1.0 <= result.average_hops <= dht_hop_upper_bound(8192)
        assert result.max_hops >= result.average_hops

    def test_sparser_ring_uses_fewer_hops_than_denser(self):
        rng = np.random.default_rng(7)
        small = DhtNetwork(id_space=8192, rng=rng)
        small.populate(100)
        large = DhtNetwork(id_space=8192, rng=rng)
        large.populate(2000)
        hops_small = small.run_random_lookups(300, rng=rng).average_hops
        hops_large = large.run_random_lookups(300, rng=rng).average_hops
        assert hops_small < hops_large
