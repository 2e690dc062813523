"""Tests for the three-part Peer Table."""

from __future__ import annotations

import pytest

from repro.dht.peer_table import NeighborEntry, PeerTable
from repro.dht.ring import IdRing


@pytest.fixture
def table(ring: IdRing) -> PeerTable:
    return PeerTable(owner_id=100, ring=ring, max_neighbors=3, max_overheard=5)


class TestConnectedNeighbors:
    def test_add_and_list(self, table):
        assert table.add_neighbor(NeighborEntry(peer_id=7, latency_ms=10))
        assert table.add_neighbor(NeighborEntry(peer_id=9, latency_ms=20))
        assert table.neighbor_ids() == [7, 9]
        assert table.has_neighbor(7)

    def test_capacity_enforced(self, table):
        for peer in (1, 2, 3):
            assert table.add_neighbor(NeighborEntry(peer_id=peer, latency_ms=1))
        assert table.neighbor_slots_free() == 0
        assert not table.add_neighbor(NeighborEntry(peer_id=4, latency_ms=1))

    def test_self_and_duplicates_rejected(self, table):
        assert not table.add_neighbor(NeighborEntry(peer_id=100, latency_ms=1))
        table.add_neighbor(NeighborEntry(peer_id=5, latency_ms=1))
        assert not table.add_neighbor(NeighborEntry(peer_id=5, latency_ms=2))

    def test_remove(self, table):
        table.add_neighbor(NeighborEntry(peer_id=5, latency_ms=1))
        removed = table.remove_neighbor(5)
        assert removed.peer_id == 5
        assert table.remove_neighbor(5) is None

    def test_neighbor_entry_is_id_and_latency(self, table):
        table.add_neighbor(NeighborEntry(peer_id=5, latency_ms=1))
        assert table.neighbors[5] == NeighborEntry(5, 1)
        with pytest.raises(TypeError):
            NeighborEntry(peer_id=6, latency_ms=1, recent_supply_rate=2.0)

    def test_replace_neighbor(self, table):
        table.add_neighbor(NeighborEntry(peer_id=5, latency_ms=1))
        assert table.replace_neighbor(5, NeighborEntry(peer_id=8, latency_ms=2))
        assert table.neighbor_ids() == [8]
        assert not table.replace_neighbor(8, NeighborEntry(peer_id=100, latency_ms=1))


class TestDhtPeers:
    def test_set_dht_peer_assigns_level(self, table, ring):
        level = table.set_dht_peer(101, latency_ms=10)  # distance 1 -> level 1
        assert level == 1
        assert table.dht_peers[1].peer_id == 101

    def test_set_dht_peer_rejects_self(self, table):
        assert table.set_dht_peer(100, latency_ms=1) is None

    def test_levels_cover_distances(self, table, ring):
        assert table.set_dht_peer(102, 1) == 2      # distance 2
        assert table.set_dht_peer(104, 1) == 3      # distance 4
        assert table.set_dht_peer(100 + 512, 1) == 10

    def test_dht_peer_ids_ordered_by_level(self, table):
        table.set_dht_peer(104, 1)
        table.set_dht_peer(101, 1)
        assert table.dht_peer_ids() == [101, 104]

    def test_closest_dht_peer_is_lowest_level(self, table):
        assert table.closest_dht_peer() is None
        table.set_dht_peer(108, 1)
        table.set_dht_peer(101, 1)
        assert table.closest_dht_peer() == 101

    def test_remove_dht_peer(self, table):
        table.set_dht_peer(101, 1)
        table.remove_dht_peer(101)
        assert table.dht_peer_ids() == []

    def test_routing_candidates_union(self, table):
        table.add_neighbor(NeighborEntry(peer_id=7, latency_ms=1))
        table.set_dht_peer(101, 1)
        assert table.routing_candidates() == (7, 101)


class TestOverheard:
    def test_record_and_cap(self, table):
        table.record_overheard([(peer, float(peer)) for peer in range(1, 9)])
        # Capped at max_overheard, newest kept, oldest first.
        assert table.overheard == {4: 4.0, 5: 5.0, 6: 6.0, 7: 7.0, 8: 8.0}

    def test_rehearing_refreshes_position_and_latency(self, table):
        table.record_overheard([(1, 10.0), (2, 10.0)])
        table.record_overheard([(1, 5.0)])
        assert list(table.overheard.items()) == [(2, 10.0), (1, 5.0)]

    def test_owner_not_recorded(self, table):
        table.record_overheard([(100, 1.0)])
        assert table.overheard == {}

    def test_overheard_is_a_copy(self, table):
        table.record_overheard([(3, 1.0)])
        table.overheard[4] = 1.0
        assert table.overheard == {3: 1.0}

    def test_lowest_latency_overheard_with_exclusions(self, table):
        table.record_overheard([(1, 30.0), (2, 10.0), (3, 20.0), (4, 10.0)])
        assert table.lowest_latency_overheard() == (2, 10.0)  # tie: lowest id
        assert table.lowest_latency_overheard(exclude=[2]) == (4, 10.0)
        assert table.lowest_latency_overheard(exclude=[2, 4]) == (3, 20.0)
        assert table.lowest_latency_overheard(exclude=[1, 2, 3, 4]) is None


class TestRefresh:
    def test_refresh_fills_levels_from_overheard(self, table):
        table.record_overheard([(101, 1.0), (104, 1.0)])
        updated = table.refresh_dht_peers_from_overheard()
        assert updated == 2
        assert table.dht_peers[1].peer_id == 101
        assert table.dht_peers[3].peer_id == 104

    def test_refresh_does_not_replace_other_peer(self, table):
        table.set_dht_peer(102, 1)  # level 2
        table.record_overheard([(103, 1.0)])  # also level 2
        table.refresh_dht_peers_from_overheard()
        assert table.dht_peers[2].peer_id == 102

    def test_adopt_base_table(self, ring):
        base = PeerTable(owner_id=10, ring=ring, max_neighbors=3)
        base.add_neighbor(NeighborEntry(peer_id=20, latency_ms=5))
        base.set_dht_peer(14, 1)
        newcomer = PeerTable(owner_id=500, ring=ring, max_neighbors=3)
        newcomer.adopt_base_table(base)
        # The bootstrap node and its neighbours become overheard candidates.
        assert newcomer.overheard == {20: 5, 10: 0.0}
        # The copied DHT peer is re-levelled relative to the newcomer.
        assert 14 in newcomer.dht_peer_ids() or 20 in newcomer.dht_peer_ids() or (
            10 in newcomer.dht_peer_ids()
        )
