"""Tests for the Rendezvous Point and the overhearing maintenance service."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dht.peer_table import NeighborEntry, OverheardEntry, PeerTable
from repro.dht.ring import IdRing
from repro.membership.overhearing import OverhearingService
from repro.membership.rendezvous import RendezvousPoint


class TestRendezvousPoint:
    def test_admit_assigns_unique_ids(self, ring):
        rp = RendezvousPoint(ring=ring)
        ids = {rp.admit().node_id for _ in range(200)}
        assert len(ids) == 200
        assert all(0 <= node_id < ring.size for node_id in ids)

    def test_requested_id_honoured_when_free(self, ring):
        rp = RendezvousPoint(ring=ring)
        assert rp.admit(requested_id=42).node_id == 42
        # A second request for the same id gets a different one.
        assert rp.admit(requested_id=42).node_id != 42

    def test_contacts_are_close_existing_nodes(self, ring):
        rp = RendezvousPoint(ring=ring, contact_list_size=3)
        for node_id in (10, 20, 30, 500, 900):
            rp.admit(requested_id=node_id)
        ticket = rp.admit(requested_id=25)
        assert len(ticket.contacts) == 3
        assert set(ticket.contacts) == {10, 20, 30}

    def test_first_node_gets_no_contacts(self, ring):
        rp = RendezvousPoint(ring=ring)
        assert rp.admit().contacts == ()

    def test_failure_reports_remove_nodes(self, ring):
        rp = RendezvousPoint(ring=ring)
        rp.admit(requested_id=7)
        rp.report_failure(7)
        rp.report_failure(7)  # idempotent
        # The forgotten id is free again.
        assert rp.admit(requested_id=7).node_id == 7

    def test_id_space_exhaustion(self):
        rp = RendezvousPoint(ring=IdRing(4))
        for _ in range(4):
            rp.admit()
        with pytest.raises(RuntimeError):
            rp.admit()

    def test_seeded_rng_reproducible(self, ring):
        a = RendezvousPoint(ring=ring)
        a.seed_rng(np.random.default_rng(5))
        b = RendezvousPoint(ring=ring)
        b.seed_rng(np.random.default_rng(5))
        assert [a.admit().node_id for _ in range(10)] == [
            b.admit().node_id for _ in range(10)
        ]


class TestOverhearingService:
    @pytest.fixture
    def service(self):
        alive = {1, 2, 3, 4, 5, 10, 20, 30}
        return (
            OverhearingService(
                latency_of=lambda a, b: float(abs(a - b)),
                is_alive=lambda nid: nid in alive,
            ),
            alive,
        )

    def test_overhear_path_records_alive_nodes(self, service, ring):
        svc, _ = service
        table = PeerTable(owner_id=1, ring=ring)
        recorded = svc.overhear_path(table, [1, 2, 99, 3], now=5.0)
        # Owner (1) and dead node (99) are skipped.
        assert recorded == 2
        assert set(table.overheard_ids()) == {2, 3}

    def test_refresh_purges_dead_entries(self, service, ring):
        svc, alive = service
        table = PeerTable(owner_id=1, ring=ring)
        table.add_neighbor(NeighborEntry(peer_id=99, latency_ms=1))
        table.add_neighbor(NeighborEntry(peer_id=2, latency_ms=1))
        table.set_dht_peer(3, 1)
        table.set_dht_peer(99, 1)  # a dead finger for the purge to find
        table.record_overheard(OverheardEntry(peer_id=98, latency_ms=1))
        svc.refresh(table)
        assert table.neighbor_ids() == [2]
        assert 98 not in table.overheard_ids()
        assert all(svc.is_alive(e.peer_id) for e in table.dht_peers.values())

    def test_refresh_promotes_overheard_to_fingers(self, service, ring):
        svc, _ = service
        table = PeerTable(owner_id=1, ring=ring)
        table.record_overheard(OverheardEntry(peer_id=2, latency_ms=1))
        table.record_overheard(OverheardEntry(peer_id=5, latency_ms=1))
        updated = svc.refresh(table)
        assert updated >= 2
        assert 2 in table.dht_peer_ids()
        assert 5 in table.dht_peer_ids()

    def test_replace_failed_neighbor_uses_lowest_latency(self, service, ring):
        svc, _ = service
        table = PeerTable(owner_id=1, ring=ring, max_neighbors=2)
        table.add_neighbor(NeighborEntry(peer_id=99, latency_ms=1))
        table.record_overheard(OverheardEntry(peer_id=30, latency_ms=29))
        table.record_overheard(OverheardEntry(peer_id=4, latency_ms=3))
        replacement = svc.replace_failed_neighbor(table, failed_id=99)
        assert replacement == 4
        assert table.has_neighbor(4)
        assert not table.has_neighbor(99)

    def test_replace_failed_neighbor_without_candidates(self, service, ring):
        svc, _ = service
        table = PeerTable(owner_id=1, ring=ring)
        table.add_neighbor(NeighborEntry(peer_id=99, latency_ms=1))
        assert svc.replace_failed_neighbor(table, failed_id=99) is None
        assert not table.has_neighbor(99)

    def test_fill_neighbor_slots(self, service, ring):
        svc, _ = service
        table = PeerTable(owner_id=1, ring=ring, max_neighbors=3)
        added = svc.fill_neighbor_slots(table, [1, 99, 2, 3, 4])
        # Owner and dead node skipped; capacity 3.
        assert added == 3
        assert table.neighbor_ids() == [2, 3, 4]

    def test_fill_neighbor_slots_skips_existing(self, service, ring):
        svc, _ = service
        table = PeerTable(owner_id=1, ring=ring, max_neighbors=3)
        table.add_neighbor(NeighborEntry(peer_id=2, latency_ms=1))
        added = svc.fill_neighbor_slots(table, [2, 3])
        assert added == 1
        assert table.neighbor_ids() == [2, 3]
