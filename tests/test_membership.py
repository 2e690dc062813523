"""Tests for the Rendezvous Point and the overhearing maintenance service."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dht.peer_table import NeighborEntry, PeerTable
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
        svc.overhear_path([1, 2, 99, 3], table)
        # Owner (1) and dead node (99) are skipped.
        assert table.overheard == {2: 1.0, 3: 2.0}

    def test_whole_path_overhears_itself(self, service, ring):
        svc, _ = service
        tables = {nid: PeerTable(owner_id=nid, ring=ring) for nid in (1, 2, 3, 20)}
        svc.table_of = tables.__getitem__
        svc.overhear_path([2, 99, 20, 3])
        # Every alive node on the path hears the others, in path order; the
        # dead 99 neither hears nor is heard, and 1 is not on the path.
        assert tables[2].overheard == {20: 18.0, 3: 1.0}
        assert tables[20].overheard == {2: 18.0, 3: 17.0}
        assert tables[3].overheard == {2: 1.0, 20: 17.0}
        assert tables[1].overheard == {}

    def test_refresh_purges_dead_entries(self, service, ring):
        svc, alive = service
        table = PeerTable(owner_id=1, ring=ring)
        table.add_neighbor(NeighborEntry(peer_id=99, latency_ms=1))
        table.add_neighbor(NeighborEntry(peer_id=2, latency_ms=1))
        table.set_dht_peer(3, 1)
        table.set_dht_peer(99, 1)  # a dead finger for the purge to find
        table.record_overheard([(98, 1.0), (4, 1.0)])
        svc.refresh(table)
        assert table.neighbor_ids() == [2]
        assert table.overheard == {4: 1.0}
        assert all(svc.is_alive(e.peer_id) for e in table.dht_peers.values())

    def test_refresh_promotes_overheard_to_fingers(self, service, ring):
        svc, _ = service
        table = PeerTable(owner_id=1, ring=ring)
        table.record_overheard([(2, 1.0), (5, 1.0)])
        updated = svc.refresh(table)
        assert updated >= 2
        assert 2 in table.dht_peer_ids()
        assert 5 in table.dht_peer_ids()

    def test_replace_failed_neighbor_uses_lowest_latency(self, service, ring):
        svc, _ = service
        table = PeerTable(owner_id=1, ring=ring, max_neighbors=2)
        table.add_neighbor(NeighborEntry(peer_id=99, latency_ms=1))
        table.record_overheard([(30, 29.0), (4, 3.0)])
        replacement = svc.replace_failed_neighbor(table, failed_id=99)
        assert replacement == 4
        assert table.neighbors[4] == NeighborEntry(peer_id=4, latency_ms=3.0)
        assert not table.has_neighbor(99)

    @pytest.mark.xfail(
        strict=True,
        reason="only the single lowest-latency overheard node is tried: a dead one "
        "(usually the failed neighbour itself, not yet purged) shadows every alive "
        "candidate; fixing it changes churn decisions, so it waits for a declared re-pin",
    )
    def test_replace_failed_neighbor_skips_a_dead_lowest_latency_node(self, service, ring):
        svc, _ = service
        table = PeerTable(owner_id=1, ring=ring, max_neighbors=2)
        table.add_neighbor(NeighborEntry(peer_id=99, latency_ms=5.0))
        # The failed neighbour was overheard too, at a lower latency than
        # the alive node 20.
        table.record_overheard([(99, 5.0), (20, 20.0)])
        assert svc.replace_failed_neighbor(table, failed_id=99) == 20

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
