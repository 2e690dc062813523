"""Tests for the rate controller and the VoD backup store."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backup import VodBackupStore
from repro.core.rate_controller import RateController
from repro.dht.hashing import backup_keys
from repro.dht.ring import IdRing


class TestRateController:
    def test_validation(self):
        with pytest.raises(ValueError):
            RateController(local_inbound=-1)
        with pytest.raises(ValueError):
            RateController(local_inbound=10, smoothing=0.0)
        with pytest.raises(ValueError):
            RateController(local_inbound=10, period=0.0)

    def test_prior_capped_by_local_inbound(self):
        controller = RateController(local_inbound=10)
        rate = controller.register_neighbor(1, neighbor_outbound=100, fan_out=1)
        assert rate == 10

    def test_prior_divides_by_fan_out(self):
        controller = RateController(local_inbound=100)
        rate = controller.register_neighbor(1, neighbor_outbound=20, fan_out=4)
        assert rate == 5

    def test_register_is_idempotent_for_estimates(self):
        controller = RateController(local_inbound=10)
        controller.register_neighbor(1, 20, 1)
        controller.observe_round({1: 2})
        before = controller.rate_of(1)
        controller.register_neighbor(1, 20, 1)
        assert controller.rate_of(1) == before

    def test_observation_moves_estimate_but_not_below_prior(self):
        controller = RateController(local_inbound=10, smoothing=0.5)
        controller.register_neighbor(1, neighbor_outbound=8, fan_out=1)
        controller.observe_round({1: 0})
        # The estimate never drops below the capacity prior.
        assert controller.rate_of(1) == pytest.approx(8.0)

    def test_observation_can_exceed_prior(self):
        controller = RateController(local_inbound=10, smoothing=0.5)
        controller.register_neighbor(1, neighbor_outbound=4, fan_out=1)
        controller.observe_round({1: 12})
        assert controller.rate_of(1) > 4.0

    def test_unrequested_neighbors_keep_estimates(self):
        controller = RateController(local_inbound=10)
        controller.register_neighbor(1, 8, 1)
        controller.register_neighbor(2, 8, 1)
        controller.observe_round({1: 3})
        assert controller.rate_of(2) == pytest.approx(8.0)

    def test_observe_unknown_neighbor_ignored(self):
        controller = RateController(local_inbound=10)
        controller.observe_round({42: 5})
        assert controller.rate_of(42) == controller.min_rate

    def test_forget_neighbor(self):
        controller = RateController(local_inbound=10)
        controller.register_neighbor(1, 8, 1)
        controller.forget_neighbor(1)
        assert controller.known_neighbors() == []
        assert controller.rate_of(1) == controller.min_rate

    def test_best_rate(self):
        controller = RateController(local_inbound=12)
        controller.register_neighbor(1, 4, 1)
        controller.register_neighbor(2, 9, 1)
        assert controller.best_rate() == pytest.approx(9)
        assert controller.best_rate([1]) == pytest.approx(4)

    def test_best_rate_empty(self):
        controller = RateController(local_inbound=12)
        assert controller.best_rate() == controller.min_rate


class TestVodBackupStore:
    @pytest.fixture
    def store(self) -> VodBackupStore:
        return VodBackupStore(node_id=100, ring=IdRing(8192), replicas=4)

    def test_responsible_matches_equation_5(self, store):
        # Build a successor such that the first backup key of segment 7 falls
        # inside [node, successor).
        key = backup_keys(7, 4, 8192)[0]
        store_at_key = VodBackupStore(node_id=key, ring=IdRing(8192), replicas=4)
        assert store_at_key.is_responsible(7, successor_id=(key + 1) % 8192)

    def test_not_responsible_for_far_keys(self, store):
        keys = set(backup_keys(7, 4, 8192))
        # Choose a successor immediately after the node so the owned interval
        # is a single id that is not one of the keys.
        if 100 not in keys:
            assert not store.is_responsible(7, successor_id=101)

    def test_no_successor_means_responsible(self, store):
        assert store.is_responsible(7, successor_id=None)
        assert store.is_responsible(7, successor_id=100)

    def test_maybe_store_only_when_responsible(self, store):
        keys = set(backup_keys(7, 4, 8192))
        if 100 not in keys:
            assert not store.maybe_store(7, successor_id=101)
            assert len(store) == 0
        assert store.maybe_store(7, successor_id=None)
        assert 7 in store

    def test_maybe_store_idempotent(self, store):
        store.absorb_handover([3])
        assert store.maybe_store(3, successor_id=101)
        assert len(store) == 1

    def test_handover_and_absorb(self, store):
        store.absorb_handover((3, 1, 2))
        other = VodBackupStore(node_id=50, ring=IdRing(8192), replicas=4)
        absorbed = other.absorb_handover(store.handover_contents())
        assert absorbed == 3
        assert other.ids() == [1, 2, 3]
        assert store.handover_contents() == [1, 2, 3]  # kept, sorted

    def test_ids_sorted(self, store):
        store.absorb_handover((5, 1, 3))
        assert store.ids() == [1, 3, 5]
        assert len(store) == 3

    def test_absorb_is_a_union(self, store):
        assert store.absorb_handover([1, 2]) == 2
        assert store.absorb_handover([2, 3]) == 2
        assert store.ids() == [1, 2, 3]

    def test_refused_segment_is_not_stored(self, store):
        # Successor 101: the node owns the single ring id 100.
        refused = next(
            sid for sid in range(1000) if not store.is_responsible(sid, successor_id=101)
        )
        assert not store.maybe_store(refused, successor_id=101)
        assert refused not in store and len(store) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        segment_id=st.integers(min_value=0, max_value=100_000),
        successor_id=st.integers(min_value=0, max_value=8191),
    )
    def test_stored_iff_responsible(self, segment_id, successor_id):
        """The responsibility check runs before anything is stored."""
        store = VodBackupStore(node_id=100, ring=IdRing(8192), replicas=4)
        responsible = store.is_responsible(segment_id, successor_id)
        assert store.maybe_store(segment_id, successor_id) == responsible
        assert (segment_id in store) == responsible
        assert store.ids() == ([segment_id] if responsible else [])
