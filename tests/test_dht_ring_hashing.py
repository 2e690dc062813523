"""Tests for ring arithmetic and the backup-key placement."""

from __future__ import annotations

import pytest

from repro.dht.hashing import backup_keys, is_backup_responsible, segment_hash
from repro.dht.ring import IdRing


class TestIdRing:
    def test_requires_at_least_two_ids(self):
        with pytest.raises(ValueError):
            IdRing(1)

    def test_bits(self):
        assert IdRing(1024).bits == 10
        assert IdRing(1000).bits == 10
        assert IdRing(2).bits == 1

    def test_normalize(self):
        ring = IdRing(100)
        assert ring.normalize(105) == 5
        assert ring.normalize(-1) == 99

    def test_clockwise_distance(self):
        ring = IdRing(100)
        assert ring.clockwise_distance(10, 30) == 20
        assert ring.clockwise_distance(30, 10) == 80
        assert ring.clockwise_distance(5, 5) == 0

    def test_counter_clockwise_distance(self):
        ring = IdRing(100)
        assert ring.counter_clockwise_distance(30, 10) == 20
        assert ring.counter_clockwise_distance(10, 30) == 80

    def test_distances_sum_to_ring_size(self):
        ring = IdRing(128)
        for a, b in [(0, 5), (100, 3), (64, 63)]:
            if a != b:
                total = ring.clockwise_distance(a, b) + ring.counter_clockwise_distance(a, b)
                assert total == 128

    def test_in_clockwise_interval(self):
        ring = IdRing(100)
        assert ring.in_clockwise_interval(15, 10, 20)
        assert ring.in_clockwise_interval(10, 10, 20)
        assert not ring.in_clockwise_interval(20, 10, 20)
        # Wrapping interval [90, 10)
        assert ring.in_clockwise_interval(95, 90, 10)
        assert ring.in_clockwise_interval(5, 90, 10)
        assert not ring.in_clockwise_interval(50, 90, 10)

    def test_empty_interval_contains_nothing(self):
        ring = IdRing(100)
        assert not ring.in_clockwise_interval(5, 5, 5)

    def test_responsible_node_wraps(self):
        ring = IdRing(100)
        nodes = [10, 40, 80]
        assert ring.responsible_node(45, nodes) == 40
        assert ring.responsible_node(5, nodes) == 80  # wraps counter-clockwise
        assert ring.responsible_node(10, nodes) == 10
        assert ring.responsible_node(5, []) is None

    def test_level_of(self):
        ring = IdRing(1024)
        assert ring.level_of(0, 0) == 0
        assert ring.level_of(0, 1) == 1
        assert ring.level_of(0, 2) == 2
        assert ring.level_of(0, 3) == 2
        assert ring.level_of(0, 4) == 3
        assert ring.level_of(0, 1023) == 10

    def test_level_interval(self):
        ring = IdRing(1024)
        assert ring.level_interval(5, 1) == (6, 7)
        assert ring.level_interval(5, 3) == (9, 13)
        with pytest.raises(ValueError):
            ring.level_interval(5, 0)

    def test_level_interval_matches_level_of(self):
        ring = IdRing(256)
        node = 17
        for level in range(1, ring.bits + 1):
            start, end = ring.level_interval(node, level)
            # Every id in [start, end) must be classified back to this level.
            probe = start
            while probe != end:
                assert ring.level_of(node, probe) == level
                probe = ring.normalize(probe + 1)


class TestSegmentHash:
    def test_deterministic(self):
        assert segment_hash(42, 8192) == segment_hash(42, 8192)

    def test_within_id_space(self):
        for value in range(0, 5000, 37):
            assert 0 <= segment_hash(value, 8192) < 8192

    def test_rejects_tiny_id_space(self):
        with pytest.raises(ValueError):
            segment_hash(1, 1)

    def test_spreads_consecutive_ids(self):
        """Consecutive segment ids must not map to adjacent ring positions."""
        keys = [segment_hash(i, 8192) for i in range(100)]
        gaps = [abs(keys[i + 1] - keys[i]) for i in range(99)]
        assert sum(1 for gap in gaps if gap < 10) < 5


class TestBackupKeys:
    def test_count_matches_replicas(self):
        assert len(backup_keys(7, 4, 8192)) == 4

    def test_first_key_is_hash_of_id(self):
        assert backup_keys(7, 4, 8192)[0] == segment_hash(7, 8192)

    def test_uses_multiplication_not_addition(self):
        """Equation (5) hashes id*i so replicas land on dispersed positions."""
        keys = backup_keys(100, 4, 8192)
        assert keys[1] == segment_hash(200, 8192)
        assert keys[2] == segment_hash(300, 8192)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            backup_keys(-1, 4, 8192)
        with pytest.raises(ValueError):
            backup_keys(1, 0, 8192)

    def test_responsibility_interval(self):
        segment_id, replicas, space = 12, 4, 8192
        keys = backup_keys(segment_id, replicas, space)
        key = keys[0]
        # A node owning an interval containing the key is responsible.
        assert is_backup_responsible(segment_id, replicas, space, key, key + 1)
        # A node owning an interval just past the key is not (unless another
        # key falls inside, so pick a tiny interval away from all keys).
        for probe in range(space):
            if all((probe <= k or k < probe) and not (probe <= k < probe + 1) for k in keys):
                assert not is_backup_responsible(
                    segment_id, replicas, space, probe, probe + 1
                )
                break

    def test_sole_node_owns_everything(self):
        assert is_backup_responsible(5, 4, 8192, 17, 17)

    def test_exactly_k_single_slot_owners(self):
        """With single-id intervals, exactly the k key owners are responsible
        (modulo key collisions)."""
        segment_id, replicas, space = 9, 4, 4096
        keys = set(backup_keys(segment_id, replicas, space))
        owners = [
            node
            for node in range(space)
            if is_backup_responsible(segment_id, replicas, space, node, (node + 1) % space)
        ]
        assert set(owners) == keys
