"""Tests for the system configuration."""

from __future__ import annotations

import math

import pytest

from repro.core.config import PAPER_DEFAULTS, SystemConfig


class TestDefaults:
    def test_paper_defaults_match_section_5_2(self):
        cfg = PAPER_DEFAULTS
        assert cfg.num_nodes == 1000
        assert cfg.connected_neighbors == 5
        assert cfg.buffer_capacity == 600
        assert cfg.playback_rate == 10.0
        assert cfg.scheduling_period == 1.0
        assert cfg.mean_inbound == 15.0
        assert cfg.backup_replicas == 4
        assert cfg.prefetch_limit == 5
        assert cfg.segment_bits == 30 * 1024

    def test_segments_per_round(self):
        assert PAPER_DEFAULTS.segments_per_round == 10
        half = SystemConfig(num_nodes=10, scheduling_period=0.5)
        assert half.segments_per_round == 5

    def test_effective_id_space_default(self):
        assert PAPER_DEFAULTS.effective_id_space >= 8192
        assert PAPER_DEFAULTS.effective_id_space & (PAPER_DEFAULTS.effective_id_space - 1) == 0

    def test_effective_id_space_explicit(self):
        cfg = SystemConfig(num_nodes=10, id_space=4096)
        assert cfg.effective_id_space == 4096

    def test_duration(self):
        cfg = SystemConfig(num_nodes=10, rounds=25, scheduling_period=2.0)
        assert cfg.duration == 50.0

    def test_is_dynamic(self):
        assert not PAPER_DEFAULTS.is_dynamic
        assert SystemConfig(num_nodes=10, leave_fraction=0.05).is_dynamic


class TestValidation:
    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            SystemConfig(num_nodes=1)

    def test_id_space_must_exceed_nodes(self):
        with pytest.raises(ValueError):
            SystemConfig(num_nodes=100, id_space=100)

    def test_inbound_bounds(self):
        with pytest.raises(ValueError):
            SystemConfig(num_nodes=10, min_inbound=20, mean_inbound=15, max_inbound=33)

    def test_buffer_must_hold_a_round(self):
        with pytest.raises(ValueError):
            SystemConfig(num_nodes=10, buffer_capacity=5, playback_rate=10)

    def test_churn_bounds(self):
        with pytest.raises(ValueError):
            SystemConfig(num_nodes=10, leave_fraction=1.0)
        with pytest.raises(ValueError):
            SystemConfig(num_nodes=10, abrupt_leave_fraction=1.5)

    def test_playback_lag_must_fit_in_buffer(self):
        with pytest.raises(ValueError):
            SystemConfig(num_nodes=10, playback_lag_segments=600, buffer_capacity=600)

    def test_window_must_cover_a_round(self):
        with pytest.raises(ValueError):
            SystemConfig(num_nodes=10, scheduling_window=5)

    def test_rounds_positive(self):
        with pytest.raises(ValueError):
            SystemConfig(num_nodes=10, rounds=0)


class TestDerivedFormulas:
    def test_expected_fetch_time_matches_equation_7(self):
        cfg = SystemConfig(num_nodes=1000)
        t_hop = 0.05
        expected = (math.log2(1000) / 2 + 3) * t_hop
        assert cfg.expected_fetch_time(t_hop) == pytest.approx(expected)
        # Paper's own worked example: ~8 hops * 50 ms = ~0.4 s.
        assert cfg.expected_fetch_time(0.05) == pytest.approx(0.4, abs=0.05)

    def test_alpha_step(self):
        cfg = SystemConfig(num_nodes=1000)
        assert cfg.alpha_step(0.05) == pytest.approx(10 * 0.05 / 600)


class TestVariants:
    def test_static_and_dynamic_variants(self):
        cfg = SystemConfig(num_nodes=50, leave_fraction=0.05, join_fraction=0.05)
        assert cfg.static_variant().leave_fraction == 0.0
        dynamic = SystemConfig(num_nodes=50).dynamic_variant(0.1)
        assert dynamic.leave_fraction == 0.1
        assert dynamic.join_fraction == 0.1

    def test_with_seed_and_scaled(self):
        cfg = SystemConfig(num_nodes=50, rounds=10, seed=1)
        assert cfg.with_seed(9).seed == 9
        scaled = cfg.scaled(200)
        assert scaled.num_nodes == 200 and scaled.rounds == 10
        assert cfg.scaled(200, rounds=5).rounds == 5

    def test_variants_do_not_mutate_original(self):
        cfg = SystemConfig(num_nodes=50)
        cfg.dynamic_variant()
        assert cfg.leave_fraction == 0.0
