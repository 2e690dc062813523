"""Tests for the analytic models (Section 5.1) and metric helpers."""

from __future__ import annotations

import math

import pytest

from repro.analysis.metrics import stable_phase_mean, summarize_runs
from repro.analysis.theory import (
    coverage_ratio_at_distance,
    dht_hop_upper_bound,
    expected_control_overhead,
    expected_dht_lookup_hops,
    expected_fetch_time,
    expected_missed_segments,
    gossip_coverage_probability,
    playback_continuity_delta,
    playback_continuity_new,
    playback_continuity_old,
    poisson_cdf,
    poisson_pmf,
    prefetch_failure_probability,
    prefetch_success_probability,
    trigger_probability,
)


class TestPoisson:
    def test_pmf_sums_to_one(self):
        total = sum(poisson_pmf(n, 6.0) for n in range(100))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_pmf_zero_mean(self):
        assert poisson_pmf(0, 0.0) == 1.0
        assert poisson_pmf(3, 0.0) == 0.0

    def test_pmf_negative_n(self):
        assert poisson_pmf(-1, 2.0) == 0.0

    def test_pmf_rejects_negative_mean(self):
        with pytest.raises(ValueError):
            poisson_pmf(1, -1.0)

    def test_cdf_monotone(self):
        values = [poisson_cdf(n, 10.0) for n in range(30)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] <= 1.0

    def test_cdf_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for mean in (5.0, 10.0, 15.0):
            for n in (0, 5, 10, 20):
                assert poisson_cdf(n, mean) == pytest.approx(
                    float(scipy_stats.poisson.cdf(n, mean)), abs=1e-9
                )


class TestPlaybackContinuityModel:
    def test_paper_values_lambda_15(self):
        """The paper's table: λ=15 gives PC_old 0.8815 and PC_new 0.9989."""
        assert playback_continuity_old(15.0, 10.0, 1.0) == pytest.approx(0.8815, abs=2e-3)
        assert playback_continuity_new(15.0, 10.0, 1.0, 4) == pytest.approx(0.9989, abs=2e-3)

    def test_paper_values_lambda_14(self):
        assert playback_continuity_old(14.0, 10.0, 1.0) == pytest.approx(0.8243, abs=2e-3)
        assert playback_continuity_new(14.0, 10.0, 1.0, 4) == pytest.approx(0.9975, abs=2e-3)

    def test_delta_is_consistent(self):
        delta = playback_continuity_delta(15.0, 10.0, 1.0, 4)
        assert delta == pytest.approx(
            playback_continuity_new(15.0, 10.0, 1.0, 4)
            - playback_continuity_old(15.0, 10.0, 1.0)
        )

    def test_new_is_never_below_old(self):
        for arrival_rate in (8.0, 10.0, 12.0, 15.0, 20.0):
            old = playback_continuity_old(arrival_rate, 10.0, 1.0)
            new = playback_continuity_new(arrival_rate, 10.0, 1.0, 4)
            assert new >= old

    def test_higher_arrival_rate_helps(self):
        assert playback_continuity_old(18.0, 10.0, 1.0) > playback_continuity_old(
            12.0, 10.0, 1.0
        )

    def test_more_replicas_help(self):
        low = playback_continuity_new(12.0, 10.0, 1.0, 1)
        high = playback_continuity_new(12.0, 10.0, 1.0, 8)
        assert high >= low

    def test_trigger_probability_complement(self):
        assert trigger_probability(15.0, 10.0, 1.0) == pytest.approx(
            1.0 - playback_continuity_old(15.0, 10.0, 1.0)
        )

    def test_expected_missed_segments_bounds(self):
        missed = expected_missed_segments(15.0, 10.0, 1.0)
        assert 0.0 < missed < 10.0
        # With a huge arrival rate, essentially nothing is missed.
        assert expected_missed_segments(100.0, 10.0, 1.0) == pytest.approx(0.0, abs=1e-6)

    def test_prefetch_probabilities(self):
        assert prefetch_failure_probability(4) == pytest.approx(1 / 16)
        assert prefetch_success_probability(4, 0.0) == 1.0
        assert prefetch_success_probability(4, 2.0) == pytest.approx((15 / 16) ** 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            playback_continuity_old(-1.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            playback_continuity_old(10.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            prefetch_success_probability(4, -1.0)


class TestCoverageAndDhtFormulas:
    def test_kermarrec_coverage(self):
        assert gossip_coverage_probability(0.0) == pytest.approx(math.exp(-1.0))
        assert gossip_coverage_probability(5.0) > 0.99

    def test_coolstreaming_coverage_increases_with_distance(self):
        near = coverage_ratio_at_distance(5, 1000, 2)
        far = coverage_ratio_at_distance(5, 1000, 6)
        assert far > near
        assert 0.0 < near < far <= 1.0

    def test_coverage_validation(self):
        with pytest.raises(ValueError):
            coverage_ratio_at_distance(2, 1000, 3)
        with pytest.raises(ValueError):
            coverage_ratio_at_distance(5, 1000, 1)

    def test_dht_hop_bound_value(self):
        """The appendix: log N / log(4/3) ≈ 2.41 log2 N."""
        assert dht_hop_upper_bound(8192) == pytest.approx(2.41 * 13, rel=0.01)
        assert dht_hop_upper_bound(1) == 0.0

    def test_expected_lookup_hops(self):
        assert expected_dht_lookup_hops(1024) == pytest.approx(5.0)
        assert expected_dht_lookup_hops(1) == 0.0

    def test_expected_fetch_time_paper_example(self):
        """Section 5.2: n=1000, t_hop=50 ms gives t_fetch ≈ 0.4 s."""
        assert expected_fetch_time(1000, 0.05) == pytest.approx(0.4, abs=0.05)
        with pytest.raises(ValueError):
            expected_fetch_time(1000, -0.1)

    def test_expected_control_overhead_paper_example(self):
        """Section 5.4.2: roughly M/495 for the default parameters."""
        assert expected_control_overhead(5) == pytest.approx(5 / 495, rel=0.02)
        with pytest.raises(ValueError):
            expected_control_overhead(0)


class TestMetricsHelpers:
    def test_summarize_runs(self):
        summary = summarize_runs([1.0, 2.0, 3.0])
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["min"] == 1.0 and summary["max"] == 3.0
        assert summary["count"] == 3

    def test_summarize_empty(self):
        assert summarize_runs([])["count"] == 0

    def test_stable_phase_mean(self):
        series = [0.0] * 10 + [1.0] * 5
        assert stable_phase_mean(series) == pytest.approx(1.0)
        assert stable_phase_mean([]) == 0.0
        with pytest.raises(ValueError):
            stable_phase_mean([1.0], skip_fraction=1.0)
