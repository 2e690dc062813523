"""Analysis: the paper's theory (Section 5.1) and metric aggregation helpers."""

from repro.analysis.metrics import summarize_runs
from repro.analysis.theory import (
    coverage_ratio_at_distance,
    dht_hop_upper_bound,
    expected_missed_segments,
    gossip_coverage_probability,
    playback_continuity_delta,
    playback_continuity_new,
    playback_continuity_old,
    poisson_cdf,
    prefetch_failure_probability,
    prefetch_success_probability,
)

__all__ = [
    "poisson_cdf",
    "playback_continuity_old",
    "playback_continuity_new",
    "playback_continuity_delta",
    "expected_missed_segments",
    "prefetch_failure_probability",
    "prefetch_success_probability",
    "gossip_coverage_probability",
    "coverage_ratio_at_distance",
    "dht_hop_upper_bound",
    "summarize_runs",
]
