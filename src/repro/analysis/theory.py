"""Analytical models from the paper.

Section 5.1 models the arrival of data segments at a node as a Poisson
process with rate ``λ`` (approximately the node's inbound rate ``I``).  With
playback rate ``p`` and scheduling period ``τ``:

* the on-demand retrieval is expected to be triggered whenever fewer than
  ``p·τ`` segments arrive in a period, i.e. with probability
  ``P{N(τ) ≤ p·τ}`` (equation (11));
* the expected number of missed segments in such a period is
  ``N_miss = Σ_{n<pτ} (pτ − n)·P{N(τ)=n}`` (equation (12));
* with every segment backed up on ``k`` nodes and a per-holder failure
  probability of ½, a single pre-fetch fails with probability ``(½)^k`` and
  all ``N_miss`` pre-fetches succeed with probability
  ``(1 − (½)^k)^{N_miss}``;
* the playback continuity without and with pre-fetching is then
  ``PC_old = 1 − P{N(τ) ≤ p·τ}`` (equation (13)) and
  ``PC_new = 1 − P{N(τ) ≤ p·τ}·(1 − (1 − (½)^k)^{N_miss})`` (equation (14)).

Section 2 also quotes two gossip-coverage results we expose for completeness:
Kermarrec et al.'s ``e^{-e^{-k}}`` coverage when every node gossips to
``log n + k`` others, and CoolStreaming's coverage ratio at overlay distance
``d``, ``1 − e^{−M(M−1)^{d−2}/((M−2)n)}``.  The appendix bound on DHT routing
hops, ``log N / log(4/3)``, is exposed as :func:`dht_hop_upper_bound`.
"""

from __future__ import annotations

import math


# --------------------------------------------------------------------------- #
# Poisson machinery
# --------------------------------------------------------------------------- #
def poisson_pmf(n: int, mean: float) -> float:
    """``P{N = n}`` for a Poisson random variable with the given mean."""
    if n < 0:
        return 0.0
    if mean < 0:
        raise ValueError("mean must be non-negative")
    if mean == 0:
        return 1.0 if n == 0 else 0.0
    # Work in log space to stay finite for large means.
    log_p = -mean + n * math.log(mean) - math.lgamma(n + 1)
    return math.exp(log_p)


def poisson_cdf(n: int, mean: float) -> float:
    """``P{N <= n}`` for a Poisson random variable with the given mean."""
    if n < 0:
        return 0.0
    return min(1.0, sum(poisson_pmf(i, mean) for i in range(0, n + 1)))


# --------------------------------------------------------------------------- #
# Playback-continuity model (equations (11)-(15))
# --------------------------------------------------------------------------- #
def trigger_probability(arrival_rate: float, playback_rate: float, period: float) -> float:
    """Probability the on-demand retrieval is triggered in a period (eq. (11)).

    ``P{N(τ) ≤ p·τ}`` with ``N(τ)`` Poisson of mean ``λ·τ``.
    """
    _validate_rates(arrival_rate, playback_rate, period)
    needed = int(playback_rate * period)
    return poisson_cdf(needed, arrival_rate * period)


def expected_missed_segments(
    arrival_rate: float, playback_rate: float, period: float
) -> float:
    """Expected number of missed segments per period (equation (12))."""
    _validate_rates(arrival_rate, playback_rate, period)
    needed = int(playback_rate * period)
    mean = arrival_rate * period
    total = 0.0
    for n in range(0, needed):
        total += (needed - n) * poisson_pmf(n, mean)
    return total


def prefetch_failure_probability(replicas: int) -> float:
    """Probability a single pre-fetch finds no holder with the data: ``(½)^k``."""
    if replicas < 0:
        raise ValueError("replicas must be >= 0")
    return 0.5 ** replicas


def prefetch_success_probability(replicas: int, missed_segments: float) -> float:
    """Probability all ``N_miss`` pre-fetches of a period succeed."""
    if missed_segments < 0:
        raise ValueError("missed_segments must be >= 0")
    return (1.0 - prefetch_failure_probability(replicas)) ** missed_segments


def playback_continuity_old(
    arrival_rate: float, playback_rate: float, period: float
) -> float:
    """``PC_old = 1 − P{N(τ) ≤ p·τ}`` (equation (13))."""
    return 1.0 - trigger_probability(arrival_rate, playback_rate, period)


def playback_continuity_new(
    arrival_rate: float,
    playback_rate: float,
    period: float,
    replicas: int,
) -> float:
    """``PC_new`` with DHT-assisted pre-fetching (equation (14))."""
    p_trigger = trigger_probability(arrival_rate, playback_rate, period)
    n_miss = expected_missed_segments(arrival_rate, playback_rate, period)
    p_all = prefetch_success_probability(replicas, n_miss)
    return 1.0 - p_trigger * (1.0 - p_all)


def playback_continuity_delta(
    arrival_rate: float,
    playback_rate: float,
    period: float,
    replicas: int,
) -> float:
    """``Δ = PC_new − PC_old`` (equation (15))."""
    p_trigger = trigger_probability(arrival_rate, playback_rate, period)
    n_miss = expected_missed_segments(arrival_rate, playback_rate, period)
    return p_trigger * prefetch_success_probability(replicas, n_miss)


def _validate_rates(arrival_rate: float, playback_rate: float, period: float) -> None:
    if arrival_rate < 0:
        raise ValueError("arrival_rate must be >= 0")
    if playback_rate <= 0:
        raise ValueError("playback_rate must be positive")
    if period <= 0:
        raise ValueError("period must be positive")


# --------------------------------------------------------------------------- #
# Gossip coverage and DHT bounds (Sections 2, 4.1 and the appendix)
# --------------------------------------------------------------------------- #
def gossip_coverage_probability(fanout_excess: float) -> float:
    """Kermarrec et al.: gossiping to ``log n + k`` nodes covers everyone with
    probability ``e^{-e^{-k}}`` (``fanout_excess`` is ``k``)."""
    return math.exp(-math.exp(-fanout_excess))


def coverage_ratio_at_distance(
    num_neighbors: int, num_nodes: int, distance: int
) -> float:
    """CoolStreaming's coverage ratio at overlay distance ``d``:
    ``1 − exp(−M(M−1)^{d−2} / ((M−2)·n))``.

    Only defined for ``M > 2`` and ``d >= 2``.
    """
    if num_neighbors <= 2:
        raise ValueError("the formula requires M > 2")
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    if distance < 2:
        raise ValueError("distance must be >= 2")
    m = float(num_neighbors)
    exponent = m * (m - 1.0) ** (distance - 2) / ((m - 2.0) * num_nodes)
    return 1.0 - math.exp(-exponent)


def dht_hop_upper_bound(id_space: int) -> float:
    """Appendix bound on greedy DHT routing hops: ``log N / log(4/3)``."""
    if id_space < 2:
        return 0.0
    return math.log2(id_space) / math.log2(4.0 / 3.0)


def expected_dht_lookup_hops(num_nodes: int) -> float:
    """The paper's empirical observation: average routing hops ``≈ log2(n)/2``."""
    if num_nodes < 2:
        return 0.0
    return math.log2(num_nodes) / 2.0


def expected_routing_messages(replicas: int, num_nodes: int) -> float:
    """Section 5.4.3's estimate of the routing messages that locate one
    segment: ``k · (log2(n)/2 + 1) + 1``.

    The paper walks all ``k`` backup keys; probing them in turn (as
    :class:`~repro.core.phases.ondemand.Lookup` does) stops at the first
    holder that can serve, so this is the upper bound of a lookup that
    walks every key, and one walk costs ``log2(n)/2 + 1``."""
    return replicas * (expected_dht_lookup_hops(max(2, num_nodes)) + 1.0) + 1.0


def expected_fetch_time(num_nodes: int, hop_latency: float) -> float:
    """``t_fetch ≈ (log2(n)/2 + 3) · t_hop`` (equation (7))."""
    if hop_latency < 0:
        raise ValueError("hop_latency must be >= 0")
    return (expected_dht_lookup_hops(max(2, num_nodes)) + 3.0) * hop_latency


def expected_control_overhead(
    num_neighbors: int,
    buffer_capacity: int = 600,
    anchor_bits: int = 20,
    segment_bits: int = 30 * 1024,
    playback_rate: float = 10.0,
) -> float:
    """Section 5.4.2's estimate of the control overhead, ``≈ M / 495`` with the
    paper's defaults: each round a node fetches ``M`` buffer maps of
    ``B + 20`` bits while receiving ``p`` segments of 30 Kbit."""
    if num_neighbors < 1:
        raise ValueError("num_neighbors must be >= 1")
    map_bits = buffer_capacity + anchor_bits
    return (map_bits * num_neighbors) / (segment_bits * playback_rate)
