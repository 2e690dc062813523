"""The overlay build: bit-identical to the reference implementations it
replaced, and pinned on same-seed overlay digests.

``ref_densify_to_degree`` and ``ref_fill_fingers`` (with ``_ids_in_interval``)
are the earlier implementations, kept verbatim as oracles: the first
re-filtered the whole deficient list after every added edge, the second
cut each level's candidate array with NumPy.  The live code must add the
same edges, install the same fingers and consume the same random draws.
"""

from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.peer_table import PeerTable, fill_fingers
from repro.dht.ring import IdRing
from repro.membership.rendezvous import RendezvousPoint
from repro.net.topology import OverlayTopology
from repro.scenarios import builtin_scenario


# --------------------------------------------------------------- the oracles
def ref_densify_to_degree(graph: OverlayTopology, target_degree: int, rng) -> int:
    node_list = graph.nodes()
    n = len(node_list)
    if n <= 1:
        return 0
    added = 0
    max_possible = min(target_degree, n - 1)
    deficient = [v for v in node_list if graph.degree(v) < max_possible]
    attempts_budget = 50 * n * max(1, target_degree)
    attempts = 0
    while deficient and attempts < attempts_budget:
        attempts += 1
        v = deficient[int(rng.integers(len(deficient)))]
        w = node_list[int(rng.integers(n))]
        if w == v or graph.has_edge(v, w):
            continue
        graph.add_edge(v, w)
        added += 1
        deficient = [u for u in deficient if graph.degree(u) < max_possible]
    return added


def _ids_in_interval(sorted_ids: np.ndarray, start: int, end: int) -> np.ndarray:
    if start == end:
        return np.empty(0, dtype=np.int64)
    lo = np.searchsorted(sorted_ids, start, side="left")
    hi = np.searchsorted(sorted_ids, end, side="left")
    if start < end:
        return sorted_ids[lo:hi]
    return np.concatenate([sorted_ids[lo:], sorted_ids[:hi]])


def ref_fill_fingers(table: PeerTable, sorted_ids: np.ndarray, rng, latency_ms) -> None:
    owner, ring = table.owner_id, table.ring
    for level in range(1, ring.bits + 1):
        start, end = ring.level_interval(owner, level)
        candidates = _ids_in_interval(sorted_ids, start, end)
        if candidates.size == 0:
            continue
        peer = int(candidates[int(rng.integers(candidates.size))])
        if peer != owner:
            table.set_dht_peer(peer, latency_ms(owner, peer))


class _FixedDraw:
    """A stand-in generator whose ``integers(n)`` is ``k mod n``: walks every
    index of an interval, the wrapping half included."""

    def __init__(self, k: int) -> None:
        self.k = k

    def integers(self, n: int) -> int:
        return self.k % n


def _latency(owner: int, peer: int) -> float:
    return float((owner * 31 + peer) % 97)


# --------------------------------------------------------------- densify
_graphs = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n
        ),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
)


class TestDensifyMatchesReference:
    @given(graph=_graphs)
    @settings(max_examples=200, deadline=None)
    def test_same_edges_and_draws_on_random_graphs(self, graph):
        n, edges, target, seed = graph
        live, ref = OverlayTopology(range(n)), OverlayTopology(range(n))
        for a, b in edges:
            live.add_edge(a, b)
            ref.add_edge(a, b)
        rng_live, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert live.densify_to_degree(target, rng_live) == ref_densify_to_degree(
            ref, target, rng_ref
        )
        assert live.edges() == ref.edges()
        assert rng_live.bit_generator.state == rng_ref.bit_generator.state


# --------------------------------------------------------------- fingers
_populations = st.integers(min_value=2, max_value=300).flatmap(
    lambda size: st.tuples(
        st.just(size),
        st.sets(st.integers(0, size - 1), min_size=1, max_size=min(size, 60)),
        st.integers(0, size - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
)


class TestFillFingersMatchesReference:
    @staticmethod
    def _pair(size, owner):
        ring = IdRing(size)
        return PeerTable(owner_id=owner, ring=ring), PeerTable(owner_id=owner, ring=ring)

    @given(population=_populations)
    @settings(max_examples=200, deadline=None)
    def test_same_fingers_and_draws(self, population):
        size, ids, owner, seed = population
        ordered = sorted(ids | {owner})
        live, ref = self._pair(size, owner)
        rng_live, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        fill_fingers(live, ordered, rng_live, _latency)
        ref_fill_fingers(ref, np.asarray(ordered, dtype=np.int64), rng_ref, _latency)
        assert list(live.dht_peers.items()) == list(ref.dht_peers.items())
        assert rng_live.bit_generator.state == rng_ref.bit_generator.state

    @given(population=_populations, k=st.integers(min_value=0, max_value=500))
    @settings(max_examples=200, deadline=None)
    def test_every_index_of_wrapping_intervals(self, population, k):
        size, ids, owner, _ = population
        ordered = sorted(ids)  # the owner need not be a member
        live, ref = self._pair(size, owner)
        fill_fingers(live, ordered, _FixedDraw(k), _latency)
        ref_fill_fingers(ref, np.asarray(ordered, dtype=np.int64), _FixedDraw(k), _latency)
        assert list(live.dht_peers.items()) == list(ref.dht_peers.items())

    def test_a_wrapping_level_reaches_both_pieces(self):
        # Owner 90 on a 100-id ring: level 4 is [98, 106) mod 100, i.e.
        # [98, 100) ∪ [0, 6), which holds 99 and 3.
        ring = IdRing(100)
        ordered = [3, 10, 60, 95, 97, 99]
        picks = set()
        for k in range(6):
            table = PeerTable(owner_id=90, ring=ring)
            fill_fingers(table, ordered, _FixedDraw(k), _latency)
            picks.update(peer for peer, _ in table.dht_peers.values())
        assert picks == set(ordered)


# --------------------------------------------------------------- the build
def overlay_digest(manager) -> str:
    """Every node's liveness, partners with latencies, fingers by level and
    overheard list, each in the table's own order."""
    digest = hashlib.sha256()
    for node_id in sorted(manager.nodes):
        node = manager.nodes[node_id]
        table = node.peer_table
        row = (
            node_id,
            node.alive,
            list(table.neighbors.items()),
            [(level, *finger) for level, finger in table.dht_peers.items()],
            list(table.overheard.items()),
        )
        digest.update(repr(row).encode())
    return digest.hexdigest()[:16]


class TestOverlayBuild:
    def test_static_build_digest_is_pinned(self):
        system = builtin_scenario("static").scaled(300, 1, 0, "continustreaming").build_system()
        assert overlay_digest(system.build().manager) == "9ba5b30954297744"

    def test_paper_dynamic_run_digest_is_pinned(self):
        system = builtin_scenario("paper-dynamic").scaled(150, 15, 0, "continustreaming").build_system()
        system.run()
        manager = system.manager
        assert len(manager.nodes) > 150  # joins ran the contact path
        assert not all(node.alive for node in manager.nodes.values())  # and leaves
        assert overlay_digest(manager) == "5e61bd778b1c9759"

    def test_build_computes_no_contact_list(self, monkeypatch):
        calls = []
        closest = RendezvousPoint._closest_contacts

        def counting(self, node_id, count):
            calls.append(node_id)
            return closest(self, node_id, count)

        monkeypatch.setattr(RendezvousPoint, "_closest_contacts", counting)
        system = builtin_scenario("static").scaled(60, 1, 0, "continustreaming").build_system()
        manager = system.build().manager
        assert calls == []
        joined = manager.admit_node(np.random.default_rng(1))
        assert calls == [joined]  # a churn join still asks for contacts
