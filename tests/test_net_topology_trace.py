"""Tests for the overlay topology and the synthetic trace generator."""

from __future__ import annotations

import pytest

from repro.net.topology import OverlayTopology
from repro.net.trace import TraceTopologyGenerator, build_streaming_overlay


class TestOverlayTopology:
    def test_add_and_remove_nodes(self):
        graph = OverlayTopology([1, 2])
        assert len(graph) == 2
        graph.add_node(3)
        assert 3 in graph
        graph.remove_node(3)
        assert 3 not in graph

    def test_add_node_idempotent(self):
        graph = OverlayTopology()
        graph.add_node(1)
        graph.add_edge(1, 2)
        graph.add_node(1)  # must not clear the adjacency
        assert graph.has_edge(1, 2)

    def test_add_edge_rejects_self_loops(self):
        graph = OverlayTopology()
        assert not graph.add_edge(1, 1)

    def test_add_edge_rejects_duplicates(self):
        graph = OverlayTopology()
        assert graph.add_edge(1, 2)
        assert not graph.add_edge(2, 1)
        assert graph.edge_count() == 1

    def test_remove_node_cleans_neighbour_sets(self):
        graph = OverlayTopology()
        graph.add_edge(1, 2)
        graph.add_edge(1, 3)
        neighbours = graph.remove_node(1)
        assert neighbours == {2, 3}
        assert graph.degree(2) == 0
        assert graph.degree(3) == 0

    def test_neighbors_returns_copy(self):
        graph = OverlayTopology()
        graph.add_edge(1, 2)
        neighbours = graph.neighbors(1)
        neighbours.add(99)
        assert 99 not in graph.neighbors(1)

    def test_degree_and_average_degree(self):
        graph = OverlayTopology()
        graph.add_edge(1, 2)
        graph.add_edge(1, 3)
        assert graph.degree(1) == 2
        assert graph.degree(2) == 1
        assert graph.average_degree() == pytest.approx(4 / 3)

    def test_average_degree_empty(self):
        assert OverlayTopology().average_degree() == 0.0

    def test_edges_sorted_unique(self):
        graph = OverlayTopology()
        graph.add_edge(3, 1)
        graph.add_edge(2, 3)
        assert graph.edges() == [(1, 3), (2, 3)]

    def test_densify_reaches_target_degree(self, rng):
        graph = OverlayTopology(range(30))
        added = graph.densify_to_degree(5, rng)
        assert added > 0
        assert all(graph.degree(v) >= 5 for v in graph.nodes())

    def test_densify_small_graph_caps_at_n_minus_one(self, rng):
        graph = OverlayTopology(range(3))
        graph.densify_to_degree(10, rng)
        assert all(graph.degree(v) == 2 for v in graph.nodes())

    def test_densify_keeps_existing_edges(self, rng):
        graph = OverlayTopology(range(10))
        graph.add_edge(0, 1)
        graph.densify_to_degree(3, rng)
        assert graph.has_edge(0, 1)

    def test_copy_is_independent(self):
        graph = OverlayTopology()
        graph.add_edge(1, 2)
        clone = graph.copy()
        clone.add_edge(2, 3)
        assert not graph.has_edge(2, 3)


class TestTraceGenerator:
    def test_record_schema(self):
        records = TraceTopologyGenerator(seed=1).generate_records(50)
        assert len(records) == 50
        assert [r.node_id for r in records] == list(range(50))
        for record in records:
            assert 1024 <= record.port < 65535
            assert 5.0 <= record.ping_ms <= 1500.0
            assert record.speed_kbps in TraceTopologyGenerator.SPEED_CLASSES
            assert record.ip.count(".") == 3

    def test_generate_records_requires_positive_count(self):
        with pytest.raises(ValueError):
            TraceTopologyGenerator(seed=1).generate_records(0)

    def test_trace_graph_is_sparse(self):
        trace = TraceTopologyGenerator(seed=2).generate(300)
        assert len(trace.graph) == 300
        assert 0.3 <= trace.graph.average_degree() <= 4.0

    def test_trace_respects_requested_degree(self):
        trace = TraceTopologyGenerator(seed=3).generate(200, average_degree=2.0)
        assert trace.graph.average_degree() == pytest.approx(2.0, abs=0.4)

    def test_trace_reproducible_with_seed(self):
        a = TraceTopologyGenerator(seed=9).generate(100, seed=42)
        b = TraceTopologyGenerator(seed=1).generate(100, seed=42)
        assert a.records == b.records
        assert a.graph.edges() == b.graph.edges()

    def test_build_streaming_overlay_densifies(self, rng):
        trace = TraceTopologyGenerator(seed=6).generate(100)
        overlay = build_streaming_overlay(trace, target_degree=5, rng=rng)
        assert all(overlay.degree(v) >= 5 for v in overlay.nodes())
        # Original crawl edges are preserved.
        for a, b in trace.graph.edges():
            assert overlay.has_edge(a, b)
