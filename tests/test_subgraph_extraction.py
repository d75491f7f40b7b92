"""Regression tests for the CSR-backed subgraph-extraction layer.

The extraction kernels (:mod:`repro.graph.csr`) hand every child graph a
canonical CSR view, and a mutated graph folds its additions into a new
view on its next query.  These tests pin the corner cases of that
contract against the adjacency-set reference (``scalar_oracle.SetGraph``):
parents mutated after extraction, children mutated after extraction,
overlapping groups, and empty/edgeless instances.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from scalar_oracle import (
    SetGraph,
    assert_same_graph,
    induced_from_keep,
    induced_subgraph,
    induced_subgraphs,
)

from repro.errors import GraphError
from repro.graph.csr import split_by_bins
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph


def _fresh_parent():
    """A generated graph and its adjacency-set reference, kept apart from
    here on: every mutation is applied to both."""
    graph = erdos_renyi(60, 0.15, seed=3)
    return graph, SetGraph(graph.nodes(), graph.edges())


def _induced(reference: SetGraph, nodes) -> SetGraph:
    """The reference subgraph induced by ``nodes``, in that node order."""
    members = set(nodes)
    return SetGraph(
        nodes, [(u, v) for u in nodes for v in reference.adj[u] if v in members]
    )


class TestCacheInvalidation:
    def test_parent_mutation_after_extraction(self):
        """Mutating the parent must not disturb extracted children."""
        parent, reference = _fresh_parent()
        members = [node for node in parent.nodes() if node % 3 == 0]
        child = parent.induced_subgraph(members)
        child_reference = _induced(reference, child.nodes())

        # Mutate the parent after a query: an edge between child members
        # (added twice, once reversed) and a new node.
        u, v = members[0], members[1]
        for graph in (parent, reference):
            graph.add_edge(u, v)
            graph.add_edge(v, u)
            graph.add_node(10_000)

        # The parent answers from its live state (view rebuilt on demand).
        assert 10_000 in parent
        assert parent.has_edge(u, v)
        assert_same_graph(parent, reference)

        # The previously-extracted child is fully independent.
        assert_same_graph(child, child_reference)

        # Extracting again reflects the mutated parent.
        fresh = parent.induced_subgraph(members + [10_000])
        assert_same_graph(fresh, _induced(reference, fresh.nodes()))
        assert fresh.has_edge(u, v)
        assert 10_000 in fresh
        scalar = induced_subgraph(parent, members + [10_000])
        assert fresh.nodes() == scalar.nodes()
        for node in scalar.nodes():
            assert fresh.neighbors(node) == scalar.neighbors(node)

    def test_child_mutation_invalidates_child_view_only(self):
        parent, reference = _fresh_parent()
        child = parent.induced_subgraph(parent.nodes()[:20])
        child_reference = _induced(reference, child.nodes())
        parent_view = parent.csr()
        u, v = child.nodes()[0], child.nodes()[-1]
        for graph in (child, child_reference):
            graph.add_edge(u, v)
            graph.add_node(20_000)
        assert_same_graph(child, child_reference)  # child view rebuilt
        assert parent.csr() is parent_view  # parent view untouched
        assert_same_graph(parent, reference)

    def test_subgraph_degrees_within_tracks_mutation(self):
        parent, _ = _fresh_parent()
        members = parent.nodes()[:30]
        before = parent.induced_subgraph(members).degrees()
        u, v = members[0], members[1]
        changed = not parent.has_edge(u, v)
        if changed:
            parent.add_edge(u, v)
        after = parent.induced_subgraph(members).degrees()
        scalar = induced_subgraph(parent, members).degrees()
        assert after == scalar
        if changed:
            assert after[u] == before[u] + 1
            assert after[v] == before[v] + 1


class TestSplitByBins:
    def test_overlapping_groups_rejected(self):
        graph = erdos_renyi(20, 0.3, seed=1)
        nodes = graph.nodes()
        with pytest.raises(GraphError):
            graph.induced_subgraphs([nodes[:10], nodes[5:15]])

    def test_duplicate_ids_within_group_rejected(self):
        graph = erdos_renyi(10, 0.3, seed=1)
        with pytest.raises(GraphError):
            split_by_bins(graph.csr(), [[graph.nodes()[0], graph.nodes()[0]]])

    def test_empty_groups_and_empty_graph(self):
        graph = Graph()
        assert graph.induced_subgraphs([]) == []
        children = graph.induced_subgraphs([[], [1, 2]])
        assert [child.num_nodes for child in children] == [0, 0]
        edgeless = Graph(nodes=range(5))
        children = edgeless.induced_subgraphs([[0, 2], [1, 3, 4]])
        assert [child.nodes() for child in children] == [[0, 2], [1, 3, 4]]
        assert all(child.num_edges == 0 for child in children)

    def test_groups_need_not_cover_the_graph(self):
        graph = erdos_renyi(30, 0.2, seed=7)
        nodes = graph.nodes()
        groups = [nodes[:5], nodes[20:25]]
        batched = graph.induced_subgraphs(groups)
        scalar = induced_subgraphs(graph, groups)
        for expected, actual in zip(scalar, batched):
            assert actual.nodes() == expected.nodes()
            for node in expected.nodes():
                assert actual.neighbors(node) == expected.neighbors(node)


class TestExtractInducedKernel:
    """``split_by_bins`` with one group: the single-subgraph extraction."""

    def test_child_view_is_canonical(self):
        graph = erdos_renyi(40, 0.25, seed=9)
        kept = [node for node in graph.nodes() if node % 2 == 0]
        child_view = split_by_bins(graph.csr(), [kept])[0]
        child = Graph._from_csr(child_view)
        assert child.csr() is child_view
        reference = SetGraph(graph.nodes(), graph.edges())
        assert_same_graph(child, _induced(reference, kept))

    def test_degrees_within_kernel_matches_scalar(self):
        graph = erdos_renyi(40, 0.25, seed=9)
        kept = [node for node in graph.nodes() if node % 2 == 0]
        counts = split_by_bins(graph.csr(), [kept])[0].degrees
        sub = induced_from_keep(graph, set(kept))
        for node, count in zip(kept, counts):
            assert int(count) == sub.degree(node)
