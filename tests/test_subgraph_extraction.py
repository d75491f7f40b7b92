"""Regression tests for the CSR-backed subgraph-extraction layer.

The extraction kernels (:mod:`repro.graph.csr`) hand every child graph a
warm, canonical CSR view, and the parent's view is invalidated by mutation
(the ``_csr = None`` contract).  These tests pin the corner cases of that
contract: parents mutated after extraction, children mutated after
extraction, overlapping groups, and empty/edgeless instances.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from scalar_oracle import induced_from_keep, induced_subgraph, induced_subgraphs

from repro.errors import GraphError
from repro.graph.csr import build_csr, split_by_bins
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph


def _fresh_parent() -> Graph:
    graph = erdos_renyi(60, 0.15, seed=3)
    graph.csr()  # warm the view, as a real selection leaves it
    return graph


def _assert_canonical_view(graph: Graph) -> None:
    """The cached view must equal one rebuilt from the adjacency sets."""
    cached = graph.csr()
    rebuilt = build_csr(graph._adj)
    assert rebuilt.node_ids == cached.node_ids
    ids = rebuilt.id_list()
    assert (rebuilt.locate(ids) == cached.locate(ids)).all()
    assert (rebuilt.indptr == cached.indptr).all()
    assert (rebuilt.indices == cached.indices).all()
    assert (rebuilt.degrees == cached.degrees).all()
    assert (rebuilt.edge_sources == cached.edge_sources).all()


class TestCacheInvalidation:
    def test_parent_mutation_after_extraction(self):
        """Mutating the parent must not disturb extracted children."""
        parent = _fresh_parent()
        members = [node for node in parent.nodes() if node % 3 == 0]
        child = parent.induced_subgraph(members)
        child_nodes_before = child.nodes()
        child_adj_before = {node: child.neighbors(node) for node in child.nodes()}

        # Mutate the parent: a new edge between child members and a new node.
        u, v = members[0], members[1]
        if not parent.has_edge(u, v):
            parent.add_edge(u, v)
        parent.add_node(10_000)
        assert parent._csr is None  # the invalidation contract

        # The parent answers from its live state (view rebuilt on demand).
        assert 10_000 in parent
        assert parent.has_edge(u, v)
        _assert_canonical_view(parent)

        # The previously-extracted child is fully independent.
        assert child.nodes() == child_nodes_before
        assert {node: child.neighbors(node) for node in child.nodes()} == child_adj_before
        _assert_canonical_view(child)

        # Extracting again reflects the mutated parent.
        fresh = parent.induced_subgraph(members + [10_000])
        assert fresh.has_edge(u, v)
        assert 10_000 in fresh
        scalar = induced_subgraph(parent, members + [10_000])
        assert fresh.nodes() == scalar.nodes()
        for node in scalar.nodes():
            assert fresh.neighbors(node) == scalar.neighbors(node)

    def test_child_mutation_invalidates_child_view_only(self):
        parent = _fresh_parent()
        child = parent.induced_subgraph(parent.nodes()[:20])
        parent_view = parent.csr()
        isolated = [node for node in child.nodes()]
        u, v = isolated[0], isolated[-1]
        if child.has_edge(u, v):
            child.add_node(20_000)
        else:
            child.add_edge(u, v)
        _assert_canonical_view(child)  # child view rebuilt from live state
        assert parent.csr() is parent_view  # parent view untouched

    def test_subgraph_degrees_within_tracks_mutation(self):
        parent = _fresh_parent()
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
        _assert_canonical_view(child)

    def test_degrees_within_kernel_matches_scalar(self):
        graph = erdos_renyi(40, 0.25, seed=9)
        kept = [node for node in graph.nodes() if node % 2 == 0]
        counts = split_by_bins(graph.csr(), [kept])[0].degrees
        sub = induced_from_keep(graph, set(kept))
        for node, count in zip(kept, counts):
            assert int(count) == sub.degree(node)
