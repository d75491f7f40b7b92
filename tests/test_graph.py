"""Unit tests for the Graph data structure."""

from __future__ import annotations

import pytest

from repro.errors import GraphError
from repro.graph.graph import Graph, average_degree, degree_histogram


class TestConstruction:
    def test_empty_graph(self):
        graph = Graph()
        assert graph.num_nodes == 0
        assert graph.num_edges == 0
        assert graph.size() == 0

    def test_nodes_without_edges_are_kept(self):
        graph = Graph(nodes=[3, 1, 2])
        assert graph.num_nodes == 3
        assert graph.num_edges == 0
        assert set(graph.nodes()) == {1, 2, 3}

    def test_add_edge_adds_endpoints(self):
        graph = Graph()
        graph.add_edge(4, 9)
        assert 4 in graph
        assert 9 in graph
        assert graph.has_edge(4, 9)
        assert graph.has_edge(9, 4)

    def test_self_loop_rejected(self):
        graph = Graph()
        with pytest.raises(GraphError):
            graph.add_edge(1, 1)

    def test_parallel_edges_collapse(self):
        graph = Graph(edges=[(0, 1), (1, 0), (0, 1)])
        assert graph.num_edges == 1

    def test_complete_graph(self):
        graph = Graph.complete(5)
        assert graph.num_nodes == 5
        assert graph.num_edges == 10
        assert graph.max_degree() == 4

    def test_empty_factory(self):
        graph = Graph.empty(4)
        assert graph.num_nodes == 4
        assert graph.num_edges == 0

    def test_from_edges(self):
        graph = Graph.from_edges([(0, 1), (2, 3)], nodes=[7])
        assert graph.num_nodes == 5
        assert graph.has_edge(2, 3)

    def test_copy_is_independent(self):
        graph = Graph(edges=[(0, 1)])
        clone = graph.copy()
        clone.add_edge(1, 2)
        assert not graph.has_edge(1, 2)
        assert clone.has_edge(1, 2)


class TestQueries:
    def test_degree_and_neighbors(self, petersen):
        for node in petersen.nodes():
            assert petersen.degree(node) == 3
            assert len(petersen.neighbors(node)) == 3

    def test_neighbors_returns_copy(self):
        graph = Graph(edges=[(0, 1)])
        neighbors = graph.neighbors(0)
        neighbors.add(99)
        assert 99 not in graph.neighbors(0)

    def test_unknown_node_raises(self):
        graph = Graph(edges=[(0, 1)])
        with pytest.raises(GraphError):
            graph.degree(5)
        with pytest.raises(GraphError):
            graph.neighbors(5)

    def test_degrees_map(self, path_graph):
        degrees = path_graph.degrees()
        assert degrees[0] == 1
        assert degrees[2] == 2

    def test_max_degree_empty(self):
        assert Graph().max_degree() == 0
        assert Graph(nodes=[1, 2]).max_degree() == 0

    def test_size_counts_nodes_plus_edges(self, triangle):
        assert triangle.size() == 3 + 3

    def test_edges_iteration_is_canonical(self, triangle):
        edges = list(triangle.edges())
        assert len(edges) == 3
        assert all(u < v for u, v in edges)

    @pytest.mark.parametrize("lazy", [False, True], ids=["sets", "view"])
    def test_edges_of_ids_that_do_not_compare(self, lazy):
        # 1 < "b" raises TypeError: each edge is oriented by insertion
        # order instead, once, on both backings.
        graph = Graph(nodes=[1, "b", "c"], edges=[(1, "b"), ("b", "c")])
        if lazy:
            graph = graph.induced_subgraph(graph.nodes())
            assert graph._adj_store is None
        edges = list(graph.edges())
        assert len(edges) == 2
        assert {frozenset(edge) for edge in edges} == {
            frozenset((1, "b")),
            frozenset(("b", "c")),
        }

    @pytest.mark.parametrize("lazy", [False, True], ids=["sets", "view"])
    def test_edges_keep_the_id_order_of_comparable_ids(self, lazy):
        # insertion order disagrees with id order: still (smaller, larger)
        graph = Graph(nodes=[30, 10, 20], edges=[(30, 10), (20, 30), (10, 20)])
        if lazy:
            graph = graph.induced_subgraph(graph.nodes())
            assert graph._adj_store is None
        expected = [
            (u, v) for u in graph.nodes() for v in graph.neighbors(u) if u < v
        ]
        assert sorted(graph.edges()) == sorted(expected) == [(10, 20), (10, 30), (20, 30)]

    def test_len_and_iter(self, triangle):
        assert len(triangle) == 3
        assert sorted(triangle) == [0, 1, 2]


class TestDerivedGraphs:
    def test_induced_subgraph(self, petersen):
        sub = petersen.induced_subgraph([0, 1, 2, 5])
        assert sub.num_nodes == 4
        assert sub.has_edge(0, 1)
        assert sub.has_edge(0, 5)
        assert not sub.has_edge(2, 3)

    def test_induced_subgraph_ignores_unknown(self, triangle):
        sub = triangle.induced_subgraph([0, 1, 42])
        assert sub.num_nodes == 2
        assert sub.has_edge(0, 1)

    def test_subgraph_degrees_within(self, petersen):
        degrees = petersen.induced_subgraph([0, 1, 2, 3, 4]).degrees()
        # The outer 5-cycle: each node keeps exactly its two cycle neighbors.
        assert all(value == 2 for value in degrees.values())

    def test_connected_components(self):
        graph = Graph(edges=[(0, 1), (2, 3)], nodes=[9])
        components = sorted(graph.connected_components(), key=len)
        assert len(components) == 3
        assert {9} in components


class TestHelpers:
    def test_degree_histogram(self, path_graph):
        histogram = degree_histogram(path_graph)
        assert histogram == {1: 2, 2: 3}

    def test_average_degree(self, triangle):
        assert average_degree(triangle) == pytest.approx(2.0)

    def test_average_degree_empty(self):
        assert average_degree(Graph()) == 0.0


def _assert_same_graph(built: Graph, reference: Graph) -> None:
    """Same node order, same CSR arrays (and dtypes), same adjacency sets."""
    import numpy as np

    from repro.graph.csr import build_csr

    assert built.nodes() == reference.nodes()
    view, expected = built.csr(), build_csr(reference._adj)
    assert view.node_ids == expected.node_ids
    for name in ("indptr", "indices", "degrees", "edge_sources"):
        got, want = getattr(view, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert built._adj == reference._adj


class TestFromEdgesOracle:
    """``Graph.from_edges`` (array-first) equals the scalar ``Graph(nodes, edges)``."""

    @pytest.mark.parametrize(
        "nodes, edges",
        [
            ([], []),
            ([7, 3, 3, 11], []),  # only isolated nodes, one repeated
            ([], [(5, 2), (2, 9), (9, 5)]),  # unsorted ids, first-appearance order
            ([40, -3], [(1000, 7), (7, -3), (40, 1000)]),  # sparse and negative ids
            ([2], [(0, 1), (1, 0), (0, 1), (2, 3), (3, 2)]),  # duplicates, reversed
            (range(6), [(4, 5), (0, 5), (1, 2)]),
        ],
    )
    def test_matches_the_scalar_constructor(self, nodes, edges):
        built = Graph.from_edges(edges, nodes=nodes)
        assert built._adj_store is None  # adjacency sets stay lazy
        _assert_same_graph(built, Graph(nodes=nodes, edges=edges))

    def test_random_instances(self):
        import random

        rng = random.Random(3)
        for _ in range(100):
            ids = rng.sample(range(-50, 10**6), rng.randint(2, 30))
            nodes = rng.sample(ids, rng.randint(0, len(ids)))
            edges = [tuple(rng.sample(ids, 2)) for _ in range(rng.randint(0, 60))]
            _assert_same_graph(Graph.from_edges(edges, nodes), Graph(nodes, edges))

    def test_generator_and_array_input(self):
        import numpy as np

        pairs = [(3, 1), (1, 2), (2, 3)]
        reference = Graph(edges=pairs)
        _assert_same_graph(Graph.from_edges(pair for pair in pairs), reference)
        _assert_same_graph(Graph.from_edges(np.array(pairs, dtype=np.int32)), reference)

    def test_self_loop_message(self):
        with pytest.raises(GraphError, match="self-loop on node 3 is not allowed"):
            Graph.from_edges([(1, 2), (3, 3), (4, 4)])

    def test_string_ids_fall_back_to_sets(self):
        edges = [("b", "a"), ("a", "c")]
        built = Graph.from_edges(edges, nodes=["z"])
        assert built._adj_store is not None
        _assert_same_graph(built, Graph(nodes=["z"], edges=edges))

    def test_float_ids_are_not_truncated(self):
        built = Graph.from_edges([(0.5, 1), (1, 1.5)])
        assert built.nodes() == [0.5, 1, 1.5]
        assert built.neighbors(1) == {0.5, 1.5}

    def test_csr_children_keep_float_ids(self):
        graph = Graph(nodes=[2.5, 0.5, 1.5], edges=[(0.5, 1.5), (1.5, 2.5)])
        child = graph.induced_subgraph([0.5, 1.5])
        view = child.csr()
        assert view.hash_keys is None
        assert sorted(view.locate([0.5, 1.5]).tolist()) == [0, 1]
        assert view.locate([0, 1]).tolist() == [-1, -1]
        assert child.neighbors(0.5) == {1.5}

    def test_ids_beyond_int64_fall_back_to_sets(self):
        edges = [(2**70, 1)]
        _assert_same_graph(Graph.from_edges(edges), Graph(edges=edges))
