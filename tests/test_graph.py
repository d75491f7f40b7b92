"""Unit tests for the Graph data structure."""

from __future__ import annotations

import random

import numpy as np
import pytest
from scalar_oracle import SetGraph, assert_same_graph

from repro.errors import GraphError
from repro.graph.csr import id_locator, locate_ids, locate_one
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph, average_degree, degree_histogram
from repro.graph.palettes import PaletteAssignment


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

    @pytest.mark.parametrize("extracted", [False, True], ids=["built", "extracted"])
    def test_edges_of_ids_that_do_not_compare(self, extracted):
        # 1 < "b" raises TypeError: each edge is oriented by insertion
        # order instead, once, built or extracted.
        graph = Graph(nodes=[1, "b", "c"], edges=[(1, "b"), ("b", "c")])
        if extracted:
            graph = graph.induced_subgraph(graph.nodes())
        edges = list(graph.edges())
        assert len(edges) == 2
        assert {frozenset(edge) for edge in edges} == {
            frozenset((1, "b")),
            frozenset(("b", "c")),
        }

    @pytest.mark.parametrize("extracted", [False, True], ids=["built", "extracted"])
    def test_edges_keep_the_id_order_of_comparable_ids(self, extracted):
        # insertion order disagrees with id order: still (smaller, larger)
        graph = Graph(nodes=[30, 10, 20], edges=[(30, 10), (20, 30), (10, 20)])
        if extracted:
            graph = graph.induced_subgraph(graph.nodes())
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


class TestIdLocator:
    """Every locator shape answers like a dict over the ids."""

    @pytest.mark.parametrize(
        "ids",
        [
            list(range(100, 200)),  # contiguous: a range
            np.arange(-40, 60, dtype=np.int64),
            list(range(0, 300, 3)),  # ascending with gaps
            random.Random(5).sample(range(1000), 100),  # unsorted
            [7, 3, 9],  # small: a dict
        ],
        ids=["range", "array-range", "gaps", "unsorted", "small"],
    )
    def test_matches_a_dict(self, ids):
        ids_list = ids.tolist() if isinstance(ids, np.ndarray) else ids
        rows = {node: row for row, node in enumerate(ids_list)}
        queries = ids_list + [-41, 99, 200, 300, 1000, 2**70, -(2**70), "x", None]
        queries += [np.int64(node) for node in ids_list[:5]]
        locator = id_locator(ids)
        for node in queries:
            assert locate_one(locator, node) == rows.get(node, -1), node
        expected = [rows.get(node, -1) for node in queries]
        assert locate_ids(locator, queries).tolist() == expected
        ints = [node for node in queries if isinstance(node, int) and abs(node) < 2**63]
        array = np.asarray(ints, dtype=np.int64)
        assert locate_ids(locator, array).tolist() == [rows.get(node, -1) for node in ints]

    def test_per_node_queries_of_a_generated_graph(self):
        graph = erdos_renyi(200, 0.05, seed=2)
        assert isinstance(graph.csr()._id_locator(), range)
        reference = SetGraph(graph.nodes(), graph.edges())
        assert_same_graph(graph, reference)
        for node in (-1, 200, 2**70, "x"):
            assert node not in graph
            assert not graph.has_edge(0, node)


class TestFromEdgesOracle:
    """``Graph`` — from an edge list or node by node — equals the
    adjacency-set reference (``scalar_oracle.SetGraph``)."""

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
        assert_same_graph(Graph.from_edges(edges, nodes=nodes), SetGraph(nodes, edges))
        assert_same_graph(Graph(nodes=nodes, edges=edges), SetGraph(nodes, edges))

    #: Ids (and colors) that are not int64 integers: beyond int64,
    #: non-integral, strings — mixed with small integers.
    ODD = [2**70 + k for k in range(8)] + [k + 0.5 for k in range(8)] + [
        f"v{k}" for k in range(8)
    ] + list(range(8))

    def test_random_instances(self):
        rng = random.Random(3)
        for trial in range(100):
            if trial % 2:
                ids = rng.sample(range(-50, 10**6), rng.randint(2, 30))
            else:
                ids = rng.sample(self.ODD, rng.randint(2, 30))
            nodes = rng.sample(ids, rng.randint(0, len(ids)))
            edges = [tuple(rng.sample(ids, 2)) for _ in range(rng.randint(0, 60))]
            assert_same_graph(Graph.from_edges(edges, nodes), SetGraph(nodes, edges))
            self._check_mutation_after_queries(rng, ids, nodes, edges)
            self._check_palettes(rng, ids)

    @staticmethod
    def _check_mutation_after_queries(rng, ids, nodes, edges):
        """Nodes and edges added after a query, interleaved with more
        queries: re-added nodes, parallel and reversed edges."""
        graph, reference = Graph(nodes, edges), SetGraph(nodes, edges)
        graph.csr()
        for u, v in [tuple(rng.sample(ids, 2)) for _ in range(rng.randint(1, 8))]:
            for a, b in [(u, v)] * rng.randint(1, 2) + [(v, u)] * rng.randint(0, 1):
                graph.add_edge(a, b)
                reference.add_edge(a, b)
            node = rng.choice(ids + [("new", u)])
            graph.add_node(node)
            reference.add_node(node)
            if rng.random() < 0.5:
                assert graph.has_edge(v, u) and graph.degree(u) == len(reference.adj[u])
        assert_same_graph(graph, reference)
        assert graph.connected_components() == reference.connected_components()
        clone = graph.copy()
        clone.add_edge(("clone", 0), ids[0])
        assert_same_graph(graph, reference)

    def _check_palettes(self, rng, ids):
        """Palettes of odd colors answer every public query as sets do."""
        lists = {
            node: rng.sample(self.ODD, rng.randint(0, 6)) + rng.sample(self.ODD[-8:], 1)
            for node in rng.sample(ids, len(ids))
        }
        palettes = PaletteAssignment(lists)
        assert palettes.nodes() == list(lists)
        assert palettes.total_size() == sum(len(set(row)) for row in lists.values())
        assert palettes.color_universe() == set().union(*map(set, lists.values()))
        for node, row in lists.items():
            assert node in palettes
            assert palettes.palette(node) == set(row)
            assert sorted(map(repr, palettes.iter_palette(node))) == sorted(map(repr, set(row)))
            assert palettes.palette_size(node) == len(set(row))
            for color in self.ODD[::3]:
                assert palettes.contains_color(node, color) == (color in row)
        part = rng.sample(list(lists), len(lists) // 2)
        subset = palettes.subset(part)
        assert {node: subset.palette(node) for node in part} == {
            node: set(lists[node]) for node in part
        }

    def test_generator_and_array_input(self):
        import numpy as np

        pairs = [(3, 1), (1, 2), (2, 3)]
        reference = SetGraph(edges=pairs)
        assert_same_graph(Graph.from_edges(pair for pair in pairs), reference)
        assert_same_graph(Graph.from_edges(np.array(pairs, dtype=np.int32)), reference)

    def test_self_loop_message(self):
        with pytest.raises(GraphError, match="self-loop on node 3 is not allowed"):
            Graph.from_edges([(1, 2), (3, 3), (4, 4)])

    def test_string_ids(self):
        edges = [("b", "a"), ("a", "c")]
        assert_same_graph(Graph.from_edges(edges, nodes=["z"]), SetGraph(["z"], edges))

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

    def test_ids_beyond_int64(self):
        edges = [(2**70, 1)]
        assert_same_graph(Graph.from_edges(edges), SetGraph(edges=edges))
