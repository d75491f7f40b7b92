"""Tests for the MIS algorithms and the list-coloring -> MIS reduction."""

from __future__ import annotations

import mis_oracle
import numpy as np
import pytest

from repro.core.low_space.mis_reduction import (
    build_reduction_graph,
    chosen_colors,
    color_via_mis,
    coloring_from_mis,
)
from repro.errors import ColoringError
from repro.graph import Graph, PaletteAssignment, generators
from repro.graph.validation import assert_valid_list_coloring
from repro.hashing.family import KWiseIndependentFamily
from repro.mis import (
    assert_maximal_independent_set,
    deterministic_mis,
    greedy_mis,
    is_independent_set,
    luby_mis,
)
from repro.mis.deterministic import _MAX_SEEDS_PER_PHASE
from repro.mis.validation import is_maximal_independent_set


@pytest.fixture
def random_graph():
    return generators.erdos_renyi(120, 0.08, seed=21)


class TestGreedyMIS:
    def test_is_maximal_independent(self, random_graph):
        mis = greedy_mis(random_graph)
        assert_maximal_independent_set(random_graph, mis)

    def test_respects_order(self, path_graph):
        assert greedy_mis(path_graph, order=[0, 1, 2, 3, 4]) == {0, 2, 4}
        assert greedy_mis(path_graph, order=[1, 3, 0, 2, 4]) == {1, 3}

    def test_empty_and_edgeless(self):
        assert greedy_mis(Graph()) == set()
        assert greedy_mis(Graph.empty(5)) == {0, 1, 2, 3, 4}

    def test_complete_graph_single_node(self):
        assert len(greedy_mis(Graph.complete(10))) == 1


class TestLubyMIS:
    def test_is_maximal_independent(self, random_graph):
        result = luby_mis(random_graph, seed=5)
        assert_maximal_independent_set(random_graph, result.independent_set)
        assert result.phases >= 1

    def test_deterministic_given_seed(self, random_graph):
        a = luby_mis(random_graph, seed=5)
        b = luby_mis(random_graph, seed=5)
        assert a.independent_set == b.independent_set

    def test_phase_count_logarithmic(self, random_graph):
        result = luby_mis(random_graph, seed=5)
        assert result.phases <= 4 * random_graph.num_nodes.bit_length() + 8

    def test_edgeless_graph(self):
        result = luby_mis(Graph.empty(6), seed=1)
        assert result.independent_set == {0, 1, 2, 3, 4, 5}


class TestDeterministicMIS:
    def test_is_maximal_independent(self, random_graph):
        result = deterministic_mis(random_graph)
        assert_maximal_independent_set(random_graph, result.independent_set)

    def test_reproducible(self, random_graph):
        a = deterministic_mis(random_graph)
        b = deterministic_mis(random_graph)
        assert a.independent_set == b.independent_set
        assert a.phases == b.phases

    def test_structured_graphs(self):
        for graph in (Graph.complete(12), generators.ring(17), generators.star(20)):
            result = deterministic_mis(graph)
            assert_maximal_independent_set(graph, result.independent_set)

    def test_all_negative_ids(self):
        # The hash domain is clamped to 1 when every id is negative.
        graph = Graph.from_edges([(-3, -2), (-2, -1)])
        result = deterministic_mis(graph)
        assert result.independent_set == luby_mis(graph, seed=0).independent_set == {-3, -1}
        assert_maximal_independent_set(graph, result.independent_set)

    def test_acceptance_boundary_is_inclusive(self):
        # A path laid out in phase-1 priority order has a single local
        # minimum, at its end: the first seed removes 2 of the 16 edges,
        # exactly the required 1/8, and must be accepted.
        family = KWiseIndependentFamily(domain_size=17, range_size=17, independence=4)
        first_seed = family.from_seed_int(_MAX_SEEDS_PER_PHASE)
        order = sorted(range(17), key=lambda node: (first_seed.field_value(node), node))
        graph = Graph(nodes=order, edges=list(zip(order, order[1:])))
        result = deterministic_mis(graph)
        expected = mis_oracle.deterministic_mis(graph)
        assert result.independent_set == expected.independent_set
        assert result.phases == expected.phases == 2

    def test_stragglers_fold_in_ascending_id_order(self):
        # With no phase every node is a straggler; the fold visits the ids
        # in ascending order (the path's center 0 first), not in node order.
        graph = Graph(nodes=[1, 0, 2], edges=[(1, 0), (0, 2)])
        result = deterministic_mis(graph, max_phases=0)
        expected = mis_oracle.deterministic_mis(graph, max_phases=0)
        assert result.independent_set == expected.independent_set == {0}
        assert result.phases == expected.phases == 0

    def test_phase_count_reasonable(self, random_graph):
        result = deterministic_mis(random_graph)
        assert result.phases <= 8 * random_graph.num_nodes.bit_length() + 8


class TestValidationHelpers:
    def test_is_independent_set(self, triangle):
        assert is_independent_set(triangle, {0})
        assert not is_independent_set(triangle, {0, 1})

    def test_is_maximal(self, path_graph):
        assert is_maximal_independent_set(path_graph, {0, 2, 4})
        assert not is_maximal_independent_set(path_graph, {0, 4})
        assert not is_maximal_independent_set(path_graph, {0, 1})


class TestMISReduction:
    def test_reduction_graph_structure(self, triangle):
        palettes = PaletteAssignment.delta_plus_one(triangle)
        reduction = build_reduction_graph(triangle, palettes)
        # Each node contributes a clique on deg+1 = 3 colors.
        assert reduction.num_vertices == 9
        # Conflict edges exist because palettes are shared.
        assert reduction.num_edges > 3 * 3

    def test_reduction_truncates_palettes(self):
        graph = Graph(edges=[(0, 1)])
        palettes = PaletteAssignment.from_lists({0: range(100), 1: range(100)})
        reduction = build_reduction_graph(graph, palettes, truncate=True)
        assert reduction.num_vertices == 4  # deg+1 = 2 colors per node

    def test_reduction_empty_palette_raises(self):
        graph = Graph(nodes=[0])
        palettes = PaletteAssignment.from_lists({0: []})
        with pytest.raises(ColoringError):
            build_reduction_graph(graph, palettes)

    def test_mis_of_reduction_gives_valid_coloring(self, random_graph):
        palettes = PaletteAssignment.degree_plus_one(random_graph)
        reduction = build_reduction_graph(random_graph, palettes)
        mis_result = luby_mis(reduction.to_graph(), seed=3)
        coloring = coloring_from_mis(reduction, mis_result.independent_set)
        assert_valid_list_coloring(random_graph, palettes, coloring)
        assert reduction.num_vertices > 0
        assert mis_result.phases >= 1

    def test_color_via_mis(self):
        graph = generators.erdos_renyi(60, 0.1, seed=8)
        palettes = PaletteAssignment.degree_plus_one(graph)
        reduction, chosen, phases = color_via_mis(graph, palettes)
        coloring = dict(zip(reduction.node_ids, chosen_colors(reduction, chosen).tolist()))
        assert_valid_list_coloring(graph, palettes, coloring)
        expected = deterministic_mis(reduction.to_graph())
        assert set(np.flatnonzero(chosen).tolist()) == expected.independent_set
        assert phases == expected.phases >= 1

    def test_color_via_mis_empty_graph(self):
        reduction, chosen, phases = color_via_mis(Graph(), PaletteAssignment({}))
        assert reduction.num_vertices == reduction.num_edges == 0
        assert chosen.shape == (0,)
        assert phases == 0

    def test_chosen_colors_needs_one_vertex_per_node(self, triangle):
        palettes = PaletteAssignment.delta_plus_one(triangle)
        reduction = build_reduction_graph(triangle, palettes)
        chosen = np.zeros(reduction.num_vertices, dtype=bool)
        chosen[[0, 4, 8]] = True  # node 0 color 0, node 1 color 1, node 2 color 2
        assert chosen_colors(reduction, chosen).tolist() == [0, 1, 2]
        for broken in ([0, 4], [0, 1, 4, 8]):
            chosen[:] = False
            chosen[broken] = True
            with pytest.raises(ColoringError):
                chosen_colors(reduction, chosen)

    def test_coloring_from_incomplete_set_raises(self, triangle):
        palettes = PaletteAssignment.delta_plus_one(triangle)
        reduction = build_reduction_graph(triangle, palettes)
        with pytest.raises(ColoringError):
            coloring_from_mis(reduction, set())

    def test_coloring_from_non_independent_set_raises(self, triangle):
        palettes = PaletteAssignment.delta_plus_one(triangle)
        reduction = build_reduction_graph(triangle, palettes)
        # Two copies of the same original node.
        vertices = [
            v
            for v, owner in enumerate(reduction.owners.tolist())
            if reduction.node_ids[owner] == 0
        ]
        with pytest.raises(ColoringError, match="node 0 has two chosen colors"):
            coloring_from_mis(reduction, set(vertices[:2]))

    def test_vertex_arrays_map_back_to_sorted_truncated_palettes(self):
        graph = Graph(nodes=[7, 3], edges=[(7, 3)])
        palettes = PaletteAssignment.from_lists({3: [9, 4, 6], 7: [6, 1]})
        reduction = build_reduction_graph(graph, palettes)
        # Vertices follow node order, then ascending color, d(v) + 1 = 2 each.
        assert reduction.node_ids == [7, 3]
        assert reduction.owners.tolist() == [0, 0, 1, 1]
        assert reduction.colors.tolist() == [1, 6, 4, 6]
        assert [reduction.node_color(v) for v in range(4)] == [(7, 1), (7, 6), (3, 4), (3, 6)]
        # Cliques {0, 1} and {2, 3}; color 6 is shared across the edge.
        edges = sorted(zip(reduction.tails.tolist(), reduction.heads.tolist()))
        assert edges == [(0, 1), (1, 3), (2, 3)]
        assert sorted(reduction.to_graph().edges()) == edges
        with pytest.raises(KeyError):
            reduction.node_color(4)
