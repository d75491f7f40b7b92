"""Tests for the baseline coloring algorithms (E4/E7 comparators)."""

from __future__ import annotations

import pytest

from repro.baselines import (
    greedy_baseline,
    iterated_trial_coloring,
    mis_based_coloring,
    randomized_color_reduce,
)
from repro.core import ColorReduce
from repro.core.low_space.mis_reduction import chosen_colors, color_via_mis
from repro.graph import Graph, PaletteAssignment, generators
from repro.graph.validation import assert_valid_list_coloring


@pytest.fixture
def workload():
    graph = generators.erdos_renyi(140, 0.2, seed=31)
    palettes = generators.shared_universe_palettes(graph, seed=32)
    return graph, palettes


class TestGreedyBaseline:
    def test_colors_whole_graph(self, workload):
        graph, palettes = workload
        result = greedy_baseline(graph, palettes)
        assert_valid_list_coloring(graph, palettes, result.coloring)
        assert result.colors_used <= graph.max_degree() + 1

    def test_default_palettes(self, petersen):
        result = greedy_baseline(petersen)
        assert result.colors_used <= 4


class TestIteratedTrialColoring:
    def test_produces_valid_coloring(self, workload):
        graph, palettes = workload
        result = iterated_trial_coloring(graph, palettes)
        assert_valid_list_coloring(graph, palettes, result.coloring)

    def test_plain_delta_plus_one(self, petersen):
        result = iterated_trial_coloring(petersen)
        palettes = PaletteAssignment.delta_plus_one(petersen)
        assert_valid_list_coloring(petersen, palettes, result.coloring)

    def test_rounds_track_phases(self, workload):
        graph, palettes = workload
        result = iterated_trial_coloring(graph, palettes)
        assert result.rounds == 3 * result.phases
        assert result.phases >= 1

    def test_deterministic(self, workload):
        graph, palettes = workload
        a = iterated_trial_coloring(graph, palettes)
        b = iterated_trial_coloring(graph, palettes)
        assert a.coloring == b.coloring
        assert a.phases == b.phases

    def test_more_phases_than_color_reduce_rounds_growth(self):
        """The trial baseline's phase count grows with n while ColorReduce's
        recursion depth stays bounded — the qualitative E4 comparison."""
        small = generators.erdos_renyi(60, 0.3, seed=1)
        large = generators.erdos_renyi(400, 0.3, seed=1)
        small_phases = iterated_trial_coloring(small).phases
        large_phases = iterated_trial_coloring(large).phases
        assert large_phases >= small_phases
        assert ColorReduce().run(large).max_recursion_depth <= 9

    def test_empty_graph(self):
        result = iterated_trial_coloring(Graph())
        assert result.coloring == {}
        assert result.phases == 0


class TestMISColoring:
    def test_produces_valid_coloring(self, workload):
        graph, palettes = workload
        result = mis_based_coloring(graph, palettes, seed=3)
        assert_valid_list_coloring(graph, palettes, result.coloring)
        assert result.mis_phases >= 1
        assert result.rounds == 2 * result.mis_phases

    def test_reduction_size_reported(self, workload):
        graph, palettes = workload
        result = mis_based_coloring(graph, palettes, seed=3)
        assert result.reduction_vertices >= graph.num_nodes
        assert result.reduction_edges > 0

    def test_deterministic_endgame_on_the_same_reduction(self):
        # The deterministic counterpart of this baseline is the low-space
        # endgame, color_via_mis, on the same reduction.
        graph = generators.erdos_renyi(60, 0.15, seed=9)
        palettes = PaletteAssignment.delta_plus_one(graph)
        baseline = mis_based_coloring(graph, palettes)
        reduction, chosen, phases = color_via_mis(graph, palettes)
        coloring = dict(zip(reduction.node_ids, chosen_colors(reduction, chosen).tolist()))
        assert_valid_list_coloring(graph, palettes, coloring)
        assert phases >= 1
        assert reduction.num_vertices == baseline.reduction_vertices
        assert reduction.num_edges == baseline.reduction_edges


class TestRandomizedColorReduce:
    def test_produces_valid_coloring(self, workload):
        graph, palettes = workload
        result = randomized_color_reduce(graph, palettes, seed=1)
        assert_valid_list_coloring(graph, palettes, result.coloring)

    def test_different_seed_may_change_partition(self, workload):
        graph, palettes = workload
        a = randomized_color_reduce(graph, palettes, seed=1)
        b = randomized_color_reduce(graph, palettes, seed=2)
        # Both must be valid; the partitions (and hence bad-node counts)
        # generally differ.
        assert_valid_list_coloring(graph, palettes, a.coloring)
        assert_valid_list_coloring(graph, palettes, b.coloring)

    def test_reproducible_given_seed(self, workload):
        graph, palettes = workload
        a = randomized_color_reduce(graph, palettes, seed=5)
        b = randomized_color_reduce(graph, palettes, seed=5)
        assert a.coloring == b.coloring

    def test_deterministic_never_worse_on_bad_nodes(self, workload):
        """The derandomized selection meets the Lemma 3.9 bound, so its
        per-partition bad-node count is bounded; random seeds have no such
        guarantee.  (They may tie, but must not beat the bound the
        deterministic run is held to.)"""
        graph, palettes = workload
        deterministic = ColorReduce().run(graph, palettes)
        randomized = randomized_color_reduce(graph, palettes, seed=3)
        assert deterministic.total_bad_nodes <= max(randomized.total_bad_nodes, 4)
