"""Integration tests for the low-space MPC algorithm (Theorem 1.4)."""

from __future__ import annotations

import pytest

import repro.core.low_space.color_reduce as low_space_pipeline
from repro.core.low_space import (
    LowSpaceColorReduce,
    LowSpaceParameters,
    LowSpacePartition,
)
from repro.core.low_space.machine_sets import node_level_outcome
from repro.core.low_space.mis_reduction import coloring_from_mis
from repro.graph import Graph, PaletteAssignment, generators
from repro.graph.validation import assert_valid_list_coloring
from repro.hashing.family import KWiseIndependentFamily
from repro.mis import deterministic_mis
from repro.mpc import MPCSimulator, low_space_regime


@pytest.fixture
def medium_graph():
    return generators.erdos_renyi(180, 0.12, seed=17)


class TestMachineSets:
    def test_node_level_outcome_consistency(self, medium_graph):
        params = LowSpaceParameters.scaled(num_bins=3, low_degree_threshold=6)
        palettes = PaletteAssignment.degree_plus_one(medium_graph)
        high = {
            node
            for node in medium_graph.nodes()
            if medium_graph.degree(node) > 6
        }
        family1 = KWiseIndependentFamily(medium_graph.num_nodes, 3, 4)
        family2 = KWiseIndependentFamily(medium_graph.num_nodes**2, 2, 4)
        outcome = node_level_outcome(
            medium_graph, palettes, high, family1.from_seed_int(5), family2.from_seed_int(7),
            params, 3,
        )
        assert set(outcome.bin_of_node) == high
        for node in high:
            assert outcome.in_bin_degree[node] <= medium_graph.degree(node)


class TestLowSpacePartition:
    def test_partition_covers_all_nodes(self, medium_graph):
        params = LowSpaceParameters.scaled(num_bins=3, low_degree_threshold=6)
        palettes = PaletteAssignment.degree_plus_one(medium_graph)
        result = LowSpacePartition(params).run(
            medium_graph, palettes, global_nodes=medium_graph.num_nodes
        )
        seen = set(result.low_degree_graph.nodes())
        for bin_instance in result.color_bins:
            seen.update(bin_instance.graph.nodes())
        seen.update(result.leftover.graph.nodes())
        assert seen == set(medium_graph.nodes())

    def test_low_degree_nodes_go_to_g0(self, medium_graph):
        params = LowSpaceParameters.scaled(num_bins=3, low_degree_threshold=6)
        palettes = PaletteAssignment.degree_plus_one(medium_graph)
        result = LowSpacePartition(params).run(
            medium_graph, palettes, global_nodes=medium_graph.num_nodes
        )
        for node in medium_graph.nodes():
            if medium_graph.degree(node) <= 6:
                assert node in result.low_degree_graph

    def test_color_bin_palettes_disjoint(self, medium_graph):
        params = LowSpaceParameters.scaled(num_bins=4, low_degree_threshold=6)
        palettes = PaletteAssignment.degree_plus_one(medium_graph)
        result = LowSpacePartition(params).run(
            medium_graph, palettes, global_nodes=medium_graph.num_nodes
        )
        universes = [b.palettes.color_universe() for b in result.color_bins if not b.is_empty]
        for i in range(len(universes)):
            for j in range(i + 1, len(universes)):
                assert not universes[i].intersection(universes[j])

    def test_all_low_degree_instance_short_circuits(self):
        graph = generators.ring(30)
        params = LowSpaceParameters.scaled(num_bins=3, low_degree_threshold=5)
        palettes = PaletteAssignment.degree_plus_one(graph)
        result = LowSpacePartition(params).run(graph, palettes, global_nodes=30)
        assert result.low_degree_graph.num_nodes == 30
        assert not result.color_bins
        assert result.selection.evaluations == 0

    def test_deterministic(self, medium_graph):
        params = LowSpaceParameters.scaled(num_bins=3, low_degree_threshold=6)
        palettes = PaletteAssignment.degree_plus_one(medium_graph)
        a = LowSpacePartition(params).run(medium_graph, palettes, medium_graph.num_nodes)
        b = LowSpacePartition(params).run(medium_graph, palettes, medium_graph.num_nodes)
        assert a.h1.seed == b.h1.seed
        assert sorted(a.low_degree_graph.nodes()) == sorted(b.low_degree_graph.nodes())


class TestLowSpaceColorReduce:
    def test_deg_plus_one_coloring_scaled(self, medium_graph):
        params = LowSpaceParameters.scaled(num_bins=3, low_degree_threshold=8)
        palettes = PaletteAssignment.degree_plus_one(medium_graph)
        result = LowSpaceColorReduce(params=params).run(medium_graph, palettes)
        assert_valid_list_coloring(medium_graph, palettes, result.coloring)
        assert result.rounds > 0
        assert result.total_mis_phases >= 1
        assert result.selection_misses == 0

    def test_deg_plus_one_coloring_paper_params(self, medium_graph):
        result = LowSpaceColorReduce().run(medium_graph)
        palettes = PaletteAssignment.degree_plus_one(medium_graph)
        assert_valid_list_coloring(medium_graph, palettes, result.coloring)

    def test_default_palettes_are_degree_plus_one(self, medium_graph):
        result = LowSpaceColorReduce().run(medium_graph)
        assert len(result.coloring) == medium_graph.num_nodes

    def test_list_coloring_palettes(self, medium_graph):
        palettes = generators.shared_universe_palettes(medium_graph, seed=5)
        params = LowSpaceParameters.scaled(num_bins=3, low_degree_threshold=8)
        result = LowSpaceColorReduce(params=params).run(medium_graph, palettes)
        assert_valid_list_coloring(medium_graph, palettes, result.coloring)

    def test_space_budgets_respected(self, medium_graph):
        simulator = MPCSimulator(
            low_space_regime(medium_graph.num_nodes, medium_graph.num_edges, epsilon=0.6)
        )
        params = LowSpaceParameters.scaled(num_bins=3, low_degree_threshold=8, epsilon=0.6)
        result = LowSpaceColorReduce(params=params, simulator=simulator).run(medium_graph)
        report = simulator.space_report()
        assert report["peak_total_words"] <= report["total_budget_words"]
        assert result.simulator is simulator

    def test_mis_endgame_builds_no_graph_and_paints_the_mis(self, medium_graph, monkeypatch):
        endgames, built = [], []
        real_init, real_endgame = Graph.__init__, low_space_pipeline.color_via_mis

        def counting_init(graph, *args, **kwargs):
            built.append(bool(endgames) and endgames[-1] is None)
            real_init(graph, *args, **kwargs)

        def spy(graph, palettes):
            endgames.append(None)
            reduction, chosen, phases = real_endgame(graph, palettes)
            endgames[-1] = reduction
            return reduction, chosen, phases

        monkeypatch.setattr(Graph, "__init__", counting_init)
        monkeypatch.setattr(low_space_pipeline, "color_via_mis", spy)
        params = LowSpaceParameters.scaled(num_bins=3, low_degree_threshold=8)
        result = LowSpaceColorReduce(params=params).run(medium_graph)
        monkeypatch.undo()
        assert len(endgames) >= 2
        assert not any(built), "color_via_mis built a Graph"
        # Root positions are the sorted ids; every MIS-colored node carries
        # the color the Graph-based MIS reads off the same reduction.
        ids = sorted(medium_graph.nodes())
        painted = 0
        for reduction in endgames:
            mis = deterministic_mis(reduction.to_graph()).independent_set
            for position, color in coloring_from_mis(reduction, mis).items():
                assert result.coloring[ids[position]] == color
                painted += 1
        assert painted == sum(reduction.node_ids.shape[0] for reduction in endgames)

    def test_selection_dead_end_takes_the_best_pair(self, monkeypatch):
        # Paper mode targets zero violators (Lemmas 4.4/4.5 hold w.h.p. as
        # n grows); here no candidate meets it, so the partition takes the
        # best pair seen and its violators join the MIS path.
        graph = generators.power_law(5000, 4, seed=0)
        palettes = generators.degree_plus_one_palettes(graph, seed=1_000_003)
        partitions = []
        real_run = LowSpacePartition.run

        def spy(self, *args, **kwargs):
            partitions.append(real_run(self, *args, **kwargs))
            return partitions[-1]

        monkeypatch.setattr(LowSpacePartition, "run", spy)
        params = LowSpaceParameters()
        result = LowSpaceColorReduce(params=params).run(graph, palettes)
        assert_valid_list_coloring(graph, palettes, result.coloring)
        missed = [part for part in partitions if part.selection.fallback_used]
        assert len(missed) == result.selection_misses == 1
        selection = missed[0].selection
        assert selection.evaluations == params.selection_max_candidates
        assert selection.cost == missed[0].num_violating_nodes > 0
        assert result.recursion_root.violating_nodes == missed[0].num_violating_nodes

    def test_low_degree_graph_colored_entirely_by_mis(self):
        graph = generators.ring(40)
        result = LowSpaceColorReduce().run(graph)
        assert result.recursion_root.mis_phases >= 1
        assert result.max_recursion_depth == 0

    def test_deterministic(self, medium_graph):
        params = LowSpaceParameters.scaled(num_bins=3, low_degree_threshold=8)
        a = LowSpaceColorReduce(params=params).run(medium_graph)
        b = LowSpaceColorReduce(params=params).run(medium_graph)
        assert a.coloring == b.coloring
        assert a.rounds == b.rounds

    def test_empty_graph(self):
        result = LowSpaceColorReduce().run(Graph())
        assert result.coloring == {}

    def test_rounds_grow_with_degree(self):
        """The measured rounds follow the O(log Δ + log log n) shape: higher
        degree means more partition levels before the MIS threshold."""
        small = generators.random_regular_like(150, 6, seed=3)
        large = generators.random_regular_like(150, 40, seed=3)
        r_small = LowSpaceColorReduce().run(small)
        r_large = LowSpaceColorReduce().run(large)
        assert r_large.max_recursion_depth >= r_small.max_recursion_depth
