"""Integration tests for ColorReduce (Algorithm 1) — the paper's Theorem 1.1/1.2."""

from __future__ import annotations

import random

import pytest

from repro.congested_clique import CongestedCliqueSimulator
from repro.core import (
    ColorReduce,
    ColorReduceParameters,
    CongestedCliqueContext,
    LinearSpaceMPCContext,
)
from repro.core.driver import RunState
from repro.core.local_coloring import greedy_list_coloring, instance_words
from repro.core.recursion import summarize_recursion
from repro.errors import ColoringError, PaletteError
from repro.graph import Graph, PaletteAssignment, generators
from repro.graph.validation import (
    assert_valid_list_coloring,
    count_colors_used,
    is_valid_list_coloring,
)
from repro.mpc import MPCSimulator, linear_space_regime


class TestLocalColoring:
    def test_greedy_respects_palettes(self, dense_random, dense_palettes):
        coloring = greedy_list_coloring(dense_random, dense_palettes)
        assert_valid_list_coloring(dense_random, dense_palettes, coloring)

    def test_greedy_uses_at_most_delta_plus_one_colors(self, petersen):
        palettes = PaletteAssignment.delta_plus_one(petersen)
        coloring = greedy_list_coloring(petersen, palettes)
        assert count_colors_used(coloring) <= petersen.max_degree() + 1

    def test_greedy_avoids_external_colors(self, triangle):
        palettes = PaletteAssignment.from_lists({0: [0, 1], 1: [0, 1], 2: [0, 1, 2]})
        external = {99: 0}
        graph = Graph(edges=[(0, 1), (1, 2), (0, 2), (0, 99)])
        sub = graph.induced_subgraph([0, 1, 2])
        coloring = greedy_list_coloring(sub, palettes, already_colored=external)
        # Node 0 is adjacent to 99 (colored 0) in the parent graph, but the
        # subgraph does not contain 99, so only palette/edge constraints of
        # the subgraph apply here.
        assert is_valid_list_coloring(sub, palettes, coloring)

    def test_greedy_raises_when_palette_exhausted(self):
        graph = Graph(edges=[(0, 1)])
        palettes = PaletteAssignment.from_lists({0: [5], 1: [5]})
        with pytest.raises(ColoringError):
            greedy_list_coloring(graph, palettes)

    def test_instance_words(self, triangle):
        palettes = PaletteAssignment.delta_plus_one(triangle)
        assert instance_words(triangle) == triangle.size()
        assert instance_words(triangle, palettes) == triangle.size() + 9


class TestColorReduceCorrectness:
    def test_plain_delta_plus_one(self, dense_random):
        result = ColorReduce().run(dense_random)
        palettes = PaletteAssignment.delta_plus_one(dense_random)
        assert_valid_list_coloring(dense_random, palettes, result.coloring)
        assert count_colors_used(result.coloring) <= dense_random.max_degree() + 1

    def test_list_coloring_shared_universe(self, dense_random, dense_palettes):
        result = ColorReduce().run(dense_random, dense_palettes)
        assert_valid_list_coloring(dense_random, dense_palettes, result.coloring)

    def test_list_coloring_adversarial_palettes(self):
        graph = generators.erdos_renyi(80, 0.25, seed=3)
        palettes = generators.adversarial_disjoint_palettes(graph, seed=4)
        result = ColorReduce().run(graph, palettes)
        assert_valid_list_coloring(graph, palettes, result.coloring)

    def test_sparse_graph_base_case(self, sparse_random):
        result = ColorReduce().run(sparse_random)
        summary = summarize_recursion(result.recursion_root)
        # A sparse graph has size O(n) immediately: one local coloring.
        assert summary.partitions == 0
        assert summary.base_cases == 1
        palettes = PaletteAssignment.delta_plus_one(sparse_random)
        assert_valid_list_coloring(sparse_random, palettes, result.coloring)

    def test_structured_graphs(self):
        for graph in (
            generators.ring_of_cliques(6, 12),
            generators.complete_multipartite([15, 15, 15]),
            generators.power_law(150, attachment=6, seed=2),
            generators.star(60),
            generators.ring(50),
        ):
            palettes = PaletteAssignment.delta_plus_one(graph)
            result = ColorReduce().run(graph, palettes)
            assert_valid_list_coloring(graph, palettes, result.coloring)

    def test_degenerate_graphs(self):
        empty = Graph()
        assert ColorReduce().run(empty).coloring == {}
        single = Graph(nodes=[0])
        assert ColorReduce().run(single).coloring.keys() == {0}
        edgeless = Graph.empty(10)
        result = ColorReduce().run(edgeless)
        assert len(result.coloring) == 10

    def test_complete_graph_uses_all_colors(self):
        graph = Graph.complete(40)
        result = ColorReduce().run(graph)
        assert count_colors_used(result.coloring) == 40

    def test_invalid_palettes_rejected(self, triangle):
        palettes = PaletteAssignment.from_lists({0: [0], 1: [0, 1, 2], 2: [0, 1, 2]})
        with pytest.raises(PaletteError):
            ColorReduce().run(triangle, palettes)

    def test_deg_plus_one_palettes_rejected(self):
        """Algorithm 1 solves (Δ+1)-list coloring, not (deg+1)-list coloring."""
        star = generators.star(20)
        palettes = PaletteAssignment.degree_plus_one(star)
        with pytest.raises(PaletteError, match="LowSpaceColorReduce"):
            ColorReduce().run(star, palettes)

    def test_deterministic_output(self, dense_random, dense_palettes):
        a = ColorReduce().run(dense_random, dense_palettes)
        b = ColorReduce().run(dense_random, dense_palettes)
        assert a.coloring == b.coloring
        assert a.rounds == b.rounds

    def test_scaled_mode_correctness(self, dense_random, dense_palettes):
        params = ColorReduceParameters.scaled(num_bins=4)
        result = ColorReduce(params=params).run(dense_random, dense_palettes)
        assert_valid_list_coloring(dense_random, dense_palettes, result.coloring)
        summary = summarize_recursion(result.recursion_root)
        assert summary.partitions >= 1

    def test_scaled_mode_more_bins(self):
        graph = generators.erdos_renyi(200, 0.35, seed=13)
        palettes = generators.shared_universe_palettes(graph, seed=14)
        params = ColorReduceParameters.scaled(num_bins=6)
        result = ColorReduce(params=params).run(graph, palettes)
        assert_valid_list_coloring(graph, palettes, result.coloring)


class TestColorReduceStructure:
    def test_recursion_depth_within_lemma_bound(self, dense_random):
        result = ColorReduce().run(dense_random)
        # Lemma 3.14: depth at most 9 with paper exponents.
        assert result.max_recursion_depth <= 9

    def test_invariant_violations_zero_in_paper_mode(self, dense_random):
        result = ColorReduce().run(dense_random)
        # Scaled/clamped levels are excluded from the literal check, and the
        # correctness condition d' < p' must never be violated.
        assert result.total_invariant_violations == 0

    def test_bad_graph_within_corollary_bound(self, dense_random):
        result = ColorReduce().run(dense_random)
        summary = summarize_recursion(result.recursion_root)
        # Corollary 3.10: the bad graph of any call has size O(n).
        assert summary.max_bad_graph_size <= 4 * dense_random.num_nodes

    def test_rounds_positive_and_bounded(self, dense_random):
        result = ColorReduce().run(dense_random)
        assert 0 < result.rounds < 2**10  # constant w.r.t. n (2^depth * const)

    def test_ledger_phases_present(self, dense_random):
        result = ColorReduce().run(dense_random)
        labels = dict(result.ledger.phases())
        assert "hash-selection" in labels or "local-color" in labels

    def test_base_case_counts(self, dense_random):
        result = ColorReduce().run(dense_random)
        summary = summarize_recursion(result.recursion_root)
        assert summary.base_cases >= 1
        assert summary.total_calls == summary.base_cases + summary.partitions


class TestColorReduceContexts:
    def test_congested_clique_context_budgets_respected(self, dense_random):
        simulator = CongestedCliqueSimulator(dense_random.num_nodes)
        context = CongestedCliqueContext(simulator)
        result = ColorReduce(context=context).run(dense_random)
        assert result.model == "congested-clique"
        assert simulator.rounds > 0

    def test_linear_space_mpc_context_budgets_respected(self, dense_random, dense_palettes):
        regime = linear_space_regime(
            num_nodes=dense_random.num_nodes, max_degree=dense_random.max_degree()
        )
        simulator = MPCSimulator(regime)
        context = LinearSpaceMPCContext(simulator)
        result = ColorReduce(context=context).run(dense_random, dense_palettes)
        assert result.model == "linear-space-mpc"
        report = simulator.space_report()
        assert report["peak_local_words"] <= report["local_budget_words"]
        assert report["peak_total_words"] <= report["total_budget_words"]

    def test_implicit_palettes_reduce_message_volume(self, dense_random):
        explicit = ColorReduce().run(
            dense_random, PaletteAssignment.delta_plus_one(dense_random)
        )
        implicit = ColorReduce().run(dense_random)  # palettes omitted => implicit
        assert implicit.ledger.message_words <= explicit.ledger.message_words

    def test_same_rounds_across_models(self, dense_random):
        """The algorithm is model-agnostic: its own parallel-aware round count
        does not depend on which simulator is attached."""
        clique = ColorReduce(
            context=CongestedCliqueContext(CongestedCliqueSimulator(dense_random.num_nodes))
        ).run(dense_random)
        mpc = ColorReduce(
            context=LinearSpaceMPCContext(
                MPCSimulator(
                    linear_space_regime(
                        num_nodes=dense_random.num_nodes,
                        max_degree=dense_random.max_degree(),
                    )
                )
            )
        ).run(dense_random)
        assert clique.coloring == mpc.coloring


class TestNonIntegralColors:
    """Non-integral colors are never truncated: a run colors from the
    caller's palettes or raises, on both pipelines."""

    @pytest.mark.parametrize("pipeline", [0, 1], ids=["color-reduce", "low-space"])
    def test_path_colors_from_the_given_palettes(self, pipeline):
        from repro.core.low_space.color_reduce import LowSpaceColorReduce

        graph = Graph.from_edges([(0, 1), (1, 2)])
        lists = {node: [0.5, 1.5, 2.5] for node in graph.nodes()}
        solver = (ColorReduce(), LowSpaceColorReduce())[pipeline]
        result = solver.run(graph, PaletteAssignment.from_lists(lists))
        assert set(result.coloring.values()) <= {0.5, 1.5, 2.5}
        assert_valid_list_coloring(graph, PaletteAssignment(lists), result.coloring)

    @pytest.mark.parametrize("pipeline", [0, 1], ids=["color-reduce", "low-space"])
    def test_partitioning_instance_is_rejected(self, pipeline):
        graph = generators.gnm_random(300, 1500, seed=1)
        lists = {
            node: [color + 0.5 for color in range(graph.max_degree() + 1)]
            for node in graph.nodes()
        }
        from repro.core.low_space.color_reduce import LowSpaceColorReduce
        from repro.core.low_space.params import LowSpaceParameters

        solver = (
            ColorReduce(ColorReduceParameters.scaled(num_bins=3)),
            LowSpaceColorReduce(
                LowSpaceParameters.scaled(num_bins=3, low_degree_threshold=3, machine_chunk=4)
            ),
        )[pipeline]
        with pytest.raises(PaletteError, match="not an integer"):
            solver.run(graph, PaletteAssignment.from_lists(lists))


    def test_color_of_a_node_outside_the_graph_is_ignored(self):
        # The run drops palettes of nodes outside the graph, so an outside
        # node's non-integral color neither blocks partitioning nor moves
        # the outcome or the instance fingerprint.
        from repro.runtime.checkpoint import fingerprint_instance

        graph = generators.gnm_random(300, 1500, seed=1)
        lists = {node: list(range(graph.max_degree() + 1)) for node in graph.nodes()}
        outside = {**lists, 10_000: [0.5]}
        params = ColorReduceParameters.scaled(num_bins=3)
        plain = ColorReduce(params).run(graph, PaletteAssignment.from_lists(lists))
        mixed = ColorReduce(params).run(graph, PaletteAssignment.from_lists(outside))
        assert plain.max_recursion_depth >= 1
        assert mixed.coloring == plain.coloring
        assert (mixed.rounds, mixed.max_recursion_depth) == (
            plain.rounds,
            plain.max_recursion_depth,
        )
        assert fingerprint_instance(graph, PaletteAssignment.from_lists(outside)) == (
            fingerprint_instance(graph, PaletteAssignment.from_lists(lists))
        )


class TestCollectWords:
    """Section 3.6's shipped words: ``|G|`` plus ``min(p(v), d(v) + 1)``."""

    @staticmethod
    def _per_node(graph, palettes):
        return graph.size() + sum(
            min(palettes.palette_size(v), graph.degree(v) + 1) for v in graph.nodes()
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_array_path_equals_per_node_sum(self, seed):
        rng = random.Random(seed)
        graph = generators.gnm_random(60, 200, seed=seed)
        order = graph.nodes()
        rng.shuffle(order)  # a store order that is not the graph order
        # Palettes both smaller and larger than deg + 1.
        lists = {
            node: rng.sample(range(300), rng.randrange(2 * graph.degree(node) + 3))
            for node in order
        }
        palettes = PaletteAssignment.from_lists(lists)
        assert palettes.store().nodes != graph.nodes()
        state = RunState(model=None, global_nodes=graph.num_nodes)
        words = ColorReduce()._collect_words(graph, palettes, state)
        assert words == self._per_node(graph, palettes)
        # The mapping constructor holds the same store.
        assert words == ColorReduce()._collect_words(graph, PaletteAssignment(lists), state)

    def test_counting_words_on_a_graph_built_node_by_node(self):
        source = generators.gnm_random(30, 70, seed=2)
        graph = Graph()
        for node in source.nodes():
            graph.add_node(node)
        for u, v in source.edges():
            graph.add_edge(u, v)
        rng = random.Random(2)
        palettes = PaletteAssignment.from_lists(
            {node: rng.sample(range(100), rng.randrange(1, 20)) for node in graph.nodes()}
        )
        state = RunState(model=None, global_nodes=graph.num_nodes)
        words = ColorReduce()._collect_words(graph, palettes, state)
        assert words == self._per_node(graph, palettes)

    def test_color_table_instance_is_charged_the_same_words(self):
        graph = generators.gnm_random(12, 20, seed=3)
        delta = graph.max_degree()
        rng = random.Random(3)
        ints = {
            node: rng.sample(range(4 * delta), delta + 1 + rng.randrange(3))
            for node in graph.nodes()
        }
        halves = {node: [color + 0.5 for color in colors] for node, colors in ints.items()}
        sets_only = PaletteAssignment.from_lists(halves)
        assert sets_only.store().table is not None
        result = ColorReduce().run(graph, sets_only)
        assert_valid_list_coloring(graph, PaletteAssignment(halves), result.coloring)
        reference = ColorReduce().run(graph, PaletteAssignment.from_lists(ints))
        assert result.ledger.snapshot() == reference.ledger.snapshot()
