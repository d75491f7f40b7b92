"""Scalar/batch equivalence of the post-selection (final) classification.

The *selected* pair's classification, the color-bin palette restriction
and the lazy-view structural queries run on the batch layer.  Exactly like
the selection kernels, these paths are only allowed to exist as
bit-identical substitutions for the scalar references:

* :func:`repro.core.classification.classify_partition_batch` must rebuild
  the reference :class:`PartitionClassification` field by field,
* :func:`repro.core.low_space.machine_sets.node_level_outcome_batch` must
  rebuild the reference :class:`NodeLevelOutcome`,
* :meth:`repro.graph.palettes.PaletteAssignment.restricted_by_bins` must
  produce the same palette sets as the per-bin ``restricted_to`` loop,
* ``greedy_list_coloring`` and the MIS reduction must answer structural
  queries from the lazy CSR child view without materialising adjacency
  sets — and still produce the same colorings.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

np = pytest.importorskip("numpy")

from repro.core.classification import (
    classify_partition,
    classify_partition_batch,
    color_bin_arrays,
    color_bin_map,
)
from repro.core.local_coloring import greedy_list_coloring
from repro.core.low_space.machine_sets import (
    node_level_outcome,
    node_level_outcome_batch,
)
from repro.core.low_space.mis_reduction import build_reduction_graph, color_via_mis
from repro.core.low_space.params import LowSpaceParameters
from repro.core.params import ColorReduceParameters
from repro.core.partition import Partition
from repro.errors import PaletteError
from repro.graph.generators import erdos_renyi, ring_of_cliques
from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment
from repro.hashing.family import KWiseIndependentFamily
from repro.mis.deterministic import deterministic_mis


def _families(graph, palettes, num_bins, independence=4):
    node_domain = max(graph.num_nodes, max(graph.nodes(), default=0) + 1, 2)
    universe = palettes.color_universe()
    color_domain = max(node_domain * node_domain, max(universe, default=0) + 1)
    family1 = KWiseIndependentFamily(
        domain_size=node_domain, range_size=num_bins, independence=independence
    )
    family2 = KWiseIndependentFamily(
        domain_size=color_domain,
        range_size=max(1, num_bins - 1),
        independence=independence,
    )
    return family1, family2


def _assert_same_classification(expected, actual):
    assert actual.num_bins == expected.num_bins
    assert actual.bin_of_node == expected.bin_of_node
    assert actual.bin_sizes == expected.bin_sizes
    assert actual.bad_bins == expected.bad_bins
    assert actual.bad_nodes == expected.bad_nodes
    assert actual.nodes == expected.nodes  # dataclass equality, field by field


# ----------------------------------------------------------------------
# Equation (1) final classification
# ----------------------------------------------------------------------
class TestClassifyPartitionBatch:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize(
        "params",
        [
            ColorReduceParameters.scaled(num_bins=4),
            ColorReduceParameters.scaled(num_bins=3, degree_slack=2.0),
            ColorReduceParameters.scaled(num_bins=4, enforce_palette_surplus=False),
            ColorReduceParameters(),  # paper mode (clamped bins on small l)
        ],
    )
    def test_matches_scalar_reference(self, seed, params):
        graph = erdos_renyi(140, 0.08, seed=seed)
        palettes = PaletteAssignment.delta_plus_one(graph)
        ell = max(float(graph.max_degree()), 2.0)
        num_bins = params.num_bins(ell)
        family1, family2 = _families(graph, palettes, num_bins)
        for trial in range(3):
            h1 = family1.from_seed_int(97 * seed + trial)
            h2 = family2.from_seed_int(131 * seed + 7 * trial)
            expected = classify_partition(
                graph, palettes, h1, h2, params, ell, graph.num_nodes
            )
            actual = classify_partition_batch(
                graph, palettes, h1, h2, params, ell, graph.num_nodes
            )
            _assert_same_classification(expected, actual)

    def test_non_contiguous_ids_and_list_palettes(self):
        base = ring_of_cliques(6, 7)
        graph = Graph(
            nodes=(17 * n + 3 for n in base.nodes()),
            edges=((17 * u + 3, 17 * v + 3) for u, v in base.edges()),
        )
        delta = graph.max_degree()
        palettes = PaletteAssignment.from_lists(
            {
                node: range(5 * node, 5 * node + delta + 2)
                for node in graph.nodes()
            }
        )
        params = ColorReduceParameters.scaled(num_bins=3)
        ell = float(delta)
        family1, family2 = _families(graph, palettes, params.num_bins(ell))
        h1 = family1.from_seed_int(41)
        h2 = family2.from_seed_int(23)
        expected = classify_partition(
            graph, palettes, h1, h2, params, ell, graph.num_nodes
        )
        actual = classify_partition_batch(
            graph, palettes, h1, h2, params, ell, graph.num_nodes
        )
        _assert_same_classification(expected, actual)

    def test_shared_color_arrays_match_private_computation(self):
        graph = erdos_renyi(80, 0.1, seed=5)
        palettes = PaletteAssignment.delta_plus_one(graph)
        params = ColorReduceParameters.scaled(num_bins=4)
        ell = max(float(graph.max_degree()), 2.0)
        num_color_bins = max(1, params.num_bins(ell) - 1)
        family1, family2 = _families(graph, palettes, params.num_bins(ell))
        h1, h2 = family1.from_seed_int(9), family2.from_seed_int(12)
        shared = color_bin_arrays(palettes, h2, num_color_bins)
        with_shared = classify_partition_batch(
            graph, palettes, h1, h2, params, ell, graph.num_nodes, color_arrays=shared
        )
        without = classify_partition_batch(
            graph, palettes, h1, h2, params, ell, graph.num_nodes
        )
        _assert_same_classification(without, with_shared)

    def test_classify_selected_reuses_evaluator_prep(self):
        """The fused evaluator path (what Partition.run uses) matches both
        the scalar reference and the standalone batched entry points."""
        from repro.core.classification import (
            classify_and_restrict_batch,
            partition_cost_function,
        )

        graph = erdos_renyi(120, 0.1, seed=3)
        palettes = PaletteAssignment.delta_plus_one(graph)
        params = ColorReduceParameters.scaled(num_bins=4)
        ell = max(float(graph.max_degree()), 2.0)
        evaluator = partition_cost_function(graph, palettes, params, ell, graph.num_nodes)
        family1, family2 = _families(graph, palettes, params.num_bins(ell))
        h1, h2 = family1.from_seed_int(31), family2.from_seed_int(57)
        # Warm the prep exactly like a batched selection would.
        evaluator.many([(h1, h2)])
        from_prep, restricted_prep = evaluator.classify_selected(h1, h2)
        standalone, restricted_standalone = classify_and_restrict_batch(
            graph, palettes, h1, h2, params, ell, graph.num_nodes
        )
        scalar = classify_partition(
            graph, palettes, h1, h2, params, ell, graph.num_nodes
        )
        _assert_same_classification(scalar, from_prep)
        _assert_same_classification(scalar, standalone)
        assert len(restricted_prep) == len(restricted_standalone)
        for exp, act in zip(restricted_standalone, restricted_prep):
            assert act.nodes() == exp.nodes()
            for node in exp.nodes():
                assert act.palette(node) == exp.palette(node)
        # Cold evaluator (no selection batch ran): prep is built on demand.
        cold = partition_cost_function(graph, palettes, params, ell, graph.num_nodes)
        from_cold, _ = cold.classify_selected(h1, h2)
        _assert_same_classification(scalar, from_cold)

    def test_fused_restriction_matches_scalar_restricted_to(self):
        from repro.core.classification import classify_and_restrict_batch

        graph = erdos_renyi(100, 0.12, seed=9)
        palettes = PaletteAssignment.delta_plus_one(graph)
        params = ColorReduceParameters.scaled(num_bins=4)
        ell = max(float(graph.max_degree()), 2.0)
        family1, family2 = _families(graph, palettes, params.num_bins(ell))
        h1, h2 = family1.from_seed_int(5), family2.from_seed_int(44)
        classification, restricted = classify_and_restrict_batch(
            graph, palettes, h1, h2, params, ell, graph.num_nodes
        )
        num_color_bins = max(1, classification.num_bins - 1)
        colors_to_bins = color_bin_map(palettes, h2, num_color_bins)
        assert len(restricted) == num_color_bins
        for bin_index in range(num_color_bins):
            members = classification.good_nodes_in_bin(bin_index)
            expected = palettes.restricted_to(
                members,
                keep_color=lambda color, b=bin_index: colors_to_bins[color] == b,
            )
            actual = restricted[bin_index]
            assert actual.nodes() == expected.nodes()
            for node in members:
                assert actual.palette(node) == expected.palette(node)

    def test_empty_and_edgeless_graphs(self):
        params = ColorReduceParameters.scaled(num_bins=3)
        edgeless = Graph.empty(9)
        palettes = PaletteAssignment.delta_plus_one(edgeless)
        family1, family2 = _families(edgeless, palettes, params.num_bins(8.0))
        h1, h2 = family1.from_seed_int(1), family2.from_seed_int(2)
        expected = classify_partition(edgeless, palettes, h1, h2, params, 8.0, 9)
        actual = classify_partition_batch(edgeless, palettes, h1, h2, params, 8.0, 9)
        _assert_same_classification(expected, actual)

        empty = Graph()
        empty_palettes = PaletteAssignment({})
        expected = classify_partition(empty, empty_palettes, h1, h2, params, 8.0, 9)
        actual = classify_partition_batch(empty, empty_palettes, h1, h2, params, 8.0, 9)
        _assert_same_classification(expected, actual)


class TestColorBinArrays:
    def test_matches_color_bin_map(self):
        graph = erdos_renyi(60, 0.15, seed=1)
        palettes = PaletteAssignment.from_lists(
            {node: range(3 * node, 3 * node + graph.degree(node) + 2) for node in graph.nodes()}
        )
        _, family2 = _families(graph, palettes, 4)
        h2 = family2.from_seed_int(77)
        for num_color_bins in (1, 3):
            universe, bins = color_bin_arrays(palettes, h2, num_color_bins)
            assert list(universe) == sorted(palettes.color_universe())
            assert {int(c): int(b) for c, b in zip(universe, bins)} == color_bin_map(
                palettes, h2, num_color_bins
            )

    def test_empty_universe(self):
        universe, bins = color_bin_arrays(
            PaletteAssignment({}),
            KWiseIndependentFamily(domain_size=4, range_size=2, independence=4).from_seed_int(0),
            2,
        )
        assert universe.shape == (0,) and bins.shape == (0,)


# ----------------------------------------------------------------------
# Lemma 4.5 node-level outcome
# ----------------------------------------------------------------------
class TestNodeLevelOutcomeBatch:
    def _assert_same_outcome(self, expected, actual):
        assert actual.bin_of_node == expected.bin_of_node
        assert actual.in_bin_degree == expected.in_bin_degree
        assert actual.in_bin_palette == expected.in_bin_palette
        assert actual.violating_nodes == expected.violating_nodes

    @pytest.mark.parametrize("seed", [0, 4, 9])
    def test_matches_scalar_reference(self, seed):
        graph = erdos_renyi(150, 0.1, seed=seed)
        palettes = PaletteAssignment.degree_plus_one(graph)
        params = LowSpaceParameters.scaled(num_bins=3, low_degree_threshold=6)
        num_bins = params.num_bins(graph.num_nodes)
        threshold = params.low_degree_threshold(graph.num_nodes)
        high = {node for node in graph.nodes() if graph.degree(node) > threshold}
        family1, family2 = _families(graph, palettes, num_bins)
        for trial in range(3):
            h1 = family1.from_seed_int(61 * seed + trial)
            h2 = family2.from_seed_int(43 * seed + 5 * trial)
            expected = node_level_outcome(
                graph, palettes, high, h1, h2, params, num_bins
            )
            actual = node_level_outcome_batch(
                graph, palettes, high, h1, h2, params, num_bins
            )
            self._assert_same_outcome(expected, actual)

    def test_outcome_selected_reuses_evaluator_prep(self):
        """The evaluator path (what LowSpacePartition.run uses) matches the
        scalar reference, warm or cold."""
        from repro.core.low_space.machine_sets import low_space_cost_function

        graph = erdos_renyi(120, 0.12, seed=6)
        palettes = PaletteAssignment.degree_plus_one(graph)
        params = LowSpaceParameters.scaled(num_bins=3, low_degree_threshold=5)
        num_bins = params.num_bins(graph.num_nodes)
        threshold = params.low_degree_threshold(graph.num_nodes)
        high = {node for node in graph.nodes() if graph.degree(node) > threshold}
        family1, family2 = _families(graph, palettes, num_bins)
        h1, h2 = family1.from_seed_int(13), family2.from_seed_int(29)
        expected = node_level_outcome(graph, palettes, high, h1, h2, params, num_bins)

        warm = low_space_cost_function(graph, palettes, high, params, num_bins)
        warm.many([(h1, h2)])
        self._assert_same_outcome(expected, warm.outcome_selected(h1, h2))

        cold = low_space_cost_function(graph, palettes, high, params, num_bins)
        self._assert_same_outcome(expected, cold.outcome_selected(h1, h2))

    def test_empty_high_set_and_shared_arrays(self):
        graph = erdos_renyi(40, 0.1, seed=2)
        palettes = PaletteAssignment.degree_plus_one(graph)
        params = LowSpaceParameters.scaled(num_bins=3, low_degree_threshold=6)
        num_bins = params.num_bins(graph.num_nodes)
        family1, family2 = _families(graph, palettes, num_bins)
        h1, h2 = family1.from_seed_int(3), family2.from_seed_int(8)
        expected = node_level_outcome(graph, palettes, set(), h1, h2, params, num_bins)
        actual = node_level_outcome_batch(graph, palettes, set(), h1, h2, params, num_bins)
        self._assert_same_outcome(expected, actual)

        high = {node for node in graph.nodes() if graph.degree(node) > 3}
        shared = color_bin_arrays(palettes, h2, max(1, num_bins - 1))
        expected = node_level_outcome(graph, palettes, high, h1, h2, params, num_bins)
        actual = node_level_outcome_batch(
            graph, palettes, high, h1, h2, params, num_bins, color_arrays=shared
        )
        self._assert_same_outcome(expected, actual)


# ----------------------------------------------------------------------
# vectorized palette restriction
# ----------------------------------------------------------------------
class TestRestrictedByBins:
    def _scalar_restriction(self, palettes, bin_members, h2, num_color_bins):
        colors_to_bins = color_bin_map(palettes, h2, num_color_bins)
        return [
            palettes.restricted_to(
                members, keep_color=lambda color, b=index: colors_to_bins[color] == b
            )
            for index, members in enumerate(bin_members)
        ]

    def test_matches_restricted_to_loop(self):
        graph = erdos_renyi(90, 0.1, seed=6)
        palettes = PaletteAssignment.from_lists(
            {node: range(2 * node, 2 * node + graph.degree(node) + 3) for node in graph.nodes()}
        )
        num_color_bins = 3
        _, family2 = _families(graph, palettes, num_color_bins + 1)
        h2 = family2.from_seed_int(19)
        nodes = graph.nodes()
        # Uneven groups, including an empty bin and left-out nodes.
        bin_members = [
            [node for node in nodes if node % 4 == 0],
            [],
            [node for node in nodes if node % 4 == 1],
        ]
        expected = self._scalar_restriction(palettes, bin_members, h2, num_color_bins)
        universe, color_bin_ids = color_bin_arrays(palettes, h2, num_color_bins)
        actual = palettes.restricted_by_bins(bin_members, universe, color_bin_ids)
        assert len(actual) == len(expected)
        for exp, act in zip(expected, actual):
            assert act.nodes() == exp.nodes()
            for node in exp.nodes():
                assert act.palette(node) == exp.palette(node)

    def test_all_bins_empty(self):
        palettes = PaletteAssignment.from_lists({1: [5, 6], 2: [7]})
        universe = np.asarray([5, 6, 7], dtype=np.int64)
        bins = np.asarray([0, 1, 0], dtype=np.int64)
        results = palettes.restricted_by_bins([[], []], universe, bins)
        assert [len(r) for r in results] == [0, 0]

    def test_unknown_node_raises(self):
        palettes = PaletteAssignment.from_lists({1: [5]})
        universe = np.asarray([5], dtype=np.int64)
        bins = np.asarray([0], dtype=np.int64)
        with pytest.raises(PaletteError):
            palettes.restricted_by_bins([[1, 99]], universe, bins)

    def test_color_missing_from_universe_raises(self):
        palettes = PaletteAssignment.from_lists({1: [5, 1000]})
        universe = np.asarray([5], dtype=np.int64)
        bins = np.asarray([0], dtype=np.int64)
        with pytest.raises(PaletteError):
            palettes.restricted_by_bins([[1]], universe, bins)


# ----------------------------------------------------------------------
# lazy-view consumers (greedy local coloring, MIS reduction)
# ----------------------------------------------------------------------
class TestLazyViewConsumers:
    def _lazy_child(self, seed=4):
        graph = erdos_renyi(110, 0.1, seed=seed)
        keep = [node for node in graph.nodes() if node % 3]
        graph.csr()
        lazy = graph.induced_subgraph(keep, use_csr=True)
        scalar = graph.induced_subgraph(keep, use_csr=False)
        assert lazy._adj_store is None
        return lazy, scalar

    def test_iter_neighbors_and_edges_answer_from_view(self):
        lazy, scalar = self._lazy_child()
        for node in scalar.nodes():
            assert set(lazy.iter_neighbors(node)) == scalar.neighbors(node)
        assert sorted(lazy.edges()) == sorted(scalar.edges())
        assert lazy._adj_store is None, "structural queries must stay lazy"

    def test_greedy_list_coloring_stays_lazy_and_matches(self):
        lazy, scalar = self._lazy_child()
        lazy_coloring = greedy_list_coloring(lazy, PaletteAssignment.degree_plus_one(lazy))
        assert lazy._adj_store is None, "greedy coloring forced materialisation"
        scalar_coloring = greedy_list_coloring(
            scalar, PaletteAssignment.degree_plus_one(scalar)
        )
        assert lazy_coloring == scalar_coloring

    def test_mis_reduction_stays_lazy_and_matches(self):
        lazy, scalar = self._lazy_child(seed=8)
        lazy_palettes = PaletteAssignment.degree_plus_one(lazy)
        reduction = build_reduction_graph(lazy, lazy_palettes)
        assert lazy._adj_store is None, "reduction build forced materialisation"
        lazy_coloring, _, _ = color_via_mis(lazy, lazy_palettes, deterministic_mis)
        scalar_coloring, _, _ = color_via_mis(
            scalar, PaletteAssignment.degree_plus_one(scalar), deterministic_mis
        )
        assert lazy_coloring == scalar_coloring
        assert reduction.num_vertices == sum(
            lazy.degree(node) + 1 for node in lazy.nodes()
        )

    def test_unknown_node_error_on_lazy_view(self):
        lazy, _ = self._lazy_child()
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            list(lazy.iter_neighbors(-12345))
