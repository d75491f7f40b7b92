"""Property-based tests (hypothesis) on core data structures and invariants.

These tests generate random graphs, palettes and hash-family parameters and
assert the invariants the rest of the library relies on:

* any graph + (deg+1)-style palettes is always properly list-colored by both
  the greedy local solver and the full ``ColorReduce`` pipeline,
* palette operations never increase palette sizes and never affect other
  nodes,
* hash functions always land in range and are reproducible from their seed,
* the MIS algorithms always return maximal independent sets.
* the array MIS endgame (reduction build, derandomized Luby phases,
  coloring read-off) equals its scalar oracle in ``tests/mis_oracle.py``.
* both pipelines, on hostile shapes (empty, isolated nodes, stars, skew,
  near-cliques, disconnected, non-contiguous ids), equal their scalar
  oracle run (``tests/scalar_oracle.py``) and color validly.
* ``ColorReduce``'s outcome does not change when the same graph is built
  from shuffled node and edge orders, on the instances where that holds;
  the known order-sensitive cases of both pipelines are strict expected
  failures.
"""

from __future__ import annotations

import dataclasses
import random

import mis_oracle
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scalar_oracle import (
    LOW_SPACE_PARTITION_ENTRY_POINTS,
    PARTITION_ENTRY_POINTS,
    assert_same_run,
    production_and_reference,
)

from repro.core import ColorReduce, ColorReduceParameters
from repro.core.low_space.color_reduce import LowSpaceColorReduce
from repro.core.low_space.params import LowSpaceParameters
from repro.core.low_space.mis_reduction import build_reduction_graph, coloring_from_mis
from repro.core.local_coloring import greedy_list_coloring
from repro.errors import ColoringError
from repro.graph import Graph, PaletteAssignment, generators
from repro.graph.csr import build_csr
from repro.graph.validation import assert_valid_list_coloring, is_proper_coloring
from repro.hashing.family import KWiseIndependentFamily
from repro.mis import deterministic_mis, greedy_mis, luby_mis
from repro.mis.validation import is_maximal_independent_set

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, max_nodes: int = 40):
    """A random simple graph with 0..max_nodes nodes."""
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    edges = []
    if n >= 2:
        density = draw(st.floats(min_value=0.0, max_value=0.5))
        rng_bits = draw(st.randoms(use_true_random=False))
        for u in range(n):
            for v in range(u + 1, n):
                if rng_bits.random() < density:
                    edges.append((u, v))
    return Graph(nodes=range(n), edges=edges)


@st.composite
def graphs_with_palettes(draw):
    """A graph plus (deg+1)-style palettes (for the greedy/local solvers)."""
    graph = draw(graphs())
    extra = draw(st.integers(min_value=0, max_value=3))
    offset = draw(st.integers(min_value=0, max_value=50))
    palettes = {
        node: [offset + c for c in range(graph.degree(node) + 1 + extra)]
        for node in graph.nodes()
    }
    return graph, PaletteAssignment.from_lists(palettes)


@st.composite
def list_coloring_instances(draw):
    """A graph plus (Δ+1)-list palettes (ColorReduce's input contract)."""
    graph = draw(graphs())
    extra = draw(st.integers(min_value=0, max_value=3))
    delta = graph.max_degree()
    rng = draw(st.randoms(use_true_random=False))
    universe = list(range(2 * (delta + 1) + extra + 1))
    palettes = {
        node: rng.sample(universe, delta + 1 + extra) for node in graph.nodes()
    }
    return graph, PaletteAssignment.from_lists(palettes)


class TestGreedyColoringProperties:
    @SETTINGS
    @given(graphs_with_palettes())
    def test_greedy_always_valid(self, data):
        graph, palettes = data
        coloring = greedy_list_coloring(graph, palettes)
        assert_valid_list_coloring(graph, palettes, coloring)

    @SETTINGS
    @given(graphs())
    def test_greedy_delta_plus_one_never_exceeds_bound(self, graph):
        palettes = PaletteAssignment.delta_plus_one(graph)
        coloring = greedy_list_coloring(graph, palettes)
        if graph.num_nodes:
            assert max(coloring.values(), default=0) <= graph.max_degree()


class TestColorReduceProperties:
    @SETTINGS
    @given(list_coloring_instances())
    def test_color_reduce_always_valid(self, data):
        graph, palettes = data
        result = ColorReduce().run(graph, palettes)
        assert_valid_list_coloring(graph, palettes, result.coloring)

    @SETTINGS
    @given(graphs())
    def test_color_reduce_scaled_always_valid(self, graph):
        params = ColorReduceParameters.scaled(num_bins=3, collect_factor=1.0)
        result = ColorReduce(params=params).run(graph)
        palettes = PaletteAssignment.delta_plus_one(graph)
        assert_valid_list_coloring(graph, palettes, result.coloring)

    @SETTINGS
    @given(graphs())
    def test_depth_bound_and_determinism(self, graph):
        first = ColorReduce().run(graph)
        second = ColorReduce().run(graph)
        assert first.coloring == second.coloring
        assert first.max_recursion_depth <= 9


class TestPaletteProperties:
    @SETTINGS
    @given(graphs_with_palettes(), st.dictionaries(st.integers(0, 39), st.integers(0, 60)))
    def test_removal_never_grows_palettes(self, data, coloring):
        graph, palettes = data
        before = {node: palettes.palette_size(node) for node in palettes.nodes()}
        palettes.remove_colors_used_by_neighbors(graph, coloring)
        for node in palettes.nodes():
            assert palettes.palette_size(node) <= before[node]

    @SETTINGS
    @given(graphs_with_palettes())
    def test_restriction_is_subset(self, data):
        graph, palettes = data
        restricted = palettes.restricted_to(graph.nodes(), keep_color=lambda c: c % 2 == 0)
        for node in graph.nodes():
            assert restricted.palette(node).issubset(palettes.palette(node))


class TestHashFamilyProperties:
    @SETTINGS
    @given(
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=2**20),
    )
    def test_output_in_range_and_reproducible(self, domain, range_size, seed_int):
        family = KWiseIndependentFamily(domain, range_size, independence=4)
        f = family.from_seed_int(seed_int)
        g = family.from_seed_int(seed_int)
        for x in range(0, domain, max(1, domain // 10)):
            value = f(x)
            assert 0 <= value < range_size
            assert value == g(x)


class TestMISProperties:
    @SETTINGS
    @given(graphs())
    def test_all_mis_algorithms_maximal(self, graph):
        assert is_maximal_independent_set(graph, greedy_mis(graph))
        assert is_maximal_independent_set(graph, luby_mis(graph, seed=0).independent_set)
        assert is_maximal_independent_set(graph, deterministic_mis(graph).independent_set)


class TestProperColoringCheckerProperties:
    @SETTINGS
    @given(graphs())
    def test_identity_coloring_always_proper(self, graph):
        coloring = {node: node for node in graph.nodes()}
        assert is_proper_coloring(graph, coloring)


# ----------------------------------------------------------------------
# CSR-backed subgraph extraction vs the scalar reference
# ----------------------------------------------------------------------
@st.composite
def sparse_graphs_with_subsets(draw, max_nodes: int = 30):
    """A graph with non-contiguous ids, shuffled insertion, and a subset.

    The subset may be empty, may repeat ids, and may contain ids the graph
    does not know (``induced_subgraph`` must ignore them); density 0 keeps
    isolated nodes in play.
    """
    ids = sorted(draw(st.sets(st.integers(min_value=0, max_value=997), max_size=max_nodes)))
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.floats(min_value=0.0, max_value=0.6))
    edges = [
        (u, v)
        for index, u in enumerate(ids)
        for v in ids[index + 1 :]
        if rng.random() < density
    ]
    insertion = list(ids)
    rng.shuffle(insertion)
    graph = Graph(nodes=insertion, edges=edges)
    pool = ids + [1000, 2000]  # unknown ids must be ignored
    subset = draw(st.lists(st.sampled_from(pool), max_size=2 * max_nodes)) if pool else []
    return graph, subset


def _assert_same_graph(expected: Graph, actual: Graph) -> None:
    """Exact agreement: node insertion order and adjacency sets."""
    assert actual.nodes() == expected.nodes()
    for node in expected.nodes():
        assert actual.neighbors(node) == expected.neighbors(node)


class TestCSRExtractionDifferential:
    @SETTINGS
    @given(sparse_graphs_with_subsets())
    def test_induced_subgraph_matches_scalar(self, data):
        graph, subset = data
        scalar = graph.induced_subgraph(subset, use_csr=False)
        batched = graph.induced_subgraph(subset, use_csr=True)
        _assert_same_graph(scalar, batched)

    @SETTINGS
    @given(sparse_graphs_with_subsets())
    def test_subgraph_degrees_within_matches_scalar(self, data):
        graph, subset = data
        scalar = graph.subgraph_degrees_within(subset, use_csr=False)
        batched = graph.subgraph_degrees_within(subset, use_csr=True)
        assert batched == scalar
        assert list(batched) == list(scalar)  # same key order

    @SETTINGS
    @given(sparse_graphs_with_subsets())
    def test_relabeled_matches_scalar(self, data):
        graph, _ = data
        scalar_graph, scalar_map = graph.relabeled(use_csr=False)
        batched_graph, batched_map = graph.relabeled(use_csr=True)
        assert batched_map == scalar_map
        assert list(batched_map) == list(scalar_map)
        _assert_same_graph(scalar_graph, batched_graph)

    @SETTINGS
    @given(sparse_graphs_with_subsets(), st.integers(min_value=1, max_value=5))
    def test_induced_subgraphs_matches_scalar(self, data, num_groups):
        graph, _ = data
        nodes = graph.nodes()
        groups = [
            [node for index, node in enumerate(nodes) if index % num_groups == g]
            for g in range(num_groups)
        ]
        scalar = graph.induced_subgraphs(groups, use_csr=False)
        batched = graph.induced_subgraphs(groups, use_csr=True)
        assert len(scalar) == len(batched) == num_groups
        for expected, actual in zip(scalar, batched):
            _assert_same_graph(expected, actual)

    @SETTINGS
    @given(sparse_graphs_with_subsets())
    def test_extracted_child_answers_like_fresh_build(self, data):
        """The child's cached CSR view is canonical (build_csr-identical)."""
        from repro.graph.csr import build_csr

        graph, subset = data
        child = graph.induced_subgraph(subset, use_csr=True)
        cached = child.csr()
        rebuilt = build_csr(child._adj)
        assert rebuilt.node_ids == cached.node_ids
        assert rebuilt.position == cached.position
        assert (rebuilt.indptr == cached.indptr).all()
        assert (rebuilt.indices == cached.indices).all()
        assert (rebuilt.degrees == cached.degrees).all()


# ----------------------------------------------------------------------
# batched final classification / palette restriction vs the scalar path
# ----------------------------------------------------------------------
@st.composite
def partition_instances(draw):
    """A graph with non-contiguous ids, (Δ+1)-list palettes and a hash pair.

    Ids are spread out (``7 * id + offset``) so the batched kernels cannot
    rely on positions and identifiers coinciding; palettes draw from a
    shifted universe so color-universe handling is exercised too.
    """
    base = draw(graphs(max_nodes=25))
    stride = draw(st.integers(min_value=1, max_value=7))
    offset = draw(st.integers(min_value=0, max_value=13))
    graph = Graph(
        nodes=(stride * node + offset for node in base.nodes()),
        edges=((stride * u + offset, stride * v + offset) for u, v in base.edges()),
    )
    delta = graph.max_degree()
    extra = draw(st.integers(min_value=1, max_value=3))
    rng = draw(st.randoms(use_true_random=False))
    universe = list(range(3 * (delta + extra) + 2))
    palettes = PaletteAssignment.from_lists(
        {node: rng.sample(universe, delta + extra) for node in graph.nodes()}
    )
    seed1 = draw(st.integers(min_value=0, max_value=2**20))
    seed2 = draw(st.integers(min_value=0, max_value=2**20))
    return graph, palettes, seed1, seed2


class TestBatchedFinalClassificationDifferential:
    @staticmethod
    def _hash_pair(graph, palettes, num_bins, seed1, seed2):
        node_domain = max(graph.num_nodes, max(graph.nodes(), default=0) + 1, 2)
        universe = palettes.color_universe()
        color_domain = max(node_domain * node_domain, max(universe, default=0) + 1)
        family1 = KWiseIndependentFamily(
            domain_size=node_domain, range_size=num_bins, independence=4
        )
        family2 = KWiseIndependentFamily(
            domain_size=color_domain, range_size=max(1, num_bins - 1), independence=4
        )
        return family1.from_seed_int(seed1), family2.from_seed_int(seed2)

    @SETTINGS
    @given(partition_instances())
    def test_classify_partition_batch_matches_scalar(self, data):
        from repro.core.classification import (
            classify_partition,
            classify_partition_batch,
        )

        graph, palettes, seed1, seed2 = data
        params = ColorReduceParameters.scaled(num_bins=3)
        ell = max(float(graph.max_degree()), 2.0)
        h1, h2 = self._hash_pair(graph, palettes, params.num_bins(ell), seed1, seed2)
        expected = classify_partition(
            graph, palettes, h1, h2, params, ell, max(graph.num_nodes, 1)
        )
        actual = classify_partition_batch(
            graph, palettes, h1, h2, params, ell, max(graph.num_nodes, 1)
        )
        assert actual.bin_of_node == expected.bin_of_node
        assert actual.bin_sizes == expected.bin_sizes
        assert actual.bad_bins == expected.bad_bins
        assert actual.bad_nodes == expected.bad_nodes
        assert actual.nodes == expected.nodes

    @SETTINGS
    @given(partition_instances(), st.integers(min_value=1, max_value=4))
    def test_restricted_by_bins_matches_restricted_to(self, data, num_color_bins):
        from repro.core.classification import color_bin_arrays, color_bin_map

        graph, palettes, seed1, seed2 = data
        _, h2 = self._hash_pair(graph, palettes, num_color_bins + 1, seed1, seed2)
        nodes = graph.nodes()
        # Partition-shaped groups: disjoint, possibly empty, not covering.
        bin_members = [
            [node for index, node in enumerate(nodes) if index % (num_color_bins + 1) == b]
            for b in range(num_color_bins)
        ]
        colors_to_bins = color_bin_map(palettes, h2, num_color_bins)
        expected = [
            palettes.restricted_to(
                members, keep_color=lambda color, b=index: colors_to_bins[color] == b
            )
            for index, members in enumerate(bin_members)
        ]
        universe, color_bin_ids = color_bin_arrays(palettes, h2, num_color_bins)
        actual = palettes.restricted_by_bins(bin_members, universe, color_bin_ids)
        assert len(actual) == len(expected)
        for exp, act in zip(expected, actual):
            assert act.nodes() == exp.nodes()
            for node in exp.nodes():
                assert act.palette(node) == exp.palette(node)

    @SETTINGS
    @given(sparse_graphs_with_subsets())
    def test_lazy_view_greedy_matches_materialised(self, data):
        from repro.core.local_coloring import greedy_list_coloring

        graph, subset = data
        graph.csr()
        lazy = graph.induced_subgraph(subset, use_csr=True)
        scalar = graph.induced_subgraph(subset, use_csr=False)
        lazy_coloring = greedy_list_coloring(
            lazy, PaletteAssignment.degree_plus_one(lazy)
        )
        assert lazy._adj_store is None  # the sweep never materialises
        scalar_coloring = greedy_list_coloring(
            scalar, PaletteAssignment.degree_plus_one(scalar)
        )
        assert lazy_coloring == scalar_coloring


@st.composite
def relabeled_instances(draw):
    """A graph + palettes, optionally relabeled to non-contiguous node ids."""
    graph, palettes = draw(graphs_with_palettes())
    stride = draw(st.sampled_from([1, 3, 17]))
    offset = draw(st.integers(min_value=0, max_value=100))
    if stride == 1 and offset == 0:
        return graph, palettes
    mapping = {node: offset + stride * node for node in graph.nodes()}
    relabeled = Graph(
        nodes=[mapping[node] for node in graph.nodes()],
        edges=[(mapping[u], mapping[v]) for u, v in graph.edges()],
    )
    relabeled_palettes = PaletteAssignment.from_lists(
        {mapping[node]: palettes.palette(node) for node in graph.nodes()}
    )
    return relabeled, relabeled_palettes


class TestPaletteKernelEquivalence:
    """Batch palette pruning is a bit-identical scalar substitution."""

    @staticmethod
    def _assert_equivalent(graph, palettes, coloring, nodes=None):
        scalar = palettes.copy()
        scalar._palettes  # force the sets backing for the reference
        scalar._store = None
        batch = palettes.copy()
        removed_scalar = scalar.remove_colors_used_by_neighbors(
            graph, coloring, nodes=nodes
        )
        removed_batch = batch.remove_colors_used_by_neighbors_batch(
            graph, coloring, nodes=nodes
        )
        assert removed_scalar == removed_batch
        assert scalar.nodes() == batch.nodes()
        for node in scalar.nodes():
            assert scalar.palette(node) == batch.palette(node)

    @SETTINGS
    @given(relabeled_instances(), st.dictionaries(st.integers(0, 2000), st.integers(0, 60)))
    def test_remove_batch_matches_scalar(self, data, coloring):
        # coloring keys beyond the node range act as external-only entries
        graph, palettes = data
        self._assert_equivalent(graph, palettes, coloring)

    @SETTINGS
    @given(relabeled_instances())
    def test_remove_batch_empty_coloring(self, data):
        graph, palettes = data
        self._assert_equivalent(graph, palettes, {})

    @SETTINGS
    @given(graphs_with_palettes(), st.dictionaries(st.integers(0, 39), st.integers(0, 60)))
    def test_remove_batch_targets_outside_graph(self, data, coloring):
        # palette nodes the graph does not contain are skipped identically
        graph, palettes = data
        extra = PaletteAssignment.from_lists(
            {node: palettes.palette(node) for node in palettes.nodes()}
            | {10_000: {1, 2}, 10_001: {3}}
        )
        targets = extra.nodes()
        self._assert_equivalent(graph, extra, coloring, nodes=targets)

    @SETTINGS
    @given(graphs_with_palettes(), st.dictionaries(st.integers(0, 39), st.integers(0, 60)))
    def test_subset_updated_matches_two_step(self, data, coloring):
        graph, palettes = data
        members = [node for node in graph.nodes() if node % 2 == 0]
        reference = palettes.copy()
        reference._palettes
        reference._store = None
        expected = reference.subset(members)
        removed_expected = expected.remove_colors_used_by_neighbors(graph, coloring)
        palettes.store()
        child, removed = palettes.subset_updated(members, graph, coloring)
        assert removed == removed_expected
        assert child.nodes() == expected.nodes()
        for node in members:
            assert child.palette(node) == expected.palette(node)


class TestGreedyBatchEquivalence:
    """The array greedy sweep is a bit-identical scalar substitution."""

    @SETTINGS
    @given(relabeled_instances())
    def test_default_order_matches(self, data):
        graph, palettes = data
        scalar = greedy_list_coloring(graph, palettes, use_batch=False)
        batched = greedy_list_coloring(graph, palettes, use_batch=True)
        assert scalar == batched

    @SETTINGS
    @given(graphs_with_palettes(), st.dictionaries(st.integers(0, 39), st.integers(0, 60)))
    def test_already_colored_recolor_path_matches(self, data, external):
        # graph nodes present in ``external`` are recolored from scratch;
        # their hints still block neighbors processed before them
        graph, palettes = data
        scalar = greedy_list_coloring(
            graph, palettes, already_colored=external, use_batch=False
        )
        batched = greedy_list_coloring(
            graph, palettes, already_colored=external, use_batch=True
        )
        assert scalar == batched

    @SETTINGS
    @given(graphs(max_nodes=15), st.integers(min_value=1, max_value=3))
    def test_coloring_error_parity(self, graph, palette_size):
        # palettes deliberately too small: both paths must raise the same
        # error for the same node (or both succeed with equal colorings)
        from repro.errors import ColoringError

        palettes = PaletteAssignment.from_lists(
            {node: range(palette_size) for node in graph.nodes()}
        )
        scalar_error = batch_error = None
        scalar = batched = None
        try:
            scalar = greedy_list_coloring(graph, palettes, use_batch=False)
        except ColoringError as exc:
            scalar_error = str(exc)
        try:
            batched = greedy_list_coloring(graph, palettes, use_batch=True)
        except ColoringError as exc:
            batch_error = str(exc)
        assert scalar_error == batch_error
        assert scalar == batched


# ----------------------------------------------------------------------
# segmented cross-bin level kernels vs the per-bin evaluators
# ----------------------------------------------------------------------
@st.composite
def level_instances(draw):
    """A level of 1..3 sibling instances (possibly including empty bins).

    Siblings reuse the ``partition_instances`` shape (non-contiguous ids,
    shifted color universes) and are naturally uneven in size; an empty
    sibling is injected with its own draw so the segmented kernels see
    zero-length segments.
    """
    num_children = draw(st.integers(min_value=1, max_value=3))
    children = [draw(partition_instances()) for _ in range(num_children)]
    if draw(st.booleans()):
        children.append((Graph(), PaletteAssignment({}), 0, 0))
    salts = [
        draw(st.integers(min_value=0, max_value=2**20)) for _ in children
    ]
    return children, salts


class TestSegmentedLevelDifferential:
    """The cross-bin level pass must be bit-identical to per-bin scoring."""

    LEVEL_SETTINGS = settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )

    @LEVEL_SETTINGS
    @given(level_instances())
    def test_partition_prefetch_matches_per_bin(self, data):
        from repro.core.classification import partition_cost_function
        from repro.core.level import head_pairs, prefetch_partition_level
        from repro.core.partition import Partition

        children, salts = data
        params = ColorReduceParameters.scaled(num_bins=3)
        global_nodes = max(
            [2] + [max(g.nodes(), default=0) + 1 for g, _, _, _ in children]
        )
        ell = max([2.0] + [float(g.max_degree()) for g, _, _, _ in children])
        tuples = [
            (index, salts[index], graph, palettes)
            for index, (graph, palettes, _, _) in enumerate(children)
        ]
        prefetched = prefetch_partition_level(tuples, params, ell, global_nodes)
        count = min(params.selection_batch_size, params.selection_max_candidates)
        builder = Partition(params)
        for index, (graph, palettes, _, _) in enumerate(children):
            proxy = prefetched[index]
            reference = partition_cost_function(
                graph, palettes, params, ell, global_nodes
            )
            family1, family2 = builder.build_families(
                graph, palettes, ell, global_nodes
            )
            pairs = head_pairs(family1, family2, salts[index], count)
            # Cached costs vs both reference routes (scalar and slab).
            assert [proxy(*pair) for pair in pairs] == list(reference.many(pairs))
            assert proxy(*pairs[0]) == reference(*pairs[0])
            # Post-selection classification + restriction through the cached
            # head counts vs the reference evaluator's own pass.
            h1, h2 = pairs[0]
            cls_proxy, restricted_proxy = proxy.classify_selected(h1, h2)
            cls_ref, restricted_ref = reference.classify_selected(h1, h2)
            assert cls_proxy.bin_of_node == cls_ref.bin_of_node
            assert cls_proxy.bin_sizes == cls_ref.bin_sizes
            assert cls_proxy.bad_bins == cls_ref.bad_bins
            assert cls_proxy.bad_nodes == cls_ref.bad_nodes
            assert len(restricted_proxy) == len(restricted_ref)
            for left, right in zip(restricted_proxy, restricted_ref):
                assert left.nodes() == right.nodes()
                for node in right.nodes():
                    assert left.palette(node) == right.palette(node)

    @LEVEL_SETTINGS
    @given(level_instances())
    def test_low_space_prefetch_matches_per_bin(self, data):
        from repro.core.classification import color_bin_arrays
        from repro.core.level import head_pairs, prefetch_low_space_level
        from repro.core.low_space.machine_sets import low_space_cost_function
        from repro.core.low_space.params import LowSpaceParameters
        from repro.hashing.family import KWiseIndependentFamily as Family

        children, salts = data
        params = LowSpaceParameters.scaled(num_bins=3, low_degree_threshold=2)
        global_nodes = max(
            [2] + [max(g.nodes(), default=0) + 1 for g, _, _, _ in children]
        )
        threshold = params.low_degree_threshold(global_nodes)
        num_bins = params.num_bins(global_nodes)
        num_color_bins = max(1, num_bins - 1)
        tuples = [
            (index, salts[index], graph, palettes)
            for index, (graph, palettes, _, _) in enumerate(children)
        ]
        prefetched = prefetch_low_space_level(tuples, params, global_nodes)
        count = min(params.selection_batch_size, params.selection_max_candidates)
        for index, (graph, palettes, _, _) in enumerate(children):
            high = {
                node for node in graph.nodes() if graph.degree(node) > threshold
            }
            if not high:
                # Children on the pure MIS path have nothing to prefetch.
                assert index not in prefetched
                continue
            proxy = prefetched[index]
            reference = low_space_cost_function(
                graph, palettes, high, params, num_bins
            )
            node_domain = max(global_nodes, max(graph.nodes(), default=0) + 1)
            universe = palettes.color_universe()
            color_domain = max(
                global_nodes * global_nodes, max(universe, default=0) + 1
            )
            family1 = Family(
                domain_size=node_domain,
                range_size=num_bins,
                independence=params.independence,
            )
            family2 = Family(
                domain_size=color_domain,
                range_size=num_color_bins,
                independence=params.independence,
            )
            pairs = head_pairs(family1, family2, salts[index], count)
            assert [proxy(*pair) for pair in pairs] == list(reference.many(pairs))
            assert proxy(*pairs[0]) == reference(*pairs[0])
            h1, h2 = pairs[0]
            color_arrays = color_bin_arrays(palettes, h2, num_color_bins)
            outcome_proxy = proxy.outcome_selected(
                h1, h2, color_arrays=color_arrays
            )
            outcome_ref = reference.outcome_selected(
                h1, h2, color_arrays=color_arrays
            )
            assert outcome_proxy.violating_nodes == outcome_ref.violating_nodes
            assert outcome_proxy.bin_of_node == outcome_ref.bin_of_node
            assert outcome_proxy.cost == outcome_ref.cost


# ----------------------------------------------------------------------
# Array final validation vs the scalar oracle
# ----------------------------------------------------------------------
_VALIDATION_CASES = [
    "valid",
    "uncolored",
    "monochromatic",
    "off_palette",
    "outside_keys",
    "non_integer_color",
    "huge_color",
]


@st.composite
def validation_instances(draw):
    """A graph, palettes and a coloring broken (or not) in one drawn way.

    The base coloring is the greedy one (valid); the palettes are rebuilt
    in a drawn node order, optionally with palettes for nodes outside the
    graph, and are either sets-only or store-warm.
    """
    graph, palettes = draw(relabeled_instances())
    coloring = greedy_list_coloring(graph, palettes)
    nodes = graph.nodes()
    order = list(reversed(nodes)) if draw(st.booleans()) else nodes
    lists = {node: palettes.palette(node) for node in order}
    if draw(st.booleans()):
        lists[10_000] = {1, 2}
    rebuilt = PaletteAssignment.from_lists(lists)
    if draw(st.booleans()):
        rebuilt.store()
    case = draw(st.sampled_from(_VALIDATION_CASES))
    edges = list(graph.edges())
    if nodes and case in ("uncolored", "off_palette", "non_integer_color", "huge_color"):
        node = draw(st.sampled_from(nodes))
        if case == "uncolored":
            del coloring[node]
        elif case == "off_palette":
            coloring[node] = 1_000_000 + nodes.index(node)
        elif case == "non_integer_color":
            coloring[node] = coloring[node] + 0.5
        else:
            coloring[node] = 2**70
    elif case == "monochromatic" and edges:
        u, v = draw(st.sampled_from(edges))
        coloring[u] = coloring[v]
    elif case == "outside_keys":
        coloring[10_000] = draw(st.sampled_from([1, 5]))
        coloring[20_000] = 7
    return graph, rebuilt, coloring


def _scalar_validation_error(graph, palettes, coloring):
    """The oracle: the public scalar checks, first violation's message."""
    from repro.errors import ColoringError
    from repro.graph.validation import assert_proper_coloring, find_palette_violations

    try:
        assert_proper_coloring(graph, coloring)
    except ColoringError as exc:
        return str(exc)
    offenders = find_palette_violations(palettes, coloring)
    if offenders:
        node = offenders[0]
        return (
            f"node {node} was assigned color {coloring[node]}, "
            f"which is not in its palette"
        )
    return None


class TestArrayValidationDifferential:
    """``assert_valid_list_coloring`` decides exactly like the scalar oracle."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(validation_instances())
    def test_same_verdict_and_message(self, data):
        from repro.errors import ColoringError

        graph, palettes, coloring = data
        expected = _scalar_validation_error(graph, palettes, coloring)
        try:
            assert_valid_list_coloring(graph, palettes, coloring)
            actual = None
        except ColoringError as exc:
            actual = str(exc)
        assert actual == expected


# ----------------------------------------------------------------------
# Array MIS endgame vs the scalar oracles (tests/mis_oracle.py)
# ----------------------------------------------------------------------
_MIS_SHAPES = ["random", "empty", "isolated", "star", "near_clique"]


@st.composite
def mis_reduction_instances(draw):
    """A hostile-shaped graph with relabeled ids and drawn list palettes.

    Ids may be non-contiguous, negative or below int64; palettes may be
    larger than ``d + 1``, sparse, wide, or beyond int64 (store
    unavailable); the palette assignment is sets-only or store-warm and
    may list its nodes in reverse.
    """
    shape = draw(st.sampled_from(_MIS_SHAPES))
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(min_value=1, max_value=14))
    if shape == "empty":
        graph = Graph()
    elif shape == "isolated":
        graph = Graph(nodes=range(n))
    elif shape == "star":
        leaves = [(0, leaf) for leaf in range(1, n)]
        extra = [(u, u + 1) for u in range(1, n - 1) if rng.random() < 0.2]
        graph = Graph(nodes=range(n), edges=leaves + extra)
    elif shape == "near_clique":
        graph = Graph(
            nodes=range(n),
            edges=[(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.9],
        )
    else:
        graph = draw(graphs(max_nodes=16))
    stride = draw(st.sampled_from([1, 3, 17, -1, -5]))
    offset = draw(st.sampled_from([0, 40, -200, -(2**70)]))
    mapping = {node: offset + stride * node for node in graph.nodes()}
    order = list(graph.nodes())
    rng.shuffle(order)
    relabeled = Graph(
        nodes=[mapping[node] for node in order],
        edges=[(mapping[u], mapping[v]) for u, v in graph.edges()],
    )
    extra = draw(st.integers(min_value=0, max_value=4))
    universe_kind = draw(st.sampled_from(["dense", "sparse", "wide", "beyond_int64"]))
    scale, base = {
        "dense": (1, 0),
        "sparse": (1000, 7),
        "wide": (2**58, -(2**62)),
        "beyond_int64": (1, 2**70),
    }[universe_kind]
    pool = relabeled.max_degree() + 1 + extra + 3
    lists = {
        node: [
            base + scale * color
            for color in rng.sample(range(pool), relabeled.degree(node) + 1 + extra)
        ]
        for node in relabeled.nodes()
    }
    if draw(st.booleans()):
        lists = dict(reversed(list(lists.items())))
    palettes = PaletteAssignment.from_lists(lists)
    if draw(st.booleans()):
        palettes.store()
    return relabeled, palettes, draw(st.booleans())


def _reduction_map(reduction):
    return {vertex: reduction.node_color(vertex) for vertex in range(reduction.num_vertices)}


class TestMISEndgameDifferential:
    """The array builder and array MIS equal the scalar oracles exactly."""

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mis_reduction_instances())
    def test_reduction_graph_matches_oracle(self, data):
        graph, palettes, truncate = data
        expected_graph, expected_map = mis_oracle.build_reduction_graph(graph, palettes, truncate)
        reduction = build_reduction_graph(graph, palettes, truncate)
        assert _reduction_map(reduction) == expected_map
        if reduction.num_vertices:
            assert reduction.graph._adj_store is None, "adjacency sets were materialised"
        view, expected_view = reduction.graph.csr(), build_csr(expected_graph._adj)
        assert view.node_ids == expected_view.node_ids
        assert view.indptr.tolist() == expected_view.indptr.tolist()
        assert view.indices.tolist() == expected_view.indices.tolist()
        _assert_same_graph(expected_graph, reduction.graph)

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mis_reduction_instances(), st.sampled_from([None, 1, 2]))
    def test_mis_and_coloring_match_oracle(self, data, max_phases):
        graph, palettes, truncate = data
        expected_graph, expected_map = mis_oracle.build_reduction_graph(graph, palettes, truncate)
        reduction = build_reduction_graph(graph, palettes, truncate)
        for actual_graph, oracle_graph in ((reduction.graph, expected_graph), (graph, graph)):
            actual = deterministic_mis(actual_graph, max_phases=max_phases)
            expected = mis_oracle.deterministic_mis(oracle_graph, max_phases=max_phases)
            assert actual.independent_set == expected.independent_set
            assert actual.phases == expected.phases
        mis = mis_oracle.deterministic_mis(expected_graph).independent_set
        assert coloring_from_mis(reduction, mis) == mis_oracle.coloring_from_mis(expected_map, mis)

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mis_reduction_instances(), st.randoms(use_true_random=False))
    def test_coloring_errors_match_oracle(self, data, rng):
        graph, palettes, truncate = data
        reduction = build_reduction_graph(graph, palettes, truncate)
        expected_map = mis_oracle.build_reduction_graph(graph, palettes, truncate)[1]
        vertices = list(range(reduction.num_vertices))
        candidate = set(rng.sample(vertices, rng.randint(0, len(vertices))))
        outcomes = []
        for read in (
            lambda: coloring_from_mis(reduction, candidate),
            lambda: mis_oracle.coloring_from_mis(expected_map, candidate),
        ):
            try:
                outcomes.append(read())
            except ColoringError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mis_reduction_instances(), st.randoms(use_true_random=False))
    def test_empty_palette_error_matches_oracle(self, data, rng):
        graph, palettes, truncate = data
        nodes = graph.nodes()
        if not nodes:
            return
        emptied = set(rng.sample(nodes, rng.randint(1, len(nodes))))
        lists = {
            node: set() if node in emptied else palettes.palette(node) for node in nodes
        }
        broken = PaletteAssignment.from_lists(lists)
        with pytest.raises(ColoringError) as expected:
            mis_oracle.build_reduction_graph(graph, broken, truncate)
        with pytest.raises(ColoringError) as actual:
            build_reduction_graph(graph, broken, truncate)
        assert str(actual.value) == str(expected.value)


# ----------------------------------------------------------------------
# hostile shapes: both pipelines in production vs the scalar oracle
# (tests/scalar_oracle.py)
# ----------------------------------------------------------------------
HOSTILE_SHAPES = ("empty", "isolated", "star", "near-clique", "disconnected", "skew")


@st.composite
def hostile_graphs(draw):
    """A hostile-shape graph, optionally on shuffled, non-contiguous ids."""
    shape = draw(st.sampled_from(HOSTILE_SHAPES))
    rng = draw(st.randoms(use_true_random=False))
    edges = set()
    if shape == "empty":
        n = 0
    elif shape == "isolated":
        # a few edges among a handful of nodes; everything else isolated
        n = draw(st.integers(min_value=1, max_value=30))
        active = rng.sample(range(n), min(n, rng.randint(0, 6)))
        for u in active:
            for v in active:
                if u < v and rng.random() < 0.5:
                    edges.add((u, v))
    elif shape == "star":
        n = draw(st.integers(min_value=2, max_value=40))
        edges = {(0, v) for v in range(1, n)}
        for _ in range(rng.randint(0, 3)):
            u, v = sorted(rng.sample(range(1, n), 2)) if n > 2 else (0, 1)
            edges.add((u, v))
    elif shape == "near-clique":
        n = draw(st.integers(min_value=3, max_value=20))
        edges = {(u, v) for u in range(n) for v in range(u + 1, n)}
        for edge in rng.sample(sorted(edges), rng.randint(0, len(edges) // 10)):
            edges.discard(edge)
    elif shape == "disconnected":
        n = 0
        for _ in range(draw(st.integers(min_value=2, max_value=4))):
            size = rng.randint(1, 10)
            density = rng.choice((0.3, 0.7, 1.0))
            for u in range(n, n + size):
                for v in range(u + 1, n + size):
                    if rng.random() < density:
                        edges.add((u, v))
            n += size
    else:  # skew: two hubs over a sparse random background
        n = draw(st.integers(min_value=4, max_value=40))
        for hub in (0, 1):
            for v in range(2, n):
                if rng.random() < 0.8:
                    edges.add((hub, v))
        for u in range(2, n):
            for v in range(u + 1, n):
                if rng.random() < 0.05:
                    edges.add((u, v))
    if draw(st.booleans()):
        labels = draw(
            st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True)
        )
    else:
        labels = list(range(n))
    order = draw(st.permutations(range(n)))
    return Graph(
        nodes=[labels[i] for i in order],
        edges=[(labels[u], labels[v]) for u, v in sorted(edges)],
    )


class TestHostileShapesScalarOracle:
    """Both pipelines equal the scalar oracle on hostile shapes, and color
    them validly.  The oracle's reroutes undo themselves after every run, so
    reusing the function-scoped ``monkeypatch`` across examples is safe."""

    ORACLE_SETTINGS = settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )

    @ORACLE_SETTINGS
    @given(hostile_graphs())
    def test_color_reduce_matches_oracle(self, monkeypatch, graph):
        params = ColorReduceParameters.scaled(
            num_bins=3, collect_factor=1.0, level_use_batch=False
        )
        production, reference, oracle = production_and_reference(
            monkeypatch, lambda: ColorReduce(params).run(graph.copy())
        )
        assert_same_run(production, reference)
        assert production.total_bad_nodes == reference.total_bad_nodes
        assert_valid_list_coloring(
            graph, PaletteAssignment.delta_plus_one(graph), production.coloring
        )
        if production.recursion_root.num_bins:
            oracle.assert_called(*PARTITION_ENTRY_POINTS)
        if graph.num_nodes:
            oracle.assert_called("greedy_list_coloring")
        if "palette-update" in production.ledger.snapshot():
            assert (
                oracle.calls["PaletteAssignment.remove_colors_used_by_neighbors_batch"]
                + oracle.calls["PaletteAssignment.subset_updated"]
            )

    @ORACLE_SETTINGS
    @given(hostile_graphs())
    def test_low_space_matches_oracle(self, monkeypatch, graph):
        params = LowSpaceParameters.scaled(
            num_bins=3, low_degree_threshold=3, machine_chunk=4, level_use_batch=False
        )
        production, reference, oracle = production_and_reference(
            monkeypatch, lambda: LowSpaceColorReduce(params).run(graph.copy())
        )
        assert_same_run(production, reference)
        assert production.total_mis_phases == reference.total_mis_phases
        assert_valid_list_coloring(
            graph, PaletteAssignment.degree_plus_one(graph), production.coloring
        )
        if graph.num_nodes:
            oracle.assert_called("Graph.induced_subgraph")
        if graph.max_degree() > 3:
            oracle.assert_called(*LOW_SPACE_PARTITION_ENTRY_POINTS)
        if "palette-update" in production.ledger.snapshot():
            assert (
                oracle.calls["PaletteAssignment.remove_colors_used_by_neighbors_batch"]
                + oracle.calls["PaletteAssignment.subset_updated"]
            )


# ----------------------------------------------------------------------
# reordering invariance: the output depends on the graph, not on the order
# its nodes and edges were handed over
# ----------------------------------------------------------------------
def _reordered(graph: Graph, rng: random.Random) -> Graph:
    """The same graph, built from shuffled node and edge orders (edges with
    random orientation)."""
    nodes = sorted(graph.nodes())
    rng.shuffle(nodes)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in graph.edges()]
    rng.shuffle(edges)
    return Graph(nodes=nodes, edges=edges)


def _outcome(result):
    return (
        result.coloring,
        dataclasses.astuple(result.recursion_root),
        result.rounds,
        list(result.ledger.snapshot().items()),
    )


GENERATOR_SHAPES = {
    "erdos-renyi": lambda: generators.erdos_renyi(200, 0.06, seed=3),
    "gnm": lambda: generators.gnm_random(250, 1000, seed=4),
    "regular-like": lambda: generators.random_regular_like(200, 8, seed=5),
    "power-law": lambda: generators.power_law(300, 3, seed=6),
    "bipartite": lambda: generators.random_bipartite(100, 120, 0.1, seed=7),
    "multipartite": lambda: generators.complete_multipartite([6, 9, 12]),
    "ring-of-cliques": lambda: generators.ring_of_cliques(8, 7),
    "ring": lambda: generators.ring(50),
    "star": lambda: generators.star(40),
    "complete": lambda: Graph.complete(25),
    "edgeless": lambda: Graph.empty(30),
}

#: Why ``ColorReduce`` is not order-invariant everywhere: every extracted
#: instance keeps its parent's node order, and the local greedy breaks
#: degree ties in that order.
GREEDY_TIES_REASON = (
    "the local greedy breaks degree ties by insertion order, which every "
    "extracted instance inherits from the input"
)

#: (shape, parameter set) pairs whose outcome does change under reordering:
#: both are collected and greedy-colored at the root under paper params.
ORDER_SENSITIVE_SHAPES = {("power-law", "paper"), ("ring", "paper")}

PARAMETER_SETS = {
    "paper": ColorReduceParameters(),
    "scaled": ColorReduceParameters.scaled(num_bins=3),
}


def _shape_cases():
    for shape in sorted(GENERATOR_SHAPES):
        for name in PARAMETER_SETS:
            marks = ()
            if (shape, name) in ORDER_SENSITIVE_SHAPES:
                marks = pytest.mark.xfail(strict=True, reason=GREEDY_TIES_REASON)
            yield pytest.param(shape, name, marks=marks, id=f"{shape}-{name}")


class TestReorderingInvariance:
    """Whether an outcome depends only on the graph, or also on the order
    its nodes and edges were handed over.

    ``ColorReduce``'s coloring, recursion tree, rounds and ledger are
    unchanged under shuffled node and edge orders (and flipped edge
    orientations) on the ``gnm_random(300, 1500)`` family and on most
    generator shapes.  The cases where they change are strict expected
    failures, so a fix shows up as an unexpected pass.
    """

    ORDERS = 3

    def _assert_invariant(self, graph: Graph, params) -> None:
        expected = _outcome(ColorReduce(params).run(graph.copy()))
        for order in range(self.ORDERS):
            shuffled = _reordered(graph, random.Random(order))
            assert _outcome(ColorReduce(params).run(shuffled)) == expected

    @pytest.mark.parametrize("seed", range(30))
    def test_color_reduce_gnm(self, seed):
        graph = generators.gnm_random(300, 1500, seed=seed)
        for params in PARAMETER_SETS.values():
            self._assert_invariant(graph, params)

    @pytest.mark.parametrize("shape, params_name", _shape_cases())
    def test_color_reduce_generator_shapes(self, shape, params_name):
        self._assert_invariant(GENERATOR_SHAPES[shape](), PARAMETER_SETS[params_name])

    @pytest.mark.xfail(strict=True, reason=GREEDY_TIES_REASON)
    def test_color_reduce_small_dense_instance(self):
        # The root partitions here; a recursion leaf's greedy sees the ties.
        graph = generators.gnm_random(13, 72, seed=1)
        self._assert_invariant(graph, ColorReduceParameters.scaled(num_bins=3, collect_factor=1.0))

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "LowSpaceColorReduce is not order-invariant: the MIS reduction "
            "numbers its vertices by CSR position, which is insertion order"
        ),
    )
    def test_low_space_edge_order(self):
        graph = generators.gnm_random(300, 600, seed=9)
        edges = sorted(tuple(sorted(edge)) for edge in graph.edges())
        shuffled = list(edges)
        random.Random(0).shuffle(shuffled)
        in_order = LowSpaceColorReduce().run(Graph.from_edges(edges))
        reordered = LowSpaceColorReduce().run(Graph.from_edges(shuffled))
        assert reordered.total_mis_phases == in_order.total_mis_phases
        assert reordered.coloring == in_order.coloring
