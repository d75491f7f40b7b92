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
* the low-space evaluator's array-built static arrays equal the scalar
  per-node walk bit for bit on the same shapes, on negative ids and on
  child instances.
* both evaluators' node-range count over ``[0, n)`` equals the
  concatenation of its counts over any sub-ranges.
* neither pipeline's outcome changes when the same graph is built from
  shuffled node and edge orders with flipped edge orientations.
* the palette store's rank kernel (universe plus entry positions, from
  the color span or a sort) equals ``np.unique`` plus ``np.searchsorted``
  in values and dtypes, on roots and on every kind of child the batch
  kernels build.
"""

from __future__ import annotations

import dataclasses
import random

import mis_oracle
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scalar_oracle import (
    LOW_SPACE_PARTITION_ENTRY_POINTS,
    PARTITION_ENTRY_POINTS,
    SetGraph,
    assert_same_graph,
    assert_same_run,
    build_csr,
    induced_subgraph,
    induced_subgraphs,
    production_and_reference,
    rank_oracle,
    remove_colors_used_by_neighbors,
    restricted_to,
    scalar_low_space_prepare,
)

from repro.core import ColorReduce, ColorReduceParameters
from repro.core.classification import partition_cost_function
from repro.core.low_space.color_reduce import LowSpaceColorReduce
from repro.core.low_space.machine_sets import LowSpaceCostEvaluator
from repro.core.low_space.params import LowSpaceParameters
from repro.core.low_space.mis_reduction import build_reduction_graph, coloring_from_mis
from repro.core.local_coloring import _greedy_over_arrays, _greedy_scalar, greedy_list_coloring
from repro.core.partition import Partition
from repro.errors import ColoringError
from repro.graph import Graph, PaletteAssignment, generators
from repro.graph.palettes import _PaletteStore
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
        palettes.remove_colors_used_by_neighbors_batch(graph, coloring)
        for node in palettes.nodes():
            assert palettes.palette_size(node) <= before[node]

    @SETTINGS
    @given(graphs_with_palettes())
    def test_restriction_is_subset(self, data):
        graph, palettes = data
        universe = palettes.store().universe().astype(np.int64)
        (restricted,) = palettes.restricted_by_bins([graph.nodes()], universe, universe % 2)
        for node in graph.nodes():
            assert restricted.palette(node).issubset(palettes.palette(node))
            assert all(color % 2 == 0 for color in restricted.palette(node))


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
        scalar = induced_subgraph(graph, subset)
        batched = graph.induced_subgraph(subset)
        _assert_same_graph(scalar, batched)

    @SETTINGS
    @given(sparse_graphs_with_subsets())
    def test_subgraph_degrees_within_matches_scalar(self, data):
        # d'(v): degrees inside the subgraph, read off the child's view
        graph, subset = data
        scalar = induced_subgraph(graph, subset).degrees()
        batched = graph.induced_subgraph(subset).degrees()
        assert batched == scalar
        assert list(batched) == list(scalar)  # same key order

    @SETTINGS
    @given(sparse_graphs_with_subsets(), st.integers(min_value=1, max_value=5))
    def test_induced_subgraphs_matches_scalar(self, data, num_groups):
        graph, _ = data
        nodes = graph.nodes()
        groups = [
            [node for index, node in enumerate(nodes) if index % num_groups == g]
            for g in range(num_groups)
        ]
        scalar = induced_subgraphs(graph, groups)
        batched = graph.induced_subgraphs(groups)
        assert len(scalar) == len(batched) == num_groups
        for expected, actual in zip(scalar, batched):
            _assert_same_graph(expected, actual)

    @SETTINGS
    @given(sparse_graphs_with_subsets())
    def test_extracted_child_answers_like_fresh_build(self, data):
        """The child's view is canonical: the adjacency-set reference of
        the parent's edges among the child's nodes, in the child's order."""
        graph, subset = data
        child = graph.induced_subgraph(subset)
        members = set(child.nodes())
        reference = SetGraph(
            child.nodes(),
            [(u, v) for u in child.nodes() for v in graph.neighbors(u) if v in members],
        )
        assert_same_graph(child, reference)
        cached = child.csr()
        ids = cached.id_list()
        assert (cached.locate(ids) == np.arange(len(ids))).all()


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


class TestRangeCounts:
    """The selected-pair count kernel is one node-range count: over
    ``[0, n)`` it equals the concatenation of its counts over any cut of
    ``[0, n)`` into sub-ranges, for both evaluators."""

    @SETTINGS
    @given(
        partition_instances(),
        st.sampled_from(["partition", "low-space"]),
        st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4),
    )
    def test_full_range_is_the_concatenation_of_sub_ranges(self, data, kind, cuts):
        from repro.core.classification import hash_families, partition_cost_function
        from repro.core.low_space.machine_sets import low_space_cost_function

        graph, palettes, seed1, seed2 = data
        global_nodes = max(graph.num_nodes, 1)
        if kind == "partition":
            params = ColorReduceParameters.scaled(num_bins=3)
            ell = max(float(graph.max_degree()), 2.0)
            num_bins = params.num_bins(ell)
            cost = partition_cost_function(graph, palettes, params, ell, global_nodes)
        else:
            params = LowSpaceParameters.scaled(num_bins=3, low_degree_threshold=1)
            num_bins = params.num_bins(global_nodes)
            high = {node for node in graph.nodes() if graph.degree(node) > 1}
            cost = low_space_cost_function(graph, palettes, high, params, num_bins)
        family1, family2 = hash_families(
            graph, palettes, num_bins, params.independence, global_nodes
        )
        h1, h2 = family1.from_seed_int(seed1), family2.from_seed_int(seed2)
        num_nodes = len(cost._prepared()["ids"])
        bounds = sorted({0, num_nodes, *(int(cut * num_nodes) for cut in cuts)})
        whole = cost.range_counts(h1, h2, 0, num_nodes)
        parts = [
            cost.range_counts(h1, h2, start, stop)
            for start, stop in zip(bounds, bounds[1:])
        ]
        for index in range(2):
            assert whole[index].dtype == np.int64
            joined = [value for part in parts for value in part[index].tolist()]
            assert whole[index].tolist() == joined
        # The slab kernel counts the same integers for the same pair.
        _, slab_d, slab_p = cost._count_slab([(h1, h2)], cost._prepared())
        assert slab_d[0].tolist() == whole[0].tolist()
        assert slab_p[0].tolist() == whole[1].tolist()


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
            partition_cost_function,
        )

        graph, palettes, seed1, seed2 = data
        params = ColorReduceParameters.scaled(num_bins=3)
        ell = max(float(graph.max_degree()), 2.0)
        h1, h2 = self._hash_pair(graph, palettes, params.num_bins(ell), seed1, seed2)
        expected = classify_partition(
            graph, palettes, h1, h2, params, ell, max(graph.num_nodes, 1)
        )
        actual, _ = partition_cost_function(
            graph, palettes, params, ell, max(graph.num_nodes, 1)
        ).classify_selected(h1, h2)
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
            restricted_to(
                palettes, members, keep_color=lambda color, b=index: colors_to_bins[color] == b
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
    def test_extracted_child_greedy_matches_reference(self, data):
        graph, subset = data
        graph.csr()
        lazy = graph.induced_subgraph(subset)
        view = lazy.csr()
        scalar = induced_subgraph(graph, subset)
        lazy_coloring = greedy_list_coloring(
            lazy, PaletteAssignment.degree_plus_one(lazy)
        )
        assert lazy.csr() is view  # the sweep folds no new view
        scalar_coloring = _greedy_scalar(scalar, PaletteAssignment.degree_plus_one(scalar))
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
    def _assert_equivalent(graph, palettes, coloring):
        scalar = palettes.copy()
        batch = palettes.copy()
        removed_scalar = remove_colors_used_by_neighbors(scalar, graph, coloring)
        removed_batch = batch.remove_colors_used_by_neighbors_batch(graph, coloring)
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
        self._assert_equivalent(graph, extra, coloring)

    @SETTINGS
    @given(graphs_with_palettes(), st.dictionaries(st.integers(0, 39), st.integers(0, 60)))
    def test_subset_updated_matches_two_step(self, data, coloring):
        graph, palettes = data
        members = [node for node in graph.nodes() if node % 2 == 0]
        expected = palettes.copy().subset(members)
        removed_expected = remove_colors_used_by_neighbors(expected, graph, coloring)
        child, removed = palettes.subset_updated(members, graph, coloring)
        assert removed == removed_expected
        assert child.nodes() == expected.nodes()
        for node in members:
            assert child.palette(node) == expected.palette(node)


@st.composite
def rank_instances(draw):
    """A graph plus list palettes in one of four color regimes.

    ``narrow`` (int32 store), ``negative`` (int64), ``huge`` (sparse
    colors near ``±2**62``: the sort path) and ``shared`` (most nodes hold
    the whole small universe: spans no wider than the entries).
    """
    graph = draw(graphs(max_nodes=14))
    regime = draw(st.sampled_from(["narrow", "negative", "huge", "shared"]))
    rng = draw(st.randoms(use_true_random=False))
    if regime == "huge":
        pool = sorted(
            {sign * 2**62 + rng.randrange(-1000, 1000) for sign in (-1, 1) for _ in range(8)}
        )
    else:
        base = {"narrow": rng.randrange(50), "negative": rng.randrange(-60, 0), "shared": 0}
        pool = list(range(base[regime], base[regime] + rng.randrange(1, 25)))
    palettes = {}
    for node in graph.nodes():
        whole = regime == "shared" and rng.random() < 0.8
        palettes[node] = rng.sample(pool, len(pool) if whole else rng.randrange(len(pool) + 1))
    return graph, PaletteAssignment.from_lists(palettes)


class TestRankKernel:
    """``_PaletteStore.ranks`` equals its sort-and-search oracle exactly."""

    @staticmethod
    def _assert_ranks(store, gather=None):
        entries = store.flat if gather is None else store.flat[gather]
        for got, want in zip(store.ranks(gather), rank_oracle(entries)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def _assert_store(self, store, rng):
        """Every gather shape first, then the caching accessors."""
        count = store.flat.shape[0]
        self._assert_ranks(store)
        self._assert_ranks(store, np.zeros(0, dtype=np.int64))
        self._assert_ranks(store, np.asarray(rng.sample(range(count), count), dtype=np.int64))
        if count:
            strict = sorted(rng.sample(range(count), rng.randrange(count)))
            self._assert_ranks(store, np.asarray(strict, dtype=np.int64))
        universe, positions = rank_oracle(store.flat)
        for got, want in (
            (store.universe(), universe),
            (store.universe_positions()[0], universe),
            (store.universe_positions()[1], positions),
        ):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @SETTINGS
    @given(rank_instances(), st.randoms(use_true_random=False))
    def test_ranks_match_oracle_on_roots_and_children(self, data, rng):
        graph, palettes = data
        root = palettes.store()
        self._assert_store(root, rng)
        nodes = graph.nodes()
        members = rng.sample(nodes, rng.randrange(len(nodes) + 1))
        universe = root.universe()
        coloring = (
            {node: int(rng.choice(universe)) for node in rng.sample(nodes, len(nodes) // 2)}
            if universe.shape[0]
            else {}
        )
        groups = [[], [], []]
        for node in members:
            groups[rng.randrange(3)].append(node)
        bins = np.asarray([rng.randrange(3) for _ in range(universe.shape[0])], dtype=np.int64)
        pruned = palettes.copy()
        pruned.remove_colors_used_by_neighbors_batch(graph, coloring)
        children = [
            palettes.subset(members),
            *palettes.restricted_by_bins(groups, universe.astype(np.int64), bins),
            palettes.subset_updated(members, graph, coloring)[0],
            pruned,
        ]
        for child in children:
            self._assert_store(child.store(), rng)

    def test_partition_ranks_an_aligned_store_once(self, monkeypatch):
        # The families' universe and the cost evaluator's entry positions
        # come from one rank of the store.
        graph = generators.gnm_random(40, 120, seed=1)
        delta = graph.max_degree()
        palettes = PaletteAssignment.from_lists(
            {node: range(2 * delta + 2) for node in graph.nodes()}
        )
        store = palettes.store()
        assert store.nodes == graph.csr().node_ids
        calls = []
        real_ranks = _PaletteStore.ranks
        monkeypatch.setattr(
            _PaletteStore,
            "ranks",
            lambda self, gather=None: calls.append(gather) or real_ranks(self, gather),
        )
        partition = Partition()
        partition.build_families(graph, palettes, float(delta), graph.num_nodes)
        cost = partition_cost_function(
            graph, palettes, partition.params, float(delta), graph.num_nodes
        )
        assert cost._prepared()["entry_colors"] is store.universe_positions()[1]
        assert calls == [None]

    @pytest.mark.parametrize("base", [0, -5, 2**62], ids=["int32", "negative", "near-2**62"])
    @pytest.mark.parametrize(
        "rows, sorts",
        [
            ([[0, 1, 2], [1]], False),  # span 3 < 4 entries
            ([[0, 1, 2, 3]], False),  # span 4 == 4 entries
            ([[0, 1, 2, 4]], True),  # span 5 > 4 entries
        ],
        ids=["below", "at", "above"],
    )
    def test_span_boundary(self, monkeypatch, base, rows, sorts):
        palettes = PaletteAssignment.from_lists(
            {node: [base + color for color in row] for node, row in enumerate(rows)}
        )
        root = palettes.store()
        expected = rank_oracle(root.flat)
        sorted_calls = []
        real_unique = np.unique
        monkeypatch.setattr(
            np, "unique", lambda *a, **k: sorted_calls.append(1) or real_unique(*a, **k)
        )
        for got, want in zip(root.ranks(), expected):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert bool(sorted_calls) == sorts


class TestGreedyBatchEquivalence:
    """The array greedy sweep is a bit-identical scalar substitution (called
    directly: these instances are mostly below its cutover)."""

    @SETTINGS
    @given(relabeled_instances())
    def test_default_order_matches(self, data):
        graph, palettes = data
        scalar = _greedy_scalar(graph, palettes)
        assert _greedy_over_arrays(graph, palettes) == scalar
        assert greedy_list_coloring(graph, palettes) == scalar

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
            scalar = _greedy_scalar(graph, palettes)
        except ColoringError as exc:
            scalar_error = str(exc)
        try:
            batched = _greedy_over_arrays(graph, palettes)
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
            outcome_proxy = proxy.outcome_selected(h1, h2)
            outcome_ref = reference.outcome_selected(h1, h2)
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
        view = reduction.graph.csr()
        expected_view = build_csr({node: expected_graph.neighbors(node) for node in expected_graph})
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
# low-space evaluator prep: array build vs the scalar walk
# ----------------------------------------------------------------------
@st.composite
def low_space_prep_instances(draw):
    """A hostile shape plus an optional wide hub (degrees up to a few
    hundred, where vectorized and scalar ``pow`` can round apart), on
    shifted ids (possibly negative), optionally cut down to a child
    instance whose CSR ids are not positions, plus a low-degree threshold
    (high enough, sometimes, to leave no high node)."""
    graph = draw(hostile_graphs())
    nodes = graph.nodes()
    edges = list(graph.edges())
    # Hub degrees whose threshold d/B + d**0.6 rounds differently under
    # numpy's vectorized pow (49 with B=3, 124 with B=4, 284 with B=2).
    leaves = draw(st.sampled_from((0, 0, 49, 124, 284)))
    if leaves:
        hub = max(nodes, default=0) + 1
        spokes = list(range(hub + 1, hub + 1 + leaves))
        nodes = nodes + [hub] + spokes
        edges += [(hub, leaf) for leaf in spokes]
    shift = draw(st.sampled_from((0, -(10**6), 7)))
    graph = Graph(
        nodes=[node + shift for node in nodes],
        edges=[(u + shift, v + shift) for u, v in edges if u != v],
    )
    if graph.num_nodes and draw(st.booleans()):
        nodes = graph.nodes()
        keep = draw(st.lists(st.sampled_from(nodes), unique=True, max_size=len(nodes)))
        graph = graph.induced_subgraphs([keep])[0]
    threshold = draw(st.integers(min_value=0, max_value=graph.max_degree() + 1))
    num_bins = draw(st.integers(min_value=2, max_value=4))
    machine_chunk = draw(st.sampled_from((1, 4)))
    return graph, threshold, num_bins, machine_chunk


class TestLowSpacePrepOracle:
    """The low-space evaluator's array-built static arrays equal the
    per-node walk in ``tests/scalar_oracle.py`` bit for bit."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(low_space_prep_instances())
    def test_prepare_matches_scalar_walk(self, instance):
        graph, threshold, num_bins, machine_chunk = instance
        palettes = PaletteAssignment.degree_plus_one(graph)
        params = LowSpaceParameters.scaled(
            num_bins=num_bins,
            low_degree_threshold=max(threshold, 1),
            machine_chunk=machine_chunk,
        )
        high = {node for node in graph.nodes() if graph.degree(node) > threshold}
        production = LowSpaceCostEvaluator(graph, palettes, high, params, num_bins)._prepare()
        reference = scalar_low_space_prepare(
            LowSpaceCostEvaluator(graph, palettes, high, params, num_bins)
        )
        assert production.keys() == reference.keys()
        for key in ("ids", "edge_sources", "edge_targets", "edge_indptr"):
            assert production[key].dtype == np.int64
            assert np.array_equal(production[key], reference[key]), key
        assert production["threshold"].dtype == np.float64
        assert np.array_equal(
            production["threshold"].view(np.int64), reference["threshold"].view(np.int64)
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

PARAMETER_SETS = {
    "paper": ColorReduceParameters(),
    "scaled": ColorReduceParameters.scaled(num_bins=3),
}


class TestReorderingInvariance:
    """An outcome depends only on the graph, not on the order its nodes and
    edges were handed over.

    Both ``run`` methods put the instance in sorted node order at the door
    (:func:`repro.graph.palettes.canonical_instance`), so the coloring,
    recursion tree, rounds and ledger are unchanged under shuffled node and
    edge orders and flipped edge orientations.
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

    @pytest.mark.parametrize(
        "shape, params_name",
        [(shape, name) for shape in sorted(GENERATOR_SHAPES) for name in PARAMETER_SETS],
    )
    def test_color_reduce_generator_shapes(self, shape, params_name):
        self._assert_invariant(GENERATOR_SHAPES[shape](), PARAMETER_SETS[params_name])

    def test_color_reduce_small_dense_instance(self):
        # The root partitions here; a recursion leaf's greedy sees the ties.
        graph = generators.gnm_random(13, 72, seed=1)
        self._assert_invariant(graph, ColorReduceParameters.scaled(num_bins=3, collect_factor=1.0))

    def test_low_space_edge_order(self):
        graph = generators.gnm_random(300, 600, seed=9)
        edges = sorted(tuple(sorted(edge)) for edge in graph.edges())
        shuffled = list(edges)
        random.Random(0).shuffle(shuffled)
        in_order = LowSpaceColorReduce().run(Graph.from_edges(edges))
        reordered = LowSpaceColorReduce().run(Graph.from_edges(shuffled))
        assert reordered.total_mis_phases == in_order.total_mis_phases
        assert _outcome(reordered) == _outcome(in_order)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(hostile_graphs(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_both_pipelines_on_hostile_shapes(self, graph, seed):
        rng = random.Random(seed)
        variants = [_reordered(graph, rng) for _ in range(2)]
        variants.append(
            Graph.from_edges([(v, u) for u, v in graph.edges()], nodes=reversed(graph.nodes()))
        )
        pipelines = (
            lambda g: ColorReduce(ColorReduceParameters.scaled(num_bins=3)).run(g),
            lambda g: LowSpaceColorReduce(
                LowSpaceParameters.scaled(num_bins=3, low_degree_threshold=3, machine_chunk=4)
            ).run(g),
        )
        for run in pipelines:
            expected = _outcome(run(graph.copy()))
            for variant in variants:
                assert _outcome(run(variant)) == expected
