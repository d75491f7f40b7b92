"""Exact scalar/batch equivalence of the vectorized kernels.

The batched evaluation layer (:mod:`repro.hashing.batch`, the CSR view, the
cost evaluators, the batched selection paths) is only allowed to exist
because it is a *bit-identical* substitution for the scalar reference path:
same hash values, same bins, same Equation (1)/(2) costs, same selected
seeds, same final colorings.  These tests pin that contract across domains,
ranges, independence parameters and both cost equations.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from scalar_oracle import (
    LOW_SPACE_PARTITION_ENTRY_POINTS,
    PARTITION_ENTRY_POINTS,
    assert_same_run,
    production_and_reference,
)
from repro.core.classification import partition_cost_function
from repro.core.color_reduce import ColorReduce
from repro.core.low_space.machine_sets import low_space_cost_function
from repro.core.low_space.params import LowSpaceParameters
from repro.core.params import ColorReduceParameters
from repro.core.partition import Partition
from repro.derand.conditional_expectation import HashPairSelector, SelectionStrategy
from repro.graph.generators import erdos_renyi, ring_of_cliques
from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment
from repro.hashing.batch import (
    evaluate_polynomial_many,
    hash_many,
    rowwise_bincount,
    segment_sum_rows,
)
from repro.hashing.family import HashFunction, KWiseIndependentFamily
from repro.hashing.field import MERSENNE_61, evaluate_polynomial
from repro.hashing.seeds import seed_from_int


# ----------------------------------------------------------------------
# polynomial kernel
# ----------------------------------------------------------------------
class TestEvaluatePolynomialMany:
    @pytest.mark.parametrize("prime", [2, 101, 2003, (1 << 31) - 1, MERSENNE_61])
    @pytest.mark.parametrize("k", [2, 4])
    def test_matches_scalar_horner(self, prime, k):
        coeffs = [(37 * i + 11) % prime for i in range(k)]
        xs = [0, 1, 2, prime - 1, prime // 2, 12345 % prime]
        batched = evaluate_polynomial_many(coeffs, xs, prime)
        assert [int(v) for v in batched] == [
            evaluate_polynomial(coeffs, x, prime) for x in xs
        ]

    @pytest.mark.parametrize("prime", [2003, MERSENNE_61])
    def test_coefficient_matrix_rows(self, prime):
        rows = [[(13 * s + 7 * i + 1) % prime for i in range(4)] for s in range(6)]
        xs = list(range(20))
        matrix = evaluate_polynomial_many(rows, xs, prime)
        assert matrix.shape == (6, 20)
        for row, coeffs in zip(matrix, rows):
            assert [int(v) for v in row] == [
                evaluate_polynomial(coeffs, x, prime) for x in xs
            ]

    def test_empty_inputs(self):
        assert evaluate_polynomial_many([1, 2], [], 101).shape == (0,)
        assert evaluate_polynomial_many([[1, 2]], [], 101).shape == (1, 0)

    @pytest.mark.parametrize("prime", [101, MERSENNE_61])
    def test_scalar_input_promoted_to_1d(self, prime):
        values = evaluate_polynomial_many([3, 2], np.int64(5), prime)
        assert values.shape == (1,)
        assert int(values[0]) == evaluate_polynomial([3, 2], 5, prime)

    def test_unreduced_coefficients_match_scalar(self):
        # Coefficients beyond the int64 Horner-safe range (and beyond int64
        # itself) must be reduced exactly, like the scalar reference.
        prime = (1 << 31) - 1
        coeffs = [2**63 - 11, prime - 1, 2**80 + 3]
        xs = [0, 1, prime - 1]
        batched = evaluate_polynomial_many(coeffs, xs, prime)
        assert [int(v) for v in batched] == [
            evaluate_polynomial(coeffs, x, prime) for x in xs
        ]


class TestHashMany:
    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize(
        "domain,range_size", [(97, 5), (5000, 3), (1 << 33, 17)]
    )
    def test_hash_function_hash_many(self, k, domain, range_size):
        family = KWiseIndependentFamily(domain, range_size, independence=4)
        # k=2 functions are built directly (the family requires k >= 4).
        coefficients = tuple((29 * i + 5) % family.prime for i in range(k))
        h = HashFunction(
            coefficients=coefficients,
            prime=family.prime,
            domain_size=domain,
            range_size=range_size,
            seed=seed_from_int(0, 1),
        )
        xs = [0, 1, 2, 3, domain - 1, (domain // 2) + 1]
        assert [int(v) for v in h.hash_many(xs)] == [h(x % domain) for x in xs]

    def test_family_hash_candidates(self):
        family = KWiseIndependentFamily(4001, 7, independence=4)
        seeds = [0, 1, 12345, family.family_size - 1]
        xs = list(range(64))
        matrix = family.hash_candidates(seeds, xs)
        assert matrix.shape == (len(seeds), len(xs))
        for row, seed_int in zip(matrix, seeds):
            h = family.from_seed_int(seed_int)
            assert [int(v) for v in row] == [h(x) for x in xs]

    def test_field_values_many_matches_field_value(self):
        family = KWiseIndependentFamily(4001, 7, independence=4)
        h = family.from_seed_int(987654321)
        xs = [0, 1, 17, 4000, 123456]
        assert [int(v) for v in h.field_values_many(xs)] == [
            h.field_value(x) for x in xs
        ]

    def test_low_level_hash_many_range_reduction(self):
        prime, range_size = 103, 10
        coeffs = [5, 11, 2]
        xs = list(range(prime))
        values = hash_many(coeffs, xs, prime, range_size)
        expected = [
            (evaluate_polynomial(coeffs, x, prime) * range_size) // prime for x in xs
        ]
        assert [int(v) for v in values] == expected


# ----------------------------------------------------------------------
# array primitives
# ----------------------------------------------------------------------
class TestArrayPrimitives:
    def test_rowwise_bincount(self):
        values = np.array([[0, 1, 1, 3], [2, 2, 2, 0]])
        counts = rowwise_bincount(values, 4)
        assert counts.tolist() == [[1, 2, 0, 1], [1, 0, 3, 0]]

    def test_segment_sum_rows_with_empty_segments(self):
        matrix = np.array([[1, 1, 0, 1], [0, 1, 1, 1]], dtype=bool)
        indptr = np.array([0, 0, 2, 2, 4, 4])
        sums = segment_sum_rows(matrix, indptr)
        assert sums.tolist() == [[0, 2, 0, 1, 0], [0, 1, 0, 2, 0]]

    def test_segment_sum_rows_wide_segments(self):
        # A segment longer than 127 exercises the widening (non-int8) path.
        width = 300
        matrix = np.ones((2, width), dtype=bool)
        indptr = np.array([0, 200, width])
        assert segment_sum_rows(matrix, indptr).tolist() == [[200, 100], [200, 100]]


# ----------------------------------------------------------------------
# CSR view
# ----------------------------------------------------------------------
class TestGraphCSR:
    def test_layout_matches_adjacency(self):
        graph = erdos_renyi(120, 0.08, seed=5)
        csr = graph.csr()
        assert csr.num_nodes == graph.num_nodes
        assert csr.num_directed_edges == 2 * graph.num_edges
        for index, node in enumerate(csr.node_ids):
            run = csr.indices[csr.indptr[index] : csr.indptr[index + 1]]
            expected = sorted(csr.locate(list(graph.neighbors(node))).tolist())
            assert list(run) == expected
            assert csr.degrees[index] == graph.degree(node)
        assert (csr.edge_sources == np.repeat(np.arange(csr.num_nodes), csr.degrees)).all()

    def test_cache_and_invalidation(self):
        graph = Graph(nodes=range(4), edges=[(0, 1)])
        first = graph.csr()
        assert graph.csr() is first  # cached
        graph.add_edge(2, 3)
        second = graph.csr()
        assert second is not first
        assert second.num_directed_edges == 4

    def test_empty_graph(self):
        csr = Graph().csr()
        assert csr.num_nodes == 0
        assert csr.num_directed_edges == 0

    def test_iter_neighbors_matches_neighbors(self):
        graph = erdos_renyi(40, 0.2, seed=1)
        for node in graph.nodes():
            assert set(graph.iter_neighbors(node)) == graph.neighbors(node)


# ----------------------------------------------------------------------
# Equation (1): partition cost
# ----------------------------------------------------------------------
def _partition_setup(num_nodes=150, p=0.08, seed=11, scaled=True):
    graph = erdos_renyi(num_nodes, p, seed=seed)
    palettes = PaletteAssignment.delta_plus_one(graph)
    if scaled:
        params = ColorReduceParameters.scaled(num_bins=4)
    else:
        params = ColorReduceParameters()
    ell = max(float(graph.max_degree()), 2.0)
    cost = partition_cost_function(graph, palettes, params, ell, graph.num_nodes)
    family1, family2 = Partition(params).build_families(
        graph, palettes, ell, graph.num_nodes
    )
    return graph, palettes, params, ell, cost, family1, family2


class TestPartitionCostEquivalence:
    @pytest.mark.parametrize("scaled", [True, False])
    def test_many_matches_scalar(self, scaled):
        _, _, _, _, cost, family1, family2 = _partition_setup(scaled=scaled)
        pairs = [
            (family1.from_seed_int(3 * i + 1), family2.from_seed_int(7 * i + 2))
            for i in range(40)
        ]
        assert cost.many(pairs) == [cost(h1, h2) for h1, h2 in pairs]

    def test_many_matches_scalar_ring_of_cliques(self):
        graph = ring_of_cliques(12, 8)
        palettes = PaletteAssignment.delta_plus_one(graph)
        params = ColorReduceParameters.scaled(num_bins=3)
        ell = max(float(graph.max_degree()), 2.0)
        cost = partition_cost_function(graph, palettes, params, ell, graph.num_nodes)
        family1, family2 = Partition(params).build_families(
            graph, palettes, ell, graph.num_nodes
        )
        pairs = [
            (family1.from_seed_int(i), family2.from_seed_int(i * i + 1))
            for i in range(24)
        ]
        assert cost.many(pairs) == [cost(h1, h2) for h1, h2 in pairs]

    def test_small_slabs_equal_one_slab(self):
        _, _, _, _, cost, family1, family2 = _partition_setup()
        pairs = [
            (family1.from_seed_int(i + 1), family2.from_seed_int(2 * i + 1))
            for i in range(10)
        ]
        whole = cost.many(pairs)
        cost.MAX_ELEMENTS = 1  # force one pair per slab
        assert cost.many(pairs) == whole

    def test_empty_batch(self):
        _, _, _, _, cost, _, _ = _partition_setup(num_nodes=20, p=0.2)
        assert cost.many([]) == []

    def test_graph_mutation_between_batches_tracked(self):
        graph, _, _, _, cost, family1, family2 = _partition_setup(
            num_nodes=60, p=0.15
        )
        pairs = [
            (family1.from_seed_int(i + 1), family2.from_seed_int(i + 3))
            for i in range(6)
        ]
        cost.many(pairs)  # builds the static arrays
        nodes = sorted(graph.nodes())
        u, v = next(
            (a, b)
            for a in nodes
            for b in nodes
            if a < b and not graph.has_edge(a, b)
        )
        graph.add_edge(u, v)
        # The batched path must follow the live graph, like the scalar path.
        assert cost.many(pairs) == [cost(h1, h2) for h1, h2 in pairs]


# ----------------------------------------------------------------------
# Equation (2): low-space cost
# ----------------------------------------------------------------------
class TestLowSpaceCostEquivalence:
    def test_many_matches_scalar(self):
        graph = erdos_renyi(150, 0.1, seed=13)
        palettes = PaletteAssignment.degree_plus_one(graph)
        params = LowSpaceParameters.scaled(
            num_bins=3, low_degree_threshold=6, machine_chunk=8
        )
        threshold = params.low_degree_threshold(graph.num_nodes)
        high = {v for v in graph.nodes() if graph.degree(v) > threshold}
        num_bins = params.num_bins(graph.num_nodes)
        cost = low_space_cost_function(graph, palettes, high, params, num_bins)
        family1 = KWiseIndependentFamily(graph.num_nodes, num_bins, 4)
        family2 = KWiseIndependentFamily(
            graph.num_nodes**2, max(1, num_bins - 1), 4
        )
        pairs = [
            (family1.from_seed_int(5 * i + 1), family2.from_seed_int(9 * i + 4))
            for i in range(32)
        ]
        assert cost.many(pairs) == [cost(h1, h2) for h1, h2 in pairs]

        # Mutating the graph between batches must be tracked, like the
        # partition evaluator's CSR guard.
        high_list = sorted(high)
        added = False
        for u in high_list:
            for v in high_list:
                if u < v and not graph.has_edge(u, v):
                    graph.add_edge(u, v)
                    added = True
                    break
            if added:
                break
        assert added
        assert cost.many(pairs) == [cost(h1, h2) for h1, h2 in pairs]


# ----------------------------------------------------------------------
# selection: identical outcomes through the whole pipeline
# ----------------------------------------------------------------------
class TestSelectionEquivalence:
    """Batched candidate scoring against the scalar per-pair scan."""

    @pytest.mark.parametrize(
        "strategy",
        [
            SelectionStrategy.FIRST_FEASIBLE,
            SelectionStrategy.EXHAUSTIVE,
            SelectionStrategy.CONDITIONAL_EXPECTATION,
        ],
    )
    def test_selected_seeds_identical(self, monkeypatch, strategy):
        _, _, params, ell, cost, family1, family2 = _partition_setup()
        target = params.cost_target(ell, cost.graph.num_nodes)

        def select():
            selector = HashPairSelector(
                family1,
                family2,
                strategy=strategy,
                max_candidates=128,
                chunk_bits=4,
                completion_samples=2,
                exact_completion_bits=4,
                candidate_salt=3,
            )
            return selector.select(cost, target_bound=target)

        batched, scalar, oracle = production_and_reference(monkeypatch, select)
        oracle.assert_called("HashPairSelector._batch_cost")
        assert batched.h1.seed == scalar.h1.seed
        assert batched.h2.seed == scalar.h2.seed
        assert batched.cost == scalar.cost
        assert batched.evaluations == scalar.evaluations
        assert batched.rounds_charged == scalar.rounds_charged
        assert batched.fallback_used == scalar.fallback_used

    def test_color_reduce_coloring_identical(self, monkeypatch):
        graph = erdos_renyi(200, 0.06, seed=23)
        params = ColorReduceParameters.scaled(num_bins=3, level_use_batch=False)
        batched, scalar, oracle = production_and_reference(
            monkeypatch, lambda: ColorReduce(params).run(graph.copy())
        )
        oracle.assert_called(*PARTITION_ENTRY_POINTS)
        assert_same_run(batched, scalar)
        assert batched.total_bad_nodes == scalar.total_bad_nodes


# ----------------------------------------------------------------------
# post-selection and extraction kernels: identical pipelines against the
# scalar oracle (tests/scalar_oracle.py)
# ----------------------------------------------------------------------
class TestGraphBatchEquivalence:
    """Production runs must be bit-identical to the scalar oracle end to end."""

    def test_partition_identical_instances_and_seeds(self, monkeypatch):
        graph = erdos_renyi(150, 0.08, seed=11)
        palettes = PaletteAssignment.delta_plus_one(graph)
        params = ColorReduceParameters.scaled(num_bins=4)
        ell = max(float(graph.max_degree()), 2.0)
        batched, scalar, oracle = production_and_reference(
            monkeypatch,
            lambda: Partition(params).run(
                graph.copy(), palettes.copy(), ell, graph.num_nodes, salt=1
            ),
        )
        oracle.assert_called(*PARTITION_ENTRY_POINTS)
        assert batched.h1.seed == scalar.h1.seed
        assert batched.h2.seed == scalar.h2.seed
        assert batched.bad_graph.nodes() == scalar.bad_graph.nodes()
        assert len(batched.color_bins) == len(scalar.color_bins)
        for b_bin, s_bin in zip(
            batched.color_bins + [batched.leftover],
            scalar.color_bins + [scalar.leftover],
        ):
            assert b_bin.graph.nodes() == s_bin.graph.nodes()
            for node in s_bin.graph.nodes():
                assert b_bin.graph.neighbors(node) == s_bin.graph.neighbors(node)
                assert b_bin.palettes.palette(node) == s_bin.palettes.palette(node)

    def test_color_reduce_identical_end_to_end(self, monkeypatch):
        graph = erdos_renyi(200, 0.06, seed=29)
        params = ColorReduceParameters.scaled(num_bins=3, level_use_batch=False)
        batched, scalar, oracle = production_and_reference(
            monkeypatch, lambda: ColorReduce(params).run(graph.copy())
        )
        oracle.assert_called(*PARTITION_ENTRY_POINTS, "greedy_list_coloring")
        assert_same_run(batched, scalar)
        assert batched.total_bad_nodes == scalar.total_bad_nodes

    def test_color_reduce_identical_paper_mode(self, monkeypatch):
        graph = erdos_renyi(120, 0.1, seed=31)
        params = ColorReduceParameters(level_use_batch=False)
        batched, scalar, oracle = production_and_reference(
            monkeypatch, lambda: ColorReduce(params).run(graph.copy())
        )
        oracle.assert_called("greedy_list_coloring")
        assert_same_run(batched, scalar)

    def test_low_space_color_reduce_identical_end_to_end(self, monkeypatch):
        from repro.core.low_space.color_reduce import LowSpaceColorReduce

        graph = erdos_renyi(150, 0.12, seed=37)
        params = LowSpaceParameters.scaled(
            num_bins=3, low_degree_threshold=6, machine_chunk=8, level_use_batch=False
        )
        batched, scalar, oracle = production_and_reference(
            monkeypatch, lambda: LowSpaceColorReduce(params).run(graph.copy())
        )
        oracle.assert_called(*LOW_SPACE_PARTITION_ENTRY_POINTS)
        assert_same_run(batched, scalar)
        assert batched.total_mis_phases == scalar.total_mis_phases

    def test_low_space_partition_identical_seeds(self, monkeypatch):
        from repro.core.low_space.partition import LowSpacePartition

        graph = erdos_renyi(150, 0.1, seed=13)
        palettes = PaletteAssignment.degree_plus_one(graph)
        params = LowSpaceParameters.scaled(
            num_bins=3, low_degree_threshold=6, machine_chunk=8
        )
        batched, scalar, oracle = production_and_reference(
            monkeypatch,
            lambda: LowSpacePartition(params).run(
                graph.copy(), palettes.copy(), graph.num_nodes, salt=2
            ),
        )
        oracle.assert_called(*LOW_SPACE_PARTITION_ENTRY_POINTS)
        assert batched.h1.seed == scalar.h1.seed
        assert batched.h2.seed == scalar.h2.seed
        assert batched.num_violating_nodes == scalar.num_violating_nodes
        assert batched.low_degree_graph.nodes() == scalar.low_degree_graph.nodes()
        for b_bin, s_bin in zip(
            batched.color_bins + [batched.leftover],
            scalar.color_bins + [scalar.leftover],
        ):
            assert b_bin.graph.nodes() == s_bin.graph.nodes()
            for node in s_bin.graph.nodes():
                assert b_bin.graph.neighbors(node) == s_bin.graph.neighbors(node)
