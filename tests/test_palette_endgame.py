"""The array-backed palette store and the batched ColorReduce endgame.

PR 4's contract: ``PaletteAssignment`` keeps two backings (Python sets and
the flat sorted-array store) that answer every operation identically; the
batched endgame kernels — ``remove_colors_used_by_neighbors_batch``,
``subset_updated``, the array sweep of ``greedy_list_coloring``, the
vectorized ``validate_for_graph`` / ``min_slack`` — are bit-identical
substitutions for their scalar references; and rerouting the drivers to
those references (``tests/scalar_oracle.py``) changes *nothing* observable
end to end (colorings, recursion trees, round ledgers including the
palette-update ``removed`` counts).
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from scalar_oracle import assert_same_run, production_and_reference, scalar_reference

from repro.core.color_reduce import ColorReduce
from repro.core.local_coloring import greedy_list_coloring
from repro.core.low_space.color_reduce import LowSpaceColorReduce
from repro.core.low_space.params import LowSpaceParameters
from repro.core.params import ColorReduceParameters
from repro.errors import ColoringError, PaletteError
from repro.graph.generators import erdos_renyi, power_law
from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment


def _sets_backed(palettes: PaletteAssignment) -> PaletteAssignment:
    """A copy forced onto the sets backing (the scalar reference state)."""
    clone = palettes.copy()
    clone._palettes  # materialise the sets
    clone._store = None
    return clone


def _palettes_equal(a: PaletteAssignment, b: PaletteAssignment) -> bool:
    return a.nodes() == b.nodes() and all(
        a.palette(node) == b.palette(node) for node in a.nodes()
    )


# ----------------------------------------------------------------------
# the store lifecycle
# ----------------------------------------------------------------------
class TestPaletteStoreLifecycle:
    def test_store_is_built_lazily_and_cached(self):
        palettes = PaletteAssignment.from_lists({0: [3, 1], 1: [2]})
        assert palettes._store is None
        store = palettes.store()
        assert store is palettes.store()
        assert store.flat.tolist() == [1, 3, 2]  # sorted within each slice
        assert store.offsets.tolist() == [0, 2, 3]

    def test_store_unavailable_for_colors_beyond_int64(self):
        palettes = PaletteAssignment.from_lists({0: [1, 2**70]})
        assert palettes.store() is None
        assert palettes.store() is None  # cached failure, no retry crash
        assert palettes.palette(0) == {1, 2**70}

    def test_scalar_mutation_invalidates_store(self):
        palettes = PaletteAssignment.from_lists({0: [1, 2], 1: [2, 3]})
        palettes.store()
        palettes.remove_color(0, 1)
        assert palettes._store is None
        assert palettes.store().flat.tolist() == [2, 2, 3]

    def test_copy_shares_the_immutable_store(self):
        palettes = PaletteAssignment.from_lists({0: [1, 2]})
        store = palettes.store()
        clone = palettes.copy()
        assert clone._store is store
        clone.remove_color(0, 1)
        assert palettes.palette(0) == {1, 2}
        assert clone.palette(0) == {2}

    def test_subset_of_warm_store_is_array_backed(self):
        palettes = PaletteAssignment.from_lists({0: [5, 1], 1: [2], 2: [9, 7]})
        palettes.store()
        child = palettes.subset([2, 0])
        assert child._sets is None  # sets stay lazy
        assert child.nodes() == [2, 0]
        assert child.palette(2) == {7, 9}
        assert child.palette(0) == {1, 5}
        # materialising the sets leaves the content unchanged
        assert child._palettes == {2: {7, 9}, 0: {1, 5}}

    def test_array_backed_queries_match_sets(self):
        palettes = PaletteAssignment.from_lists({4: [5, 1, 3], 7: [], 9: [2]})
        palettes.store()
        child = palettes.subset([4, 7, 9])
        assert len(child) == 3
        assert 4 in child and 8 not in child
        assert child.palette_size(4) == 3 and child.palette_size(7) == 0
        assert child.total_size() == 4
        assert child.color_universe() == {1, 2, 3, 5}
        assert child.contains_color(4, 3) and not child.contains_color(4, 4)
        assert not child.contains_color(8, 1)
        assert sorted(child.iter_palette(4)) == [1, 3, 5]
        with pytest.raises(PaletteError):
            child.palette(8)

    def test_batch_removal_replaces_store_and_resets_sets(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        palettes = PaletteAssignment.delta_plus_one(graph)
        palettes.store()
        removed = palettes.remove_colors_used_by_neighbors_batch(graph, {0: 1})
        assert removed == 1
        assert palettes.palette(1) == {0, 2}
        assert palettes.palette(0) == {0, 1, 2}
        assert palettes.palette(2) == {0, 1, 2}


# ----------------------------------------------------------------------
# batch kernels vs scalar references
# ----------------------------------------------------------------------
class TestBatchRemoveEquivalence:
    def _check(self, graph, palettes, coloring, nodes=None):
        scalar = _sets_backed(palettes)
        batch = palettes.copy()
        removed_scalar = scalar.remove_colors_used_by_neighbors(
            graph, coloring, nodes=nodes
        )
        removed_batch = batch.remove_colors_used_by_neighbors_batch(
            graph, coloring, nodes=nodes
        )
        assert removed_scalar == removed_batch
        assert _palettes_equal(scalar, batch)
        return removed_batch

    def test_shared_color_counted_once(self):
        graph = Graph(edges=[(0, 1), (0, 2), (1, 2)])
        palettes = PaletteAssignment.delta_plus_one(graph)
        palettes.store()
        # both colored neighbors of node 2 use color 1: removed once
        assert self._check(graph, palettes, {0: 1, 1: 1}, nodes=[2]) == 1

    def test_targets_absent_from_graph_are_skipped(self):
        graph = Graph(edges=[(0, 1)])
        palettes = PaletteAssignment.from_lists({0: [0, 1], 1: [0, 1], 5: [0, 1]})
        palettes.store()
        self._check(graph, palettes, {0: 0}, nodes=[1, 5])

    def test_missing_target_palette_raises(self):
        graph = Graph(edges=[(0, 1)])
        palettes = PaletteAssignment.from_lists({0: [0, 1]})
        palettes.store()
        with pytest.raises(PaletteError):
            palettes.remove_colors_used_by_neighbors_batch(graph, {0: 0}, nodes=[3])

    def test_huge_colors_fall_back_to_scalar(self):
        graph = Graph(edges=[(0, 1)])
        palettes = PaletteAssignment.from_lists({0: [2**70, 1], 1: [2**70, 3]})
        assert palettes.store() is None
        removed = palettes.remove_colors_used_by_neighbors_batch(graph, {0: 2**70})
        assert removed == 1
        assert palettes.palette(1) == {3}

    def test_large_universe_uses_searchsorted_path(self):
        # no membership frame, universe too scattered for the table gate
        graph = erdos_renyi(60, 0.2, seed=3)
        palettes = PaletteAssignment.from_lists(
            {node: [node * 10**6 + k for k in range(5)] + [7] for node in graph.nodes()}
        )
        coloring = {node: 7 if node % 3 else node * 10**6 for node in range(0, 60, 2)}
        self._check(graph, palettes, coloring)


class TestSubsetUpdatedEquivalence:
    def test_matches_subset_then_remove(self):
        graph = erdos_renyi(120, 0.1, seed=5)
        palettes = PaletteAssignment.delta_plus_one(graph)
        palettes.store()
        graph.csr()
        coloring = {node: node % 5 for node in range(0, 120, 2)}
        members = [node for node in graph.nodes() if node % 2]
        scalar_sets = _sets_backed(palettes)
        expected = scalar_sets.subset(members)
        expected_removed = expected.remove_colors_used_by_neighbors(graph, coloring)
        child, removed = palettes.subset_updated(members, graph, coloring)
        assert removed == expected_removed
        assert _palettes_equal(expected, child)
        # the parent is untouched
        assert palettes.palette(members[0]) == set(range(graph.max_degree() + 1))

    def test_members_absent_from_graph_keep_palettes(self):
        graph = Graph(edges=[(0, 1)])
        palettes = PaletteAssignment.from_lists({0: [0, 1], 1: [0, 1], 9: [4, 5]})
        palettes.store()
        child, removed = palettes.subset_updated([1, 9], graph, {0: 1})
        assert removed == 1
        assert child.palette(1) == {0}
        assert child.palette(9) == {4, 5}

    def test_empty_coloring(self):
        graph = Graph(edges=[(0, 1)])
        palettes = PaletteAssignment.from_lists({0: [0, 1], 1: [0, 1]})
        palettes.store()
        child, removed = palettes.subset_updated([0], graph, {})
        assert removed == 0
        assert child.palette(0) == {0, 1}


class TestRestrictedByBinsEdges:
    def test_empty_universe_with_empty_palettes(self):
        palettes = PaletteAssignment.from_lists({0: [], 1: []})
        empty = np.zeros(0, dtype=np.int64)
        results = palettes.restricted_by_bins([[0], [1]], empty, empty)
        assert len(results) == 2
        assert results[0].palette(0) == set()
        assert results[1].palette(1) == set()

    def test_empty_universe_with_entries_raises(self):
        palettes = PaletteAssignment.from_lists({0: [1]})
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(PaletteError):
            palettes.restricted_by_bins([[0]], empty, empty)

    def test_empty_universe_sets_fallback_path(self):
        # colors beyond int64 force the sets-backed implementation
        palettes = PaletteAssignment.from_lists({0: [], 1: [2**70]})
        empty = np.zeros(0, dtype=np.int64)
        results = palettes.restricted_by_bins([[0]], empty, empty)
        assert results[0].palette(0) == set()
        with pytest.raises(PaletteError):
            palettes.restricted_by_bins([[1]], empty, empty)

    def test_children_are_array_backed_with_sorted_slices(self):
        palettes = PaletteAssignment.from_lists({0: [4, 0, 2], 1: [1, 3, 5]})
        universe = np.arange(6, dtype=np.int64)
        bins = universe % 2  # even colors -> bin 0, odd -> bin 1
        results = palettes.restricted_by_bins([[0], [1]], universe, bins)
        assert results[0]._sets is None
        assert results[0].store().flat.tolist() == [0, 2, 4]
        assert results[0].palette(0) == {0, 2, 4}
        assert results[1].palette(1) == {1, 3, 5}


class TestVectorizedValidation:
    def test_validate_matches_scalar_on_valid_instances(self):
        graph = erdos_renyi(60, 0.15, seed=9)
        palettes = PaletteAssignment.delta_plus_one(graph)
        _sets_backed(palettes).validate_for_graph(graph)
        palettes.store()
        palettes.validate_for_graph(graph)

    def test_first_violation_identical(self):
        graph = Graph(edges=[(0, 1), (1, 2), (2, 3)])
        lists = {0: [0, 1], 1: [0, 1], 2: [0], 3: [0, 1]}  # node 2 too small
        scalar = PaletteAssignment.from_lists(lists)
        vectorized = PaletteAssignment.from_lists(lists)
        vectorized.store()
        with pytest.raises(PaletteError) as scalar_error:
            scalar.validate_for_graph(graph)
        with pytest.raises(PaletteError) as vector_error:
            vectorized.validate_for_graph(graph)
        assert str(vector_error.value) == str(scalar_error.value)

    def test_missing_palette_identical(self):
        graph = Graph(edges=[(0, 1)])
        scalar = PaletteAssignment.from_lists({0: [0, 1]})
        vectorized = PaletteAssignment.from_lists({0: [0, 1]})
        vectorized.store()
        with pytest.raises(PaletteError) as scalar_error:
            scalar.validate_for_graph(graph)
        with pytest.raises(PaletteError) as vector_error:
            vectorized.validate_for_graph(graph)
        assert str(vector_error.value) == str(scalar_error.value)

    def test_min_slack_matches_scalar(self):
        graph = erdos_renyi(50, 0.2, seed=11)
        palettes = PaletteAssignment.degree_plus_one(graph)
        scalar = _sets_backed(palettes)
        palettes.store()
        assert palettes.min_slack(graph) == scalar.min_slack(graph)
        # missing palettes are skipped on both paths
        partial = PaletteAssignment.from_lists({0: [0, 1, 2, 3]})
        partial_scalar = _sets_backed(partial)
        partial.store()
        assert partial.min_slack(graph) == partial_scalar.min_slack(graph)
        assert PaletteAssignment({}).min_slack(graph) == 0


class TestGreedyBatchEdges:
    def test_forced_batch_matches_scalar(self):
        graph = power_law(150, attachment=4, seed=13)
        palettes = PaletteAssignment.delta_plus_one(graph)
        scalar = greedy_list_coloring(graph, palettes, use_batch=False)
        batched = greedy_list_coloring(graph, palettes, use_batch=True)
        assert scalar == batched

    def test_custom_order_and_duplicates(self):
        # A repeated order entry re-colors the node sequentially; the batch
        # sweep must fall back to the scalar loop (its rank filter would
        # otherwise drop the first pass's edges).  This order diverges if
        # the duplicate is mishandled: node 1 must see node 0's first color.
        graph = Graph(edges=[(0, 1), (1, 2)])
        palettes = PaletteAssignment.from_lists({node: [0, 1] for node in range(3)})
        order = [0, 1, 0, 2]
        scalar = greedy_list_coloring(graph, palettes, order=order, use_batch=False)
        batched = greedy_list_coloring(graph, palettes, order=order, use_batch=True)
        assert scalar == batched
        assert scalar == {0: 0, 1: 1, 2: 0}

    def test_coloring_error_parity(self):
        graph = Graph(edges=[(0, 1), (0, 2), (1, 2)])
        palettes = PaletteAssignment.from_lists({0: [0], 1: [0], 2: [0]})
        with pytest.raises(ColoringError) as scalar_error:
            greedy_list_coloring(graph, palettes, use_batch=False)
        with pytest.raises(ColoringError) as batch_error:
            greedy_list_coloring(graph, palettes, use_batch=True)
        assert str(batch_error.value) == str(scalar_error.value)

    def test_non_interval_palettes_take_scan_path(self):
        graph = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3)])
        palettes = PaletteAssignment.from_lists(
            {0: [10, 40, 70], 1: [10, 40, 70, 90], 2: [20, 40, 80, 90], 3: [5, 90]}
        )
        scalar = greedy_list_coloring(graph, palettes, use_batch=False)
        batched = greedy_list_coloring(graph, palettes, use_batch=True)
        assert scalar == batched


# ----------------------------------------------------------------------
# tier-1 guard: the scalar oracle changes nothing observable, endgame included
# ----------------------------------------------------------------------
class TestEndgameGuard:
    """Production against the scalar oracle: identical colorings, trees and
    ledgers (``tests/scalar_oracle.py``)."""

    def test_color_reduce_identical_including_removed_counts(self, monkeypatch):
        graph = power_law(220, attachment=4, seed=17)
        params = ColorReduceParameters.scaled(num_bins=3, level_use_batch=False)
        batched, scalar, oracle = production_and_reference(
            monkeypatch, lambda: ColorReduce(params).run(graph.copy())
        )
        oracle.assert_called(
            "PaletteAssignment.remove_colors_used_by_neighbors_batch",
            "greedy_list_coloring",
        )
        assert_same_run(batched, scalar)
        # the palette-update phase records the removed counts as words
        assert batched.ledger.phase("palette-update").message_words == scalar.ledger.phase(
            "palette-update"
        ).message_words
        assert batched.ledger.phase("palette-update").rounds == scalar.ledger.phase(
            "palette-update"
        ).rounds

    def test_low_space_identical_including_removed_counts(self, monkeypatch):
        graph = erdos_renyi(160, 0.12, seed=19)
        params = LowSpaceParameters.scaled(
            num_bins=3, low_degree_threshold=6, machine_chunk=8, level_use_batch=False
        )
        batched, scalar, oracle = production_and_reference(
            monkeypatch, lambda: LowSpaceColorReduce(params).run(graph.copy())
        )
        oracle.assert_called(
            "PaletteAssignment.remove_colors_used_by_neighbors_batch",
            "PaletteAssignment.subset_updated",
        )
        assert_same_run(batched, scalar)
        assert batched.ledger.phase("palette-update").message_words == scalar.ledger.phase(
            "palette-update"
        ).message_words

    def test_capacity_split_path_identical(self, monkeypatch):
        # A squeezed local capacity forces _collect_and_color's split loop
        # (the fused subset_updated + piece-greedy path, normally reached
        # only by the randomized baseline's oversized bad graphs); both
        # paths must agree bit for bit, removed counts included.
        from repro.accounting import CostLedger
        from repro.congested_clique.model import CongestedCliqueSimulator
        from repro.core.context import CongestedCliqueContext
        from repro.core.driver import RunState
        from repro.graph.validation import assert_valid_list_coloring

        class SqueezedContext(CongestedCliqueContext):
            def local_instance_capacity_words(self) -> int:
                return 150

        graph = erdos_renyi(60, 0.2, seed=23)
        palettes = PaletteAssignment.delta_plus_one(graph)
        params = ColorReduceParameters.scaled(num_bins=3)

        def collect_and_color(warm):
            context = SqueezedContext(CongestedCliqueSimulator(graph.num_nodes))
            state = RunState(
                model=context,
                global_nodes=graph.num_nodes,
                palettes_are_implicit=False,
            )
            ledger = CostLedger()
            instance = graph.copy()
            instance_palettes = palettes.copy()
            if warm:
                instance.csr()
                instance_palettes.store()
            coloring = ColorReduce(params)._collect_and_color(
                instance, instance_palettes, ledger, state, label="local-color"
            )
            return coloring, ledger.snapshot()

        batched_coloring, batched_ledger = collect_and_color(warm=True)
        with scalar_reference(monkeypatch) as oracle:
            scalar_coloring, scalar_ledger = collect_and_color(warm=False)
        oracle.assert_called(
            "PaletteAssignment.subset_updated",
            "Graph.induced_subgraphs",
            "greedy_list_coloring",
        )
        # the instance is oversized, so the split loop ran and updated
        # palettes between pieces
        assert "palette-update" in batched_ledger
        assert batched_coloring == scalar_coloring
        assert batched_ledger == scalar_ledger
        assert_valid_list_coloring(graph, palettes, batched_coloring)
