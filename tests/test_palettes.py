"""Unit tests for PaletteAssignment."""

from __future__ import annotations

import pytest
from scalar_oracle import remove_colors_used_by_neighbors, restricted_to

from repro.errors import PaletteError
from repro.graph import Graph, PaletteAssignment

#: The path 0 - 1 - 2.
PATH = Graph(nodes=[0, 1, 2], edges=[(0, 1), (1, 2)])


class TestConstructors:
    def test_delta_plus_one(self, triangle):
        palettes = PaletteAssignment.delta_plus_one(triangle)
        for node in triangle.nodes():
            assert palettes.palette(node) == {0, 1, 2}

    def test_delta_plus_one_explicit_delta(self, triangle):
        palettes = PaletteAssignment.delta_plus_one(triangle, delta=5)
        assert palettes.palette_size(0) == 6

    def test_degree_plus_one(self, path_graph):
        palettes = PaletteAssignment.degree_plus_one(path_graph)
        assert palettes.palette_size(0) == 2
        assert palettes.palette_size(2) == 3

    def test_from_lists(self):
        palettes = PaletteAssignment.from_lists({0: [5, 7], 1: [7, 9]})
        assert palettes.palette(0) == {5, 7}
        assert palettes.palette(1) == {7, 9}

    def test_copy_is_deep(self):
        palettes = PaletteAssignment.from_lists({0: [1, 2], 1: [1]})
        clone = palettes.copy()
        clone.remove_colors_used_by_neighbors_batch(PATH, {1: 1})
        assert palettes.palette(0) == {1, 2}
        assert clone.palette(0) == {2}


class TestCopyOnWrite:
    """``copy()`` shares the store; pruning never crosses the copy."""

    LISTS = {0: [1, 2, 3], 1: [2, 3], 2: [5]}

    def _warm(self):
        return PaletteAssignment.from_lists(self.LISTS)

    def test_clone_shares_the_store(self):
        palettes = self._warm()
        clone = palettes.copy()
        assert clone.store() is palettes.store()
        assert {node: clone.palette(node) for node in clone.nodes()} == {
            node: set(colors) for node, colors in self.LISTS.items()
        }

    def test_clone_mutation_leaves_original_unchanged(self):
        palettes = self._warm()
        clone = palettes.copy()
        assert clone.store() is palettes.store()
        assert clone.remove_colors_used_by_neighbors_batch(PATH, {1: 2}) == 1
        assert clone.palette(0) == {1, 3}
        assert palettes.palette(0) == {1, 2, 3}
        assert palettes.store().row_slice(0).tolist() == [1, 2, 3]

    def test_original_mutation_leaves_clone_unchanged(self):
        palettes = self._warm()
        clone = palettes.copy()
        palettes.remove_colors_used_by_neighbors_batch(PATH, {0: 2})
        assert palettes.palette(1) == {3}
        assert clone.palette(1) == {2, 3}

    def test_batch_pruning_on_clone_leaves_original_unchanged(self):
        graph = Graph(nodes=[0, 1, 2], edges=[(0, 1), (1, 2)])
        palettes = self._warm()
        clone = palettes.copy()
        clone.remove_colors_used_by_neighbors_batch(graph, {1: 2})
        assert clone.palette(0) == {1, 3}
        assert palettes.palette(0) == {1, 2, 3}

    def test_mapping_constructor_copy_is_independent(self):
        palettes = PaletteAssignment(self.LISTS)
        clone = palettes.copy()
        clone.remove_colors_used_by_neighbors_batch(PATH, {1: 2})
        palettes.remove_colors_used_by_neighbors_batch(PATH, {1: 5})
        assert clone.palette(0) == {1, 3} and clone.palette(2) == {5}
        assert palettes.palette(0) == {1, 2, 3} and palettes.palette(2) == set()

    def test_color_table_copy_shares_the_store(self):
        palettes = PaletteAssignment.from_lists({0: [1, 2**70], 1: [3]})
        assert palettes.store().table is not None
        clone = palettes.copy()
        assert clone.store() is palettes.store()
        assert clone.palette(0) == {1, 2**70}
        with pytest.raises(PaletteError, match="not int64 integers"):
            clone.remove_colors_used_by_neighbors_batch(PATH, {1: 3})


class TestQueries:
    def test_missing_node_raises(self):
        palettes = PaletteAssignment.from_lists({0: [1]})
        with pytest.raises(PaletteError):
            palettes.palette(3)
        with pytest.raises(PaletteError):
            palettes.palette_size(3)

    def test_total_size(self):
        palettes = PaletteAssignment.from_lists({0: [1, 2], 1: [3]})
        assert palettes.total_size() == 3

    def test_color_universe(self):
        palettes = PaletteAssignment.from_lists({0: [1, 2], 1: [2, 5]})
        assert palettes.color_universe() == {1, 2, 5}

    def test_contains_color(self):
        palettes = PaletteAssignment.from_lists({0: [1, 2]})
        assert palettes.contains_color(0, 1)
        assert not palettes.contains_color(0, 9)
        assert not palettes.contains_color(7, 1)

    def test_len_and_contains(self):
        palettes = PaletteAssignment.from_lists({0: [1], 4: [2]})
        assert len(palettes) == 2
        assert 4 in palettes
        assert 1 not in palettes


class TestOperations:
    """The production kernels on small cases, next to the scalar references."""

    def test_restricted_to_filters_colors(self):
        import numpy as np

        palettes = PaletteAssignment.from_lists({0: [1, 2, 3, 4], 1: [2, 4, 6]})
        restricted = restricted_to(palettes, [0, 1], keep_color=lambda c: c % 2 == 0)
        assert restricted.palette(0) == {2, 4}
        assert restricted.palette(1) == {2, 4, 6}
        universe = np.arange(1, 7, dtype=np.int64)
        (batched,) = palettes.restricted_by_bins([[0, 1]], universe, universe % 2)
        assert batched.palette(0) == {2, 4}
        assert batched.palette(1) == {2, 4, 6}

    def test_restricted_to_unknown_node_raises(self):
        import numpy as np

        palettes = PaletteAssignment.from_lists({0: [1]})
        with pytest.raises(PaletteError):
            restricted_to(palettes, [0, 9], keep_color=lambda c: True)
        universe = np.asarray([1], dtype=np.int64)
        with pytest.raises(PaletteError):
            palettes.restricted_by_bins([[0, 9]], universe, universe * 0)

    def test_subset_keeps_palettes(self):
        palettes = PaletteAssignment.from_lists({0: [1, 2], 1: [3]})
        subset = palettes.subset([0])
        assert subset.nodes() == [0]
        assert subset.palette(0) == {1, 2}

    def test_subset_of_integer_colors_drops_the_color_table(self):
        palettes = PaletteAssignment.from_lists({0: [2, 1], 1: [0.5], 2: [2**70, 3]})
        plain = palettes.subset([0])
        assert plain.store().table is None
        assert plain.store().flat.tolist() == [1, 2]
        kept = palettes.subset([2, 1])
        assert kept.palette(2) == {2**70, 3} and kept.palette(1) == {0.5}
        with pytest.raises(PaletteError, match="node 9 has no palette"):
            palettes.subset([0, 9])

    def test_remove_colors_used_by_neighbors(self, triangle):
        for remove in _REMOVERS:
            palettes = PaletteAssignment.delta_plus_one(triangle)
            removed = remove(palettes, triangle, {0: 1})
            # Both neighbors of node 0 lose color 1.
            assert removed == 2
            assert palettes.palette(1) == {0, 2}
            assert palettes.palette(2) == {0, 2}
            assert palettes.palette(0) == {0, 1, 2}

    def test_remove_colors_restricted_to_nodes(self, triangle):
        # pruning a subset leaves the parent's other palettes alone
        for remove in _REMOVERS:
            palettes = PaletteAssignment.delta_plus_one(triangle)
            child = palettes.subset([2])
            removed = remove(child, triangle, {0: 1})
            assert removed == 1
            assert child.palette(2) == {0, 2}
            assert palettes.palette(1) == {0, 1, 2}
            assert palettes.palette(2) == {0, 1, 2}

    def test_remove_color_noop_when_absent(self):
        palettes = PaletteAssignment.from_lists({0: [1], 1: [5]})
        assert palettes.remove_colors_used_by_neighbors_batch(PATH, {1: 9}) == 0
        assert palettes.palette(0) == {1}


#: The production pruning kernel and its scalar reference.
_REMOVERS = (
    PaletteAssignment.remove_colors_used_by_neighbors_batch,
    remove_colors_used_by_neighbors,
)


class TestNonIntegralColoringValues:
    """A coloring value that is not an int64 integer is named, never truncated."""

    PALETTES = {0: [1, 2, 3], 1: [1, 2, 3], 2: [1, 2, 3]}

    @pytest.mark.parametrize("offset", [0, 10], ids=["positions", "ids"])
    @pytest.mark.parametrize("value", [1.5, 2**70, "1"])
    def test_pruning_raises_naming_the_value(self, offset, value):
        graph = Graph(
            nodes=[offset, offset + 1, offset + 2],
            edges=[(offset, offset + 1), (offset + 1, offset + 2)],
        )
        lists = {offset + node: colors for node, colors in self.PALETTES.items()}
        palettes = PaletteAssignment.from_lists(lists)
        coloring = {offset: value}
        with pytest.raises(PaletteError, match=f"color {value!r} of node {offset}"):
            palettes.remove_colors_used_by_neighbors_batch(graph, coloring)
        assert palettes.palette(offset + 1) == {1, 2, 3}
        with pytest.raises(PaletteError, match=f"color {value!r} of node {offset}"):
            palettes.subset_updated([offset + 1], graph, coloring)
        # the reference removes nothing: 1.5 is in no integer palette
        reference = PaletteAssignment.from_lists(lists)
        assert remove_colors_used_by_neighbors(reference, graph, coloring) == 0

    def test_float_coloring_keys_are_not_truncated(self):
        # key 1.5 is no node of the graph: nothing is pruned for it
        palettes = PaletteAssignment.from_lists(self.PALETTES)
        assert palettes.remove_colors_used_by_neighbors_batch(PATH, {1.5: 1}) == 0
        assert palettes.palette(0) == {1, 2, 3}


class TestValidation:
    def test_validate_for_graph_passes(self, triangle):
        palettes = PaletteAssignment.delta_plus_one(triangle)
        palettes.validate_for_graph(triangle)

    def test_validate_for_graph_missing_node(self, triangle):
        palettes = PaletteAssignment.from_lists({0: [0, 1, 2], 1: [0, 1, 2]})
        with pytest.raises(PaletteError):
            palettes.validate_for_graph(triangle)

    def test_validate_for_graph_too_small(self, triangle):
        palettes = PaletteAssignment.from_lists({0: [0, 1], 1: [0, 1, 2], 2: [0, 1, 2]})
        with pytest.raises(PaletteError):
            palettes.validate_for_graph(triangle)


def _assert_same_assignment(built: PaletteAssignment, reference: PaletteAssignment) -> None:
    """Same nodes, palettes and the same store arrays."""
    import numpy as np

    assert built.nodes() == reference.nodes()
    for node in reference.nodes():
        assert built.palette(node) == reference.palette(node)
    store, expected = built.store(), reference.store()
    assert store.nodes == expected.nodes
    assert store.table is None and expected.table is None
    for name in ("flat", "offsets"):
        got, want = getattr(store, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def _assert_matches_sets(built: PaletteAssignment, lists) -> None:
    """``built`` holds ``lists`` as sets do: same nodes, same palettes,
    each store row sorted and free of repeats."""
    import numpy as np

    sets = {node: set(colors) for node, colors in lists.items()}
    assert built.nodes() == list(sets)
    assert {node: built.palette(node) for node in built.nodes()} == sets
    store = built.store()
    assert store.sizes().tolist() == [len(colors) for colors in sets.values()]
    for row in range(len(sets)):
        entries = store.row_slice(row)
        assert bool(np.all(entries[1:] > entries[:-1]))


class TestArrayConstructorsOracle:
    """The constructors hold palettes as the per-node sets would, and the
    array-first ones equal ``PaletteAssignment(mapping)``."""

    @pytest.mark.parametrize(
        "lists",
        [
            {},
            {0: [], 1: []},
            {3: [9, 2, 5], 0: [1], 7: []},  # unsorted nodes and colors
            {0: [4, 4, 1, 4], 1: [2, 2]},  # duplicates
            {0: range(5), 1: range(2, 4)},  # ranges
            {0: {3, 1}, 1: (7, -2)},  # sets, tuples, negative colors
            {0: [1, 2**40], 1: [3]},  # int64, not int32
            {0: [1, 2**70], 1: [3]},  # beyond int64: a color table
            {0: ["b", 1.0, 1, "a"], 1: [0.5, "b"]},  # 1 and 1.0 are one color
        ],
    )
    def test_from_lists_matches_sets(self, lists):
        _assert_matches_sets(PaletteAssignment.from_lists(lists), lists)

    def test_from_lists_random_instances(self):
        import random

        rng = random.Random(5)
        for _ in range(100):
            base = rng.choice([0, -100, 2**31 - 10, 2**62])
            lists = {
                rng.randint(-5, 100): [
                    base + rng.randint(0, 20) for _ in range(rng.randint(0, 10))
                ]
                for _ in range(rng.randint(0, 15))
            }
            _assert_matches_sets(PaletteAssignment.from_lists(lists), lists)

    def test_from_lists_accepts_generators(self):
        built = PaletteAssignment.from_lists({0: (c for c in [3, 1]), 1: iter([2])})
        _assert_matches_sets(built, {0: [3, 1], 1: [2]})

    def test_non_integral_colors_get_a_color_table(self):
        lists = {0: [0.5, 1.5], 1: [2]}
        built = PaletteAssignment.from_lists(lists)
        # codes into the table, never truncated colors
        assert built.store().table.tolist() == [0.5, 1.5, 2]
        assert built.store().flat.tolist() == [0, 1, 2]
        assert built.palette(0) == {0.5, 1.5}

    def test_equal_colors_keep_each_nodes_representative(self):
        # As per-node sets: 1 and 1.0 collapse within a node (the first one
        # listed stays), not across nodes.
        built = PaletteAssignment.from_lists({0: [1, "x"], 1: [1.0], 2: [1.0, 1], 3: [1]})
        assert [type(color) for color in built.iter_palette(1)] == [float]
        assert [type(color) for color in built.iter_palette(2)] == [float]
        assert built.palette_size(2) == 1
        assert [type(color) for color in built.iter_palette(3)] == [int]
        assert built.palette(0) == {1, "x"}
        # a row like [1, 1.0] is the set {1}: no table
        assert PaletteAssignment.from_lists({0: [1, 1.0], 1: [2]}).store().table is None

    @pytest.mark.parametrize("delta", [None, 0, 3, -1])
    def test_delta_plus_one_matches_sets_first(self, delta):
        graph = Graph.from_edges([(5, 1), (1, 2), (2, 5), (2, 9)], nodes=[7])
        width = graph.max_degree() + 1 if delta is None else delta + 1
        expected = PaletteAssignment({node: range(width) for node in graph.nodes()})
        built = PaletteAssignment.delta_plus_one(graph, delta)
        _assert_same_assignment(built, expected)

    @pytest.mark.parametrize("array_first", [True, False])
    def test_degree_plus_one_matches_sets_first(self, array_first):
        edges = [(5, 1), (1, 2), (2, 5), (2, 9)]
        graph = Graph.from_edges(edges, nodes=[7]) if array_first else Graph([7], edges)
        expected = PaletteAssignment(
            {node: range(graph.degree(node) + 1) for node in graph.nodes()}
        )
        _assert_same_assignment(PaletteAssignment.degree_plus_one(graph), expected)

    def test_empty_graph(self):
        _assert_same_assignment(PaletteAssignment.delta_plus_one(Graph()), PaletteAssignment({}))
        _assert_same_assignment(PaletteAssignment.degree_plus_one(Graph()), PaletteAssignment({}))
