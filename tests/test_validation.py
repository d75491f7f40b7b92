"""Unit tests for coloring validation helpers."""

from __future__ import annotations

import pytest

from repro.errors import ColoringError
from repro.graph import Graph, PaletteAssignment
from repro.graph.validation import (
    assert_proper_coloring,
    assert_valid_list_coloring,
    count_colors_used,
    find_coloring_violation,
    find_palette_violations,
    is_proper_coloring,
    is_valid_list_coloring,
)


class TestProperColoring:
    def test_valid_coloring_accepted(self, triangle):
        coloring = {0: 0, 1: 1, 2: 2}
        assert is_proper_coloring(triangle, coloring)
        assert_proper_coloring(triangle, coloring)

    def test_monochromatic_edge_detected(self, triangle):
        coloring = {0: 0, 1: 0, 2: 2}
        assert not is_proper_coloring(triangle, coloring)
        violation = find_coloring_violation(triangle, coloring)
        assert violation in {(0, 1), (1, 0)}
        with pytest.raises(ColoringError, match="monochromatic"):
            assert_proper_coloring(triangle, coloring)

    def test_missing_node_detected(self, triangle):
        coloring = {0: 0, 1: 1}
        assert not is_proper_coloring(triangle, coloring)
        with pytest.raises(ColoringError, match="uncolored"):
            assert_proper_coloring(triangle, coloring)

    def test_empty_graph_trivially_proper(self):
        assert is_proper_coloring(Graph(), {})


class TestIdsThatDoNotCompare:
    """Integers mixed with strings: validation must not order the ids."""

    GRAPH_EDGES = [(1, "b"), ("b", "c")]

    def _graph(self):
        return Graph(nodes=[1, "b", "c"], edges=self.GRAPH_EDGES)

    def test_proper_coloring_accepted(self):
        assert is_proper_coloring(self._graph(), {1: 0, "b": 1, "c": 0})

    def test_monochromatic_edge_is_a_coloring_error(self):
        graph = self._graph()
        palettes = PaletteAssignment({node: {0, 1} for node in graph.nodes()})
        with pytest.raises(ColoringError, match="monochromatic"):
            assert_valid_list_coloring(graph, palettes, {1: 0, "b": 0, "c": 1})


class TestListColoring:
    def test_palette_respecting_coloring(self, triangle):
        palettes = PaletteAssignment.from_lists({0: [0, 5], 1: [1, 5], 2: [2, 5]})
        coloring = {0: 0, 1: 1, 2: 2}
        assert is_valid_list_coloring(triangle, palettes, coloring)
        assert_valid_list_coloring(triangle, palettes, coloring)

    def test_color_outside_palette_rejected(self, triangle):
        palettes = PaletteAssignment.from_lists({0: [0], 1: [1], 2: [2]})
        coloring = {0: 9, 1: 1, 2: 2}
        assert not is_valid_list_coloring(triangle, palettes, coloring)
        assert find_palette_violations(palettes, coloring) == [0]
        with pytest.raises(ColoringError, match="not in its palette"):
            assert_valid_list_coloring(triangle, palettes, coloring)

    def test_improper_coloring_rejected_even_if_in_palette(self, triangle):
        palettes = PaletteAssignment.delta_plus_one(triangle)
        coloring = {0: 1, 1: 1, 2: 2}
        assert not is_valid_list_coloring(triangle, palettes, coloring)


class TestHelpers:
    def test_count_colors_used(self):
        assert count_colors_used({0: 3, 1: 3, 2: 5}) == 2
        assert count_colors_used({}) == 0
