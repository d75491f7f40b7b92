"""Validation of colorings produced by the algorithms.

Every experiment and every test validates its output with these helpers; the
library never reports success on an improper coloring.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ColoringError
from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment
from repro.types import ColoringMap, NodeId


def find_coloring_violation(
    graph: Graph, coloring: ColoringMap
) -> Optional[Tuple[NodeId, NodeId]]:
    """Return a monochromatic edge if one exists, otherwise ``None``.

    A node missing from ``coloring`` counts as a violation and is reported as
    the pseudo-edge ``(node, node)``.
    """
    for node in graph.nodes():
        if node not in coloring:
            return (node, node)
    for u, v in graph.edges():
        if coloring[u] == coloring[v]:
            return (u, v)
    return None


def is_proper_coloring(graph: Graph, coloring: ColoringMap) -> bool:
    """Whether ``coloring`` assigns every node a color and no edge is
    monochromatic."""
    return find_coloring_violation(graph, coloring) is None


def assert_proper_coloring(graph: Graph, coloring: ColoringMap) -> None:
    """Raise :class:`ColoringError` unless the coloring is proper and total."""
    violation = find_coloring_violation(graph, coloring)
    if violation is None:
        return
    u, v = violation
    if u == v:
        raise ColoringError(f"node {u} is uncolored")
    raise ColoringError(
        f"edge ({u}, {v}) is monochromatic: both endpoints have color {coloring[u]}"
    )


def find_palette_violations(
    palettes: PaletteAssignment, coloring: ColoringMap
) -> List[NodeId]:
    """Nodes whose assigned color is not in their palette."""
    return [
        node
        for node, color in coloring.items()
        if node in palettes and not palettes.contains_color(node, color)
    ]


def is_valid_list_coloring(
    graph: Graph, palettes: PaletteAssignment, coloring: ColoringMap
) -> bool:
    """Whether ``coloring`` is proper *and* respects every node's palette."""
    if not is_proper_coloring(graph, coloring):
        return False
    return not find_palette_violations(palettes, coloring)


def _proper_colors_by_position(csr, coloring: ColoringMap) -> Optional[np.ndarray]:
    """The colors of ``csr``'s nodes iff the coloring is proper.

    Returns an int64 array aligned with ``csr.node_ids`` when every node is
    colored and no CSR edge joins two equal colors (one gather per edge
    endpoint).  Returns ``None`` on a violation *and* when the colors do
    not form an int64 array (uncolored nodes, non-integer or out-of-range
    colors): the caller then runs the scalar check, which decides.
    """
    colors = np.array(list(map(coloring.get, csr.id_list())))
    if colors.dtype.kind != "i":
        return None
    if bool((colors[csr.edge_sources] == colors[csr.indices]).any()):
        return None
    return colors


def _palettes_respected(
    csr,
    palettes: PaletteAssignment,
    coloring: ColoringMap,
    colors: np.ndarray,
) -> bool:
    """Whether every colored node's color is provably in its palette.

    ``colors`` is :func:`_proper_colors_by_position`'s array, so every
    graph node is colored.  One compare of the flat palette store against
    each entry's owner color, one ``bincount`` of the hits per store row.
    ``False`` means "not proven" — a violation, coloring keys or palettes
    outside the graph, or palettes holding a color table — and sends the
    caller to the scalar check.
    """
    store = palettes.store()
    if store.table is not None or len(coloring) != csr.num_nodes:
        return False
    num_rows = len(store.nodes)
    row_positions = csr.locate(store.nodes)
    if bool((row_positions < 0).any()):
        return False  # palettes of nodes outside the graph
    row_colors = colors[row_positions]
    hits = np.flatnonzero(store.flat == np.repeat(row_colors, store.sizes()))
    hit_rows = np.searchsorted(store.offsets, hits, side="right") - 1
    return bool((np.bincount(hit_rows, minlength=num_rows) > 0).all())


def assert_valid_list_coloring(
    graph: Graph, palettes: PaletteAssignment, coloring: ColoringMap
) -> None:
    """Raise :class:`ColoringError` unless the list coloring is valid.

    "Valid" means: every node of the graph is colored, no edge is
    monochromatic, and every node's color comes from its own palette — the
    definition of (Δ+1)-list / (deg+1)-list coloring in Section 1 of the
    paper.

    Pass/fail is decided with arrays (a CSR gather, and a membership check
    over the palette store).  On any violation, or when the arrays
    are unavailable, the scalar functions above run instead and raise the
    error for the first violation, so the message is the same either way.
    """
    csr = graph.csr()
    colors = _proper_colors_by_position(csr, coloring)
    if colors is None:
        assert_proper_coloring(graph, coloring)
    elif _palettes_respected(csr, palettes, coloring, colors):
        return
    offenders = find_palette_violations(palettes, coloring)
    if offenders:
        node = offenders[0]
        raise ColoringError(
            f"node {node} was assigned color {coloring[node]}, "
            f"which is not in its palette"
        )


def count_colors_used(coloring: ColoringMap) -> int:
    """Number of distinct colors used by a coloring."""
    return len(set(coloring.values()))
