"""The list-coloring → MIS reduction (Section 4.1 of the paper).

Luby's classic reduction: build a graph in which every original node ``v``
becomes a clique on ``p(v)`` vertices — one per palette color — and, for
every original edge ``{u, v}`` and every color ``c`` shared by their
palettes, an edge joins the two copies of ``c``.  A maximal independent set
of the reduction graph contains *exactly one* vertex per clique (at most one
by independence within the clique; at least one because a node with
``p(v) > d(v)`` always has an unblocked color), and reading off the chosen
colors yields a proper list coloring of the original graph.

When the original instance has ``n̂`` vertices and maximum degree
``n^{7δ}``, the reduction graph has ``O(n̂ · n^{7δ})`` vertices and maximum
degree ``n^{14δ}`` — the sizes quoted in the paper.  To keep those bounds we
first drop palette colors down to ``d(v) + 1`` per node (always safe).

The builder works on arrays: the instance's CSR view and the palette
store.  Vertex ``base[i] + j`` is the ``j``-th smallest of the ``k_i``
colors kept for the node at CSR position ``i``, so vertices are numbered
in ``(owner, color)`` order.  Clique edges come from one segment
expansion.  Conflict edges expand every CSR edge ``(s, t)`` with ``s < t``
over the vertices of ``s`` and look each ``(t, color)`` key up in the
sorted vertex keys.  The result is arrays only: the undirected edges once each
(``tails < heads``), plus the ``(owner position, color)`` arrays that map
vertices back.  The deterministic MIS runs on those edge arrays
(:func:`repro.mis.deterministic.mis_on_edges`); only the Luby baseline
asks for a :class:`Graph` (:meth:`ReductionGraph.to_graph`).  Palettes
holding a color table (colors that are not int64 integers) are ranked by
sorted color first, so every input takes the same path.  The scalar
reference lives in the test oracle ``tests/mis_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ColoringError, PaletteError
from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment, _store_from_rows
from repro.mis.deterministic import mis_on_edges
from repro.types import Color, NodeId


@dataclass
class ReductionGraph:
    """The MIS-reduction graph as arrays, plus the mapping back to
    (node, color) pairs.

    Vertex ``v`` stands for color ``colors[v]`` of node
    ``node_ids[owners[v]]``; ``owners`` is non-decreasing and ``colors``
    ascends within each owner's run.  Edge ``j`` joins ``tails[j] <
    heads[j]``; every edge is listed once.
    """

    node_ids: List[NodeId]
    owners: np.ndarray
    colors: np.ndarray
    tails: np.ndarray
    heads: np.ndarray

    @property
    def num_vertices(self) -> int:
        return self.owners.shape[0]

    @property
    def num_edges(self) -> int:
        return self.tails.shape[0]

    def to_graph(self) -> Graph:
        """The reduction as a :class:`Graph` on vertices ``0..num_vertices-1``."""
        edges = zip(self.tails.tolist(), self.heads.tolist())
        return Graph.from_edges(edges, nodes=range(self.num_vertices))

    def node_color(self, vertex: int) -> Tuple[NodeId, Color]:
        """The ``(node, color)`` pair of ``vertex`` (``KeyError`` if unknown)."""
        if not 0 <= vertex < self.owners.shape[0]:
            raise KeyError(vertex)
        owner = int(self.owners[vertex])
        return self.node_ids[owner], self.colors[vertex : vertex + 1].tolist()[0]


def _palette_slices(
    node_ids: Sequence[NodeId], palettes: PaletteAssignment
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Every node's sorted palette as a slice of one flat array.

    Returns ``(flat, starts, sizes, universe)`` aligned with ``node_ids``:
    the palette of ``node_ids[i]`` is ``flat[starts[i]:starts[i] + sizes[i]]``,
    and ``sizes[i] == -1`` marks a node without a palette.  ``universe`` is
    ``None`` when ``flat`` holds the colors themselves (the palette store);
    otherwise the colors did not fit int64 and ``flat`` holds their ranks in
    the sorted object array ``universe``.
    """
    store = palettes.store()
    universe = None
    if store.table is not None:
        listed = node_ids.tolist() if isinstance(node_ids, np.ndarray) else node_ids
        lists = {node: palettes.palette(node) for node in listed if node in palettes}
        ordered = sorted(set().union(*lists.values()))
        rank = {color: index for index, color in enumerate(ordered)}
        store = _store_from_rows(
            list(lists), [{rank[color] for color in colors} for colors in lists.values()]
        )
        universe = np.array(ordered, dtype=object)
    rows = store.locate(node_ids)
    starts = store.offsets[rows]
    sizes = np.where(rows >= 0, store.offsets[rows + 1] - starts, -1)
    return store.flat, starts, sizes, universe


def build_reduction_graph(
    graph: Graph, palettes: PaletteAssignment, truncate: bool = True
) -> ReductionGraph:
    """Build Luby's reduction graph for a list-coloring instance.

    ``truncate`` drops each palette to its ``d(v) + 1`` smallest colors first
    (keeping the reduction graph within the paper's size bound); the
    resulting coloring is still a valid list coloring of the original
    palettes because truncation only removes options.  Raises
    :class:`ColoringError` for the first node (in node order) with an empty
    palette, or :class:`PaletteError` if that node has none at all.
    """
    from repro.graph.csr import concat_ranges

    csr = graph.csr()
    node_ids = csr.node_ids
    num_nodes = csr.num_nodes
    flat, starts, sizes, universe = _palette_slices(node_ids, palettes)
    counts = np.minimum(sizes, csr.degrees + 1) if truncate else sizes
    empty = np.flatnonzero(counts <= 0)
    if empty.shape[0]:
        first = int(empty[0])
        if sizes[first] < 0:
            raise PaletteError(f"node {node_ids[first]} has no palette")
        raise ColoringError(f"node {node_ids[first]} has an empty palette")
    if not num_nodes:
        none = np.zeros(0, dtype=np.int64)
        return ReductionGraph(node_ids, none, none, none, none)

    base = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=base[1:])
    num_vertices = int(base[-1])
    owners = np.repeat(np.arange(num_nodes, dtype=np.int64), counts)
    vertex_colors = flat[concat_ranges(starts, counts)]

    # Cliques: every vertex is joined to the later copies of its node.
    vertices = np.arange(num_vertices, dtype=np.int64)
    later = base[owners + 1] - vertices - 1
    clique_tails = np.repeat(vertices, later)
    clique_heads = concat_ranges(vertices + 1, later)

    # Conflict edges: vertex (s, c) meets (t, c) for every edge s < t whose
    # target also kept color c.  Keys ``owner * span + color`` are strictly
    # increasing in vertex order, so one searchsorted finds the target's
    # copy, which comes after (s, c) because t > s.
    low = int(vertex_colors.min())
    span = int(vertex_colors.max()) - low + 1
    if span <= np.iinfo(np.int64).max // num_nodes:
        color_keys = vertex_colors.astype(np.int64) - low
    else:
        _, color_keys = np.unique(vertex_colors, return_inverse=True)
        span = int(color_keys.max()) + 1
    keys = owners * span + color_keys
    once = csr.edge_sources < csr.indices
    edge_sources = csr.edge_sources[once].astype(np.int64)
    reps = counts[edge_sources]
    conflict_tails = concat_ranges(base[edge_sources], reps)
    queries = np.repeat(csr.indices[once].astype(np.int64), reps) * span
    queries += color_keys[conflict_tails]
    found = np.minimum(np.searchsorted(keys, queries), num_vertices - 1)
    shared = keys[found] == queries

    colors = vertex_colors if universe is None else universe[vertex_colors]
    tails = np.concatenate((clique_tails, conflict_tails[shared]))
    heads = np.concatenate((clique_heads, found[shared]))
    return ReductionGraph(node_ids, owners, colors, tails, heads)


def _coloring_by_scan(
    reduction: ReductionGraph, independent_set: set
) -> Dict[NodeId, Color]:
    """The per-vertex reading of :func:`coloring_from_mis`, raising on the
    first violation in ``independent_set``'s iteration order."""
    coloring: Dict[NodeId, Color] = {}
    for vertex in independent_set:
        node, color = reduction.node_color(vertex)
        if node in coloring:
            raise ColoringError(
                f"node {node} has two chosen colors ({coloring[node]} and {color}); "
                "the provided set is not independent"
            )
        coloring[node] = color
    missing = set(reduction.node_ids).difference(coloring)
    if missing:
        raise ColoringError(
            f"{len(missing)} nodes have no chosen color; the provided set is not maximal"
        )
    return coloring


def chosen_colors(reduction: ReductionGraph, chosen: np.ndarray) -> np.ndarray:
    """The color each node takes, aligned with ``reduction.node_ids``.

    ``chosen`` is a boolean mask over the reduction's vertices.  One
    ``bincount`` of the chosen vertices' owners decides:
    :class:`ColoringError` unless every node has exactly one chosen
    vertex.  Owners ascend with the vertices, so the chosen vertices' colors
    are then in node order.
    """
    picked = np.flatnonzero(chosen)
    per_node = np.bincount(reduction.owners[picked], minlength=len(reduction.node_ids))
    if not bool((per_node == 1).all()):
        raise ColoringError("the chosen vertices do not give every node exactly one color")
    return reduction.colors[picked]


def coloring_from_mis(
    reduction: ReductionGraph, independent_set: set
) -> Dict[NodeId, Color]:
    """Read a coloring off an MIS of the reduction graph.

    Raises :class:`ColoringError` if some original node has no chosen copy
    (impossible for a *maximal* independent set when ``p(v) > d(v)``) or more
    than one (impossible for any independent set).
    :func:`chosen_colors` decides; on a violation the per-vertex scan reruns
    to raise the error for the first offending vertex.
    """
    picked = np.fromiter(independent_set, dtype=np.int64, count=len(independent_set))
    if not bool(((picked >= 0) & (picked < reduction.num_vertices)).all()):
        return _coloring_by_scan(reduction, independent_set)  # raises KeyError
    chosen = np.zeros(reduction.num_vertices, dtype=bool)
    chosen[picked] = True
    try:
        colors = chosen_colors(reduction, chosen)
    except ColoringError:
        return _coloring_by_scan(reduction, independent_set)
    node_ids = reduction.node_ids
    node_ids = node_ids.tolist() if isinstance(node_ids, np.ndarray) else node_ids
    return dict(zip(node_ids, colors.tolist()))


def color_via_mis(
    graph: Graph, palettes: PaletteAssignment
) -> Tuple[ReductionGraph, np.ndarray, int]:
    """Color an instance by the MIS reduction and the deterministic MIS.

    Returns ``(reduction, chosen, phases)``: the reduction's arrays, the
    MIS as a boolean mask over its vertices and the MIS phase count;
    :func:`chosen_colors` reads the coloring off the mask.
    """
    reduction = build_reduction_graph(graph, palettes)
    vertices = np.arange(reduction.num_vertices, dtype=np.int64)
    chosen, phases = mis_on_edges(
        reduction.num_vertices, reduction.tails, reduction.heads, vertices
    )
    return reduction, chosen, phases
