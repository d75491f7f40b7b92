"""Local (single-machine) list coloring of collected instances.

Both base cases of ``ColorReduce`` — an instance whose size has dropped to
``O(n)``, and the bad-node graph ``G_0`` — are collected onto a single
machine/node and colored there by unlimited local computation.  Any correct
list-coloring procedure works; we use the standard greedy argument: process
nodes one at a time and give each a palette color unused by its already
colored neighbors.  This always succeeds when every node satisfies
``p(v) > d(v)`` (each neighbor blocks at most one color), which is exactly
the invariant the algorithm maintains.

Two implementations of the same sweep exist, picked by instance size alone
(:data:`GREEDY_ARRAY_CUTOVER_NODES`):

* the **array sweep** — for collected instances at or above the cutover.
  The processing order comes from one stable ``argsort`` of the CSR
  degree vector (identical, ties and all, to the loop's ``sorted``),
  each node's blocked set is gathered from
  its CSR neighbor run, and the chosen color is the first entry of the
  node's palette slice — already sorted in the assignment's array store
  (:meth:`repro.graph.palettes.PaletteAssignment.store`) — that no colored
  neighbor blocks.  No palette is copied or sorted per node and no
  per-neighbor iterator is constructed;
* the **scalar loop** (:func:`_greedy_scalar`) — the sequential procedure
  described above, reading neighbor lists through
  :meth:`repro.graph.graph.Graph.iter_neighbors` (one view row per node)
  and re-sorting each node's palette on the fly.  It colors the instances
  below the cutover, where the sweep's fixed setup does not pay, and the
  ones the sweep cannot represent (:data:`_FALLBACK`).

Colorings are bit-identical between the two, including the
``already_colored`` recolor path and the
:class:`~repro.errors.ColoringError` raised (same node, same counts) when
the invariant was violated.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.errors import ColoringError
from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment
from repro.types import Color, ColoringMap, NodeId

#: Internal sentinel: the array sweep cannot represent this instance
#: (a color table, order entries outside the graph, repeated order
#: entries) — run the scalar loop, which either handles it or raises the
#: exact error the caller expects.
_FALLBACK = object()

#: Below this many nodes :func:`greedy_list_coloring` takes the scalar loop:
#: the array sweep's fixed setup (degree argsort, store-slice ``tolist``
#: materialisation) dominates its per-node savings only on very small
#: instances — measured crossover is ~16 nodes with a warm palette store
#: (the shape deep-recursion leaves actually have, since batched children
#: adopt parent array slices).  Validated empirically by
#: ``benchmarks/bench_p4_palette_endgame.py`` (small-instance record); both
#: paths are bit-identical, so the threshold is a pure perf constant.
GREEDY_ARRAY_CUTOVER_NODES = 16


def greedy_list_coloring(
    graph: Graph,
    palettes: PaletteAssignment,
    order: Optional[Iterable[NodeId]] = None,
    already_colored: Optional[ColoringMap] = None,
) -> Dict[NodeId, Color]:
    """Color ``graph`` greedily from the given palettes.

    Parameters
    ----------
    graph:
        The instance to color (all of its nodes receive a color).
    palettes:
        Per-node palettes; every node of ``graph`` must have one.
    order:
        Optional processing order (defaults to descending degree, which keeps
        the number of distinct colors small in practice; correctness does not
        depend on the order).
    already_colored:
        Colors of *neighbors outside the instance* that must be avoided;
        nodes of ``graph`` present here are recolored from scratch.

    Instances of at least :data:`GREEDY_ARRAY_CUTOVER_NODES` nodes take the
    array sweep, smaller ones the scalar loop (see the module docstring);
    the coloring is the same either way.

    Raises
    ------
    ColoringError
        If some node runs out of palette colors — which cannot happen when
        ``p(v) > d(v)`` holds, so hitting this means the caller violated the
        invariant.
    """
    if graph.num_nodes >= GREEDY_ARRAY_CUTOVER_NODES:
        result = _greedy_over_arrays(graph, palettes, order, already_colored)
        if result is not _FALLBACK:
            return result
    return _greedy_scalar(graph, palettes, order, already_colored)


def _greedy_scalar(
    graph: Graph,
    palettes: PaletteAssignment,
    order: Optional[Iterable[NodeId]] = None,
    already_colored: Optional[ColoringMap] = None,
) -> Dict[NodeId, Color]:
    """The sequential greedy loop (see the module docstring)."""
    if order is None:
        order = sorted(graph.nodes(), key=graph.degree, reverse=True)
    coloring: Dict[NodeId, Color] = {}
    external = already_colored or {}
    for node in order:
        blocked = set()
        for neighbor in graph.iter_neighbors(node):
            if neighbor in coloring:
                blocked.add(coloring[neighbor])
            elif neighbor in external:
                blocked.add(external[neighbor])
        choice: Optional[Color] = None
        for color in sorted(palettes.palette(node)):
            if color not in blocked:
                choice = color
                break
        if choice is None:
            raise ColoringError(
                f"node {node} has no available palette color: palette size "
                f"{palettes.palette_size(node)}, blocked colors {len(blocked)}"
            )
        coloring[node] = choice
    return coloring


def _greedy_over_arrays(
    graph: Graph,
    palettes: PaletteAssignment,
    order: Optional[Iterable[NodeId]],
    already_colored: Optional[ColoringMap],
):
    """The array greedy sweep (see the module docstring).

    Same traversal, same choices as :func:`_greedy_scalar` — only the data
    layout changes: neighbor runs and palette slices are read from the
    flattened CSR / palette-store arrays prepared once up front, and the
    per-node state lives in a position-indexed list instead of a dict.
    Returns the coloring dict, or :data:`_FALLBACK` when the instance cannot
    be represented in the array domain — the caller then runs the scalar
    loop, which reproduces the exact behaviour (including error identity
    for order entries outside the graph).
    """
    import numpy as np

    from repro.graph.csr import same_ids

    csr = graph.csr()
    num_nodes = csr.num_nodes
    if num_nodes == 0:
        return {}
    store = palettes.store()
    if store.table is not None:
        return _FALLBACK
    node_ids = csr.node_ids
    if order is None:
        # Stable argsort on the negated degrees == sorted(..., reverse=True):
        # descending degree, ties kept in insertion order.
        order_array = np.argsort(-csr.degrees, kind="stable")
        order_positions = order_array.tolist()
        order_list = csr.ids_at(order_array)
        if not isinstance(order_list, list):
            order_list = order_list.tolist()
    else:
        order_list = list(order)
        located = csr.locate(order_list)
        if bool((located < 0).any()):
            return _FALLBACK
        order_positions = located.tolist()
        if len(set(order_positions)) != len(order_positions):
            # A repeated order entry means sequential re-coloring semantics:
            # the rank array below keeps only the last occurrence, so the
            # earlier-rank run filter would drop edges the first pass must
            # see.  Only the scalar loop models this faithfully.
            return _FALLBACK

    # Palette row per position: the identity when the store is aligned with
    # the CSR (every instance of a solve); otherwise located in the store
    # (-1 for a missing palette, reported at the node's turn —
    # exactly when the scalar loop would raise).
    if same_ids(store.nodes, node_ids):
        row_of_position = None
    else:
        row_of_position = store.locate(node_ids).tolist()

    external_of_position: Dict[int, Color] = {}
    if already_colored:
        located = csr.locate(list(already_colored))
        for pos, color in zip(located.tolist(), already_colored.values()):
            if pos >= 0:
                external_of_position[pos] = color

    # Only neighbors processed *earlier* can be colored when a node's turn
    # comes, so the blocked-set build only needs the earlier-ranked part of
    # each CSR run — each undirected edge lands in exactly one endpoint's
    # filtered run, halving the sweep's per-neighbor work.  (The external
    # path below needs the full runs: later-ranked neighbors contribute
    # their hints.)
    rank = np.full(num_nodes, -1, dtype=np.int64)
    rank[np.asarray(order_positions, dtype=np.int64)] = np.arange(
        len(order_positions), dtype=np.int64
    )
    if not external_of_position:
        source_rank = rank[csr.edge_sources]
        target_rank = rank[csr.indices]
        earlier = (source_rank >= 0) & (target_rank >= 0) & (target_rank < source_rank)
        neighbor_list = csr.indices[earlier].tolist()
        bounds = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(csr.edge_sources[earlier], minlength=num_nodes),
            out=bounds[1:],
        )
        neighbor_bounds = bounds.tolist()
    else:
        neighbor_list = csr.indices.tolist()
        neighbor_bounds = csr.indptr.tolist()

    # Interval palettes ({lo..hi}, the (Δ+1)/(deg+1) shape) admit an O(1)-probe
    # pick: walk the integers from lo until one is free (a mex), skipping the
    # palette-slice scan entirely.  Detected per row in one vectorized pass;
    # empty rows stay on the general scan (which reports the failure).  The
    # flat entry list is only materialised when some row actually needs the
    # scan.
    sizes = store.offsets[1:] - store.offsets[:-1]
    row_starts = store.offsets[:-1]
    nonempty = sizes > 0
    contiguous = np.zeros(sizes.shape[0], dtype=bool)
    contiguous[nonempty] = (
        store.flat[store.offsets[1:][nonempty] - 1]
        - store.flat[row_starts[nonempty]]
        == sizes[nonempty] - 1
    )
    contiguous_list = contiguous.tolist()
    has_entries = bool(store.flat.shape[0])
    all_contiguous = bool(contiguous.all()) if has_entries else False
    palette_list = None if all_contiguous else store.flat.tolist()
    palette_bounds = store.offsets.tolist()
    if has_entries:
        low_list = store.flat[np.where(nonempty, row_starts, 0)].tolist()
        high_list = store.flat[np.where(nonempty, store.offsets[1:] - 1, 0)].tolist()
    else:
        low_list = high_list = [0] * int(sizes.shape[0])

    color_of: list = [None] * num_nodes
    fetch_color = color_of.__getitem__
    coloring: Dict[NodeId, Color] = {}
    if row_of_position is None and not external_of_position:
        # Hot path (every ColorReduce base case): store rows aligned with
        # CSR positions, no external hints.  Uncolored neighbors contribute
        # a harmless None entry to the blocked set.
        for node, pos in zip(order_list, order_positions):
            blocked = set(
                map(fetch_color, neighbor_list[neighbor_bounds[pos] : neighbor_bounds[pos + 1]])
            )
            if contiguous_list[pos]:
                choice = low_list[pos]
                while choice in blocked:
                    choice += 1
                if choice > high_list[pos]:
                    _raise_out_of_colors(palettes, node, blocked)
            else:
                choice = None
                for color in palette_list[palette_bounds[pos] : palette_bounds[pos + 1]]:
                    if color not in blocked:
                        choice = color
                        break
                if choice is None:
                    _raise_out_of_colors(palettes, node, blocked)
            color_of[pos] = choice
            coloring[node] = choice
        return coloring
    for node, pos in zip(order_list, order_positions):
        start, end = neighbor_bounds[pos], neighbor_bounds[pos + 1]
        run = neighbor_list[start:end]
        # External hints apply only to neighbors not (yet) colored,
        # mirroring the scalar loop's `elif` (the recolor path).
        blocked = set(map(fetch_color, run))
        if external_of_position:
            for neighbor_pos in run:
                if color_of[neighbor_pos] is None:
                    hint = external_of_position.get(neighbor_pos)
                    if hint is not None:
                        blocked.add(hint)
        if row_of_position is None:
            row = pos
        else:
            row = row_of_position[pos]
            if row < 0:
                from repro.errors import PaletteError

                raise PaletteError(f"node {node} has no palette")
        if contiguous_list[row]:
            choice = low_list[row]
            while choice in blocked:
                choice += 1
            if choice > high_list[row]:
                _raise_out_of_colors(palettes, node, blocked)
        else:
            choice = None
            for color in palette_list[palette_bounds[row] : palette_bounds[row + 1]]:
                if color not in blocked:
                    choice = color
                    break
            if choice is None:
                _raise_out_of_colors(palettes, node, blocked)
        color_of[pos] = choice
        coloring[node] = choice
    return coloring


def _raise_out_of_colors(palettes: PaletteAssignment, node: NodeId, blocked: set) -> None:
    """Raise the reference :class:`ColoringError` (same node, same counts)."""
    blocked.discard(None)
    raise ColoringError(
        f"node {node} has no available palette color: palette size "
        f"{palettes.palette_size(node)}, blocked colors {len(blocked)}"
    )


def instance_words(graph: Graph, palettes: Optional[PaletteAssignment] = None) -> int:
    """The number of machine words needed to ship an instance to one machine.

    The paper measures instance size as nodes plus edges (each edge is a
    constant number of words); when palettes must travel too (list coloring
    with explicit palettes), their entries are counted as well.
    """
    words = graph.size()
    if palettes is not None:
        words += sum(palettes.palette_size(node) for node in graph.nodes() if node in palettes)
    return words
