"""Per-node color palettes for (Δ+1)-, (Δ+1)-list- and (deg+1)-list-coloring.

The paper distinguishes three problem variants (Section 1):

* ``(Δ+1)-coloring`` — every palette is ``{0, ..., Δ}``,
* ``(Δ+1)-list coloring`` — each node has an arbitrary palette of Δ+1 colors,
* ``(deg+1)-list coloring`` — node ``v`` has an arbitrary palette of
  ``deg(v)+1`` colors.

:class:`PaletteAssignment` holds its palettes in one array store
(:class:`_PaletteStore`): one flat color array holding every palette back
to back (sorted ascending within each node's slice) plus a ``(n + 1,)``
offsets array, exactly the layout the batched kernels emit internally.
Every constructor writes it — :meth:`~PaletteAssignment.delta_plus_one`
and :meth:`~PaletteAssignment.degree_plus_one` from the palette sizes,
``PaletteAssignment(mapping)`` and :meth:`~PaletteAssignment.from_lists`
from any ``node -> colors`` mapping — and every query reads it.  A store
is never edited in place: the one mutator, the pruning kernel, swaps in a
new store, which is why :meth:`~PaletteAssignment.copy` and the batch
kernels' children (:meth:`~PaletteAssignment.restricted_by_bins`,
:meth:`~PaletteAssignment.subset`, the fused classification path) may
share a parent's store or slices of its arrays.

Colors that are not int64 integers (non-integral, beyond int64, strings)
are held through a color table: the store's ``table`` lists the distinct
colors and ``flat`` holds codes into it, and the queries map codes back;
a :meth:`~PaletteAssignment.subset` whose colors are all int64 integers
has no table.  Such colors cannot be hashed, so every operation of the partition and
update steps raises :class:`PaletteError` for them; the small-instance
paths (the greedy local coloring, the MIS reduction, validation) color
and check them through their scalar routes.

Each recursion level hashes the instance's color universe, and the cost
evaluators index colors by their rank in it.  A store's exact universe
and entry ranks (:meth:`_PaletteStore.ranks`) come from its color span
``max - min + 1`` whenever that is no wider than its entries (the dense
``{0..Δ}``, deg+1 and shared-universe palettes): one boolean scatter,
one ``cumsum`` and one gather, linear in the entries
(:func:`span_ranks`).  Only a store whose colors are sparser than its
entries (up to ``±2**62``) sorts, with ``np.unique`` plus one binary
search per entry.

On top of it the class provides exactly the operations the algorithms
perform:

* restriction to the colors a hash function maps to a given bin
  (``Partition`` / ``LowSpacePartition``) — for a whole partition level at
  once via :meth:`PaletteAssignment.restricted_by_bins`,
* removal of colors already used by colored neighbors (the two "update
  color palettes" steps in ``ColorReduce``) —
  :meth:`PaletteAssignment.remove_colors_used_by_neighbors_batch`, the one
  pruning kernel (one CSR gather plus one segmented-membership mark plus
  one masked compaction), and :meth:`PaletteAssignment.subset_updated`,
  which restricts to an instance's nodes and then runs it,
* size queries ``p(v)`` used by the good/bad node classification.

The per-bin, per-neighbor set loops these kernels replaced are the test
oracle's references (``tests/scalar_oracle.py``).  The per-node sets the
store replaced are the model's picture (each node holds its own palette
locally); the queries answer as those sets would.
"""

from __future__ import annotations

import itertools
import operator
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

import numpy as np

from repro.errors import PaletteError
from repro.graph.csr import (
    concat_ranges,
    gather_segments,
    id_locator,
    integer_array,
    locate_ids,
    locate_one,
    position_view,
    same_ids,
    split_by_bins,
)
from repro.graph.graph import Graph
from repro.types import Color, ColoringMap, NodeId


class _PaletteStore:
    """Immutable flat-array palette store (see the module docstring).

    ``nodes[i]``'s palette is ``flat[offsets[i]:offsets[i + 1]]``, sorted
    ascending.  The node lookup (:meth:`locate`), the sorted color universe and the
    universe position of every entry are derived lazily and cached — the
    latter two are exactly the static arrays the batched cost evaluators
    need (:meth:`repro.hashing.batch.BatchCostEvaluatorBase.palette_entry_arrays`),
    so flattening is paid once per assignment, not once per ``Partition``
    call.  Both come from one rank kernel, :meth:`ranks`, which derives the
    exact universe and positions from the entries' color span — a linear
    scatter, no sort — and sorts only when the colors are sparser than
    the entries.  Stores are never mutated in place: the pruning kernel
    swaps in a freshly compacted store, which is why children and copies
    may share a parent's store (or slices of its arrays) safely.
    """

    __slots__ = (
        "nodes", "flat", "offsets", "table",
        "_locator", "_universe", "_positions", "_entry_rows",
    )

    def __init__(
        self, nodes, flat: np.ndarray, offsets: np.ndarray, table: Optional[np.ndarray] = None
    ) -> None:
        #: A list of ids, or an int64 array of root positions inside a solve.
        self.nodes = nodes
        self.flat = flat
        self.offsets = offsets
        #: ``None`` when ``flat`` holds the colors themselves; otherwise an
        #: object array of the distinct colors (first appearance) that
        #: ``flat`` holds codes into — colors that are not int64 integers.
        self.table = table
        self._locator = None
        self._universe: Optional[np.ndarray] = None
        self._positions: Optional[np.ndarray] = None
        self._entry_rows: Optional[np.ndarray] = None

    def node_list(self) -> list:
        """:attr:`nodes` as a list of Python objects."""
        nodes = self.nodes
        return nodes.tolist() if isinstance(nodes, np.ndarray) else list(nodes)

    def _id_locator(self):
        if self._locator is None:
            self._locator = id_locator(self.nodes)
        return self._locator

    def locate(self, nodes) -> np.ndarray:
        """The row of every node in ``nodes`` (a sized sequence), -1 for
        nodes without a palette (:func:`repro.graph.csr.locate_ids`).
        ``nodes`` equal to :attr:`nodes` (its graph's ids, when aligned)
        answer ``arange`` directly."""
        if same_ids(self.nodes, nodes):
            return np.arange(len(nodes), dtype=np.int64)
        return locate_ids(self._id_locator(), nodes)

    def rows_for(self, nodes) -> np.ndarray:
        """:meth:`locate`, with :class:`PaletteError` for the first miss."""
        rows = self.locate(nodes)
        missing = np.flatnonzero(rows < 0)
        if missing.shape[0]:
            raise PaletteError(f"node {nodes[int(missing[0])]} has no palette")
        return rows

    def row(self, node: NodeId) -> int:
        """The row of ``node``, or -1 (per-node queries)."""
        return locate_one(self._id_locator(), node)

    def row_slice(self, row: int) -> np.ndarray:
        """The (sorted) palette slice of store row ``row`` — a view."""
        return self.flat[self.offsets[row] : self.offsets[row + 1]]

    def colors(self, entries: np.ndarray) -> list:
        """The colors of flat ``entries``, as Python objects."""
        return entries.tolist() if self.table is None else self.table[entries].tolist()

    def sizes(self) -> np.ndarray:
        """Per-row palette sizes, aligned with :attr:`nodes`."""
        return self.offsets[1:] - self.offsets[:-1]

    def entry_rows(self) -> np.ndarray:
        """The owning row of every flat entry (cached ``repeat`` expansion)."""
        cached = self._entry_rows
        if cached is None:
            cached = np.repeat(
                np.arange(self.offsets.shape[0] - 1, dtype=np.int64), self.sizes()
            )
            self._entry_rows = cached
        return cached

    def universe(self) -> np.ndarray:
        """Sorted unique colors over all rows (cached; see :meth:`ranks`)."""
        cached = self._universe
        if cached is None:
            cached = self.ranks()[0]
            self._universe = cached
        return cached

    def universe_positions(self):
        """``(universe, positions)``: each entry's index in the universe.

        Both are cached; the aligned cost evaluator reads them, so call it
        only where the positions are read.
        """
        if self._positions is None:
            universe, self._positions = self.ranks()
            if self._universe is None:
                self._universe = universe
        return self._universe, self._positions

    def ranks(self, gather: Optional[np.ndarray] = None):
        """``(universe, positions)`` of the entries ``flat[gather]``.

        ``gather`` (default: every entry) indexes :attr:`flat`.  The pair
        equals ``np.unique(flat[gather])`` and ``np.searchsorted(universe,
        flat[gather])`` in values and dtypes: :func:`span_ranks` when the
        entries' color span is no wider than the entries, otherwise
        (colors sparser than the entries, possibly near ``±2**62``) one
        sort plus one binary search per entry, in memory linear in the
        entries whatever the span.

        Nothing is cached here; :meth:`universe` and
        :meth:`universe_positions` cache what they return.
        """
        flat = self.flat if gather is None else self.flat[gather]
        dense = span_ranks(flat)
        if dense is not None:
            return dense
        universe = np.unique(flat)
        return universe, np.searchsorted(universe, flat)


def span_ranks(flat: np.ndarray):
    """``(universe, positions)`` of the colors ``flat`` from their span.

    Equal in values and dtypes to ``np.unique(flat)`` and
    ``np.searchsorted(universe, flat)``, or ``None`` when the span
    ``max - min + 1`` is wider than the entries.  One boolean scatter
    over the span, one ``cumsum`` and one gather, in ``O(len(flat))``.
    A fully covered span (dense ``{0..Δ}`` palettes) skips the last two:
    every offset is then its own rank.
    """
    count = flat.shape[0]
    if not count:
        return flat[:0].copy(), np.zeros(0, dtype=np.intp)
    low, high = int(flat.min()), int(flat.max())
    if high - low >= count:
        return None
    keys = np.subtract(flat, low, dtype=np.intp)
    present = np.zeros(high - low + 1, dtype=bool)
    present[keys] = True
    if bool(present.all()):
        distinct, positions = np.arange(high - low + 1, dtype=np.intp), keys
    else:
        rank = np.cumsum(present, dtype=np.intp)
        rank -= 1
        distinct, positions = np.flatnonzero(present), rank[keys]
    return (distinct + low).astype(flat.dtype), positions


def _locate(universe: np.ndarray, colors: np.ndarray) -> np.ndarray:
    """Each color's index in the sorted ``universe``; :class:`PaletteError`
    when one is missing (the membership check of :meth:`restricted_by_bins`)."""
    at = np.searchsorted(universe, colors)
    if bool((at >= universe.shape[0]).any()) or not bool(
        np.array_equal(universe[at], colors)
    ):
        raise PaletteError(
            "restricted_by_bins: a member color is missing from the universe"
        )
    return at


class RunColoring:
    """The coloring of one solve, indexed by root position.

    ``colors[p]`` is the color of the node at root position ``p`` once
    ``colored[p]`` is set.  A separate mask is needed because colors may
    be negative or near ``±2**62``: no color value is safe as a sentinel.
    Each recursion leaf paints its own slots; the pruning kernel reads a
    neighbor's color with one gather through a view's root positions.
    The array is int64 unless a leaf paints colors that are not int64
    integers (palettes holding a color table), which switches it to
    objects — such instances never partition, so no pruning reads it.
    """

    __slots__ = ("colors", "colored", "count")

    def __init__(self, num_nodes: int) -> None:
        self.colors = np.zeros(num_nodes, dtype=np.int64)
        self.colored = np.zeros(num_nodes, dtype=bool)
        #: Number of painted slots (each node is painted once).
        self.count = 0

    def __len__(self) -> int:
        return self.count

    def paint(self, positions: np.ndarray, colors) -> None:
        """Set the colors of the nodes at root ``positions``."""
        values = colors if isinstance(colors, np.ndarray) else integer_array(colors)
        if values is None or values.dtype == object:
            if self.colors.dtype != object:
                self.colors = self.colors.astype(object)
            values = np.empty(len(colors), dtype=object)
            values[:] = list(colors)
        self.colors[positions] = values
        self.colored[positions] = True
        self.count += len(positions)

    def paint_mapping(self, coloring: ColoringMap) -> None:
        """Paint a ``root position -> color`` mapping (a leaf's coloring)."""
        if coloring:
            positions = np.fromiter(coloring.keys(), dtype=np.int64, count=len(coloring))
            self.paint(positions, list(coloring.values()))

    def to_dict(self, hash_keys) -> Dict[NodeId, Color]:
        """The coloring keyed by original id (``hash_keys[p]`` for slot
        ``p``), in root order — the solve's door out."""
        painted = np.flatnonzero(self.colored)
        return dict(zip(hash_keys[painted].tolist(), self.colors[painted].tolist()))


def _neighbor_colors(csr, coloring, neighbor_rows: np.ndarray):
    """``(colored, colors)``: which of the neighbors at ``csr`` positions
    ``neighbor_rows`` are colored, and the int64 colors of those.

    A :class:`RunColoring` is read through the view's root positions.  A
    mapping (the public door) is keyed by node id: keys outside the graph
    are dropped, and a color that is not an int64 integer is a
    :class:`PaletteError` naming it, raised before anything is read
    (``np.fromiter`` alone would truncate ``1.5`` to ``1``).
    """
    if isinstance(coloring, RunColoring):
        roots = csr.node_ids
        colored = coloring.colored[roots][neighbor_rows]
        return colored, coloring.colors[roots[neighbor_rows[colored]]]
    values = integer_array(coloring.values())
    if values is None:
        node, color = next(
            (node, color)
            for node, color in coloring.items()
            if integer_array([color]) is None
        )
        raise PaletteError(
            f"color {color!r} of node {node!r} is not an int64 integer"
        )
    positions = csr.locate(list(coloring.keys()))
    inside = positions >= 0
    color_of = np.zeros(csr.num_nodes, dtype=np.int64)
    has_color = np.zeros(csr.num_nodes, dtype=bool)
    color_of[positions[inside]] = values[inside]
    has_color[positions[inside]] = True
    colored = has_color[neighbor_rows]
    return colored, color_of[neighbor_rows[colored]]


def canonical_instance(graph: Graph, palettes: "PaletteAssignment"):
    """``(graph, palettes)`` in sorted node-id order, palettes aligned.

    The node order of an instance feeds its outcome (extraction order,
    greedy tie-breaks, the MIS numbering), so both pipelines run on this
    form and a coloring depends only on the instance, never on the order
    it was given in.  A no-op returning the same objects when the ids are
    already sorted and the palettes list exactly those nodes in that
    order; otherwise one :func:`~repro.graph.csr.split_by_bins` and one
    :meth:`PaletteAssignment.subset` (palettes of nodes outside the graph
    are dropped).  Ids that are not mutually comparable (integers mixed
    with strings, say) do not sort and keep the graph's order, so for
    those the outcome still depends on the input order.
    """
    ids = graph.nodes()
    try:
        ordered = sorted(ids)
    except TypeError:
        ordered = ids
    if ordered != ids:
        rows = np.asarray(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.int64)
        graph = Graph._from_csr(split_by_bins(graph.csr(), [rows])[0])
    if palettes.nodes() != ordered:
        palettes = palettes.subset(ordered)
    return graph, palettes


def position_instance(graph: Graph, palettes: "PaletteAssignment"):
    """The solve's root instance: nodes named by position, palettes aligned.

    ``graph`` and ``palettes`` are a canonical instance
    (:func:`canonical_instance`).  The returned graph shares the arrays of
    ``graph``'s view, names its nodes ``0..n-1`` and keeps the original
    ids as ``hash_keys`` (:func:`repro.graph.csr.position_view`); the
    returned palettes hold the same entries under the same positions, with
    the very ``node_ids`` array of the graph's view as their nodes.  Every
    instance extracted below names its nodes by root position, so the
    engine translates ids only here and in
    :meth:`RunColoring.to_dict`.
    """
    view = position_view(graph.csr())
    positions = view.node_ids
    store = palettes.store()
    aligned = PaletteAssignment._from_arrays(
        positions, store.flat, store.offsets, store.table
    )
    return Graph._from_csr(view), aligned


def _store_from_rows(nodes: List[NodeId], rows: Sequence) -> _PaletteStore:
    """Build a :class:`_PaletteStore` from per-node color collections.

    ``rows[i]`` (sized and re-iterable: a set, list, range ...) holds the
    colors of ``nodes[i]``.  Colors that are not all int64 integers
    (non-integral, or beyond int64) get a color table: each row keeps the
    colors a set of it would (``1`` and ``1.0`` in one row are the first
    one listed), and ``flat`` holds first-appearance codes of ``(type,
    color)``, so node B's ``1.0`` stays a float next to node A's ``1``.
    Rows are sorted and deduplicated only if one vectorised check finds an
    out-of-order or repeated entry.  Entries that all fit ``[0, 2**31)``
    are narrowed to int32 (the dtype policy in ``docs/ARCHITECTURE.md``);
    anything negative or wider keeps the overflow-guarded int64
    representation.
    Children derived by slicing/compaction inherit the root's dtype.
    """
    count = len(nodes)
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=count)
    colors = list(itertools.chain.from_iterable(rows))
    flat = integer_array(colors)
    table = None
    if flat is None:
        rows = [list(dict.fromkeys(colors)) for colors in rows]
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=count)
        colors = list(itertools.chain.from_iterable(rows))
        flat = integer_array(colors)  # a row like [1, 1.0] is the set {1}
    if flat is None:
        codes: Dict[tuple, int] = {}
        flat = np.fromiter(
            (codes.setdefault((type(color), color), len(codes)) for color in colors),
            dtype=np.int64,
            count=len(colors),
        )
        table = np.empty(len(codes), dtype=object)
        for code, (_, color) in enumerate(codes):
            table[code] = color
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    total = flat.shape[0]
    if total > 1:
        row_start = np.zeros(total, dtype=bool)
        row_start[offsets[:-1][lengths > 0]] = True
        if not bool(((flat[1:] > flat[:-1]) | row_start[1:]).all()):
            owners = np.repeat(np.arange(count, dtype=np.int64), lengths)
            # lexsort is overflow-free (no combined keys): stable sort by
            # (owner, color) leaves each node's slice sorted ascending.
            flat = flat[np.lexsort((flat, owners))]
            keep = np.ones(total, dtype=bool)
            keep[1:] = (flat[1:] != flat[:-1]) | row_start[1:]
            if not bool(keep.all()):
                flat = flat[keep]
                np.cumsum(np.bincount(owners[keep], minlength=count), out=offsets[1:])
    return _PaletteStore(nodes, _narrowed(flat), offsets, table)


def _narrowed(flat: np.ndarray) -> np.ndarray:
    """``flat`` as int32 when every color fits ``[0, 2**31)``, else unchanged."""
    if flat.shape[0] and int(flat.min()) >= 0 and int(flat.max()) <= np.iinfo(np.int32).max:
        return flat.astype(np.int32)
    return flat


def _distinct(nodes):
    """``nodes`` without repeats, first occurrences in order.  An int64
    array (root positions, distinct by construction) passes through."""
    if isinstance(nodes, np.ndarray):
        return nodes
    return list(dict.fromkeys(nodes))


class PaletteAssignment:
    """A mapping from node to its color palette, held as one array store.

    Restricting or pruning one node's palette never affects another node —
    matching the model, where each node holds its own palette locally.
    ``PaletteAssignment(palettes)`` builds the store (:meth:`store`) from
    any ``node -> colors`` mapping.
    """

    __slots__ = ("_store",)

    def __init__(self, palettes: Mapping[NodeId, Iterable[Color]]) -> None:
        rows = [
            colors if isinstance(colors, (list, tuple, set, frozenset, range)) else list(colors)
            for colors in palettes.values()
        ]
        self._store = _store_from_rows(list(palettes), rows)

    def store(self) -> _PaletteStore:
        """The array store.  The pruning kernel replaces it wholesale."""
        return self._store

    # ------------------------------------------------------------------
    # constructors for the three problem variants
    # ------------------------------------------------------------------
    @classmethod
    def delta_plus_one(cls, graph: Graph, delta: Optional[int] = None) -> "PaletteAssignment":
        """Palettes ``{0..Δ}`` for every node (plain ``(Δ+1)``-coloring)."""
        max_degree = graph.max_degree() if delta is None else delta
        width = max(operator.index(max_degree) + 1, 0)
        nodes = graph.nodes()
        return cls._from_sizes(nodes, np.full(len(nodes), width, dtype=np.int64))

    @classmethod
    def degree_plus_one(cls, graph: Graph) -> "PaletteAssignment":
        """Palettes ``{0..deg(v)}`` (the canonical ``(deg+1)`` instance)."""
        return cls._from_sizes(graph.nodes(), graph.csr().degrees + 1)

    @classmethod
    def _from_sizes(cls, nodes: List[NodeId], sizes: np.ndarray) -> "PaletteAssignment":
        """Palettes ``{0..sizes[i] - 1}`` for ``nodes[i]``, as one store."""
        offsets = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        flat = concat_ranges(np.zeros(len(nodes), dtype=np.int64), sizes)
        return cls._from_arrays(nodes, _narrowed(flat), offsets)

    @classmethod
    def from_lists(cls, palettes: Mapping[NodeId, Iterable[Color]]) -> "PaletteAssignment":
        """Arbitrary list-coloring palettes: ``PaletteAssignment(palettes)``."""
        return cls(palettes)

    @classmethod
    def _from_arrays(
        cls,
        nodes,
        flat: np.ndarray,
        offsets: np.ndarray,
        table: Optional[np.ndarray] = None,
    ) -> "PaletteAssignment":
        """Wrap raw store arrays (see :class:`_PaletteStore`).

        The batch kernels' children hand over flat arrays, often slices of
        a parent's store; they must honour the layout contract (sorted
        slices, offsets aligned with ``nodes``).
        """
        return cls._from_store(_PaletteStore(nodes, flat, offsets, table))

    @classmethod
    def _from_store(cls, store: _PaletteStore) -> "PaletteAssignment":
        """Wrap a built store."""
        assignment = cls.__new__(cls)
        assignment._store = store
        return assignment

    def copy(self) -> "PaletteAssignment":
        """Independent copy that shares the store.

        Sharing is safe because a store is never edited in place: the
        pruning kernel swaps in a new one, so a change to either
        assignment never reaches the other.
        """
        return PaletteAssignment._from_store(self._store)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, node: NodeId) -> bool:
        return self._store.row(node) >= 0

    def __len__(self) -> int:
        return len(self._store.nodes)

    def nodes(self) -> List[NodeId]:
        """Nodes that have a palette."""
        return self._store.node_list()

    def _row_of(self, node: NodeId) -> int:
        row = self._store.row(node)
        if row < 0:
            raise PaletteError(f"node {node} has no palette")
        return row

    def palette(self, node: NodeId) -> Set[Color]:
        """A copy of the palette of ``node``."""
        return set(self.iter_palette(node))

    def iter_palette(self, node: NodeId) -> Iterable[Color]:
        """Iterate the palette of ``node`` without building a set.

        Integer colors arrive in ascending order, colors held through a
        color table in the table's order; consumers must not rely on
        either.
        """
        store = self._store
        return iter(store.colors(store.row_slice(self._row_of(node))))

    def palette_size(self, node: NodeId) -> int:
        """``p(v)``: the number of colors currently available to ``node``."""
        row = self._row_of(node)
        return int(self._store.offsets[row + 1] - self._store.offsets[row])

    def total_size(self) -> int:
        """Total number of (node, color) palette entries — the paper's
        ``Θ(nΔ)`` input-size term for list coloring."""
        return int(self._store.offsets[-1])

    def color_universe(self) -> Set[Color]:
        """The union of all palettes (size at most ``n**2`` per Section 3)."""
        store = self._store
        return set(store.colors(store.universe()))

    def contains_color(self, node: NodeId, color: Color) -> bool:
        """Whether ``color`` is currently in the palette of ``node``."""
        store = self._store
        row = store.row(node)
        if row < 0:
            return False
        row_slice = store.row_slice(row)
        if store.table is None:
            try:
                # The slice is sorted: one binary probe instead of
                # materialising the palette (coloring validation probes
                # once per colored node).
                at = int(np.searchsorted(row_slice, color))
                return bool(at < row_slice.shape[0] and row_slice[at] == color)
            except (OverflowError, TypeError, ValueError):
                pass
        return color in store.colors(row_slice)

    # ------------------------------------------------------------------
    # the operations the algorithms perform
    # ------------------------------------------------------------------
    def subset(self, nodes: Iterable[NodeId]) -> "PaletteAssignment":
        """A new assignment containing only ``nodes`` (palettes unchanged).

        The child holds gathered slices of the parent's flat arrays (no
        per-color Python work).  A parent with a color table rebuilds the
        child from its colors, so a child whose colors are all int64
        integers gets a plain store and can be partitioned.
        """
        store = self._store
        node_list = _distinct(nodes)
        rows = store.rows_for(node_list)
        if store.table is not None:
            return PaletteAssignment._from_store(
                _store_from_rows(
                    node_list, [store.colors(store.row_slice(row)) for row in rows.tolist()]
                )
            )
        lengths, gather = gather_segments(store.offsets, rows)
        offsets = np.zeros(len(node_list) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return PaletteAssignment._from_arrays(
            node_list, store.flat[gather], offsets, store.table
        )

    def restricted_by_bins(
        self,
        bin_members: Sequence[Iterable[NodeId]],
        universe: "np.ndarray",
        color_bin_ids: "np.ndarray",
    ) -> List["PaletteAssignment"]:
        """Restrict every color bin's palettes in one vectorized pass.

        Node ``v`` of color bin ``b`` keeps the colors ``c`` of its palette
        with ``color_bin(c) == b``.  ``bin_members[b]`` lists the nodes of
        color bin ``b``; ``universe`` is the *sorted* color universe (shape
        ``(U,)``, int64) and ``color_bin_ids[k]`` the bin that ``h2`` maps
        ``universe[k]`` to (as produced by
        :func:`repro.core.classification.color_bin_arrays`).  Member
        palettes are gathered from the array store.  When their color span
        is no wider than their entries they are ranked (:func:`span_ranks`),
        the members' universe is located in ``universe`` with one
        ``searchsorted`` of its size and each entry's bin is one gather
        through its rank; sparser colors are located one binary search per
        entry.  The children adopt contiguous slices of the masked
        compaction.

        Returns one :class:`PaletteAssignment` per group, equal (same nodes,
        same palette *sets*) to the per-bin scalar reference in
        ``tests/scalar_oracle.py``.  Raises
        :class:`PaletteError` if a member has no palette, a member color is
        missing from ``universe``, or the palettes hold a color table
        (colors that are not int64 integers, which the partition steps'
        hash families reject before they get here).  Colors held only by
        non-members need not be in ``universe``; with an empty ``universe``
        all-empty member palettes yield all-empty children and any member
        entry is a membership error.
        """
        groups = [_distinct(members) for members in bin_members]
        store = self._store
        if store.table is not None:
            raise PaletteError(
                "restricted_by_bins: palette colors are not int64 integers"
            )
        member_rows = [store.rows_for(members) for members in groups]
        rows = (
            np.concatenate(member_rows) if member_rows else np.zeros(0, dtype=np.int64)
        )
        num_members = rows.shape[0]
        sizes, gather = gather_segments(store.offsets, rows)
        total = int(gather.shape[0])
        group_sizes = np.fromiter(
            (len(members) for members in groups), dtype=np.int64, count=len(groups)
        )
        entry_owner = np.repeat(np.arange(num_members, dtype=np.int64), sizes)
        if total:
            # The member entries are gathered where they are read, so no
            # copy of them outlives its use.
            dense = span_ranks(store.flat[gather])
            if dense is None:
                entry_bins = color_bin_ids[_locate(universe, store.flat[gather])]
            else:
                member_universe, member_positions = dense
                entry_bins = color_bin_ids[_locate(universe, member_universe)][
                    member_positions
                ]
            owner_bin = np.repeat(
                np.arange(len(groups), dtype=np.int64), group_sizes
            )[entry_owner]
            keep = entry_bins == owner_bin
        else:
            keep = np.zeros(0, dtype=bool)
        kept_gather = gather[keep]
        kept_flat = store.flat[kept_gather]
        kept_counts = (
            np.bincount(entry_owner[keep], minlength=num_members)
            if total
            else np.zeros(num_members, dtype=np.int64)
        )
        bounds = np.zeros(num_members + 1, dtype=np.int64)
        np.cumsum(kept_counts, out=bounds[1:])
        results: List[PaletteAssignment] = []
        cursor = 0
        for members, member_count in zip(groups, group_sizes.tolist()):
            node_bounds = bounds[cursor : cursor + member_count + 1]
            offsets = node_bounds - node_bounds[0]
            results.append(
                PaletteAssignment._from_arrays(
                    members,
                    kept_flat[node_bounds[0] : node_bounds[-1]],
                    np.ascontiguousarray(offsets),
                )
            )
            cursor += member_count
        return results

    def remove_colors_used_by_neighbors_batch(
        self,
        graph: Graph,
        coloring,
    ) -> int:
        """Remove from each node's palette the colors of its colored neighbors.

        This implements the two "Update color palettes of ..." steps of
        ``ColorReduce`` (and the corresponding step of
        ``LowSpaceColorReduce``) for every palette node; nodes outside
        ``graph`` keep their palettes.  ``coloring`` is the solve's
        :class:`RunColoring` (read through ``graph``'s root positions) or
        a ``node -> color`` mapping.  Returns the number of palette
        entries removed, which the space-accounting experiments use; a
        color blocked by several neighbors is removed — and counted — once.
        It is the one pruning kernel: one gather over the graph's CSR view
        collects every node's colored-neighbor colors, one
        segmented-membership mark
        (:func:`repro.hashing.batch.segment_mark_members`) locates the
        palette entries they block, and one masked compaction swaps in the
        pruned store.  Raises :class:`PaletteError`, before any pruning,
        for palettes holding a color table and coloring values that are
        not int64 integers.  Scalar reference: the per-neighbor loop in
        ``tests/scalar_oracle.py``.
        """
        store = self._store
        if store.table is not None:
            raise PaletteError(
                "remove_colors_used_by_neighbors_batch: palette colors are "
                "not int64 integers"
            )
        if not len(coloring) or not store.flat.shape[0]:
            return 0
        from repro.hashing.batch import segment_mark_members

        csr = graph.csr()
        num_rows = store.offsets.shape[0] - 1
        node_rows = csr.locate(store.nodes)
        owners = np.flatnonzero(node_rows >= 0)
        lengths, gather = gather_segments(csr.indptr, node_rows[owners])
        colored, colors = _neighbor_colors(csr, coloring, csr.indices[gather])
        if not colors.shape[0]:
            return 0
        removed_mask = segment_mark_members(
            store.flat,
            store.offsets,
            colors,
            np.repeat(owners, lengths)[colored],
            segment_of_entry=store.entry_rows(),
        )
        removed = int(removed_mask.sum())
        if removed == 0:
            return 0
        new_sizes = store.sizes() - np.bincount(
            store.entry_rows()[removed_mask], minlength=num_rows
        )
        new_offsets = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(new_sizes, out=new_offsets[1:])
        self._store = _PaletteStore(store.nodes, store.flat[~removed_mask], new_offsets)
        return removed

    def subset_updated(
        self,
        nodes: Iterable[NodeId],
        graph: Graph,
        coloring,
    ) -> tuple:
        """:meth:`subset` followed by :meth:`remove_colors_used_by_neighbors_batch`.

        The bad-graph and capacity-split steps of both ``ColorReduce``
        drivers restrict the palettes to an instance's nodes and
        immediately prune the colors of colored neighbors.  Returns
        ``(child, removed)``.  An empty coloring prunes nothing and needs
        no store: the low-space pipeline's ``G_0`` of an instance without
        high-degree nodes takes this path with palettes of any colors.
        """
        child = self.subset(nodes)
        if not len(coloring):
            return child, 0
        return child, child.remove_colors_used_by_neighbors_batch(graph, coloring)

    # ------------------------------------------------------------------
    # validation helpers
    # ------------------------------------------------------------------
    def validate_for_graph(self, graph: Graph, slack: int = 1) -> None:
        """Check each node has a palette of size at least ``deg(v) + slack``.

        The paper's invariant (Corollary 3.3 (iii)) requires ``d(v) < p(v)``;
        the default ``slack=1`` checks exactly that.  Raises
        :class:`PaletteError` on the first violation in graph node order.
        """
        store = self._store
        csr = graph.csr()
        rows = store.locate(csr.node_ids)
        missing = rows < 0
        safe_rows = np.where(missing, 0, rows)
        sizes = store.offsets[safe_rows + 1] - store.offsets[safe_rows]
        bad = missing | (sizes < csr.degrees + slack)
        if not bool(bad.any()):
            return
        first = int(np.argmax(bad))
        node = csr.node_ids[first]
        if bool(missing[first]):
            raise PaletteError(f"node {node} of the graph has no palette")
        raise PaletteError(
            f"palette of node {node} has {int(sizes[first])} colors "
            f"but degree is {int(csr.degrees[first])} (need degree + {slack})"
        )

    def sizes_for(self, graph: Graph):
        """``(graph nodes, their palette sizes)``: the view's node ids and an
        aligned array, from one gather over the store.  Raises
        :class:`PaletteError` for the first graph node without a palette."""
        node_ids = graph.csr().node_ids
        return node_ids, self._store.sizes()[self._store.rows_for(node_ids)]

    def sizes_and_degrees(self, graph: Graph):
        """``(palette sizes, degrees)`` of the graph nodes: aligned arrays.

        Like :meth:`sizes_for`, :class:`PaletteError` for the first graph
        node without a palette.
        """
        _, sizes = self.sizes_for(graph)
        return sizes, graph.csr().degrees

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PaletteAssignment(nodes={len(self)}, "
            f"entries={self.total_size()})"
        )
