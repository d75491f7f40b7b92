"""Per-node color palettes for (Δ+1)-, (Δ+1)-list- and (deg+1)-list-coloring.

The paper distinguishes three problem variants (Section 1):

* ``(Δ+1)-coloring`` — every palette is ``{0, ..., Δ}``,
* ``(Δ+1)-list coloring`` — each node has an arbitrary palette of Δ+1 colors,
* ``(deg+1)-list coloring`` — node ``v`` has an arbitrary palette of
  ``deg(v)+1`` colors.

:class:`PaletteAssignment` stores palettes in one (or both) of two backings
that mirror the graph layer's adjacency-sets / CSR-view split:

* **Python sets** — the model-faithful, mutable reference representation
  (each node holds its own palette locally; storage is never shared
  between nodes),
* **an array store** (:class:`_PaletteStore`) — one flat int64 color array
  holding every palette back to back (sorted ascending within each node's
  slice) plus a ``(n + 1,)`` offsets array, exactly the layout the batched
  kernels already emit internally.

The store is built lazily from the sets on the first :meth:`store` call
and cached; scalar mutation invalidates it.  Conversely, assignments
produced by the batch kernels (:meth:`restricted_by_bins`, :meth:`subset`
on an array-backed parent, the fused classification path) carry *only*
their arrays — often plain slices of the parent's flat store — and
materialise Python sets on the first genuinely set-based access, just like
CSR-extracted graphs materialise adjacency lazily.  Every public operation
answers from whichever backing is available, with identical results.

On top of it the class provides exactly the operations the algorithms
perform:

* restriction to the colors a hash function maps to a given bin
  (``Partition`` / ``LowSpacePartition``) — per bin via
  :meth:`PaletteAssignment.restricted_to`, or for a whole partition level
  at once via the vectorized
  :meth:`PaletteAssignment.restricted_by_bins`,
* removal of colors already used by colored neighbors (the two
  "update color palettes" steps in ``ColorReduce``) — scalar reference
  :meth:`remove_colors_used_by_neighbors` and the vectorized
  :meth:`remove_colors_used_by_neighbors_batch` (one CSR gather plus one
  segmented-membership mark plus one masked compaction),
* size queries ``p(v)`` used by the good/bad node classification.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set

import numpy as np

from repro.errors import PaletteError
from repro.graph.graph import Graph
from repro.types import Color, ColoringMap, NodeId


def color_bins_of_entries(np, universe, universe_bins, flat_colors):
    """Color bin of every flattened palette entry (one gather).

    ``universe`` is the *sorted* color universe (``(U,)`` int64) and
    ``universe_bins`` the aligned bin of each universe color; the result is
    ``universe_bins[position_of(color)]`` for every entry of
    ``flat_colors``.  When the universe is (nearly) contiguous — the common
    ``{0..Δ}``-style instance — a direct lookup table replaces the
    ``searchsorted``.  Shared by the batched classification kernels
    (:mod:`repro.core.classification`,
    :mod:`repro.core.low_space.machine_sets`), whose flattened entries are
    guaranteed to lie in the universe; entries outside it land on arbitrary
    bins (:meth:`PaletteAssignment.restricted_by_bins` validates membership
    explicitly instead, reusing its own lookup).
    """
    size = universe.shape[0]
    if size == 0:
        return np.zeros(0, dtype=np.int64)
    base = int(universe[0])
    span = int(universe[-1]) - base + 1
    if span <= 4 * size + 64:
        table = np.zeros(span, dtype=np.int64)
        table[universe - base] = universe_bins
        clipped = np.clip(flat_colors - base, 0, span - 1)
        return table[clipped]
    positions = np.searchsorted(universe, flat_colors)
    return universe_bins[np.minimum(positions, size - 1)]


class _PaletteStore:
    """Immutable flat-array palette store (see the module docstring).

    ``nodes[i]``'s palette is ``flat[offsets[i]:offsets[i + 1]]``, sorted
    ascending.  The node→row index, the sorted color universe and the
    universe position of every entry are derived lazily and cached — the
    latter two are exactly the static arrays the batched cost evaluators
    need (:meth:`repro.hashing.batch.BatchCostEvaluatorBase.palette_entry_arrays`),
    so flattening is paid once per assignment, not once per ``Partition``
    call.  Stores are never mutated in place: the pruning kernel swaps in a
    freshly compacted store, which is why children and copies may share a
    parent's store (or slices of its arrays) safely.
    """

    __slots__ = (
        "nodes", "flat", "offsets",
        "_index", "_universe", "_positions", "_entry_rows", "_frame",
    )

    def __init__(self, nodes: List[NodeId], flat: np.ndarray, offsets: np.ndarray) -> None:
        self.nodes = nodes
        self.flat = flat
        self.offsets = offsets
        self._index: Optional[Dict[NodeId, int]] = None
        self._universe: Optional[np.ndarray] = None
        self._positions: Optional[np.ndarray] = None
        self._entry_rows: Optional[np.ndarray] = None
        self._frame = None

    @property
    def index(self) -> Dict[NodeId, int]:
        """``index[node] == i`` iff ``nodes[i] == node`` (cached)."""
        mapping = self._index
        if mapping is None:
            mapping = {node: row for row, node in enumerate(self.nodes)}
            self._index = mapping
        return mapping

    def rows_of(self, node_list: Sequence[NodeId]) -> np.ndarray:
        """Store rows of ``node_list``; :class:`PaletteError` on a miss."""
        index = self.index
        try:
            return np.fromiter(
                (index[node] for node in node_list),
                dtype=np.int64,
                count=len(node_list),
            )
        except KeyError as exc:
            raise PaletteError(f"node {exc.args[0]} has no palette") from exc

    def row_slice(self, row: int) -> np.ndarray:
        """The (sorted) palette slice of store row ``row`` — a view."""
        return self.flat[self.offsets[row] : self.offsets[row + 1]]

    def sizes(self) -> np.ndarray:
        """Per-row palette sizes, aligned with :attr:`nodes`."""
        return self.offsets[1:] - self.offsets[:-1]

    def entry_rows(self) -> np.ndarray:
        """The owning row of every flat entry (cached ``repeat`` expansion)."""
        cached = self._entry_rows
        if cached is None:
            cached = np.repeat(
                np.arange(len(self.nodes), dtype=np.int64), self.sizes()
            )
            self._entry_rows = cached
        return cached

    def universe(self) -> np.ndarray:
        """Sorted unique colors over all rows (cached)."""
        cached = self._universe
        if cached is None:
            cached = np.unique(self.flat)
            self._universe = cached
        return cached

    def universe_positions(self):
        """``(universe, positions)``: each entry's index in the universe."""
        positions = self._positions
        if positions is None:
            positions = np.searchsorted(self.universe(), self.flat)
            self._positions = positions
        return self._universe, positions

    def membership_frame(self):
        """``(frame_colors, entry_positions)`` in a shared sorted frame.

        The frame is any sorted color array containing every entry (an
        ancestor's universe, usually): enough for membership tests, *not*
        the store's exact universe — :meth:`universe` stays authoritative
        for universe-sensitive consumers (hash domains, selection).
        Children built by the batch kernels inherit slices of their
        parent's frame, so the pruning kernel's table path never
        recomputes positions down a recursion branch.  Returns ``None``
        when no frame was inherited and the exact positions are not cached
        either (the kernel then uses the frame-free searchsorted path).
        """
        if self._frame is not None:
            return self._frame
        if self._positions is not None:
            return self._universe, self._positions
        return None


#: Sentinel cached when the palette colors cannot be represented as int64
#: (so repeated ``store()`` calls do not retry the failing conversion).
_STORE_UNAVAILABLE = object()


def _coloring_arrays(csr, coloring: ColoringMap):
    """``coloring`` as (graph positions, int64 colors) arrays, or ``None``.

    Shared ingestion for the pruning kernels: keys outside the graph are
    dropped, and a ``None`` return (colors or ids beyond int64) tells the
    caller to fall back to its scalar reference.
    """
    import numpy as np

    try:
        if csr.ids_are_positions:
            keys = np.fromiter(coloring.keys(), dtype=np.int64, count=len(coloring))
            values = np.fromiter(coloring.values(), dtype=np.int64, count=len(coloring))
            inside = (keys >= 0) & (keys < csr.num_nodes)
            return keys[inside], values[inside]
        position = csr.position
        positions_list: List[int] = []
        values_list: List[Color] = []
        for colored_node, used in coloring.items():
            pos = position.get(colored_node)
            if pos is not None:
                positions_list.append(pos)
                values_list.append(used)
        return (
            np.asarray(positions_list, dtype=np.int64),
            np.asarray(values_list, dtype=np.int64),
        )
    except (OverflowError, TypeError, ValueError):
        return None


def _graph_target_arrays(csr, target_nodes, rows):
    """Positions of the targets present in the graph, plus aligned row ids.

    ``rows`` carries one caller-defined row id per target (store rows for
    the in-place pruning, local child rows for the fused kernel); targets
    absent from the graph are dropped from both arrays — the scalar
    loops' ``continue``.  Shared by the pruning kernels so the
    ``ids_are_positions`` fast path cannot drift between them.
    """
    import numpy as np

    if csr.ids_are_positions:
        try:
            ids = np.fromiter(target_nodes, dtype=np.int64, count=len(target_nodes))
        except (OverflowError, TypeError, ValueError):
            ids = None
        if ids is not None:
            inside = (ids >= 0) & (ids < csr.num_nodes)
            return ids[inside], np.asarray(rows, dtype=np.int64)[inside]
    position = csr.position
    present_positions: List[int] = []
    present_rows: List[int] = []
    for node, row in zip(target_nodes, rows):
        pos = position.get(node)
        if pos is not None:
            present_positions.append(pos)
            present_rows.append(row)
    return (
        np.asarray(present_positions, dtype=np.int64),
        np.asarray(present_rows, dtype=np.int64),
    )


def _frame_query_positions(frame_colors, frame_size: int, neighbor_colors, colored_mask):
    """Frame positions of query colors plus their validity mask.

    A direct offset when the frame is contiguous (the (Δ+1)/(deg+1)
    shape), one ``searchsorted`` into the (small) frame otherwise; colors
    outside the frame — and uncolored neighbors, per ``colored_mask`` —
    come back invalid.  Shared by the pruning kernels' table paths.
    """
    import numpy as np

    base = int(frame_colors[0])
    if int(frame_colors[-1]) - base + 1 == frame_size:
        query_positions = neighbor_colors - base
        valid = colored_mask & (query_positions >= 0) & (query_positions < frame_size)
        return np.where(valid, query_positions, 0), valid
    query_positions = np.minimum(
        np.searchsorted(frame_colors, neighbor_colors), frame_size - 1
    )
    return query_positions, colored_mask & (frame_colors[query_positions] == neighbor_colors)


def _store_from_sets(sets: Dict[NodeId, Set[Color]]) -> Optional[_PaletteStore]:
    """Build a :class:`_PaletteStore` from a ``node -> color set`` mapping.

    Returns ``None`` when a color cannot be represented as int64 (the
    assignment then stays sets-only and every batch entry point falls back
    to its scalar reference).  Colors that all fit ``[0, 2**31)`` are
    narrowed to int32 (the dtype policy in ``docs/ARCHITECTURE.md``);
    anything negative or wider keeps the overflow-guarded int64
    representation.  Children derived by slicing/compaction inherit the
    root's dtype.
    """
    import itertools

    nodes = list(sets)
    count = len(nodes)
    lengths = np.fromiter(
        (len(sets[node]) for node in nodes), dtype=np.int64, count=count
    )
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    total = int(offsets[-1])
    try:
        flat = np.fromiter(
            itertools.chain.from_iterable(sets[node] for node in nodes),
            dtype=np.int64,
            count=total,
        )
    except (OverflowError, TypeError, ValueError):
        return None
    if total:
        owners = np.repeat(np.arange(count, dtype=np.int64), lengths)
        # lexsort is overflow-free (no combined keys): stable sort by
        # (owner, color) leaves each node's slice sorted ascending.
        flat = flat[np.lexsort((flat, owners))]
        # flat is sorted per-owner slice, not globally — bound via min/max.
        if int(flat.min()) >= 0 and int(flat.max()) <= np.iinfo(np.int32).max:
            flat = flat.astype(np.int32)
    return _PaletteStore(nodes, flat, offsets)


class PaletteAssignment:
    """A mapping from node to its (mutable) color palette.

    The class never shares palette storage between nodes, so restricting or
    shrinking one node's palette can never affect another node — matching the
    model, where each node holds its own palette locally.
    """

    __slots__ = ("_sets", "_store")

    def __init__(self, palettes: Mapping[NodeId, Iterable[Color]]) -> None:
        self._sets: Optional[Dict[NodeId, Set[Color]]] = {
            node: set(colors) for node, colors in palettes.items()
        }
        self._store = None

    # ------------------------------------------------------------------
    # backing management (sets <-> array store)
    # ------------------------------------------------------------------
    @property
    def _palettes(self) -> Dict[NodeId, Set[Color]]:
        """The ``node -> color set`` mapping, materialised on first access.

        Array-backed assignments (children of the batch kernels) rebuild
        their sets from the flat store the first time a set-based operation
        needs them; queries keep answering from the arrays directly.
        """
        sets = self._sets
        if sets is None:
            sets = self._materialize_sets()
        return sets

    def _materialize_sets(self) -> Dict[NodeId, Set[Color]]:
        store = self._store
        flat_list = store.flat.tolist()
        bounds = store.offsets.tolist()
        sets: Dict[NodeId, Set[Color]] = {}
        start = 0
        for node, end in zip(store.nodes, bounds[1:]):
            sets[node] = set(flat_list[start:end])
            start = end
        self._sets = sets
        return sets

    def store(self) -> Optional[_PaletteStore]:
        """The cached array store, built from the sets on first use.

        Returns ``None`` when the palette colors cannot be represented as
        int64 — every batch kernel then falls back to its scalar reference.
        Scalar mutation (:meth:`remove_color`, the scalar
        :meth:`remove_colors_used_by_neighbors`) invalidates the cache; the
        batched pruning replaces it wholesale instead.
        """
        store = self._store
        if store is None:
            store = _store_from_sets(self._sets)
            self._store = store if store is not None else _STORE_UNAVAILABLE
            return store
        return None if store is _STORE_UNAVAILABLE else store

    def _store_if_warm(self) -> Optional[_PaletteStore]:
        """The array store iff already built — never triggers a build."""
        store = self._store
        return store if isinstance(store, _PaletteStore) else None

    def _mutable_sets(self) -> Dict[NodeId, Set[Color]]:
        """The sets backing, about to be mutated: drop the array cache."""
        sets = self._palettes
        self._store = None
        return sets

    # ------------------------------------------------------------------
    # constructors for the three problem variants
    # ------------------------------------------------------------------
    @classmethod
    def delta_plus_one(cls, graph: Graph, delta: Optional[int] = None) -> "PaletteAssignment":
        """Palettes ``{0..Δ}`` for every node (plain ``(Δ+1)``-coloring)."""
        max_degree = graph.max_degree() if delta is None else delta
        shared = range(max_degree + 1)
        return cls({node: shared for node in graph.nodes()})

    @classmethod
    def degree_plus_one(cls, graph: Graph) -> "PaletteAssignment":
        """Palettes ``{0..deg(v)}`` (the canonical ``(deg+1)`` instance)."""
        return cls({node: range(graph.degree(node) + 1) for node in graph.nodes()})

    @classmethod
    def from_lists(cls, palettes: Mapping[NodeId, Iterable[Color]]) -> "PaletteAssignment":
        """Arbitrary list-coloring palettes."""
        return cls(palettes)

    @classmethod
    def _adopt(cls, palettes: Dict[NodeId, Set[Color]]) -> "PaletteAssignment":
        """Wrap an already-built ``node -> color set`` dict without copying.

        For the batch kernels, which assemble fresh per-node sets
        themselves; the caller must hand over ownership — the dict and its
        sets must not be mutated afterwards.
        """
        assignment = cls({})
        assignment._sets = palettes
        return assignment

    @classmethod
    def _adopt_store(cls, store: _PaletteStore) -> "PaletteAssignment":
        """Wrap an already-built array store (sets stay lazy).

        The batch kernels' counterpart of :meth:`_adopt`: children of
        :meth:`restricted_by_bins` / :meth:`subset` and the fused
        classification path hand over flat arrays (often slices of a
        parent's store).  The store must honour the layout contract
        (sorted slices, offsets aligned with ``nodes``) and is owned by the
        assignment from here on.
        """
        assignment = cls({})
        assignment._sets = None
        assignment._store = store
        return assignment

    @classmethod
    def _from_arrays(
        cls,
        nodes: List[NodeId],
        flat: np.ndarray,
        offsets: np.ndarray,
        frame=None,
    ) -> "PaletteAssignment":
        """:meth:`_adopt_store` over raw ``(nodes, flat, offsets)`` arrays.

        ``frame`` optionally attaches a membership frame (see
        :meth:`_PaletteStore.membership_frame`) the caller derived from the
        parent's arrays.
        """
        store = _PaletteStore(nodes, flat, offsets)
        if frame is not None:
            store._frame = frame
        return cls._adopt_store(store)

    def copy(self) -> "PaletteAssignment":
        """Independent copy, copy-on-write over a warm array store.

        With a warm store the clone shares it and leaves its sets lazy:
        they are materialized from the store on the first set-based access,
        on either side.  Sharing is safe because a store is immutable —
        mutation replaces or drops a store, never edits it — so a change
        to either assignment never reaches the other.  Without a store
        (cold, or :data:`_STORE_UNAVAILABLE`) the palette sets are
        duplicated.
        """
        clone = PaletteAssignment({})
        clone._store = self._store
        if isinstance(self._store, _PaletteStore):
            clone._sets = None
        else:
            clone._sets = {node: set(colors) for node, colors in self._sets.items()}
        return clone

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, node: NodeId) -> bool:
        sets = self._sets
        if sets is not None:
            return node in sets
        return node in self._store.index

    def __len__(self) -> int:
        sets = self._sets
        if sets is not None:
            return len(sets)
        return len(self._store.nodes)

    def nodes(self) -> List[NodeId]:
        """Nodes that have a palette."""
        sets = self._sets
        if sets is not None:
            return list(sets)
        return list(self._store.nodes)

    def _row_of(self, store: _PaletteStore, node: NodeId) -> int:
        try:
            return store.index[node]
        except KeyError as exc:
            raise PaletteError(f"node {node} has no palette") from exc

    def palette(self, node: NodeId) -> Set[Color]:
        """A copy of the palette of ``node``."""
        sets = self._sets
        if sets is not None:
            try:
                return set(sets[node])
            except KeyError as exc:
                raise PaletteError(f"node {node} has no palette") from exc
        store = self._store
        return set(store.row_slice(self._row_of(store, node)).tolist())

    def iter_palette(self, node: NodeId) -> Iterable[Color]:
        """Iterate the palette of ``node`` without copying into a new set.

        The no-copy counterpart of :meth:`palette` for hot loops that only
        scan (the batched classification and palette-restriction kernels
        flatten every palette once per partition level).  The iterator
        reads the live backing: do not mutate the assignment while holding
        it.  On an array-backed assignment the colors arrive in ascending
        order; on a sets-backed one in set order — consumers must not rely
        on either.
        """
        sets = self._sets
        if sets is not None:
            try:
                return iter(sets[node])
            except KeyError as exc:
                raise PaletteError(f"node {node} has no palette") from exc
        store = self._store
        return iter(store.row_slice(self._row_of(store, node)).tolist())

    def palette_size(self, node: NodeId) -> int:
        """``p(v)``: the number of colors currently available to ``node``."""
        sets = self._sets
        if sets is not None:
            try:
                return len(sets[node])
            except KeyError as exc:
                raise PaletteError(f"node {node} has no palette") from exc
        store = self._store
        row = self._row_of(store, node)
        return int(store.offsets[row + 1] - store.offsets[row])

    def total_size(self) -> int:
        """Total number of (node, color) palette entries — the paper's
        ``Θ(nΔ)`` input-size term for list coloring."""
        sets = self._sets
        if sets is not None:
            return sum(len(colors) for colors in sets.values())
        return int(self._store.offsets[-1])

    def color_universe(self) -> Set[Color]:
        """The union of all palettes (size at most ``n**2`` per Section 3)."""
        store = self._store_if_warm()
        if store is not None:
            return set(store.universe().tolist())
        universe: Set[Color] = set()
        for colors in self._sets.values():
            universe.update(colors)
        return universe

    def contains_color(self, node: NodeId, color: Color) -> bool:
        """Whether ``color`` is currently in the palette of ``node``."""
        sets = self._sets
        if sets is not None:
            return color in sets.get(node, ())
        store = self._store
        row = store.index.get(node)
        if row is None:
            return False
        row_slice = store.row_slice(row)
        try:
            # The slice is sorted: one binary probe instead of materialising
            # the palette (coloring validation probes once per colored node).
            at = int(np.searchsorted(row_slice, color))
        except (OverflowError, TypeError, ValueError):
            return color in row_slice.tolist()
        return bool(at < row_slice.shape[0] and row_slice[at] == color)

    # ------------------------------------------------------------------
    # the operations the algorithms perform
    # ------------------------------------------------------------------
    def restricted_to(
        self,
        nodes: Iterable[NodeId],
        keep_color: Optional[Callable[[Color], bool]] = None,
    ) -> "PaletteAssignment":
        """A new assignment for ``nodes``, optionally filtering colors.

        ``Partition`` restricts the palettes of nodes in bins
        ``1..ℓ^0.1 - 1`` to the colors hashed to their bin: pass
        ``keep_color=lambda c: h2(c) == bin_of_node``.  Without a filter
        this is :meth:`subset` (which slices the array store when warm).
        """
        if keep_color is None:
            return self.subset(nodes)
        sets = self._sets
        store = self._store
        result: Dict[NodeId, Set[Color]] = {}
        for node in nodes:
            if sets is not None:
                try:
                    colors: Iterable[Color] = sets[node]
                except KeyError as exc:
                    raise PaletteError(f"node {node} has no palette") from exc
            else:
                colors = store.row_slice(self._row_of(store, node)).tolist()
            result[node] = {color for color in colors if keep_color(color)}
        return PaletteAssignment._adopt(result)

    def subset(self, nodes: Iterable[NodeId]) -> "PaletteAssignment":
        """A new assignment containing only ``nodes`` (palettes unchanged).

        With a warm array store the child adopts gathered slices of the
        parent's flat arrays (no per-color Python work, sets stay lazy);
        otherwise the palette sets are copied as before.  Results are
        identical either way.
        """
        store = self._store_if_warm()
        if store is not None:
            node_list = list(dict.fromkeys(nodes))
            rows = store.rows_of(node_list)
            from repro.graph.csr import gather_segments

            lengths, gather = gather_segments(store.offsets, rows)
            offsets = np.zeros(len(node_list) + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            child = _PaletteStore(node_list, store.flat[gather], offsets)
            frame = store.membership_frame()
            if frame is not None:
                child._frame = (frame[0], frame[1][gather])
            return PaletteAssignment._adopt_store(child)
        sets = self._palettes
        result: Dict[NodeId, Set[Color]] = {}
        for node in nodes:
            try:
                result[node] = set(sets[node])
            except KeyError as exc:
                raise PaletteError(f"node {node} has no palette") from exc
        return PaletteAssignment._adopt(result)

    def restricted_by_bins(
        self,
        bin_members: Sequence[Iterable[NodeId]],
        universe: "np.ndarray",
        color_bin_ids: "np.ndarray",
    ) -> List["PaletteAssignment"]:
        """Restrict every color bin's palettes in one vectorized pass.

        The batched counterpart of calling :meth:`restricted_to` once per
        color bin with ``keep_color=lambda c: color_bin(c) == b`` — the
        biggest remaining Python loop of ``Partition.run`` /
        ``LowSpacePartition.run``.  ``bin_members[b]`` lists the nodes of
        color bin ``b``; ``universe`` is the *sorted* color universe (shape
        ``(U,)``, int64) and ``color_bin_ids[k]`` the bin that ``h2`` maps
        ``universe[k]`` to (as produced by
        :func:`repro.core.classification.color_bin_arrays`).  Member
        palettes are gathered from the array store, each entry's bin
        resolved with one ``searchsorted`` + gather, and the children
        adopt contiguous slices of the masked compaction — array-backed
        assignments whose Python sets stay lazy.

        Returns one :class:`PaletteAssignment` per group, equal (same nodes,
        same palette *sets*) to the scalar ``restricted_to`` result.  Raises
        :class:`PaletteError` if a member has no palette or a member color is
        missing from ``universe``.  An empty ``universe`` is answered
        explicitly: all-empty member palettes yield all-empty children, any
        member entry is a membership error (the general path would
        otherwise index row 0 of the empty ``color_bin_ids``).
        """
        groups: List[List[NodeId]] = [
            list(dict.fromkeys(members)) for members in bin_members
        ]
        store = self.store()
        if store is None:
            return self._restricted_by_bins_sets(groups, universe, color_bin_ids)
        from repro.graph.csr import gather_segments

        flat_nodes: List[NodeId] = [node for members in groups for node in members]
        rows = store.rows_of(flat_nodes)
        sizes, gather = gather_segments(store.offsets, rows)
        member_flat = store.flat[gather]
        total = int(member_flat.shape[0])
        group_sizes = np.fromiter(
            (len(members) for members in groups), dtype=np.int64, count=len(groups)
        )
        entry_owner = np.repeat(np.arange(len(flat_nodes), dtype=np.int64), sizes)
        if universe.shape[0] == 0:
            if total:
                raise PaletteError(
                    "restricted_by_bins: a member color is missing from the universe"
                )
            keep = np.zeros(0, dtype=bool)
        else:
            positions = np.searchsorted(universe, member_flat)
            if total and (
                bool((positions >= universe.shape[0]).any())
                or not bool(np.array_equal(universe[np.minimum(positions, universe.shape[0] - 1)], member_flat))
            ):
                raise PaletteError(
                    "restricted_by_bins: a member color is missing from the universe"
                )
            owner_bin = np.repeat(
                np.arange(len(groups), dtype=np.int64), group_sizes
            )[entry_owner]
            keep = color_bin_ids[positions] == owner_bin
        kept_flat = member_flat[keep]
        kept_counts = (
            np.bincount(entry_owner[keep], minlength=len(flat_nodes))
            if total
            else np.zeros(len(flat_nodes), dtype=np.int64)
        )
        bounds = np.zeros(len(flat_nodes) + 1, dtype=np.int64)
        np.cumsum(kept_counts, out=bounds[1:])
        frame = store.membership_frame()
        kept_frame = frame[1][gather][keep] if frame is not None else None
        results: List[PaletteAssignment] = []
        cursor = 0
        for members, member_count in zip(groups, group_sizes.tolist()):
            node_bounds = bounds[cursor : cursor + member_count + 1]
            offsets = node_bounds - node_bounds[0]
            child = _PaletteStore(
                members,
                kept_flat[node_bounds[0] : node_bounds[-1]],
                np.ascontiguousarray(offsets),
            )
            if kept_frame is not None:
                child._frame = (
                    frame[0], kept_frame[node_bounds[0] : node_bounds[-1]]
                )
            results.append(PaletteAssignment._adopt_store(child))
            cursor += member_count
        return results

    def _restricted_by_bins_sets(
        self,
        groups: List[List[NodeId]],
        universe: "np.ndarray",
        color_bin_ids: "np.ndarray",
    ) -> List["PaletteAssignment"]:
        """Sets-backed :meth:`restricted_by_bins` (colors beyond int64)."""
        import itertools

        flat_nodes: List[NodeId] = [node for members in groups for node in members]
        palettes: List[Set[Color]] = []
        for node in flat_nodes:
            try:
                palettes.append(self._palettes[node])
            except KeyError as exc:
                raise PaletteError(f"node {node} has no palette") from exc
        sizes = np.fromiter(
            (len(colors) for colors in palettes), dtype=np.int64, count=len(palettes)
        )
        total = int(sizes.sum())
        if universe.shape[0] == 0:
            if total:
                raise PaletteError(
                    "restricted_by_bins: a member color is missing from the universe"
                )
            return [
                PaletteAssignment._adopt({node: set() for node in members})
                for members in groups
            ]
        flat_colors = np.fromiter(
            itertools.chain.from_iterable(palettes), dtype=np.int64, count=total
        )
        entry_owner = np.repeat(np.arange(len(flat_nodes), dtype=np.int64), sizes)
        node_group = np.repeat(
            np.arange(len(groups), dtype=np.int64),
            np.fromiter(
                (len(members) for members in groups), dtype=np.int64, count=len(groups)
            ),
        )
        owner_bin = node_group[entry_owner]
        positions = np.searchsorted(universe, flat_colors)
        if total and (
            bool((positions >= universe.shape[0]).any())
            or not bool(np.array_equal(universe[np.minimum(positions, universe.shape[0] - 1)], flat_colors))
        ):
            raise PaletteError("restricted_by_bins: a member color is missing from the universe")
        keep = color_bin_ids[positions] == owner_bin
        kept_colors = flat_colors[keep].tolist()
        kept_counts = np.bincount(entry_owner[keep], minlength=len(flat_nodes))
        bounds = np.zeros(len(flat_nodes) + 1, dtype=np.int64)
        np.cumsum(kept_counts, out=bounds[1:])
        # Per-node set rebuilding goes through plain lists: NumPy scalar
        # indexing would dominate this final loop.
        bounds_list = bounds.tolist()
        results: List[PaletteAssignment] = []
        cursor = 0
        for members in groups:
            restricted: Dict[NodeId, Set[Color]] = {}
            for node in members:
                start, end = bounds_list[cursor], bounds_list[cursor + 1]
                restricted[node] = set(kept_colors[start:end])
                cursor += 1
            results.append(PaletteAssignment._adopt(restricted))
        return results

    def remove_colors_used_by_neighbors(
        self,
        graph: Graph,
        coloring: ColoringMap,
        nodes: Optional[Iterable[NodeId]] = None,
    ) -> int:
        """Remove from each node's palette the colors of its colored neighbors.

        This implements the two "Update color palettes of ..." steps of
        ``ColorReduce`` (and the corresponding step of
        ``LowSpaceColorReduce``).  Returns the number of palette entries
        removed, which the space-accounting experiments use.  Scalar
        reference of :meth:`remove_colors_used_by_neighbors_batch`.
        """
        palettes = self._mutable_sets()
        targets = palettes.keys() if nodes is None else nodes
        removed = 0
        for node in targets:
            if node not in palettes:
                raise PaletteError(f"node {node} has no palette")
            if node not in graph:
                continue
            palette = palettes[node]
            for neighbor in graph.iter_neighbors(node):
                used = coloring.get(neighbor)
                if used is not None and used in palette:
                    palette.discard(used)
                    removed += 1
        return removed

    def remove_colors_used_by_neighbors_batch(
        self,
        graph: Graph,
        coloring: ColoringMap,
        nodes: Optional[Iterable[NodeId]] = None,
    ) -> int:
        """Vectorized :meth:`remove_colors_used_by_neighbors` (same result).

        One gather over the graph's CSR view collects every target node's
        colored-neighbor colors, one segmented-membership mark
        (:func:`repro.hashing.batch.segment_mark_members`) locates the
        palette entries they block, and one masked compaction swaps in the
        pruned store; the returned ``removed`` count equals the scalar
        path's exactly (a color blocked by several neighbors is removed —
        and counted — once).  Falls back to the scalar reference when the
        store is unavailable (colors or coloring values beyond int64).
        The one observable difference is the error path: missing target
        palettes are rejected up front, before any pruning, while the
        scalar loop may discard some entries before reaching the offending
        target.
        """
        store = self.store()
        if store is None:
            return self.remove_colors_used_by_neighbors(graph, coloring, nodes)
        if nodes is None:
            target_nodes: Sequence[NodeId] = store.nodes
            rows_list: Sequence[int] = range(len(store.nodes))
        else:
            target_nodes = list(nodes)
            rows_list = store.rows_of(target_nodes).tolist()
        if not len(target_nodes) or not coloring or not store.flat.shape[0]:
            return 0
        from repro.graph.csr import gather_segments
        from repro.hashing.batch import segment_mark_members

        csr = graph.csr()
        colored_arrays = _coloring_arrays(csr, coloring)
        if colored_arrays is None:
            return self.remove_colors_used_by_neighbors(graph, coloring, nodes)
        positions_array, values_array = colored_arrays
        if not positions_array.shape[0]:
            return 0
        color_of = np.zeros(csr.num_nodes, dtype=np.int64)
        has_color = np.zeros(csr.num_nodes, dtype=bool)
        color_of[positions_array] = values_array
        has_color[positions_array] = True
        target_positions, target_rows = _graph_target_arrays(
            csr, target_nodes, rows_list
        )
        if not target_positions.shape[0]:
            return 0
        lengths, gather = gather_segments(csr.indptr, target_positions)
        neighbor_positions = csr.indices[gather]
        num_rows = len(store.nodes)
        total_entries = int(store.flat.shape[0])
        frame = store.membership_frame()
        frame_size = int(frame[0].shape[0]) if frame is not None else 0
        if frame_size and (
            num_rows * frame_size <= max(1 << 22, 4 * total_entries)
        ):
            # A (possibly inherited) membership frame is available and small:
            # resolve each colored neighbor's color to its frame position,
            # scatter (row, position) marks into a flat table, and read
            # every entry's fate back with one gather.  Uncolored neighbors
            # ride along and are dropped by the validity mask.
            frame_colors, entry_positions = frame
            query_positions, valid = _frame_query_positions(
                frame_colors,
                frame_size,
                color_of[neighbor_positions],
                has_color[neighbor_positions],
            )
            query_rows = np.repeat(target_rows, lengths)
            table = np.zeros(num_rows * frame_size, dtype=bool)
            table[query_rows[valid] * frame_size + query_positions[valid]] = True
            removed_mask = table[
                store.entry_rows() * np.int64(frame_size) + entry_positions
            ]
        else:
            colored = has_color[neighbor_positions]
            if not bool(colored.any()):
                return 0
            removed_mask = segment_mark_members(
                store.flat,
                store.offsets,
                color_of[neighbor_positions[colored]],
                np.repeat(target_rows, lengths)[colored],
                segment_of_entry=store.entry_rows(),
            )
        removed = int(removed_mask.sum())
        if removed == 0:
            return 0
        keep_mask = ~removed_mask
        new_sizes = store.sizes() - np.bincount(
            store.entry_rows()[removed_mask], minlength=num_rows
        )
        new_offsets = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(new_sizes, out=new_offsets[1:])
        pruned = _PaletteStore(store.nodes, store.flat[keep_mask], new_offsets)
        if frame is not None:
            pruned._frame = (frame[0], frame[1][keep_mask])
        self._store = pruned
        self._sets = None
        return removed

    def subset_updated(
        self,
        nodes: Iterable[NodeId],
        graph: Graph,
        coloring: ColoringMap,
    ) -> tuple:
        """Fused :meth:`subset` + :meth:`remove_colors_used_by_neighbors_batch`.

        The bad-graph and capacity-split steps of both ``ColorReduce``
        drivers restrict the palettes to an instance's nodes and
        immediately prune the colors of colored neighbors.  Running the
        two as one kernel gathers each member's palette slice (and its
        inherited frame positions) exactly once and compacts straight to
        the pruned child — the intermediate restricted store is never
        materialised.  Returns ``(child, removed)``, identical to
        ``child = self.subset(nodes)`` followed by
        ``removed = child.remove_colors_used_by_neighbors(graph, coloring)``
        (the scalar reference ``tests/scalar_oracle.py`` reroutes the
        drivers to).
        """
        store = self._store_if_warm()
        frame = store.membership_frame() if store is not None else None
        frame_size = int(frame[0].shape[0]) if frame is not None else 0
        node_list = list(dict.fromkeys(nodes))
        if (
            store is None
            or not frame_size
            or len(node_list) * frame_size > (1 << 22)
            or not coloring
        ):
            child = self.subset(node_list)
            return child, child.remove_colors_used_by_neighbors_batch(graph, coloring)
        from repro.graph.csr import gather_segments

        rows = store.rows_of(node_list)
        member_sizes, member_gather = gather_segments(store.offsets, rows)
        member_flat = store.flat[member_gather]
        member_positions = frame[1][member_gather]
        member_count = len(node_list)
        offsets = np.zeros(member_count + 1, dtype=np.int64)
        np.cumsum(member_sizes, out=offsets[1:])

        csr = graph.csr()
        colored_arrays = _coloring_arrays(csr, coloring)
        if colored_arrays is None:
            child = self.subset(node_list)
            return child, child.remove_colors_used_by_neighbors(graph, coloring)
        colored_positions_array, colored_values_array = colored_arrays
        frame_colors = frame[0]
        child_frame = (frame_colors, member_positions)
        if not colored_positions_array.shape[0]:
            child_store = _PaletteStore(node_list, member_flat, offsets)
            child_store._frame = child_frame
            return PaletteAssignment._adopt_store(child_store), 0
        color_of = np.zeros(csr.num_nodes, dtype=np.int64)
        has_color = np.zeros(csr.num_nodes, dtype=bool)
        color_of[colored_positions_array] = colored_values_array
        has_color[colored_positions_array] = True

        # Members present in the graph, with their local row for the marks.
        target_positions, target_local_rows = _graph_target_arrays(
            csr, node_list, range(member_count)
        )

        removed = 0
        keep_flat = member_flat
        keep_positions = member_positions
        if target_positions.shape[0]:
            lengths, edge_gather = gather_segments(csr.indptr, target_positions)
            neighbor_positions = csr.indices[edge_gather]
            query_positions, valid = _frame_query_positions(
                frame_colors,
                frame_size,
                color_of[neighbor_positions],
                has_color[neighbor_positions],
            )
            query_rows = np.repeat(target_local_rows, lengths)
            table = np.zeros(member_count * frame_size, dtype=bool)
            table[query_rows[valid] * frame_size + query_positions[valid]] = True
            member_entry_rows = np.repeat(
                np.arange(member_count, dtype=np.int64), member_sizes
            )
            removed_mask = table[
                member_entry_rows * np.int64(frame_size) + member_positions
            ]
            removed = int(removed_mask.sum())
            if removed:
                keep = ~removed_mask
                keep_flat = member_flat[keep]
                keep_positions = member_positions[keep]
                child_frame = (frame_colors, keep_positions)
                new_sizes = member_sizes - np.bincount(
                    member_entry_rows[removed_mask], minlength=member_count
                )
                offsets = np.zeros(member_count + 1, dtype=np.int64)
                np.cumsum(new_sizes, out=offsets[1:])
        child_store = _PaletteStore(node_list, keep_flat, offsets)
        child_store._frame = child_frame
        return PaletteAssignment._adopt_store(child_store), removed

    def remove_color(self, node: NodeId, color: Color) -> None:
        """Remove a single color from a node's palette (no-op if absent)."""
        palettes = self._mutable_sets()
        try:
            palettes[node].discard(color)
        except KeyError as exc:
            raise PaletteError(f"node {node} has no palette") from exc

    # ------------------------------------------------------------------
    # validation helpers
    # ------------------------------------------------------------------
    def validate_for_graph(self, graph: Graph, slack: int = 1) -> None:
        """Check each node has a palette of size at least ``deg(v) + slack``.

        The paper's invariant (Corollary 3.3 (iii)) requires ``d(v) < p(v)``;
        the default ``slack=1`` checks exactly that.  Raises
        :class:`PaletteError` on the first violation (in graph node order —
        the warm-store vectorized path reports the same node as the scalar
        loop).
        """
        store = self._store_if_warm()
        if store is None:
            palettes = self._palettes
            for node in graph.nodes():
                if node not in palettes:
                    raise PaletteError(f"node {node} of the graph has no palette")
                if len(palettes[node]) < graph.degree(node) + slack:
                    raise PaletteError(
                        f"palette of node {node} has {len(palettes[node])} colors "
                        f"but degree is {graph.degree(node)} (need degree + {slack})"
                    )
            return
        node_list = graph.nodes()
        index = store.index
        rows = np.fromiter(
            (index.get(node, -1) for node in node_list),
            dtype=np.int64,
            count=len(node_list),
        )
        missing = rows < 0
        safe_rows = np.where(missing, 0, rows)
        sizes = store.offsets[safe_rows + 1] - store.offsets[safe_rows]
        degrees = np.fromiter(
            (graph.degree(node) for node in node_list),
            dtype=np.int64,
            count=len(node_list),
        )
        bad = missing | (sizes < degrees + slack)
        if not bool(bad.any()):
            return
        first = int(np.argmax(bad))
        node = node_list[first]
        if bool(missing[first]):
            raise PaletteError(f"node {node} of the graph has no palette")
        raise PaletteError(
            f"palette of node {node} has {int(sizes[first])} colors "
            f"but degree is {int(degrees[first])} (need degree + {slack})"
        )

    def min_slack(self, graph: Graph) -> int:
        """The minimum over nodes of ``p(v) - d(v)`` (can be negative)."""
        store = self._store_if_warm()
        if store is None:
            palettes = self._palettes
            slacks = [
                len(palettes[node]) - graph.degree(node)
                for node in graph.nodes()
                if node in palettes
            ]
            if not slacks:
                return 0
            return min(slacks)
        node_list = graph.nodes()
        index = store.index
        rows = np.fromiter(
            (index.get(node, -1) for node in node_list),
            dtype=np.int64,
            count=len(node_list),
        )
        present = rows >= 0
        if not bool(present.any()):
            return 0
        present_rows = rows[present]
        sizes = store.offsets[present_rows + 1] - store.offsets[present_rows]
        degrees = np.fromiter(
            (graph.degree(node) for node, keep in zip(node_list, present.tolist()) if keep),
            dtype=np.int64,
            count=int(present.sum()),
        )
        return int((sizes - degrees).min())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PaletteAssignment(nodes={len(self)}, "
            f"entries={self.total_size()})"
        )
