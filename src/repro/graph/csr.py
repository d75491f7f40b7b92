"""Array ("CSR") view of a :class:`repro.graph.graph.Graph` — its one backing.

The batched cost kernels (:mod:`repro.core.classification`,
:mod:`repro.core.low_space.machine_sets`) need the graph as flat arrays so
in-bin degrees, bin sizes and bad-node counts become
``np.bincount``/scatter operations instead of per-node Python loops.  This
module provides that view:

* ``node_ids[i]`` — the node at position ``i``, in insertion order: the
  graph's ids (a list), or, inside a solve, an int64 array of *root
  positions* whose original ids sit in ``hash_keys`` (see "Positions
  inside a solve" below); :meth:`GraphCSR.locate` inverts it with one
  vectorized ``searchsorted``,
* ``indptr`` / ``indices`` — the usual CSR layout: the neighbors of the
  node at position ``i`` sit at positions ``indices[indptr[i]:indptr[i+1]]``
  (values are *positions*, not identifiers), sorted within each run,
* ``degrees[i]`` — ``len`` of that slice,
* ``edge_sources`` — position of the source node of every directed edge,
  aligned with ``indices`` (i.e. ``repeat(arange(n), degrees)``), so
  "count neighbors in the same bin" is one boolean compare plus one
  bincount over ``edge_sources``.

The array-view contract
-----------------------
A graph is one immutable, *canonical* view: node order is insertion
order, parallel edges are collapsed and every neighbor run is sorted by
position.  One builder, :func:`csr_from_edges`, makes every view that is
not cut from another: ``Graph.from_edges`` hands it the edge list, and a
graph grown by ``add_node`` / ``add_edge`` buffers the additions and
folds them, with its current view, into a new view on its next query.
A view is never edited, so graphs may share one (``Graph.copy``) and
subgraphs extracted from it stay valid after the parent grows.

On top of the view this module provides the vectorized subgraph-extraction
kernel the recursion pipeline uses to materialise bin instances:
:func:`split_by_bins` builds the child views of any number of disjoint node
groups (one group for a single induced subgraph) from one shared
label/reindex scatter plus per-group gathers.  Child views are canonical
too: what :func:`csr_from_edges` would build from the child's nodes and
edges.  The node-by-node reference for both builders is the
adjacency-set graph of ``tests/scalar_oracle.py``.

Positions inside a solve
------------------------
A solve runs on :func:`position_view` of its sorted root: ``node_ids`` is
``arange(n)`` and ``hash_keys`` the original ids.  :func:`split_by_bins`
takes position groups and gives each child ``node_ids[group]`` and the
same ``hash_keys``, so every instance of the recursion names its nodes by
root position.  Two things still read the original ids, through
:meth:`GraphCSR.keys_at`: ``h1`` hashes them (:func:`node_id_array`), and
:func:`set_order` orders each extracted group as a Python set of them, as
the extraction always has.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.errors import GraphError
from repro.types import NodeId


@dataclass(frozen=True)
class GraphCSR:
    """Immutable array view of a graph (see the module docstring)."""

    node_ids: Union[List[NodeId], np.ndarray]
    indptr: np.ndarray
    indices: np.ndarray
    degrees: np.ndarray
    edge_sources: np.ndarray = field(repr=False)
    #: The solve root's original ids, in root position order, when
    #: ``node_ids`` are root positions (see :func:`position_view`);
    #: ``None`` when the node ids are the ids themselves.
    hash_keys: Optional[np.ndarray] = field(default=None, repr=False)
    #: Cached :func:`id_locator` of ``node_ids``, built on the first lookup.
    _locator: object = field(default=None, repr=False)
    #: Cached :func:`id_locator` of the hashed ids (:meth:`keys_at`).
    _key_locator: object = field(default=None, repr=False)

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_directed_edges(self) -> int:
        return int(self.indices.shape[0])

    def __getstate__(self) -> dict:
        """Pickle without the lookup caches (rebuilt on first use)."""
        return {**self.__dict__, "_locator": None, "_key_locator": None}

    def id_list(self) -> list:
        """``node_ids`` as a list of Python objects."""
        ids = self.node_ids
        return ids.tolist() if isinstance(ids, np.ndarray) else ids

    def ids_at(self, rows: np.ndarray):
        """The node ids at positions ``rows``, of ``node_ids``' kind."""
        ids = self.node_ids
        if isinstance(ids, np.ndarray):
            return ids[rows]
        return [ids[row] for row in rows.tolist()]

    def keys_at(self, rows: np.ndarray):
        """The ids ``h1`` hashes at ``rows``: the root's original ids inside
        a solve, the node ids elsewhere.  An int64 array, or a list."""
        if self.hash_keys is None:
            return self.ids_at(rows)
        keys = self.hash_keys[self.node_ids[rows]]
        return keys.tolist() if keys.dtype == object else keys

    def _id_locator(self):
        locator = self._locator
        if locator is None:
            locator = id_locator(self.node_ids)
            object.__setattr__(self, "_locator", locator)
        return locator

    def locate(self, ids) -> np.ndarray:
        """The position of every id in ``ids`` (a sized sequence), -1 for
        ids that are not nodes; int64.  ``ids`` equal to :attr:`node_ids`
        (an aligned palette store's nodes) answer ``arange`` directly."""
        if same_ids(self.node_ids, ids):
            return np.arange(len(ids), dtype=np.int64)
        return locate_ids(self._id_locator(), ids)

    def row(self, node: NodeId) -> int:
        """The position of one node, -1 if it is not one (per-node queries)."""
        return locate_one(self._id_locator(), node)

    def locate_keys(self, keys) -> np.ndarray:
        """:meth:`locate` over the hashed ids (:meth:`keys_at`) instead of
        the node ids; the same thing outside a solve."""
        if self.hash_keys is None:
            return self.locate(keys)
        locator = self._key_locator
        if locator is None:
            locator = id_locator(self.keys_at(np.arange(self.num_nodes, dtype=np.int64)))
            object.__setattr__(self, "_key_locator", locator)
        return locate_ids(locator, keys)


def same_ids(first, second) -> bool:
    """Whether two node-id sequences (lists or int64 arrays) are equal."""
    if first is second:
        return True
    if isinstance(first, np.ndarray) or isinstance(second, np.ndarray):
        return len(first) == len(second) and bool(
            np.array_equal(np.asarray(first), np.asarray(second))
        )
    return first == second


#: Up to this many ids, :func:`id_locator` builds a dict: on the few
#: nodes of a recursion leaf, the per-node queries of the small-instance
#: greedy loop cost a hash probe instead of a NumPy binary search.
SMALL_LOCATOR_IDS = 64


def id_locator(node_ids):
    """A lookup structure for :func:`locate_ids` over ``node_ids``.

    More than :data:`SMALL_LOCATOR_IDS` int64 ids give a ``range`` when
    they are one ascending run of consecutive integers (every generator's
    ``0..n-1``, a solve's root positions), answered by one subtraction;
    otherwise ``(ids, order)``: ``order`` sorts them (``None`` when they
    already ascend).  Fewer ids, or ids that are not int64 integers, give
    a dict.
    """
    if isinstance(node_ids, np.ndarray) and node_ids.dtype != object:
        ids = node_ids
    else:
        ids = integer_array(node_ids)
    if ids is None or ids.shape[0] <= SMALL_LOCATOR_IDS:
        keys = node_ids.tolist() if isinstance(node_ids, np.ndarray) else node_ids
        return {node: row for row, node in enumerate(keys)}
    if bool((ids[1:] > ids[:-1]).all()):
        low = int(ids[0])
        if int(ids[-1]) - low == ids.shape[0] - 1:
            return range(low, low + ids.shape[0])
        return ids, None
    order = np.argsort(ids, kind="stable")
    return ids[order], order


def locate_one(locator, node) -> int:
    """:func:`locate_ids` for a single id, at scalar cost (a dict probe, one
    subtraction or one binary probe)."""
    if isinstance(locator, dict):
        return locator.get(node, -1)
    if isinstance(locator, range):
        if type(node) is not int:  # numpy integers, bools: as plain ints
            if not isinstance(node, (int, np.integer)):
                return -1
            node = int(node)
        return node - locator.start if node in locator else -1
    if not isinstance(node, (int, np.integer)) or not -(2**63) <= node < 2**63:
        return -1
    ordered, order = locator
    at = int(ordered.searchsorted(node))
    if at == ordered.shape[0] or ordered[at] != node:
        return -1
    return at if order is None else int(order[at])


def locate_ids(locator, ids) -> np.ndarray:
    """Positions of ``ids`` under a :func:`id_locator`, -1 where absent."""
    if isinstance(locator, dict):
        return np.fromiter(
            (locator.get(node, -1) for node in ids), dtype=np.int64, count=len(ids)
        )
    if isinstance(ids, np.ndarray) and ids.dtype != object:
        queries = ids
    else:
        queries = integer_array(ids)
    if queries is None:  # some query is not an int64 integer: not a node
        return np.array([locate_one(locator, node) for node in ids], dtype=np.int64)
    if isinstance(locator, range):
        at = queries.astype(np.int64, copy=False) - locator.start
        return np.where((at >= 0) & (at < len(locator)), at, -1)
    ordered, order = locator
    if not ordered.shape[0]:
        return np.full(queries.shape[0], -1, dtype=np.int64)
    at = np.minimum(np.searchsorted(ordered, queries), ordered.shape[0] - 1)
    hit = ordered[at] == queries
    rows = at if order is None else order[at]
    return np.where(hit, rows, -1).astype(np.int64, copy=False)


def index_dtype(num_nodes: int) -> type:
    """Position dtype for an instance of ``num_nodes`` nodes.

    Positions live in ``[0, num_nodes)``; int32 halves the bytes of the
    memory-bound edge gathers whenever it fits, int64 is the
    overflow-guarded promotion beyond ``2**31 - 1`` nodes (the dtype policy
    in ``docs/ARCHITECTURE.md``).  Key sorts over ``source * n + target``
    always run in int64 regardless — the *combined* key overflows int32
    long before the positions do.
    """
    return np.int32 if num_nodes <= np.iinfo(np.int32).max else np.int64


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` as one sort plus an adjacent-difference mask.

    Same result and dtype; on numpy 2.x ``np.unique`` takes a hash path
    that is several times slower on large integer arrays.
    """
    ordered = np.sort(values)
    if ordered.shape[0] < 2:
        return ordered
    distinct = np.empty(ordered.shape[0], dtype=bool)
    distinct[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
    return ordered[distinct]


def integer_array(values) -> Optional[np.ndarray]:
    """``values`` as an int64 array, or ``None`` unless all are int64 integers.

    ``values`` is a sized sequence.  A ``None`` return (floats, strings,
    ids or colors beyond int64) sends the caller to its dict-coded path.
    ``np.fromiter(..., dtype=np.int64)`` truncates floats silently, so one
    ``sum`` first checks the element types: it stays an integer iff every
    element is one.
    """
    try:
        with np.errstate(all="ignore"):
            if not isinstance(sum(values), (int, np.integer)):
                return None
        return np.fromiter(values, dtype=np.int64, count=len(values))
    except (OverflowError, TypeError, ValueError):
        return None


def node_id_array(csr: GraphCSR) -> np.ndarray:
    """The ids ``h1`` hashes (:meth:`GraphCSR.keys_at`), as an int64 array in
    position order.

    Partitioning hashes node ids with ``h1``, whose domain is the
    integers, so an id that is not an int64 integer is a
    :class:`~repro.errors.GraphError` naming the first offender (an
    instance small enough for the base case never gets here).
    """
    keys = csr.keys_at(np.arange(csr.num_nodes, dtype=np.int64))
    array = keys if isinstance(keys, np.ndarray) else integer_array(keys)
    if array is not None:
        return array
    odd = next(
        (
            node
            for node in keys
            if not isinstance(node, (int, np.integer))
            or not -(2**63) <= node < 2**63
        ),
        keys[0],
    )
    raise GraphError(
        f"node id {odd!r} is not an int64 integer; partitioning hashes "
        "integer node ids"
    )


def position_view(csr: GraphCSR) -> GraphCSR:
    """The solve's root view: node ids are positions, ids move to ``hash_keys``.

    Same arrays as ``csr``; ``node_ids`` becomes ``arange(n)`` and
    ``hash_keys`` holds the original ids (int64, or objects when some id
    is not an int64 integer).  Every view extracted from it keeps
    ``hash_keys`` and names its nodes by root position.
    """
    ids = csr.node_ids
    keys = ids if isinstance(ids, np.ndarray) else integer_array(ids)
    if keys is None:
        keys = np.empty(len(ids), dtype=object)
        keys[:] = ids
    return GraphCSR(
        node_ids=np.arange(csr.num_nodes, dtype=np.int64),
        indptr=csr.indptr,
        indices=csr.indices,
        degrees=csr.degrees,
        edge_sources=csr.edge_sources,
        hash_keys=keys,
    )


def set_order(csr: GraphCSR, rows, via_set: bool = False) -> np.ndarray:
    """``rows`` in the iteration order of a Python set of their ids.

    The one place that orders an extracted group: the children's node
    order (and with it every tie-break below them) is the order
    ``list({node for node in group})`` gives over the original ids
    (:meth:`GraphCSR.keys_at`), as it always has been.  ``rows`` are
    positions in ``csr`` in the group's iteration order; ``via_set``
    first collects them into a set, as a group that was itself a set.
    The ordered ids map back to rows with one lookup
    (:meth:`GraphCSR.locate_keys`).  Repeated rows collapse.
    """
    keys = csr.keys_at(np.asarray(rows, dtype=np.int64))
    if not isinstance(keys, np.ndarray):
        return csr.locate_keys(list({label for label in (set(keys) if via_set else keys)}))
    labels = keys.tolist()
    ordered = {label for label in (set(labels) if via_set else labels)}
    return csr.locate_keys(np.fromiter(ordered, dtype=np.int64, count=len(ordered)))


def _first_appearance(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(unique ids in first-appearance order, position of every id)``.

    ``positions[k]`` is the index of ``ids[k]`` within the returned unique
    array — the insertion order a scalar ``add_node`` loop over ``ids``
    would produce.  A contiguous id range read in sorted order (the
    generators' ``0..n-1`` layout) is answered by one subtraction; anything
    else takes one stable argsort with an adjacent-difference mask (see
    :func:`sorted_unique`).
    """
    if not ids.shape[0]:
        return ids, ids
    low, high = int(ids.min()), int(ids.max())
    span = high - low + 1
    if span <= ids.shape[0]:
        head = ids[:span]
        if bool(np.array_equal(head, np.arange(low, high + 1, dtype=np.int64))):
            return head, ids - low
    order = np.argsort(ids, kind="stable")
    ordered = ids[order]
    starts = np.empty(ids.shape[0], dtype=bool)
    starts[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    first_index = order[starts]
    insertion = np.argsort(first_index)
    rank = np.empty(first_index.shape[0], dtype=np.int64)
    rank[insertion] = np.arange(first_index.shape[0], dtype=np.int64)
    positions = np.empty(ids.shape[0], dtype=np.int64)
    positions[order] = rank[np.cumsum(starts) - 1]
    return ordered[starts][insertion], positions


def csr_from_edges(nodes, edges) -> GraphCSR:
    """The canonical view of the graph with ``nodes`` and ``edges``.

    ``nodes`` is a sequence of hashable ids, ``edges`` a sequence of
    ``(u, v)`` pairs.  Node order is first appearance over ``nodes`` then
    the edge endpoints (``u`` before ``v``), parallel and reversed edges
    collapse, and neighbor runs are sorted by position.  Ids that are all
    int64 integers get their positions from one vectorised pass
    (:func:`_first_appearance`); any other ids get first-appearance
    integer codes from one dict pass, so ids that compare equal (``1`` and
    ``1.0``) are one node.  Then one key sort over the ``2m`` directed
    edges builds the layout.  Raises :class:`~repro.errors.GraphError` on
    the first self-loop.
    """
    if edges and set(map(len, edges)) != {2}:
        raise GraphError("every edge must be a (u, v) pair")
    ids = list(nodes)
    num_listed = len(ids)
    ids.extend(itertools.chain.from_iterable(edges))
    values = integer_array(ids)
    if values is not None:
        ids = values  # the list of Python ints is dropped before the sort
        node_array, positions = _first_appearance(values)
        node_ids = node_array.tolist()
    else:
        codes: Dict[NodeId, int] = {}
        positions = np.fromiter(
            (codes.setdefault(node, len(codes)) for node in ids),
            dtype=np.int64,
            count=len(ids),
        )
        node_ids = list(codes)
    ends = positions[num_listed:].reshape(-1, 2)
    loops = np.flatnonzero(ends[:, 0] == ends[:, 1])
    if loops.shape[0]:
        raise GraphError(
            f"self-loop on node {ids[num_listed + 2 * int(loops[0])]} is not allowed"
        )
    num_nodes = len(node_ids)
    dtype = index_dtype(num_nodes)
    keys = np.concatenate(
        [ends[:, 0] * num_nodes + ends[:, 1], ends[:, 1] * num_nodes + ends[:, 0]]
    )
    keys = sorted_unique(keys)
    edge_sources = (keys // max(num_nodes, 1)).astype(dtype)
    degrees = np.bincount(edge_sources, minlength=num_nodes).astype(np.int64, copy=False)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return GraphCSR(
        node_ids=node_ids,
        indptr=indptr,
        indices=(keys % max(num_nodes, 1)).astype(dtype),
        degrees=degrees,
        edge_sources=edge_sources,
    )


def _assemble_child(
    node_ids, rows: np.ndarray, targets: np.ndarray, hash_keys=None
) -> GraphCSR:
    """Canonical child CSR from its directed edge list in child positions.

    ``rows[j]`` / ``targets[j]`` are the child positions of the endpoints of
    one directed edge.  One flat key sort restores the canonical layout
    (rows contiguous, targets sorted within each run), the one
    :func:`csr_from_edges` builds.
    """
    num_nodes = len(node_ids)
    dtype = index_dtype(num_nodes)
    degrees = np.bincount(rows, minlength=num_nodes).astype(np.int64, copy=False)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    if rows.shape[0]:
        keys = np.sort(
            rows.astype(np.int64) * num_nodes + targets.astype(np.int64)
        )
        indices = (keys % num_nodes).astype(dtype)
    else:
        indices = np.zeros(0, dtype=dtype)
    edge_sources = np.repeat(np.arange(num_nodes, dtype=dtype), degrees)
    return GraphCSR(
        node_ids=node_ids if isinstance(node_ids, np.ndarray) else list(node_ids),
        indptr=indptr,
        indices=indices,
        degrees=degrees,
        edge_sources=edge_sources,
        hash_keys=hash_keys,
    )


def gather_segments(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row lengths and a flat gather index concatenating CSR segments.

    ``indptr`` is any CSR-style boundary array and ``rows`` the segment
    indices to concatenate (in caller order, repeats allowed).  Returns
    ``(lengths, gather)`` where ``lengths[i]`` is the size of segment
    ``rows[i]`` and ``gather`` indexes the flat data array so that
    ``data[gather]`` lists the requested segments back to back.  Shared by
    the neighbor-run gathers here and the palette-slice gathers of
    :mod:`repro.graph.palettes` (same layout, different payload).
    """
    rows = np.asarray(rows, dtype=np.int64)
    num_rows = rows.shape[0]
    if not num_rows:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    lengths = indptr[rows + 1] - indptr[rows]
    return lengths, concat_ranges(indptr[rows], lengths)


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + l) for s, l in zip(starts, lengths)])``.

    One ``repeat`` plus one ``arange`` instead of a Python loop; returns
    an int64 array of length ``lengths.sum()``.
    """
    total = int(lengths.sum())
    if not total:
        return np.zeros(0, dtype=np.int64)
    run_ends = np.cumsum(lengths)
    return np.arange(total, dtype=np.int64) + np.repeat(
        starts - (run_ends - lengths), lengths
    )


def _gather_rows(
    csr: GraphCSR, old_positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the neighbor runs of ``old_positions`` in one gather.

    Returns ``(rows, neighbor_positions)``: for every directed edge leaving
    one of the requested rows, the *local* row index (0-based within
    ``old_positions``) and the parent position of the neighbor.
    """
    lengths, gather = gather_segments(csr.indptr, old_positions)
    if not gather.shape[0]:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    rows = np.repeat(np.arange(old_positions.shape[0], dtype=np.int64), lengths)
    return rows, csr.indices[gather]


def split_by_bins(csr: GraphCSR, groups: Sequence[np.ndarray]) -> List[GraphCSR]:
    """Child views for all (disjoint) position groups of one partition level.

    ``groups[g]`` is an int64 array of positions in ``csr``, in the order
    child ``g`` lists its nodes; the child's ``node_ids`` are
    ``csr.node_ids`` at those positions (root positions inside a solve)
    and it keeps ``csr.hash_keys``.  One label scatter and one reindex
    scatter cover the whole level, then each child gathers only its own
    members' neighbor runs, keeps the same-label edges, and key-sorts its
    own (much smaller) edge set into the canonical layout — total work one
    pass over the level's directed edges plus the per-child sorts.  Scalar
    reference: one ``induced_from_keep`` call per group
    (``tests/scalar_oracle.py``).  Raises :class:`~repro.errors.GraphError`
    if the groups overlap (or a group repeats a position) — a label
    scatter cannot represent overlapping bins.
    """
    positions_of = [np.asarray(group, dtype=np.int64) for group in groups]
    labels = np.full(csr.num_nodes, -1, dtype=np.int64)
    new_of_old = np.full(csr.num_nodes, -1, dtype=np.int64)
    total_members = 0
    for label, positions in enumerate(positions_of):
        labels[positions] = label
        new_of_old[positions] = np.arange(positions.shape[0], dtype=np.int64)
        total_members += positions.shape[0]
    if total_members != int((labels >= 0).sum()):
        raise GraphError("split_by_bins groups must be disjoint")
    children: List[GraphCSR] = []
    for label, positions in enumerate(positions_of):
        rows, neighbor_positions = _gather_rows(csr, positions)
        kept = np.flatnonzero(labels.take(neighbor_positions) == label)
        children.append(
            _assemble_child(
                csr.ids_at(positions),
                rows.take(kept),
                new_of_old.take(neighbor_positions.take(kept)),
                csr.hash_keys,
            )
        )
    return children
