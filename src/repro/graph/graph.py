"""Undirected simple graph used throughout the reproduction.

The congested-clique and MPC simulators, the coloring algorithms and the
baselines all operate on this structure.  It is intentionally small: one
immutable array view (:meth:`Graph.csr`, see :mod:`repro.graph.csr`)
with the handful of operations the paper's algorithms actually need
(degrees, induced subgraphs, size accounting).  Every query reads the
view; induced subgraphs are cut from it
(:func:`repro.graph.csr.split_by_bins`).  The adjacency-set graph it
replaced is the test oracle's reference (``tests/scalar_oracle.py``).

Nodes are arbitrary hashable ids, usually integers; they do *not* need to
be contiguous, because recursive calls of ``ColorReduce`` operate on
induced subgraphs that keep the original node identifiers (the paper's hash
function ``h1`` maps the *global* identifier space ``[n]`` to bins).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Set

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import GraphCSR, csr_from_edges, set_order, split_by_bins
from repro.types import Edge, NodeId


class Graph:
    """An undirected simple graph held as one canonical array view.

    Parameters
    ----------
    nodes:
        Optional iterable of node identifiers to pre-insert (isolated nodes
        are meaningful for coloring: they still need a color).
    edges:
        Optional iterable of ``(u, v)`` pairs.  Self-loops are rejected;
        parallel edges are collapsed.

    The state is an immutable :class:`~repro.graph.csr.GraphCSR` plus a
    buffer of the nodes and edges added since it was built.  The first
    query folds the two into a new view
    (:func:`~repro.graph.csr.csr_from_edges`); node order is insertion
    order throughout.
    """

    __slots__ = ("_view", "_added_nodes", "_added_edges")

    def __init__(
        self,
        nodes: Iterable[NodeId] = (),
        edges: Iterable[Edge] = (),
    ) -> None:
        self._view: GraphCSR = _EMPTY_VIEW
        #: Every added node and edge endpoint, in insertion order.
        self._added_nodes: List[NodeId] = list(nodes)
        self._added_edges: List[Edge] = []
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId) -> None:
        """Insert ``node`` if not already present."""
        self._added_nodes.append(node)

    def add_edge(self, u: NodeId, v: NodeId) -> None:
        """Insert the undirected edge ``{u, v}``, adding endpoints as needed."""
        if u == v:
            raise GraphError(f"self-loop on node {u} is not allowed")
        self._added_nodes += (u, v)
        self._added_edges.append((u, v))

    def _folded(self) -> GraphCSR:
        """The view, after folding the added nodes and edges into it."""
        if self._added_nodes:
            view = self._view
            upper = view.edge_sources < view.indices
            edges = list(
                zip(view.ids_at(view.edge_sources[upper]), view.ids_at(view.indices[upper]))
            )
            self._view = csr_from_edges(
                view.id_list() + self._added_nodes, edges + self._added_edges
            )
            self._added_nodes, self._added_edges = [], []
        return self._view

    @classmethod
    def from_edges(cls, edges: Iterable[Edge], nodes: Iterable[NodeId] = ()) -> "Graph":
        """Build a graph from an edge list (plus optional isolated nodes).

        The lists go straight to :func:`repro.graph.csr.csr_from_edges`;
        the result equals ``Graph(nodes, edges)``: same node order,
        self-loop :class:`~repro.errors.GraphError`, parallel edges
        collapsed.
        """
        return cls._from_csr(csr_from_edges(list(nodes), list(edges)))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        """The complete graph on nodes ``0..n-1``."""
        graph = cls(nodes=range(n))
        for u in range(n):
            for v in range(u + 1, n):
                graph.add_edge(u, v)
        return graph

    @classmethod
    def empty(cls, n: int) -> "Graph":
        """The edgeless graph on nodes ``0..n-1``."""
        return cls(nodes=range(n))

    def copy(self) -> "Graph":
        """An independent copy (it shares the immutable view)."""
        return Graph._from_csr(self._folded())

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, node: NodeId) -> bool:
        return self._folded().row(node) >= 0

    def __len__(self) -> int:
        return self._folded().num_nodes

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._folded().id_list())

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self)

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges."""
        return self._folded().num_directed_edges // 2

    def nodes(self) -> List[NodeId]:
        """All node identifiers (in insertion order)."""
        return list(self._folded().id_list())

    def edges(self) -> Iterator[Edge]:
        """Iterate over the edges, each once, as ``(u, v)``, off the view.

        ``u < v`` when the ids are mutually comparable; otherwise ``u`` is
        the endpoint inserted first.
        """
        view = self._folded()
        ids = view.id_list()
        ranks = _edge_ranks(ids)
        for i, j in zip(view.edge_sources.tolist(), view.indices.tolist()):
            if ranks[i] < ranks[j]:
                yield (ids[i], ids[j])

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Whether the edge ``{u, v}`` is present (one probe of ``u``'s sorted run)."""
        view = self._folded()
        source, target = view.row(u), view.row(v)
        if source < 0 or target < 0:
            return False
        run = view.indices[view.indptr[source] : view.indptr[source + 1]]
        at = int(run.searchsorted(target))
        return at < run.shape[0] and int(run[at]) == target

    def neighbors(self, node: NodeId) -> Set[NodeId]:
        """The neighbor set of ``node`` (a fresh set)."""
        return set(self.iter_neighbors(node))

    def iter_neighbors(self, node: NodeId) -> Iterator[NodeId]:
        """Iterate over the neighbors of ``node``, read off its view row.

        The counterpart of :meth:`neighbors` for loops that only scan
        (the greedy local coloring, the MIS sweeps); neighbors arrive in
        insertion order.
        """
        view = self._folded()
        pos = _position(view, node)
        run = view.indices[view.indptr.item(pos) : view.indptr.item(pos + 1)]
        return iter(_ids_at(view, run))

    def degree(self, node: NodeId) -> int:
        """Degree of ``node``."""
        view = self._folded()
        return view.degrees.item(_position(view, node))

    def degrees(self) -> Dict[NodeId, int]:
        """Mapping from node to degree."""
        view = self._folded()
        return dict(zip(view.id_list(), view.degrees.tolist()))

    def max_degree(self) -> int:
        """The maximum degree Δ (0 for an empty or edgeless graph)."""
        view = self._folded()
        return int(view.degrees.max()) if view.num_nodes else 0

    def size(self) -> int:
        """The paper's notion of instance *size*: ``num_nodes + num_edges``.

        Lemma 3.14 argues the graph induced by each bin reaches size ``O(n)``;
        this is the quantity ``ColorReduce`` compares against its collection
        threshold.
        """
        return self.num_nodes + self.num_edges

    def csr(self) -> GraphCSR:
        """The graph's array ("CSR") view; see :mod:`repro.graph.csr`.

        The batched cost kernels use it to turn per-node classification
        loops into ``np.bincount``/scatter operations, and
        :meth:`induced_subgraph` / :meth:`induced_subgraphs` cut their
        children from it.
        """
        return self._folded()

    @classmethod
    def _from_csr(cls, view: GraphCSR) -> "Graph":
        """A graph over ``view``, which must be canonical (node order ==
        intended insertion order, neighbor runs sorted — what the builder
        and the extraction kernels produce)."""
        graph = cls()
        graph._view = view
        return graph

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, nodes, by_position: bool = False) -> "Graph":
        """The subgraph induced by ``nodes`` (unknown ids are ignored).

        The child holds its own canonical view; its node order is the
        iteration order of the filtered id set.  ``by_position`` is as in
        :meth:`induced_subgraphs`.
        """
        return self._extract([nodes], by_position)[0]

    def induced_subgraphs(
        self, groups: Sequence, by_position: bool = False
    ) -> List["Graph"]:
        """Induced subgraphs of several *disjoint* node groups in one pass.

        The partition pipelines slice every bin instance of a level at once;
        each child is what :meth:`induced_subgraph` returns for its group.
        With ``by_position`` each group is instead an int64 array of
        positions in :meth:`csr`, already in the child's node order (the
        pipelines order their groups with :func:`repro.graph.csr.set_order`).
        Overlapping groups are a :class:`~repro.errors.GraphError`.
        """
        return self._extract(groups, by_position)

    def _extract(self, groups: Sequence, by_position: bool) -> List["Graph"]:
        """Children of :func:`repro.graph.csr.split_by_bins`: position
        groups as given, id groups over their known ids, each in
        :func:`~repro.graph.csr.set_order`."""
        view = self._folded()
        if not by_position:
            keeps = []
            for group in groups:
                rows = view.locate(list(group))
                keeps.append(set_order(view, rows[rows >= 0]))
            groups = keeps
        return [Graph._from_csr(child) for child in split_by_bins(view, groups)]

    def connected_components(self) -> List[Set[NodeId]]:
        """Connected components as a list of node sets (iterative search)."""
        seen: Set[NodeId] = set()
        components: List[Set[NodeId]] = []
        for start in self:
            if start in seen:
                continue
            component = {start}
            frontier = [start]
            seen.add(start)
            while frontier:
                node = frontier.pop()
                for neigh in self.iter_neighbors(node):
                    if neigh not in seen:
                        seen.add(neigh)
                        component.add(neigh)
                        frontier.append(neigh)
            components.append(component)
        return components

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


_EMPTY_VIEW = csr_from_edges([], [])


def _position(view: GraphCSR, node: NodeId) -> int:
    """The position of ``node`` in ``view``; :class:`GraphError` if unknown."""
    pos = view.row(node)
    if pos < 0:
        raise GraphError(f"unknown node {node}")
    return pos


def _ids_at(view: GraphCSR, rows: np.ndarray) -> list:
    """The node ids at positions ``rows``, as a list of Python objects."""
    ids = view.ids_at(rows)
    return ids if isinstance(ids, list) else ids.tolist()


def _edge_ranks(ids: Sequence[NodeId]) -> List[int]:
    """Per-position ranks orienting :meth:`Graph.edges`.

    The rank of ``ids[i]`` in sorted order when the ids are mutually
    comparable, ``i`` itself otherwise (integers mixed with strings, say).
    """
    try:
        order = sorted(range(len(ids)), key=ids.__getitem__)
    except TypeError:
        return list(range(len(ids)))
    ranks = [0] * len(ids)
    for rank, index in enumerate(order):
        ranks[index] = rank
    return ranks


def degree_histogram(graph: Graph) -> Dict[int, int]:
    """Histogram mapping degree value to the number of nodes with it."""
    histogram: Dict[int, int] = {}
    for degree in graph.degrees().values():
        histogram[degree] = histogram.get(degree, 0) + 1
    return histogram


def average_degree(graph: Graph) -> float:
    """Average degree (0.0 for an empty graph)."""
    if graph.num_nodes == 0:
        return 0.0
    return 2.0 * graph.num_edges / graph.num_nodes
