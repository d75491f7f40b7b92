"""Undirected simple graph used throughout the reproduction.

The congested-clique and MPC simulators, the coloring algorithms and the
baselines all operate on this structure.  It is intentionally small: an
adjacency-set representation with the handful of operations the paper's
algorithms actually need (degrees, induced subgraphs, size accounting),
plus a cached array view (:meth:`Graph.csr`) for the batched cost kernels.
Induced subgraphs are always cut from that view
(:func:`repro.graph.csr.split_by_bins`); the per-neighbor set loop they
replaced is the test oracle's reference (``tests/scalar_oracle.py``).

Nodes are arbitrary hashable integers; they do *not* need to be contiguous,
because recursive calls of ``ColorReduce`` operate on induced subgraphs that
keep the original node identifiers (the paper's hash function ``h1`` maps the
*global* identifier space ``[n]`` to bins).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro.errors import GraphError
from repro.types import Edge, NodeId


class Graph:
    """An undirected simple graph stored as adjacency sets.

    Parameters
    ----------
    nodes:
        Optional iterable of node identifiers to pre-insert (isolated nodes
        are meaningful for coloring: they still need a color).
    edges:
        Optional iterable of ``(u, v)`` pairs.  Self-loops are rejected;
        parallel edges are collapsed.
    """

    __slots__ = ("_adj_store", "_csr")

    def __init__(
        self,
        nodes: Iterable[NodeId] = (),
        edges: Iterable[Edge] = (),
    ) -> None:
        self._adj_store: Optional[Dict[NodeId, Set[NodeId]]] = {}
        self._csr = None
        for node in nodes:
            self.add_node(node)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # adjacency storage (materialised lazily for CSR-extracted graphs)
    # ------------------------------------------------------------------
    @property
    def _adj(self) -> Dict[NodeId, Set[NodeId]]:
        """The adjacency-set mapping, materialised on first access.

        Graphs built by :meth:`_from_csr` start with only their (canonical)
        array view; the adjacency sets are reconstructed from it the first
        time any set-based operation needs them.  Structural queries
        (``num_nodes``, ``num_edges``, ``degree``, ``nodes`` ...) answer
        straight from the view, so e.g. empty bin instances and recursion
        statistics never pay for materialisation.
        """
        adj = self._adj_store
        if adj is None:
            adj = self._materialize_adjacency()
        return adj

    @_adj.setter
    def _adj(self, value: Dict[NodeId, Set[NodeId]]) -> None:
        self._adj_store = value

    def _materialize_adjacency(self) -> Dict[NodeId, Set[NodeId]]:
        view = self._csr
        if view is None:  # pragma: no cover - _from_csr always sets the view
            raise GraphError("graph has neither adjacency sets nor a CSR view")
        from repro.graph.csr import integer_array

        node_ids = view.id_list()
        ids = integer_array(node_ids)
        if ids is not None:
            mapped = ids[view.indices].tolist()
        else:
            # Ids beyond int64 (or not integers): fall back to Python lookups.
            mapped = [node_ids[j] for j in view.indices.tolist()]
        bounds = view.indptr.tolist()
        adj: Dict[NodeId, Set[NodeId]] = {}
        start = 0
        for node, end in zip(node_ids, bounds[1:]):
            adj[node] = set(mapped[start:end])
            start = end
        self._adj_store = adj
        return adj

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId) -> None:
        """Insert ``node`` if not already present."""
        if node not in self._adj:
            self._adj[node] = set()
            self._csr = None

    def add_edge(self, u: NodeId, v: NodeId) -> None:
        """Insert the undirected edge ``{u, v}``, adding endpoints as needed."""
        if u == v:
            raise GraphError(f"self-loop on node {u} is not allowed")
        if v in self._adj.get(u, ()):
            return  # already present: keep the cached CSR view valid
        self._adj.setdefault(u, set()).add(v)
        self._adj.setdefault(v, set()).add(u)
        self._csr = None

    @classmethod
    def from_edges(cls, edges: Iterable[Edge], nodes: Iterable[NodeId] = ()) -> "Graph":
        """Build a graph from an edge list (plus optional isolated nodes).

        Array-first: integer ids go through one vectorised pass
        (:func:`repro.graph.csr.csr_from_edges`) into the canonical CSR
        view, and the adjacency sets stay lazy, as for extracted children.
        The result equals ``Graph(nodes, edges)`` — same node order,
        self-loop :class:`~repro.errors.GraphError`, parallel edges
        collapsed — which is also the fallback for any other ids.
        """
        from repro.graph.csr import csr_from_edges

        edges, nodes = list(edges), list(nodes)
        view = csr_from_edges(nodes, edges)
        if view is None:
            return cls(nodes=nodes, edges=edges)
        return cls._from_csr(view)

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
        """An independent deep copy of this graph."""
        clone = Graph()
        clone._adj = {node: set(neigh) for node, neigh in self._adj.items()}
        return clone

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, node: NodeId) -> bool:
        if self._adj_store is None:
            return self._csr.row(node) >= 0
        return node in self._adj_store

    def __len__(self) -> int:
        if self._adj_store is None:
            return self._csr.num_nodes
        return len(self._adj_store)

    def __iter__(self) -> Iterator[NodeId]:
        if self._adj_store is None:
            return iter(self._csr.id_list())
        return iter(self._adj_store)

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self)

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges."""
        if self._adj_store is None:
            return self._csr.num_directed_edges // 2
        return sum(len(neigh) for neigh in self._adj_store.values()) // 2

    def nodes(self) -> List[NodeId]:
        """All node identifiers (in insertion order)."""
        if self._adj_store is None:
            return list(self._csr.id_list())
        return list(self._adj_store)

    def edges(self) -> Iterator[Edge]:
        """Iterate over the edges, each once, as ``(u, v)``.

        ``u < v`` when the ids are mutually comparable; otherwise ``u`` is
        the endpoint inserted first.  On a lazily-backed graph
        (:meth:`_from_csr`) the edges are read straight off the array view,
        so iterating them never forces adjacency materialisation.
        Iteration *order* may differ between the two backings; the edge
        *set* is identical.
        """
        if self._adj_store is None:
            view = self._csr
            ids = view.id_list()
            ranks = _edge_ranks(ids)
            for i, j in zip(view.edge_sources.tolist(), view.indices.tolist()):
                if ranks[i] < ranks[j]:
                    yield (ids[i], ids[j])
            return
        ids = list(self._adj_store)
        rank_of = dict(zip(ids, _edge_ranks(ids)))
        for u, neigh in self._adj_store.items():
            rank = rank_of[u]
            for v in neigh:
                if rank < rank_of[v]:
                    yield (u, v)

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Whether the edge ``{u, v}`` is present."""
        return v in self._adj.get(u, ())

    def neighbors(self, node: NodeId) -> Set[NodeId]:
        """The neighbor set of ``node`` (a live view is never exposed)."""
        try:
            return set(self._adj[node])
        except KeyError as exc:
            raise GraphError(f"unknown node {node}") from exc

    def iter_neighbors(self, node: NodeId) -> Iterator[NodeId]:
        """Iterate over the neighbors of ``node`` without copying the set.

        The no-copy counterpart of :meth:`neighbors` for hot loops that only
        scan (classification, palette updates, MIS sweeps).  On a
        lazily-backed graph (:meth:`_from_csr`) the neighbor run is read
        straight off the array view, so scanning consumers — the greedy
        local coloring, palette updates, the MIS sweeps — never force
        adjacency materialisation.  Iteration *order* may differ between the
        two backings; the neighbor *set* is identical.  The iterator reads
        live storage: do not mutate the graph while holding it.
        """
        if self._adj_store is None:
            view = self._csr
            pos = view.row(node)
            if pos < 0:
                raise GraphError(f"unknown node {node}")
            run = view.ids_at(view.indices[view.indptr[pos] : view.indptr[pos + 1]])
            return iter(run if isinstance(run, list) else run.tolist())
        try:
            return iter(self._adj_store[node])
        except KeyError as exc:
            raise GraphError(f"unknown node {node}") from exc

    def degree(self, node: NodeId) -> int:
        """Degree of ``node``."""
        if self._adj_store is None:
            pos = self._csr.row(node)
            if pos < 0:
                raise GraphError(f"unknown node {node}")
            return int(self._csr.degrees[pos])
        try:
            return len(self._adj_store[node])
        except KeyError as exc:
            raise GraphError(f"unknown node {node}") from exc

    def degrees(self) -> Dict[NodeId, int]:
        """Mapping from node to degree."""
        if self._adj_store is None:
            view = self._csr
            return dict(zip(view.id_list(), view.degrees.tolist()))
        return {node: len(neigh) for node, neigh in self._adj_store.items()}

    def max_degree(self) -> int:
        """The maximum degree Δ (0 for an empty or edgeless graph)."""
        if self._adj_store is None:
            view = self._csr
            return int(view.degrees.max()) if view.num_nodes else 0
        if not self._adj_store:
            return 0
        return max(len(neigh) for neigh in self._adj_store.values())

    def size(self) -> int:
        """The paper's notion of instance *size*: ``num_nodes + num_edges``.

        Lemma 3.14 argues the graph induced by each bin reaches size ``O(n)``;
        this is the quantity ``ColorReduce`` compares against its collection
        threshold.
        """
        return self.num_nodes + self.num_edges

    def csr(self):
        """The cached array ("CSR") view of this graph.

        Present from construction for :meth:`from_edges` graphs and
        extracted children, built on first use otherwise, and invalidated
        by :meth:`add_node` / :meth:`add_edge`; see :mod:`repro.graph.csr` for the full
        array-view contract.  The batched cost kernels use it to turn
        per-node classification loops into ``np.bincount``/scatter
        operations, and :meth:`induced_subgraph` / :meth:`induced_subgraphs`
        extract subgraphs from it without per-neighbor set lookups; the
        subgraphs carry their own (canonical) warm view.
        """
        if self._csr is None:
            from repro.graph.csr import build_csr

            self._csr = build_csr(self._adj)
        return self._csr

    def has_csr(self) -> bool:
        """Whether the array view is currently warm (built, not invalidated).

        Lets consumers read arrays off the view when it is free to take
        (palette construction and validation), without building it.
        """
        return self._csr is not None

    @classmethod
    def _from_csr(cls, view) -> "Graph":
        """A graph backed by a canonical CSR view (adjacency sets deferred).

        The view must be canonical (node order == intended insertion order,
        neighbor runs sorted — what the extraction kernels produce), so the
        cached view is indistinguishable from one rebuilt from ``_adj``.
        Adjacency sets are materialised lazily on first set-based access
        (see :attr:`_adj`); purely structural queries are answered from the
        view directly.
        """
        graph = cls()
        graph._adj_store = None
        graph._csr = view
        return graph

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, nodes, by_position: bool = False) -> "Graph":
        """The subgraph induced by ``nodes`` (unknown ids are ignored).

        The child is backed by its own warm canonical CSR view and
        materialises adjacency sets lazily; its node order is the
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
        from repro.graph.csr import set_order, split_by_bins

        view = self.csr()
        if not by_position:
            keeps = []
            for group in groups:
                rows = view.locate(list(group))
                keeps.append(set_order(view, rows[rows >= 0]))
            groups = keeps
        return [Graph._from_csr(child) for child in split_by_bins(view, groups)]

    def connected_components(self) -> List[Set[NodeId]]:
        """Connected components as a list of node sets (iterative BFS)."""
        seen: Set[NodeId] = set()
        components: List[Set[NodeId]] = []
        for start in self._adj:
            if start in seen:
                continue
            component = {start}
            frontier = [start]
            seen.add(start)
            while frontier:
                node = frontier.pop()
                for neigh in self._adj[node]:
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
