"""Undirected simple graph used throughout the reproduction.

The congested-clique and MPC simulators, the coloring algorithms and the
baselines all operate on this structure.  It is intentionally small: an
adjacency-set representation with the handful of operations the paper's
algorithms actually need (degrees, induced subgraphs, size accounting),
plus a cached array view (:meth:`Graph.csr`) for the batched cost kernels.

Nodes are arbitrary hashable integers; they do *not* need to be contiguous,
because recursive calls of ``ColorReduce`` operate on induced subgraphs that
keep the original node identifiers (the paper's hash function ``h1`` maps the
*global* identifier space ``[n]`` to bins).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

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

        node_ids = view.node_ids
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
            return node in self._csr.position
        return node in self._adj_store

    def __len__(self) -> int:
        if self._adj_store is None:
            return self._csr.num_nodes
        return len(self._adj_store)

    def __iter__(self) -> Iterator[NodeId]:
        if self._adj_store is None:
            return iter(self._csr.node_ids)
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
            return list(self._csr.node_ids)
        return list(self._adj_store)

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges as ``(u, v)`` with ``u < v``.

        On a lazily-backed graph (:meth:`_from_csr`) the edges are read
        straight off the array view, so iterating them never forces
        adjacency materialisation.  Iteration *order* may differ between
        the two backings; the edge *set* is identical.
        """
        if self._adj_store is None:
            view = self._csr
            ids = view.node_ids
            sources = view.edge_sources.tolist()
            targets = view.indices.tolist()
            for i, j in zip(sources, targets):
                u, v = ids[i], ids[j]
                if u < v:
                    yield (u, v)
            return
        for u, neigh in self._adj_store.items():
            for v in neigh:
                if u < v:
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
            try:
                pos = view.position[node]
            except KeyError as exc:
                raise GraphError(f"unknown node {node}") from exc
            ids = view.node_ids
            run = view.indices[view.indptr[pos] : view.indptr[pos + 1]].tolist()
            return (ids[j] for j in run)
        try:
            return iter(self._adj_store[node])
        except KeyError as exc:
            raise GraphError(f"unknown node {node}") from exc

    def degree(self, node: NodeId) -> int:
        """Degree of ``node``."""
        if self._adj_store is None:
            view = self._csr
            try:
                return int(view.degrees[view.position[node]])
            except KeyError as exc:
                raise GraphError(f"unknown node {node}") from exc
        try:
            return len(self._adj_store[node])
        except KeyError as exc:
            raise GraphError(f"unknown node {node}") from exc

    def degrees(self) -> Dict[NodeId, int]:
        """Mapping from node to degree."""
        if self._adj_store is None:
            view = self._csr
            return {
                node: int(degree)
                for node, degree in zip(view.node_ids, view.degrees)
            }
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
        operations, and the ``use_csr`` fast paths of
        :meth:`induced_subgraph` / :meth:`subgraph_degrees_within` /
        :meth:`relabeled` extract subgraphs from it without per-neighbor
        set lookups.  Subgraphs produced by those fast paths carry their
        own (canonical) warm view.
        """
        if self._csr is None:
            from repro.graph.csr import build_csr

            self._csr = build_csr(self._adj)
        return self._csr

    def has_csr(self) -> bool:
        """Whether the array view is currently warm (built, not invalidated).

        The probe behind every ``use_csr=None`` / ``use_batch=None`` auto
        mode (here and in :func:`repro.core.local_coloring.greedy_list_coloring`):
        consumers take the array path iff it is free to take.
        """
        return self._csr is not None

    def _resolve_use_csr(self, use_csr: Optional[bool]) -> bool:
        """``None`` means auto: take the array path iff the view is warm."""
        if use_csr is None:
            return self._csr is not None
        return use_csr

    def _members_for_filter(self):
        """A membership container over the node set, cheapest available.

        Used by the extraction methods to filter unknown ids without
        forcing a lazy graph to materialise its adjacency sets — the CSR
        view's position map answers membership just as well.
        """
        adj = self._adj_store
        if adj is None:
            return self._csr.position
        return adj

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
    def induced_subgraph(
        self, nodes: Iterable[NodeId], use_csr: Optional[bool] = None
    ) -> "Graph":
        """The subgraph induced by ``nodes`` (unknown ids are ignored).

        ``use_csr`` selects the extraction path: ``None`` (default) uses the
        vectorized CSR kernel iff the array view is already warm, ``True``
        forces it (building the view if needed), ``False`` forces the scalar
        reference loop.  Both paths produce the same graph — same node
        insertion order, same adjacency sets — and the CSR path additionally
        hands the child a warm canonical view.
        """
        members = self._members_for_filter()
        keep = {node for node in nodes if node in members}
        if self._resolve_use_csr(use_csr):
            from repro.graph.csr import extract_induced

            return Graph._from_csr(extract_induced(self.csr(), list(keep)))
        return self._induced_from_keep(keep)

    def _induced_from_keep(self, keep: Set[NodeId]) -> "Graph":
        """Scalar reference extraction from an already-filtered node set."""
        sub = Graph(nodes=keep)
        for u in keep:
            for v in self._adj[u]:
                if v in keep and u < v:
                    sub.add_edge(u, v)
        return sub

    def induced_subgraphs(
        self, groups: Sequence[Iterable[NodeId]], use_csr: Optional[bool] = None
    ) -> List["Graph"]:
        """Induced subgraphs of several *disjoint* node groups in one pass.

        The batched form of :meth:`induced_subgraph` used by the partition
        pipelines to slice every bin instance of a level at once
        (:func:`repro.graph.csr.split_by_bins`).  With ``use_csr`` resolving
        to False each group goes through the scalar reference path instead;
        results are identical either way.  Unknown ids are ignored; groups
        must not overlap on the CSR path (:class:`~repro.errors.GraphError`).
        """
        members = self._members_for_filter()
        keeps = [{node for node in group if node in members} for group in groups]
        if not self._resolve_use_csr(use_csr):
            return [self._induced_from_keep(keep) for keep in keeps]
        from repro.graph.csr import split_by_bins

        children = split_by_bins(self.csr(), [list(keep) for keep in keeps])
        return [Graph._from_csr(child) for child in children]

    def subgraph_degrees_within(
        self, nodes: Iterable[NodeId], use_csr: Optional[bool] = None
    ) -> Dict[NodeId, int]:
        """Degrees restricted to the induced subgraph, without building it.

        This is the quantity ``d'(v)`` of Definition 3.1 (degree within the
        bin of ``v``) and is needed when classifying good/bad nodes before
        materialising the bin subgraphs.  With a warm CSR view (or
        ``use_csr=True``) the counts come from one membership mask plus one
        bincount (:func:`repro.graph.csr.degrees_within`) instead of a
        per-neighbor set-membership scan.
        """
        members = self._members_for_filter()
        keep = {node for node in nodes if node in members}
        if self._resolve_use_csr(use_csr):
            from repro.graph.csr import degrees_within

            kept_ids = list(keep)
            counts = degrees_within(self.csr(), kept_ids)
            return {node: int(count) for node, count in zip(kept_ids, counts)}
        return {u: sum(1 for v in self._adj[u] if v in keep) for u in keep}

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
    def relabeled(
        self, use_csr: Optional[bool] = None
    ) -> Tuple["Graph", Dict[NodeId, NodeId]]:
        """Return a copy with nodes relabeled ``0..n-1`` plus the mapping.

        The mapping sends *original* ids to *new* ids (insertion order).
        Useful for handing instances to array-based baselines.  With a warm
        CSR view the relabeled graph is the view itself re-captioned —
        positions *are* the new ids — so no edge iteration happens at all.
        """
        if self._resolve_use_csr(use_csr):
            from repro.graph.csr import GraphCSR

            view = self.csr()
            num_nodes = view.num_nodes
            relabeled_view = GraphCSR(
                node_ids=list(range(num_nodes)),
                indptr=view.indptr,
                indices=view.indices,
                degrees=view.degrees,
                edge_sources=view.edge_sources,
            )
            return Graph._from_csr(relabeled_view), dict(view.position)
        mapping = {node: index for index, node in enumerate(self._adj)}
        relabeled = Graph(nodes=mapping.values())
        for u, v in self.edges():
            relabeled.add_edge(mapping[u], mapping[v])
        return relabeled, mapping

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


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
