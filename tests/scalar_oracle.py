"""Scalar reference routing for both coloring pipelines (test-only).

Production ``ColorReduce`` / ``LowSpaceColorReduce`` run one path: the
array kernels.  The per-node loops those kernels replaced are kept as the
reference — in this module, or in production where it still runs them
(the small-instance greedy loop) — and :func:`scalar_reference` reroutes
every array entry point the drivers call to it:

* ``HashPairSelector._batch_cost`` -> the per-pair lift over the cost's
  scalar ``__call__`` (:func:`_scalar_batch_cost`),
* ``PartitionCostEvaluator.classify_selected`` -> ``classify_partition``
  plus ``color_bin_map`` / :func:`restricted_to`,
* ``LowSpaceCostEvaluator.outcome_selected`` -> ``node_level_outcome``,
* ``LowSpaceCostEvaluator._prepare`` -> :func:`scalar_low_space_prepare`
  (the per-node walk over sorted neighbor lists and scalar ``pow``),
* ``PartitionClassification._records`` -> :func:`eager_records` (the
  per-row record loop, reason strings in a second pass),
* the low-space partition's ``color_bin_arrays`` -> per-color ``h2`` calls,
* ``PaletteAssignment.restricted_by_bins`` -> :func:`restricted_to` per bin,
* ``PaletteAssignment.remove_colors_used_by_neighbors_batch`` ->
  :func:`remove_colors_used_by_neighbors`,
* ``PaletteAssignment.subset_updated`` -> ``subset`` plus
  :func:`remove_colors_used_by_neighbors`,
* ``Graph.induced_subgraph`` / ``induced_subgraphs`` ->
  :func:`induced_subgraph` / :func:`induced_subgraphs` (the per-neighbor
  set loop :func:`induced_from_keep`),
* ``ColorReduce``'s ``greedy_list_coloring`` ->
  ``repro.core.local_coloring._greedy_scalar`` (the loop production keeps
  for instances below the array sweep's cutover).

The references are also what the unit-level differential tests and the
``bench_p*`` benchmarks compare the array kernels with.  Three of them
have no reroute: :func:`rank_oracle` (the palette store's universe and
entry ranks; the drivers reach the rank kernel only through the store),
and :class:`SetGraph` with :func:`build_csr` (the adjacency-set graph and
its view, the reference for ``Graph``'s one array view).

A differential test runs the same instance in production and under the
oracle and compares coloring, rounds, recursion tree and ledger
(:func:`assert_same_run`).  Both sides should pass ``level_use_batch=False``:
the level prefetch serves cached array values and is not rerouted.  Every
rerouted entry point counts its calls in :attr:`ScalarOracle.calls`;
tests assert the ones their instance must reach were hit
(:meth:`ScalarOracle.assert_called`), so a patch that silently misses its
call site fails loudly instead of comparing production with itself.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

import repro.core.color_reduce as color_reduce_module
import repro.core.low_space.partition as low_space_partition_module
from repro.core.classification import (
    NodeClassification,
    PartitionClassification,
    PartitionCostEvaluator,
    classify_partition,
    color_bin_map,
)
from repro.core.local_coloring import _greedy_scalar
from repro.core.low_space.machine_sets import LowSpaceCostEvaluator, node_level_outcome
from repro.derand.conditional_expectation import HashPairSelector
from repro.errors import GraphError
from repro.graph.csr import GraphCSR, index_dtype
from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment, RunColoring

#: Entry points every ``Partition`` level reaches.
PARTITION_ENTRY_POINTS = (
    "HashPairSelector._batch_cost",
    "PartitionCostEvaluator.classify_selected",
    "Graph.induced_subgraphs",
)
#: Entry points every ``LowSpacePartition`` level with high-degree nodes
#: reaches.
LOW_SPACE_PARTITION_ENTRY_POINTS = (
    "HashPairSelector._batch_cost",
    "LowSpaceCostEvaluator.outcome_selected",
    "color_bin_arrays",
    "PaletteAssignment.restricted_by_bins",
    "Graph.induced_subgraph",
    "Graph.induced_subgraphs",
)


class ScalarOracle:
    """Call counts of the rerouted entry points during one oracle run."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()

    def assert_called(self, *names: str) -> None:
        missed = [name for name in names if not self.calls[name]]
        assert not missed, f"scalar oracle reroutes never reached: {missed}"


# ----------------------------------------------------------------------
# the graph and palette references
# ----------------------------------------------------------------------
class SetGraph:
    """The adjacency-set graph: ``node -> neighbor set`` in insertion order.

    ``Graph``'s reference semantics: nodes in first-insertion order,
    parallel and reversed edges collapsed, a self-loop a
    :class:`GraphError` at once.
    """

    def __init__(self, nodes=(), edges=()):
        self.adj = {}
        for node in nodes:
            self.add_node(node)
        for u, v in edges:
            self.add_edge(u, v)

    def add_node(self, node):
        self.adj.setdefault(node, set())

    def add_edge(self, u, v):
        if u == v:
            raise GraphError(f"self-loop on node {u} is not allowed")
        self.adj.setdefault(u, set()).add(v)
        self.adj.setdefault(v, set()).add(u)

    def connected_components(self):
        """Node sets of the components, by iterative search, in the order
        of their first node."""
        seen = set()
        components = []
        for start in self.adj:
            if start in seen:
                continue
            component, frontier = {start}, [start]
            seen.add(start)
            while frontier:
                for neighbor in self.adj[frontier.pop()]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        component.add(neighbor)
                        frontier.append(neighbor)
            components.append(component)
        return components


def build_csr(adjacency) -> GraphCSR:
    """The canonical view of an adjacency-set mapping, node by node.

    ``node_ids`` in the mapping's order, ``indptr`` of shape ``(n + 1,)``,
    ``indices`` / ``edge_sources`` one entry per directed edge
    (:func:`~repro.graph.csr.index_dtype`-narrowed), each neighbor run
    sorted by position.
    """
    node_ids = list(adjacency)
    position = {node: index for index, node in enumerate(node_ids)}
    num_nodes = len(node_ids)
    dtype = index_dtype(num_nodes)
    degrees = np.fromiter(
        (len(adjacency[node]) for node in node_ids), dtype=np.int64, count=num_nodes
    )
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    runs = [sorted(position[neighbor] for neighbor in adjacency[node]) for node in node_ids]
    return GraphCSR(
        node_ids=node_ids,
        indptr=indptr,
        indices=np.asarray([pos for run in runs for pos in run], dtype=dtype),
        degrees=degrees,
        edge_sources=np.repeat(np.arange(num_nodes, dtype=dtype), degrees),
    )


def assert_same_graph(built, reference: SetGraph) -> None:
    """``built`` has ``reference``'s node order, neighbor sets and
    canonical view (:func:`build_csr`: same arrays, same dtypes)."""
    assert built.nodes() == list(reference.adj)
    view, expected = built.csr(), build_csr(reference.adj)
    assert view.node_ids == expected.node_ids
    for name in ("indptr", "indices", "degrees", "edge_sources"):
        got, want = getattr(view, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert {node: built.neighbors(node) for node in built} == reference.adj


def induced_from_keep(graph, keep):
    """The subgraph induced by the known ids ``keep``, one neighbor at a
    time.

    Nodes are inserted in ``keep``'s iteration order, as the extraction
    kernel orders a child.  Ids must be mutually comparable.  A child of
    a solve's graph (whose ids are root positions) keeps the root's
    ``hash_keys`` and names its nodes by an int64 array, like the
    kernel's children.
    """
    members = set(keep)
    sub = Graph(nodes=keep)
    for u in keep:
        for v in graph.iter_neighbors(u):
            if v in members and u < v:
                sub.add_edge(u, v)
    hash_keys = graph.csr().hash_keys
    if hash_keys is not None:
        view = sub.csr()
        sub = Graph._from_csr(
            dataclasses.replace(
                view, node_ids=np.asarray(view.node_ids, dtype=np.int64), hash_keys=hash_keys
            )
        )
    return sub


def induced_subgraphs(graph, groups, by_position=False):
    """``Graph.induced_subgraphs``: unknown ids dropped, one loop per group.

    Id groups are ordered as a set over the ids ``h1`` hashes (the
    original ids inside a solve); position groups are taken as ordered.
    """
    view = graph.csr()
    if by_position:
        return [induced_from_keep(graph, _ids(view, group)) for group in groups]
    key_of = dict(zip(view.id_list(), _keys(view)))
    id_of = {key: node for node, key in key_of.items()}
    children = []
    for group in groups:
        keys = {key_of[node] for node in group if node in graph}
        children.append(induced_from_keep(graph, [id_of[key] for key in keys]))
    return children


def _ids(view, rows):
    ids = view.ids_at(np.asarray(rows, dtype=np.int64))
    return ids.tolist() if isinstance(ids, np.ndarray) else ids


def _keys(view):
    keys = view.keys_at(np.arange(view.num_nodes, dtype=np.int64))
    return keys.tolist() if isinstance(keys, np.ndarray) else keys


def induced_subgraph(graph, nodes, by_position=False):
    """``Graph.induced_subgraph`` as one group of :func:`induced_subgraphs`."""
    return induced_subgraphs(graph, [nodes], by_position)[0]


def restricted_to(palettes, nodes, keep_color):
    """``nodes``' palettes filtered by ``keep_color``, one color at a time.

    One color bin of ``restricted_by_bins``: pass
    ``keep_color=lambda c: color_bin(c) == b``.
    """
    return PaletteAssignment(
        {
            node: {color for color in palettes.iter_palette(node) if keep_color(color)}
            for node in nodes
        }
    )


def rank_oracle(flat):
    """``(universe, positions)`` of the color array ``flat`` by one sort and
    one binary search per entry: ``np.unique`` plus ``np.searchsorted``.

    The reference for ``_PaletteStore.ranks``, which derives the same
    arrays (same dtypes) from the color span when it can.
    """
    universe = np.unique(flat)
    return universe, np.searchsorted(universe, flat)


def prune_palette_sets(sets, graph, coloring):
    """The per-neighbor pruning loop over a ``node -> palette set`` dict.

    Returns ``(pruned, removed)``: a new dict in ``sets``' node order, each
    palette of a node of ``graph`` without the colors of its colored
    neighbors, and the number of entries removed.  ``sets`` and its sets
    are left untouched.
    """
    pruned = dict(sets)
    removed = 0
    for node in pruned:
        if node not in graph:
            continue
        blocked = {
            coloring[neighbor]
            for neighbor in graph.iter_neighbors(node)
            if neighbor in coloring
        }
        hit = pruned[node] & blocked
        if hit:
            pruned[node] = pruned[node] - hit
            removed += len(hit)
    return pruned, removed


def remove_colors_used_by_neighbors(palettes, graph, coloring):
    """``remove_colors_used_by_neighbors_batch`` as a per-neighbor loop
    (:func:`prune_palette_sets` over the palettes' sets).

    Prunes ``palettes`` in place (installs a store rebuilt with
    ``from_lists``, so copies sharing the old store are untouched) and
    returns the number of entries removed.  A solve's :class:`RunColoring`
    is read as the ``root position -> color`` dict of its painted slots.
    """
    if isinstance(coloring, RunColoring):
        painted = np.flatnonzero(coloring.colored)
        coloring = dict(zip(painted.tolist(), coloring.colors[painted].tolist()))
    sets, removed = prune_palette_sets(
        {node: palettes.palette(node) for node in palettes.nodes()}, graph, coloring
    )
    palettes._store = PaletteAssignment.from_lists(sets).store()
    return removed


# ----------------------------------------------------------------------
# the scalar references, with the signatures of the entry points they replace
# ----------------------------------------------------------------------
def _scalar_batch_cost(self, cost):
    return lambda pairs: [cost(h1, h2) for h1, h2 in pairs]


def _classify_selected(self, h1, h2, scorer=None, precomputed_counts=None):
    classification = classify_partition(
        self.graph, self.palettes, h1, h2, self.params, self.ell, self.global_nodes
    )
    num_color_bins = max(1, self.params.num_bins(self.ell) - 1)
    colors_to_bins = color_bin_map(self.palettes, h2, num_color_bins)
    restricted = [
        restricted_to(
            self.palettes,
            classification.good_nodes_in_bin(bin_index),
            keep_color=lambda color, b=bin_index: colors_to_bins[color] == b,
        )
        for bin_index in range(num_color_bins)
    ]
    return classification, restricted


def _outcome_selected(self, h1, h2, scorer=None, precomputed_counts=None):
    return node_level_outcome(
        self.graph, self.palettes, self.high_degree_nodes, h1, h2, self.params, self.num_bins
    )


def scalar_low_space_prepare(self):
    """The low-space evaluator's prep layout, walked node by node.

    High nodes in sorted order, each node's sorted neighbors filtered to
    the high set, and one scalar ``pow`` per node for the threshold.  The
    keys are the shared layout of ``BatchCostEvaluatorBase``.
    """
    high = sorted(self.high_degree_nodes)
    position = {node: index for index, node in enumerate(high)}
    edge_sources = []
    edge_targets = []
    edge_indptr = np.zeros(len(high) + 1, dtype=np.int64)
    for index, node in enumerate(high):
        for neighbor in sorted(self.graph.iter_neighbors(node)):
            other = position.get(neighbor)
            if other is not None:
                edge_sources.append(index)
                edge_targets.append(other)
        edge_indptr[index + 1] = len(edge_sources)
    chunk_slack = self.params.degree_slack(self.params.machine_chunk(self.graph.num_nodes))
    slack = np.fromiter(
        (max(self.graph.degree(node) ** 0.6, chunk_slack) for node in high),
        dtype=np.float64,
        count=len(high),
    )
    degrees = np.fromiter(
        (self.graph.degree(node) for node in high), dtype=np.int64, count=len(high)
    )
    return {
        "csr": self.graph.csr(),
        "ids": np.asarray(high, dtype=np.int64),
        "edge_sources": np.asarray(edge_sources, dtype=np.int64),
        "edge_targets": np.asarray(edge_targets, dtype=np.int64),
        "edge_indptr": edge_indptr,
        **self.palette_entry_arrays(self.palettes, high),
        "num_bins": self.num_bins,
        "num_color_bins": max(1, self.num_bins - 1),
        "threshold": degrees / self.num_bins + slack,
    }


def eager_records(self):
    """An array classification's per-node records, one row at a time."""
    columns = self.columns
    nodes = {}
    rows = zip(
        columns["node_ids"],
        columns["bins"].tolist(),
        columns["degree"].tolist(),
        columns["in_bin_degree"].tolist(),
        columns["palette_size"].tolist(),
        columns["in_bin_palette"].tolist(),
        columns["in_color_bin"].tolist(),
        columns["reason_code"].tolist(),
    )
    for node, node_bin, degree, d_prime, p_size, p_prime, in_color, code in rows:
        nodes[node] = NodeClassification(
            node, node_bin, degree, d_prime, p_size,
            p_prime if in_color else None, code == 0, "",
        )
    for node, code in zip(columns["node_ids"], columns["reason_code"].tolist()):
        if code == 1:
            nodes[node].reason = "degree deviation"
        elif code == 2:
            nodes[node].reason = "palette shortfall"
        elif code == 3:
            nodes[node].reason = "palette does not exceed in-bin degree"
    return nodes


def _color_bin_arrays(palettes, h2, num_color_bins):
    colors_to_bins = color_bin_map(palettes, h2, num_color_bins)
    universe = sorted(colors_to_bins)
    bins = [colors_to_bins[color] for color in universe]
    return np.asarray(universe, dtype=np.int64), np.asarray(bins, dtype=np.int64)


def _restricted_by_bins(self, bin_members, universe, color_bin_ids):
    colors_to_bins = dict(zip(universe.tolist(), color_bin_ids.tolist()))
    return [
        restricted_to(
            self, members, keep_color=lambda color, b=bin_index: colors_to_bins[color] == b
        )
        for bin_index, members in enumerate(bin_members)
    ]


def _subset_updated(self, nodes, graph, coloring):
    subset = self.subset(nodes)
    return subset, remove_colors_used_by_neighbors(subset, graph, coloring)


#: ``(owner, attribute, scalar reference)``; the counter key is
#: ``"Owner.attribute"`` for classes and the bare attribute for modules.
REROUTES = (
    (HashPairSelector, "_batch_cost", _scalar_batch_cost),
    (PartitionCostEvaluator, "classify_selected", _classify_selected),
    (LowSpaceCostEvaluator, "outcome_selected", _outcome_selected),
    (LowSpaceCostEvaluator, "_prepare", scalar_low_space_prepare),
    (PartitionClassification, "_records", eager_records),
    (low_space_partition_module, "color_bin_arrays", _color_bin_arrays),
    (PaletteAssignment, "restricted_by_bins", _restricted_by_bins),
    (PaletteAssignment, "remove_colors_used_by_neighbors_batch", remove_colors_used_by_neighbors),
    (PaletteAssignment, "subset_updated", _subset_updated),
    (Graph, "induced_subgraph", induced_subgraph),
    (Graph, "induced_subgraphs", induced_subgraphs),
    (color_reduce_module, "greedy_list_coloring", _greedy_scalar),
)


def _counted(oracle: ScalarOracle, name: str, func):
    def rerouted(*args, **kwargs):
        oracle.calls[name] += 1
        return func(*args, **kwargs)

    return rerouted


@contextmanager
def scalar_reference(monkeypatch):
    """Reroute the drivers' array entry points to their scalar references.

    Yields the :class:`ScalarOracle` counting the rerouted calls; every
    patch is undone when the block exits, so one test can run production
    before and after it.
    """
    oracle = ScalarOracle()
    with monkeypatch.context() as patch:
        for owner, attribute, reference in REROUTES:
            name = (
                f"{owner.__name__}.{attribute}" if isinstance(owner, type) else attribute
            )
            patch.setattr(owner, attribute, _counted(oracle, name, reference))
        yield oracle


def production_and_reference(monkeypatch, run):
    """``(production, reference, oracle)``: ``run()`` without, then with, the oracle."""
    production = run()
    with scalar_reference(monkeypatch) as oracle:
        reference = run()
    return production, reference, oracle


def assert_same_run(production, reference) -> None:
    """Identical coloring, rounds, recursion tree and ledger."""
    assert production.coloring == reference.coloring
    assert production.rounds == reference.rounds
    assert asdict(production.recursion_root) == asdict(reference.recursion_root)
    assert production.ledger.snapshot() == reference.ledger.snapshot()
