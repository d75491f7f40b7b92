"""Synthetic graph and palette generators (the reproduction's workloads).

The paper's model is purely theoretical and its evaluation is analytic, so
the reproduction uses synthetic graphs to exercise the algorithms.  The
generators here cover the regimes the analysis cares about:

* dense random graphs (``Δ = Θ(n)``) — the regime where the congested-clique
  input has size ``Θ(n Δ) = Θ(n^2)`` and recursion/collection matters,
* sparse random graphs (``Δ = O(polylog n)``) — the regime where instances
  are immediately of size ``O(n)``,
* structured graphs (complete multipartite, ring-of-cliques, power-law) that
  stress particular aspects (bin skew, high-degree tails),
* list-coloring palette generators with shared or adversarially disjoint
  color universes (the reason the paper's ``h2`` needs domain ``[n^2]``).

All generators take an explicit ``seed`` and are deterministic given it.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError
from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment
from repro.types import Color, NodeId


def _rng(seed: Optional[int]) -> random.Random:
    return random.Random(seed)


# ----------------------------------------------------------------------
# random graphs
# ----------------------------------------------------------------------
def erdos_renyi(n: int, p: float, seed: Optional[int] = None) -> Graph:
    """Erdős–Rényi ``G(n, p)`` on nodes ``0..n-1``.

    Uses the standard geometric skipping technique so generation is
    ``O(n + m)`` rather than ``O(n^2)`` for sparse graphs.
    """
    if n < 0:
        raise ConfigurationError("n must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError("p must be in [0, 1]")
    graph = Graph.empty(n)
    if p == 0.0 or n < 2:
        return graph
    if p == 1.0:
        return Graph.complete(n)
    rng = _rng(seed)
    import math

    log_q = math.log(1.0 - p)
    v = 1
    w = -1
    while v < n:
        r = rng.random()
        w = w + 1 + int(math.log(1.0 - r) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            graph.add_edge(v, w)
    return graph


def gnm_random(n: int, m: int, seed: Optional[int] = None) -> Graph:
    """A uniformly random graph with exactly ``n`` nodes and ``m`` edges."""
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise ConfigurationError(f"cannot place {m} edges on {n} nodes (max {max_edges})")
    rng = _rng(seed)
    graph = Graph.empty(n)
    chosen: Set[Tuple[int, int]] = set()
    while len(chosen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        edge = (min(u, v), max(u, v))
        if edge in chosen:
            continue
        chosen.add(edge)
        graph.add_edge(*edge)
    return graph


def random_regular_like(n: int, degree: int, seed: Optional[int] = None) -> Graph:
    """A near-regular random graph via a configuration-model style pairing.

    Multi-edges and self-loops produced by the pairing are dropped (a
    repeated edge collapses in ``add_edge``), so node degrees may fall
    slightly below ``degree``; this is fine for workload purposes (the
    coloring algorithms only need ``p(v) > d(v)``).
    """
    if degree >= n:
        raise ConfigurationError("degree must be smaller than n")
    rng = _rng(seed)
    stubs: List[int] = []
    for node in range(n):
        stubs.extend([node] * degree)
    rng.shuffle(stubs)
    graph = Graph.empty(n)
    for i in range(0, len(stubs) - 1, 2):
        u, v = stubs[i], stubs[i + 1]
        if u != v:
            graph.add_edge(u, v)
    return graph


def power_law(n: int, attachment: int = 3, seed: Optional[int] = None) -> Graph:
    """A Barabási–Albert style preferential-attachment graph.

    Produces a heavy-tailed degree distribution, useful for checking that a
    few very-high-degree nodes do not break the partition analysis.
    """
    if attachment < 1:
        raise ConfigurationError("attachment must be at least 1")
    if n <= attachment:
        return Graph.complete(max(n, 0))
    rng = _rng(seed)
    graph = Graph.complete(attachment + 1)
    # Repeated-nodes list: the probability a node is chosen is proportional
    # to its degree.
    repeated: List[int] = []
    for node in range(attachment + 1):
        repeated.extend([node] * attachment)
    for new_node in range(attachment + 1, n):
        graph.add_node(new_node)
        targets: Set[int] = set()
        while len(targets) < attachment:
            targets.add(rng.choice(repeated))
        for target in targets:
            graph.add_edge(new_node, target)
            repeated.append(target)
            repeated.append(new_node)
    return graph


def random_bipartite(
    left: int, right: int, p: float, seed: Optional[int] = None
) -> Graph:
    """Random bipartite graph with parts ``0..left-1`` and ``left..left+right-1``."""
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError("p must be in [0, 1]")
    rng = _rng(seed)
    graph = Graph.empty(left + right)
    for u in range(left):
        for v in range(left, left + right):
            if rng.random() < p:
                graph.add_edge(u, v)
    return graph


# ----------------------------------------------------------------------
# structured graphs
# ----------------------------------------------------------------------
def complete_multipartite(part_sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph with the given part sizes."""
    graph = Graph.empty(sum(part_sizes))
    boundaries: List[Tuple[int, int]] = []
    start = 0
    for size in part_sizes:
        boundaries.append((start, start + size))
        start += size
    for i, (a_start, a_end) in enumerate(boundaries):
        for b_start, b_end in boundaries[i + 1 :]:
            for u in range(a_start, a_end):
                for v in range(b_start, b_end):
                    graph.add_edge(u, v)
    return graph


def ring_of_cliques(num_cliques: int, clique_size: int) -> Graph:
    """``num_cliques`` disjoint cliques of ``clique_size`` joined in a ring.

    A classic stress test: dense local structure with sparse global
    structure, so Δ is governed by the clique size.
    """
    if num_cliques < 1 or clique_size < 1:
        raise ConfigurationError("num_cliques and clique_size must be positive")
    n = num_cliques * clique_size
    graph = Graph.empty(n)
    for c in range(num_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                graph.add_edge(base + i, base + j)
    if num_cliques > 1:
        for c in range(num_cliques):
            u = c * clique_size
            v = ((c + 1) % num_cliques) * clique_size
            if u != v:
                graph.add_edge(u, v)
    return graph


def ring(n: int) -> Graph:
    """A simple cycle on ``n`` nodes (degree 2 everywhere)."""
    graph = Graph.empty(n)
    if n >= 2:
        for i in range(n):
            graph.add_edge(i, (i + 1) % n)
    return graph


def star(n: int) -> Graph:
    """A star with center 0 and ``n-1`` leaves (Δ = n-1)."""
    graph = Graph.empty(n)
    for leaf in range(1, n):
        graph.add_edge(0, leaf)
    return graph


# ----------------------------------------------------------------------
# palette generators for list coloring
# ----------------------------------------------------------------------
def shared_universe_palettes(
    graph: Graph,
    palette_size: Optional[int] = None,
    universe_size: Optional[int] = None,
    seed: Optional[int] = None,
) -> PaletteAssignment:
    """Random (Δ+1)-list palettes drawn from a single shared universe.

    Each node receives ``palette_size`` (default ``Δ+1``) distinct colors
    drawn uniformly from a universe of ``universe_size`` colors (default
    ``2·(Δ+1)``).  Palettes of neighbors overlap heavily, which makes the
    instance genuinely harder than plain (Δ+1)-coloring.
    """
    rng = _rng(seed)
    delta = graph.max_degree()
    size = delta + 1 if palette_size is None else palette_size
    universe = 2 * (delta + 1) if universe_size is None else universe_size
    if universe < size:
        raise ConfigurationError("universe_size must be at least palette_size")
    colors = list(range(universe))
    palettes: Dict[NodeId, List[Color]] = {}
    for node in graph.nodes():
        palettes[node] = rng.sample(colors, size)
    return PaletteAssignment.from_lists(palettes)


def degree_plus_one_palettes(
    graph: Graph,
    universe_size: Optional[int] = None,
    seed: Optional[int] = None,
) -> PaletteAssignment:
    """Random (deg+1)-list palettes (node ``v`` gets ``deg(v)+1`` colors)."""
    rng = _rng(seed)
    delta = graph.max_degree()
    universe = 2 * (delta + 1) if universe_size is None else universe_size
    colors = list(range(universe))
    palettes: Dict[NodeId, List[Color]] = {}
    for node, degree in zip(graph.nodes(), graph.csr().degrees.tolist()):
        need = degree + 1
        if need > universe:
            raise ConfigurationError(
                f"universe of {universe} colors too small for degree {need - 1}"
            )
        palettes[node] = rng.sample(colors, need)
    return PaletteAssignment.from_lists(palettes)


def adversarial_disjoint_palettes(
    graph: Graph, palette_size: Optional[int] = None, seed: Optional[int] = None
) -> PaletteAssignment:
    """List palettes drawn from a universe of size up to ``n^2``.

    Node ``i`` (in node order) owns the block ``[i * size, (i + 1) * size)``
    of colors; each of its colors is, with probability 1/2, replaced by a
    color from a random neighbor's block, so neighboring palettes overlap.  This exercises the large color domain
    that forces the paper's ``h2`` hash function to have domain ``[n^2]``.
    """
    rng = _rng(seed)
    n = graph.num_nodes
    delta = graph.max_degree()
    size = delta + 1 if palette_size is None else palette_size
    palettes: Dict[NodeId, List[Color]] = {}
    # Node ``v``'s block starts at ``index_of[v] * size``: blocks follow
    # the node order, not the ids, so any labelling gets the same layout.
    index_of = {node: index for index, node in enumerate(graph.nodes())}
    for node, index in index_of.items():
        block_start = index * size
        own_block = list(range(block_start, block_start + size))
        # Overlap: with probability 1/2 replace a color with one from a
        # neighbor's block so neighboring palettes intersect.
        neighbors = sorted(graph.neighbors(node))
        for i in range(len(own_block)):
            if neighbors and rng.random() < 0.5:
                other = rng.choice(neighbors)
                own_block[i] = index_of[other] * size + rng.randrange(size)
        # Ensure the palette still has `size` distinct colors.
        distinct = list(dict.fromkeys(own_block))
        extra = block_start + size
        while len(distinct) < size:
            distinct.append(n * size + extra)
            extra += 1
        palettes[node] = distinct[:size]
    return PaletteAssignment.from_lists(palettes)
