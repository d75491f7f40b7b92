"""Scalar oracles for the MIS endgame (test-only).

The production reduction builder and derandomized-Luby phases
(:mod:`repro.core.low_space.mis_reduction`, :mod:`repro.mis.deterministic`)
run on arrays.  These are the per-node reference loops they replaced, kept
so the differential tests can check the array code vertex for vertex and
phase for phase.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ColoringError, DerandomizationError
from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment
from repro.hashing.family import HashFunction, KWiseIndependentFamily
from repro.mis.deterministic import _MAX_SEEDS_PER_PHASE, _REQUIRED_EDGE_FRACTION
from repro.mis.luby import MISResult
from repro.types import Color, NodeId


def build_reduction_graph(
    graph: Graph, palettes: PaletteAssignment, truncate: bool = True
) -> Tuple[Graph, Dict[int, Tuple[NodeId, Color]]]:
    """Luby's reduction graph plus its ``vertex -> (node, color)`` map."""
    vertex_ids: Dict[Tuple[NodeId, Color], int] = {}
    vertex_to_node_color: Dict[int, Tuple[NodeId, Color]] = {}
    per_node_colors: Dict[NodeId, List[Color]] = {}
    next_vertex = 0
    for node in graph.nodes():
        colors = sorted(palettes.palette(node))
        if truncate:
            colors = colors[: graph.degree(node) + 1]
        if not colors:
            raise ColoringError(f"node {node} has an empty palette")
        per_node_colors[node] = colors
        for color in colors:
            vertex_ids[(node, color)] = next_vertex
            vertex_to_node_color[next_vertex] = (node, color)
            next_vertex += 1

    reduction = Graph(nodes=range(next_vertex))
    for node, colors in per_node_colors.items():
        for i in range(len(colors)):
            for j in range(i + 1, len(colors)):
                reduction.add_edge(vertex_ids[(node, colors[i])], vertex_ids[(node, colors[j])])
    for u, v in graph.edges():
        shared = set(per_node_colors[u]).intersection(per_node_colors[v])
        for color in shared:
            reduction.add_edge(vertex_ids[(u, color)], vertex_ids[(v, color)])
    return reduction, vertex_to_node_color


def coloring_from_mis(
    vertex_to_node_color: Dict[int, Tuple[NodeId, Color]], independent_set: set
) -> Dict[NodeId, Color]:
    """Read a coloring off an MIS, raising on the first violation."""
    coloring: Dict[NodeId, Color] = {}
    for vertex in independent_set:
        node, color = vertex_to_node_color[vertex]
        if node in coloring:
            raise ColoringError(
                f"node {node} has two chosen colors ({coloring[node]} and {color}); "
                "the provided set is not independent"
            )
        coloring[node] = color
    expected_nodes = {node for node, _ in vertex_to_node_color.values()}
    missing = expected_nodes.difference(coloring)
    if missing:
        raise ColoringError(
            f"{len(missing)} nodes have no chosen color; the provided set is not maximal"
        )
    return coloring


def _phase_outcome(
    alive: Set[NodeId],
    neighbors: Dict[NodeId, Set[NodeId]],
    priority_of: HashFunction,
) -> tuple:
    """Winners, removed nodes and removed-edge count for one candidate seed."""
    priorities = {node: (priority_of.field_value(node), node) for node in alive}
    winners: Set[NodeId] = set()
    for node in alive:
        node_priority = priorities[node]
        if not any(
            neighbor in alive and priorities[neighbor] < node_priority
            for neighbor in neighbors[node]
        ):
            winners.add(node)
    removed = set(winners)
    for winner in winners:
        removed.update(neighbor for neighbor in neighbors[winner] if neighbor in alive)
    removed_edges = 0
    for node in removed:
        for neighbor in neighbors[node]:
            if neighbor in alive and (neighbor not in removed or neighbor > node):
                removed_edges += 1
    return winners, removed, removed_edges


def deterministic_mis(
    graph: Graph, independence: int = 4, max_phases: Optional[int] = None
) -> MISResult:
    """Derandomized Luby phases as a per-node loop over adjacency sets."""
    alive: Set[NodeId] = set(graph.nodes())
    neighbors = {node: set(graph.iter_neighbors(node)) for node in alive}
    chosen: Set[NodeId] = set()
    if max_phases is None:
        max_phases = 8 * max(1, graph.num_nodes.bit_length()) + 8
    domain = max(max(graph.nodes(), default=0) + 1, 1)
    phases = 0
    edges_left = sum(
        1 for node in alive for neighbor in neighbors[node] if neighbor > node
    )
    while alive and phases < max_phases:
        if edges_left == 0:
            chosen.update(alive)
            alive.clear()
            break
        phases += 1
        family = KWiseIndependentFamily(
            domain_size=domain, range_size=max(domain, 2), independence=independence
        )
        accepted = False
        for seed_int in range(_MAX_SEEDS_PER_PHASE):
            priority_of = family.from_seed_int(seed_int + phases * _MAX_SEEDS_PER_PHASE)
            winners, removed, removed_edges = _phase_outcome(alive, neighbors, priority_of)
            if winners and removed_edges >= _REQUIRED_EDGE_FRACTION * edges_left:
                chosen.update(winners)
                alive.difference_update(removed)
                edges_left -= removed_edges
                accepted = True
                break
        if not accepted:
            raise DerandomizationError(
                f"phase {phases}: no seed among {_MAX_SEEDS_PER_PHASE} removed "
                f"{_REQUIRED_EDGE_FRACTION:.0%} of the {edges_left} surviving edges"
            )
    for node in sorted(alive):
        if not any(neighbor in chosen for neighbor in neighbors[node]):
            chosen.add(node)
    return MISResult(independent_set=chosen, phases=phases)
