"""Coloring via the direct reduction to MIS solved with Luby's algorithm.

This is the "one-shot" use of Luby's reduction: build the reduction graph for
the *whole* instance and run Luby's randomized MIS algorithm on it.  Its
round count tracks the MIS phase count, i.e. grows logarithmically, and its
space requirement is the full ``O(nΔ)`` reduction graph — both the
quantities the paper's recursive approach improves on.  The E4 experiment
plots it next to ``ColorReduce`` and the trial-coloring baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.low_space.mis_reduction import build_reduction_graph, coloring_from_mis
from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment
from repro.graph.validation import assert_valid_list_coloring
from repro.mis.luby import luby_mis
from repro.types import Color, NodeId

#: Simulated rounds charged per MIS phase (as in the low-space algorithm).
ROUNDS_PER_PHASE = 2


@dataclass
class MISColoringResult:
    """Output of the MIS-reduction coloring baseline."""

    coloring: Dict[NodeId, Color]
    mis_phases: int
    rounds: int
    reduction_vertices: int
    reduction_edges: int


def mis_based_coloring(
    graph: Graph, palettes: Optional[PaletteAssignment] = None, seed: int = 0, validate=True
) -> MISColoringResult:
    """Color ``graph`` by one reduction to MIS, solved by randomized Luby
    with the given ``seed`` on the reduction's :class:`Graph`.

    The deterministic endgame is
    :func:`repro.core.low_space.mis_reduction.color_via_mis`.
    """
    if palettes is None:
        palettes = PaletteAssignment.delta_plus_one(graph)
    palettes.validate_for_graph(graph)
    reduction = build_reduction_graph(graph, palettes)
    mis_result = luby_mis(reduction.to_graph(), seed=seed)
    coloring = coloring_from_mis(reduction, mis_result.independent_set)
    if validate:
        assert_valid_list_coloring(graph, palettes, coloring)
    return MISColoringResult(
        coloring=coloring,
        mis_phases=mis_result.phases,
        rounds=ROUNDS_PER_PHASE * mis_result.phases,
        reduction_vertices=reduction.num_vertices,
        reduction_edges=reduction.num_edges,
    )
