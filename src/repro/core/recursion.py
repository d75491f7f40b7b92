"""Closed-form recursion bounds (Lemmas 3.11–3.14) and measured statistics.

The paper bounds, for a recursion depth ``i`` starting from ``ColorReduce(G,
Δ)`` on an ``n``-node graph:

* Lemma 3.11:  ``(1/2) Δ^{0.9^i}  <  l_i  <=  Δ^{0.9^i}``,
* Lemma 3.12:  ``n_i  <=  3^i (n Δ^{0.9^i - 1} + n^{0.6})``,
* Lemma 3.13:  ``Δ_i  <=  2^i Δ^{0.9^i}``,
* Lemma 3.14:  the size of any bin's graph after depth ``i`` is at most
  ``6^i (n Δ^{0.9^i - 1} + n^{0.6}) Δ^{0.9^i}``, which is ``O(n)`` at
  ``i = 9``.

These are analytic statements about the paper's exponents (they do not
depend on a simulation), so the reproduction evaluates them directly; the
E2 experiment prints the closed-form table alongside the recursion depths
measured on simulated runs, and the tests assert the ``i = 9`` conclusion
over a wide range of ``n`` and ``Δ``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.core.color_reduce import RecursionNode
from repro.core.params import BIN_CAP_SLACK_EXPONENT, ELL_DECAY_EXPONENT
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DepthBounds:
    """Closed-form bounds at one recursion depth."""

    depth: int
    ell_upper: float
    ell_lower: float
    nodes_upper: float
    degree_upper: float
    bin_size_upper: float


def ell_bounds(delta: float, depth: int) -> tuple[float, float]:
    """Lemma 3.11: ``(1/2) Δ^{0.9^i} < l_i <= Δ^{0.9^i}``."""
    if delta < 1:
        raise ConfigurationError("delta must be at least 1")
    if depth < 0:
        raise ConfigurationError("depth must be non-negative")
    power = math.pow(delta, math.pow(ELL_DECAY_EXPONENT, depth))
    return (0.5 * power, power)


def _nodes_term(num_nodes: float, delta: float, depth: int) -> float:
    """Lemma 3.12's ``n Δ^{0.9^i - 1} + n^{0.6}``."""
    if depth < 0:
        raise ConfigurationError("depth must be non-negative")
    exponent = math.pow(ELL_DECAY_EXPONENT, depth) - 1.0
    return num_nodes * math.pow(delta, exponent) + math.pow(num_nodes, BIN_CAP_SLACK_EXPONENT)


def nodes_upper_bound(num_nodes: float, delta: float, depth: int) -> float:
    """Lemma 3.12: ``n_i <= 3^i (n Δ^{0.9^i - 1} + n^{0.6})``."""
    return math.pow(3, depth) * _nodes_term(num_nodes, delta, depth)


def degree_upper_bound(delta: float, depth: int) -> float:
    """Lemma 3.13: ``Δ_i <= 2^i Δ^{0.9^i}``."""
    if depth < 0:
        raise ConfigurationError("depth must be non-negative")
    return math.pow(2, depth) * math.pow(delta, math.pow(ELL_DECAY_EXPONENT, depth))


def bin_size_upper_bound(num_nodes: float, delta: float, depth: int) -> float:
    """Lemma 3.14: ``|G'| <= 6^i (n Δ^{0.9^i - 1} + n^{0.6}) Δ^{0.9^i}``."""
    return (
        math.pow(6, depth)
        * _nodes_term(num_nodes, delta, depth)
        * math.pow(delta, math.pow(ELL_DECAY_EXPONENT, depth))
    )


def closed_form_table(num_nodes: float, delta: float, max_depth: int = 9) -> List[DepthBounds]:
    """The Lemma 3.11–3.14 quantities for depths ``0..max_depth``.

    The bin-size column is ``6^i (n Δ^{0.9^i - 1} + n^{0.6}) Δ^{0.9^i}``, the
    exact expression in the proof of Lemma 3.14.
    """
    table: List[DepthBounds] = []
    for depth in range(max_depth + 1):
        lower, upper = ell_bounds(delta, depth)
        table.append(
            DepthBounds(
                depth=depth,
                ell_upper=upper,
                ell_lower=lower,
                nodes_upper=nodes_upper_bound(num_nodes, delta, depth),
                degree_upper=degree_upper_bound(delta, depth),
                bin_size_upper=bin_size_upper_bound(num_nodes, delta, depth),
            )
        )
    return table


def depth_nine_size_ratio(num_nodes: float, delta: float) -> float:
    """``(bin size bound at depth 9) / n`` — Lemma 3.14 says this is ``O(1)``.

    Concretely the proof shows the ratio is at most
    ``6^9 (Δ^{-0.2} + 1) <= 2 * 6^9`` for all ``n`` and ``Δ >= 1``.
    """
    bound = closed_form_table(num_nodes, delta, max_depth=9)[9].bin_size_upper
    return bound / num_nodes


# ----------------------------------------------------------------------
# measured recursion statistics
# ----------------------------------------------------------------------
@dataclass
class RecursionSummary:
    """Aggregate statistics over a measured recursion tree."""

    max_depth: int
    total_calls: int
    base_cases: int
    partitions: int
    max_size_by_depth: Dict[int, int]
    max_nodes_by_depth: Dict[int, int]
    total_bad_nodes: int
    max_bad_graph_size: int


def summarize_recursion(root: RecursionNode) -> RecursionSummary:
    """Flatten a measured recursion tree into per-depth maxima and counts."""
    max_size: Dict[int, int] = {}
    max_nodes: Dict[int, int] = {}
    total_calls = 0
    base_cases = 0
    partitions = 0
    total_bad = 0
    max_bad_graph = 0
    stack = [root]
    while stack:
        node = stack.pop()
        total_calls += 1
        if node.base_case:
            base_cases += 1
        else:
            partitions += 1
        total_bad += node.num_bad_nodes
        max_bad_graph = max(max_bad_graph, node.bad_graph_size)
        max_size[node.depth] = max(max_size.get(node.depth, 0), node.size)
        max_nodes[node.depth] = max(max_nodes.get(node.depth, 0), node.num_nodes)
        stack.extend(node.children)
    return RecursionSummary(
        max_depth=root.max_depth(),
        total_calls=total_calls,
        base_cases=base_cases,
        partitions=partitions,
        max_size_by_depth=max_size,
        max_nodes_by_depth=max_nodes,
        total_bad_nodes=total_bad,
        max_bad_graph_size=max_bad_graph,
    )
