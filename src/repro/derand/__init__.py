"""Derandomization substrate: choosing good hash functions deterministically.

The paper's recipe (Sections 2.2-2.4): show the randomized partitioning works
with ``c``-wise independence, so an ``O(log n)``-bit seed suffices; then fix
that seed deterministically with the method of conditional expectations,
agreeing on ``δ log n`` bits per constant-round step.

This subpackage implements the seed-selection machinery independently of any
particular cost function:

* :mod:`repro.derand.cost` — the cost-function interface and generic helpers
  (expectation estimation, feasibility verification),
* :mod:`repro.derand.conditional_expectation` — the selection strategies:
  the chunked conditional-expectation search of Section 2.4, a batched
  deterministic feasibility scan (both charge ``O(1)`` simulated rounds per
  step), exhaustive search for small families, and a seeded random choice
  for the randomized baselines.

The concrete cost functions live next to the algorithms that define them:
Equation (1) (bad nodes + n * bad bins) in :mod:`repro.core.classification`,
and the node-level aggregation of Equation (2) (bad machines) in
:mod:`repro.core.low_space.machine_sets`.
"""

from repro.derand.conditional_expectation import (
    HashPairSelector,
    SelectionOutcome,
    SelectionStrategy,
)
from repro.derand.cost import PairCost, empirical_expected_cost

__all__ = [
    "HashPairSelector",
    "SelectionOutcome",
    "SelectionStrategy",
    "PairCost",
    "empirical_expected_cost",
]
