"""Scalar reference routing for both coloring pipelines (test-only).

Production ``ColorReduce`` / ``LowSpaceColorReduce`` run one path: the
array kernels.  The per-node loops those kernels replaced are kept as the
reference, and :func:`scalar_reference` reroutes every array entry point
the drivers call to it:

* ``HashPairSelector._batch_cost`` -> ``None`` (the per-pair scan),
* ``PartitionCostEvaluator.classify_selected`` -> ``classify_partition``
  plus ``color_bin_map`` / ``restricted_to``,
* ``LowSpaceCostEvaluator.outcome_selected`` -> ``node_level_outcome``,
* the low-space partition's ``color_bin_arrays`` -> per-color ``h2`` calls,
* ``PaletteAssignment.restricted_by_bins`` -> ``restricted_to`` per bin,
* ``PaletteAssignment.remove_colors_used_by_neighbors_batch`` ->
  ``remove_colors_used_by_neighbors``,
* ``PaletteAssignment.subset_updated`` -> ``subset`` plus
  ``remove_colors_used_by_neighbors``,
* ``Graph.induced_subgraph`` / ``induced_subgraphs`` -> ``use_csr=False``,
* ``ColorReduce``'s ``greedy_list_coloring`` -> ``use_batch=False``.

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

from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

import repro.core.color_reduce as color_reduce_module
import repro.core.low_space.partition as low_space_partition_module
from repro.core.classification import (
    PartitionCostEvaluator,
    classify_partition,
    color_bin_map,
)
from repro.core.low_space.machine_sets import LowSpaceCostEvaluator, node_level_outcome
from repro.derand.conditional_expectation import HashPairSelector
from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment

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
# the scalar references, with the signatures of the entry points they replace
# ----------------------------------------------------------------------
def _no_batch_cost(self, cost):
    return None


def _classify_selected(self, h1, h2, scorer=None, precomputed_counts=None):
    classification = classify_partition(
        self.graph, self.palettes, h1, h2, self.params, self.ell, self.global_nodes
    )
    num_color_bins = max(1, self.params.num_bins(self.ell) - 1)
    colors_to_bins = color_bin_map(self.palettes, h2, num_color_bins)
    restricted = [
        self.palettes.restricted_to(
            classification.good_nodes_in_bin(bin_index),
            keep_color=lambda color, b=bin_index: colors_to_bins[color] == b,
        )
        for bin_index in range(num_color_bins)
    ]
    return classification, restricted


def _outcome_selected(self, h1, h2, color_arrays=None, scorer=None, precomputed_counts=None):
    return node_level_outcome(
        self.graph, self.palettes, self.high_degree_nodes, h1, h2, self.params, self.num_bins
    )


def _color_bin_arrays(palettes, h2, num_color_bins):
    colors_to_bins = color_bin_map(palettes, h2, num_color_bins)
    universe = sorted(colors_to_bins)
    bins = [colors_to_bins[color] for color in universe]
    return np.asarray(universe, dtype=np.int64), np.asarray(bins, dtype=np.int64)


def _restricted_by_bins(self, bin_members, universe, color_bin_ids):
    colors_to_bins = dict(zip(universe.tolist(), color_bin_ids.tolist()))
    return [
        self.restricted_to(
            members, keep_color=lambda color, b=bin_index: colors_to_bins[color] == b
        )
        for bin_index, members in enumerate(bin_members)
    ]


def _remove_colors(self, graph, coloring, nodes=None):
    return self.remove_colors_used_by_neighbors(graph, coloring, nodes)


def _subset_updated(self, nodes, graph, coloring):
    subset = self.subset(nodes)
    return subset, subset.remove_colors_used_by_neighbors(graph, coloring)


_induced_subgraph = Graph.induced_subgraph
_induced_subgraphs = Graph.induced_subgraphs
_greedy = color_reduce_module.greedy_list_coloring

#: ``(owner, attribute, scalar reference)``; the counter key is
#: ``"Owner.attribute"`` for classes and the bare attribute for modules.
REROUTES = (
    (HashPairSelector, "_batch_cost", _no_batch_cost),
    (PartitionCostEvaluator, "classify_selected", _classify_selected),
    (LowSpaceCostEvaluator, "outcome_selected", _outcome_selected),
    (low_space_partition_module, "color_bin_arrays", _color_bin_arrays),
    (PaletteAssignment, "restricted_by_bins", _restricted_by_bins),
    (PaletteAssignment, "remove_colors_used_by_neighbors_batch", _remove_colors),
    (PaletteAssignment, "subset_updated", _subset_updated),
    (
        Graph,
        "induced_subgraph",
        lambda self, nodes, use_csr=None: _induced_subgraph(self, nodes, use_csr=False),
    ),
    (
        Graph,
        "induced_subgraphs",
        lambda self, groups, use_csr=None: _induced_subgraphs(self, groups, use_csr=False),
    ),
    (
        color_reduce_module,
        "greedy_list_coloring",
        lambda *args, use_batch=None, **kwargs: _greedy(*args, use_batch=False, **kwargs),
    ),
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
