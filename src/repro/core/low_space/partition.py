"""``LowSpacePartition`` (Algorithm 4 of the paper).

One call on an instance ``G``:

1. ``G_0`` is the graph induced by the *low-degree* nodes
   (``d(v) <= n^{7δ}``) — these will later be colored via the MIS reduction;
2. the remaining (high-degree) nodes are hashed into ``n^δ`` bins by ``h1``;
3. colors are hashed into the first ``n^δ - 1`` bins by ``h2``, and the
   palettes of nodes in those bins are restricted accordingly;
4. the hash pair is fixed deterministically so that (Lemma 4.5) every
   high-degree node's in-bin degree shrinks by (almost) the bin factor and —
   in the color bins — stays below its restricted palette size.

Unlike Algorithm 2, there is no bad-node graph: the deterministic choice
guarantees *no* node violates the conditions (the paper's "no bad machines"),
which is why the target cost for selection is zero violations.  The lemmas
hold with high probability as ``n`` grows; when no candidate meets the
target, the partition takes the best pair the selector saw and its violators
join ``G_0``, the shattering-style cleanup of the MIS path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.core.classification import color_bin_arrays, hash_families
from repro.core.low_space.machine_sets import low_space_cost_function
from repro.core.low_space.params import LowSpaceParameters
from repro.core.partition import ColorBinInstance
from repro.derand.conditional_expectation import (
    HashPairSelector,
    SelectionOutcome,
    SelectionStrategy,
)
from repro.errors import DerandomizationError
from repro.graph.csr import set_order
from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment
from repro.hashing.family import HashFunction, KWiseIndependentFamily
from repro.types import NodeId


@dataclass
class LowSpacePartitionResult:
    """Output of one ``LowSpacePartition`` call."""

    h1: HashFunction
    h2: HashFunction
    selection: SelectionOutcome
    low_degree_graph: Graph
    color_bins: List[ColorBinInstance]
    leftover: ColorBinInstance
    num_bins: int
    num_violating_nodes: int


def split_by_degree(graph: Graph, threshold: float) -> Tuple[Set[NodeId], Set[NodeId]]:
    """``(low, high)``: the nodes of degree at most ``threshold``, and the rest.

    Both are sets of the ids ``h1`` hashes (:meth:`~repro.graph.csr.GraphCSR.keys_at`:
    the original ids inside a solve, the node ids elsewhere); the
    partition's set algebra and its groups' order are over these ids.
    One compare over the CSR degrees; the sets are built in C from the
    node order, so ``high`` iterates in the order the partition has always
    handed to the bin extraction.
    """
    csr = graph.csr()
    keys = csr.keys_at(np.arange(csr.num_nodes, dtype=np.int64))
    if isinstance(keys, np.ndarray):
        keys = keys.tolist()
    low = set(compress(keys, (csr.degrees <= threshold).tolist()))
    return low, set(keys).difference(low)


class LowSpacePartition:
    """Derandomized partitioning for the low-space regime."""

    def __init__(self, params: Optional[LowSpaceParameters] = None) -> None:
        self.params = params if params is not None else LowSpaceParameters()

    def run(
        self,
        graph: Graph,
        palettes: PaletteAssignment,
        global_nodes: int,
        charge=None,
        salt: int = 0,
        cost=None,
        poll=None,
    ) -> LowSpacePartitionResult:
        """Execute Algorithm 4 on one instance.

        ``charge`` is an optional ``charge(label, rounds)`` callback for
        round accounting; the hash pair is selected with
        :attr:`~repro.derand.SelectionStrategy.FIRST_FEASIBLE`; ``salt``
        decorrelates the candidate-seed sequences of different recursive
        calls (see :meth:`repro.core.partition.Partition.select_hash_pair`);
        ``poll`` is the durable run's guard callback
        (:meth:`repro.runtime.durability.DurableRun.poll`), invoked at the
        phase boundaries of this level — after the hash-pair selection and
        after the bin instances materialise — so deadlines, memory budgets
        and pending signals are noticed inside long levels.  It either
        returns or raises; it never changes outcomes.
        ``cost`` may inject a pre-built evaluator for this exact instance
        (the cross-bin level prefetch passes a
        :class:`~repro.core.level.CachedPairCost` holding its head pair's
        value and counts); a mismatched injection
        — different graph/palette objects or high-degree split, or a
        multiprocess selection that would need to pickle the proxy — is
        ignored.
        """
        threshold = self.params.low_degree_threshold(global_nodes)
        num_bins = self.params.num_bins(global_nodes)
        num_color_bins = max(1, num_bins - 1)
        last_bin = num_bins - 1

        low_degree_nodes, high_degree_nodes = split_by_degree(graph, threshold)

        csr = graph.csr()
        if not high_degree_nodes:
            # Nothing to partition: every node takes the MIS path.
            low_degree_graph = graph.induced_subgraph(
                set_order(csr, csr.locate_keys(list(low_degree_nodes))),
                by_position=True,
            )
            empty = ColorBinInstance(bin_index=last_bin, graph=Graph(), palettes=PaletteAssignment({}))
            dummy_family = KWiseIndependentFamily(
                domain_size=max(global_nodes, 2),
                range_size=num_bins,
                independence=self.params.independence,
            )
            identity = dummy_family.from_seed_int(0)
            selection = SelectionOutcome(
                h1=identity,
                h2=identity,
                cost=0.0,
                evaluations=0,
                rounds_charged=0,
                strategy=SelectionStrategy.FIRST_FEASIBLE,
            )
            return LowSpacePartitionResult(
                h1=identity,
                h2=identity,
                selection=selection,
                low_degree_graph=low_degree_graph,
                color_bins=[],
                leftover=empty,
                num_bins=num_bins,
                num_violating_nodes=0,
            )

        family1, family2 = hash_families(
            graph, palettes, num_bins, self.params.independence, global_nodes
        )
        if cost is not None and not (
            getattr(cost, "graph", None) is graph
            and getattr(cost, "palettes", None) is palettes
            and getattr(cost, "high_degree_nodes", None) == high_degree_nodes
            and getattr(cost, "num_bins", None) == num_bins
            and self.params.parallel_workers == 1
        ):
            cost = None
        if cost is None:
            cost = low_space_cost_function(
                graph, palettes, high_degree_nodes, self.params, num_bins
            )
        selector = HashPairSelector(
            family1,
            family2,
            batch_size=self.params.selection_batch_size,
            max_candidates=self.params.selection_max_candidates,
            candidate_salt=salt,
            rng_seed=salt,
            parallel_workers=self.params.parallel_workers,
        )
        target = self.params.violation_allowance(len(high_degree_nodes))
        try:
            selection = selector.select(cost, target_bound=target, charge=charge)
        except DerandomizationError as miss:
            # No candidate met the allowance (the lemmas hold only w.h.p.
            # as n grows): take the best pair seen.  Its violators take the
            # MIS path below, so the coloring stays valid; the miss shows in
            # the tree (violators above the allowance).
            selection = replace(miss.best, fallback_used=True)
        h1, h2 = selection.h1, selection.h2
        if poll is not None:
            poll()

        # Post-selection classification is one more pass over the
        # evaluator's static arrays (the very ones the batched selection
        # scored its candidates on), and the palette restriction below is a
        # vectorized label scatter over the full color universe.
        scorer = None
        if self.params.parallel_workers > 1:
            from repro.parallel.executor import parallel_many_scorer

            # Reuses the selection's warm pool (same registry key), so the
            # post-selection outcome shards ride for free.
            scorer = parallel_many_scorer(cost, self.params.parallel_workers)
        outcome = cost.outcome_selected(h1, h2, scorer=scorer)

        # Build the bin instances.  Nodes that still violate the conditions
        # (within the allowance, or above it after a selection miss) are
        # routed to the low-degree/MIS path so correctness never depends on
        # the concentration argument.  The MIS-path graph is one extraction
        # and every bin is sliced in one batched pass over the CSR view.
        # The groups are ordered over the hashed ids
        # (:func:`~repro.graph.csr.set_order`): the MIS path as the union
        # set iterates, each bin as the set of its members in the
        # iteration order of ``usable``.
        violating = outcome.violating_nodes
        mis_path = low_degree_nodes.union(violating)
        low_degree_graph = graph.induced_subgraph(
            set_order(csr, csr.locate_keys(list(mis_path))), by_position=True
        )
        usable = high_degree_nodes.difference(violating)
        members = np.fromiter(usable, dtype=np.int64, count=len(usable))
        member_bins = outcome.bins_of(members)
        member_rows = csr.locate_keys(members)
        subgraphs = graph.induced_subgraphs(
            [
                set_order(csr, member_rows[member_bins == bin_index])
                for bin_index in range(num_bins)
            ],
            by_position=True,
        )
        if poll is not None:
            poll()

        universe, color_bin_ids = color_bin_arrays(palettes, h2, num_color_bins)
        restricted = palettes.restricted_by_bins(
            [subgraph.csr().node_ids for subgraph in subgraphs[:num_color_bins]],
            universe,
            color_bin_ids,
        )
        color_bins: List[ColorBinInstance] = []
        for bin_index in range(num_color_bins):
            color_bins.append(
                ColorBinInstance(
                    bin_index=bin_index,
                    graph=subgraphs[bin_index],
                    palettes=restricted[bin_index],
                )
            )
        leftover = ColorBinInstance(
            bin_index=last_bin,
            graph=subgraphs[last_bin],
            palettes=palettes.subset(subgraphs[last_bin].csr().node_ids),
        )
        return LowSpacePartitionResult(
            h1=h1,
            h2=h2,
            selection=selection,
            low_degree_graph=low_degree_graph,
            color_bins=color_bins,
            leftover=leftover,
            num_bins=num_bins,
            num_violating_nodes=len(violating),
        )
