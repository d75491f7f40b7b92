"""``Partition`` (Algorithm 2 of the paper).

One call to ``Partition(G, l)``:

1. choose hash functions ``h1 : [n] -> [B]`` (nodes to bins) and
   ``h2 : [n^2] -> [B-1]`` (colors to all bins but the last), where
   ``B = l^0.1`` (or the scaled bin count),
2. classify nodes and bins as good/bad (Definition 3.1),
3. let ``G_0`` be the graph induced by bad nodes,
4. let ``G_1, ..., G_B`` be the graphs induced by the good nodes of each bin,
5. restrict the palettes of nodes in the color bins ``G_1..G_{B-1}`` to the
   colors ``h2`` assigns to their bin (the leftover bin ``G_B`` keeps its
   palettes, to be updated later by ``ColorReduce``).

The hash pair is chosen deterministically so that the Equation (1) cost meets
the Lemma 3.9 bound (no bad bins, at most ``n / l^2`` bad nodes); the
selection strategy and its round accounting live in :mod:`repro.derand`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.classification import (
    PartitionClassification,
    partition_cost_function,
)
from repro.core.params import ColorReduceParameters
from repro.core.context import ExecutionContext
from repro.derand.conditional_expectation import (
    HashPairSelector,
    SelectionOutcome,
    SelectionStrategy,
)
from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment
from repro.hashing.family import HashFunction, KWiseIndependentFamily
from repro.types import BinIndex


@dataclass
class ColorBinInstance:
    """One recursive sub-instance: the graph of a bin plus its palettes."""

    bin_index: BinIndex
    graph: Graph
    palettes: PaletteAssignment

    @property
    def is_empty(self) -> bool:
        return self.graph.num_nodes == 0


@dataclass
class PartitionResult:
    """Everything a ``Partition`` call hands back to ``ColorReduce``."""

    h1: HashFunction
    h2: HashFunction
    classification: PartitionClassification
    selection: SelectionOutcome
    bad_graph: Graph
    color_bins: List[ColorBinInstance]
    leftover: ColorBinInstance
    num_bins: int

    @property
    def num_bad_nodes(self) -> int:
        return self.classification.num_bad_nodes

    @property
    def num_bad_bins(self) -> int:
        return self.classification.num_bad_bins


class Partition:
    """Derandomized node/color partitioning (Algorithm 2)."""

    def __init__(self, params: Optional[ColorReduceParameters] = None) -> None:
        self.params = params if params is not None else ColorReduceParameters()

    # ------------------------------------------------------------------
    def build_families(
        self, graph: Graph, palettes: PaletteAssignment, ell: float, global_nodes: int
    ) -> tuple[KWiseIndependentFamily, KWiseIndependentFamily]:
        """The hash families ``H1`` (nodes) and ``H2`` (colors).

        ``h1`` has domain ``[n]`` (global node identifiers) and ``h2`` has
        domain ``[n^2]`` — the paper notes the color universe of a list
        coloring instance can have up to ``n^2`` distinct colors.  If the
        instance's colors happen to exceed ``n^2`` (synthetic workloads are
        free to pick any integers), the domain is grown to cover them.
        """
        num_bins = self.params.num_bins(ell)
        num_color_bins = max(1, num_bins - 1)
        node_domain = max(global_nodes, max(graph.nodes(), default=0) + 1)
        universe = palettes.color_universe()
        color_domain = max(global_nodes * global_nodes, max(universe, default=0) + 1)
        family1 = KWiseIndependentFamily(
            domain_size=node_domain,
            range_size=num_bins,
            independence=self.params.independence,
        )
        family2 = KWiseIndependentFamily(
            domain_size=color_domain,
            range_size=num_color_bins,
            independence=self.params.independence,
        )
        return family1, family2

    def select_hash_pair(
        self,
        graph: Graph,
        palettes: PaletteAssignment,
        ell: float,
        global_nodes: int,
        context: Optional[ExecutionContext] = None,
        strategy: Optional[SelectionStrategy] = None,
        salt: int = 0,
        cost=None,
    ) -> SelectionOutcome:
        """Deterministically choose ``(h1, h2)`` meeting the Lemma 3.9 bound.

        ``salt`` distinguishes the recursion's Partition calls from one
        another: without it, the "random" baseline would draw the *same*
        function at every level (its seed stream restarts per call), which —
        since a child instance lies entirely in one bin of its parent's hash —
        would put the whole child back into a single bin.  The salt is a
        deterministic per-call counter, so deterministic strategies remain
        deterministic.  ``cost`` may pass a pre-built
        :class:`~repro.core.classification.PartitionCostEvaluator` so
        :meth:`run` can reuse its static arrays for the selected pair's
        final classification.
        """
        family1, family2 = self.build_families(graph, palettes, ell, global_nodes)
        if cost is None:
            cost = partition_cost_function(graph, palettes, self.params, ell, global_nodes)
        selector = HashPairSelector(
            family1,
            family2,
            strategy=strategy if strategy is not None else self.params.selection_strategy,
            chunk_bits=self.params.selection_chunk_bits,
            batch_size=self.params.selection_batch_size,
            max_candidates=self.params.selection_max_candidates,
            rng_seed=self.params.selection_rng_seed * 1_000_003 + salt,
            candidate_salt=salt,
            parallel_workers=self.params.parallel_workers,
            parallel_recovery=self.params.parallel_recovery_policy(),
            parallel_transport=self.params.parallel_transport,
            parallel_min_pairs=self.params.parallel_min_slab_pairs,
        )
        charge = context.selection_charge_callback("hash-selection") if context else None
        target = self.params.cost_target(ell, global_nodes)
        return selector.select(cost, target_bound=target, charge=charge)

    # ------------------------------------------------------------------
    def run(
        self,
        graph: Graph,
        palettes: PaletteAssignment,
        ell: float,
        global_nodes: int,
        context: Optional[ExecutionContext] = None,
        strategy: Optional[SelectionStrategy] = None,
        salt: int = 0,
        cost=None,
        poll=None,
    ) -> PartitionResult:
        """Execute Algorithm 2 on one instance.

        The caller (``ColorReduce``) is responsible for charging the
        communication of actually redistributing the data; this method
        charges only the hash-selection steps (via ``context``).

        ``poll`` is the durable run's guard callback
        (:meth:`repro.runtime.durability.DurableRun.poll`), invoked at the
        phase boundaries of this level — after the hash-pair selection and
        after the bin instances materialise — so deadlines, memory budgets
        and pending signals are noticed inside long levels, not only
        between recursion calls.  It either returns or raises a
        :class:`~repro.errors.RunAbortedError`; it never changes outcomes.

        ``cost`` may inject a pre-built evaluator for *this exact*
        instance — the cross-bin level prefetch
        (:func:`repro.core.level.prefetch_partition_level`) passes a
        :class:`~repro.core.level.CachedPairCost` whose head-batch values
        were already computed in one segmented pass over all sibling bins.
        An injected evaluator whose identity does not match (different
        graph/palette objects, ``ell`` or scale) is ignored, as is any
        injection when the selection would wrap the cost in a
        multiprocess scorer (the proxy is not picklable).
        """
        if cost is not None and not (
            getattr(cost, "graph", None) is graph
            and getattr(cost, "palettes", None) is palettes
            and getattr(cost, "ell", None) == ell
            and getattr(cost, "global_nodes", None) == global_nodes
            and self.params.parallel_workers == 1
        ):
            cost = None
        if cost is None:
            cost = partition_cost_function(
                graph, palettes, self.params, ell, global_nodes
            )
        selection = self.select_hash_pair(
            graph,
            palettes,
            ell,
            global_nodes,
            context=context,
            strategy=strategy,
            salt=salt,
            cost=cost,
        )
        h1, h2 = selection.h1, selection.h2
        if poll is not None:
            poll()
        # Post-selection classification and palette restriction are one
        # fused pass over the evaluator's static arrays (the very ones the
        # batched selection scored its candidates on — CSR view, flattened
        # palette entries); it yields the classification and every color
        # bin's restricted palettes.
        scorer = None
        if self.params.parallel_workers > 1:
            from repro.parallel.executor import parallel_many_scorer

            # Reuses the selection's warm pool (same registry key), so the
            # post-selection classification shards ride for free.
            scorer = parallel_many_scorer(
                cost,
                self.params.parallel_workers,
                policy=self.params.parallel_recovery_policy(),
                transport=self.params.parallel_transport,
                min_pairs=self.params.parallel_min_slab_pairs,
            )
        classification, restricted = cost.classify_selected(h1, h2, scorer=scorer)
        num_bins = classification.num_bins
        last_bin = num_bins - 1

        # Materialise every bin instance of this level in one batched pass
        # over the CSR view (split_by_bins).  The selection already warmed
        # the parent's CSR view, so the extraction pays no extra build.
        bin_members = [
            classification.good_nodes_in_bin(bin_index)
            for bin_index in range(num_bins)
        ]
        subgraphs = graph.induced_subgraphs(
            [classification.bad_nodes] + bin_members, use_csr=True
        )
        bad_graph = subgraphs[0]
        if poll is not None:
            poll()

        color_bins = [
            ColorBinInstance(
                bin_index=bin_index,
                graph=subgraphs[1 + bin_index],
                palettes=restricted[bin_index],
            )
            for bin_index in range(len(restricted))
        ]

        leftover_members = bin_members[last_bin]
        leftover = ColorBinInstance(
            bin_index=last_bin,
            graph=subgraphs[1 + last_bin],
            palettes=palettes.subset(leftover_members),
        )

        return PartitionResult(
            h1=h1,
            h2=h2,
            classification=classification,
            selection=selection,
            bad_graph=bad_graph,
            color_bins=color_bins,
            leftover=leftover,
            num_bins=num_bins,
        )
