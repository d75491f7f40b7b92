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
which is why the target cost for selection is zero violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.core.classification import color_bin_arrays
from repro.core.low_space.machine_sets import (
    MachineClassification,
    classify_machines,
    low_space_cost_function,
)
from repro.core.low_space.params import LowSpaceParameters
from repro.core.partition import ColorBinInstance
from repro.derand.conditional_expectation import (
    HashPairSelector,
    SelectionOutcome,
    SelectionStrategy,
)
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
    machine_classification: Optional[MachineClassification] = None

    @property
    def high_degree_count(self) -> int:
        return sum(bin_.graph.num_nodes for bin_ in self.color_bins) + self.leftover.graph.num_nodes


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
        strategy: SelectionStrategy = SelectionStrategy.FIRST_FEASIBLE,
        classify_machine_level: bool = False,
        salt: int = 0,
        cost=None,
        poll=None,
    ) -> LowSpacePartitionResult:
        """Execute Algorithm 4 on one instance.

        ``charge`` is an optional ``charge(label, rounds)`` callback for
        round accounting; ``classify_machine_level`` additionally computes
        the Definition 4.1 machine classification for reporting; ``salt``
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
        :class:`~repro.core.level.CachedPairCost`); a mismatched injection
        — different graph/palette objects or high-degree split, or a
        multiprocess selection that would need to pickle the proxy — is
        ignored.
        """
        threshold = self.params.low_degree_threshold(global_nodes)
        num_bins = self.params.num_bins(global_nodes)
        num_color_bins = max(1, num_bins - 1)
        last_bin = num_bins - 1

        low_degree_nodes: Set[NodeId] = {
            node for node in graph.nodes() if graph.degree(node) <= threshold
        }
        high_degree_nodes: Set[NodeId] = set(graph.nodes()).difference(low_degree_nodes)
        low_degree_graph = graph.induced_subgraph(low_degree_nodes, use_csr=True)

        if not high_degree_nodes:
            # Nothing to partition: every node takes the MIS path.
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
                strategy=strategy,
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

        node_domain = max(global_nodes, max(graph.nodes(), default=0) + 1)
        universe = palettes.color_universe()
        color_domain = max(global_nodes * global_nodes, max(universe, default=0) + 1)
        family1 = KWiseIndependentFamily(
            domain_size=node_domain, range_size=num_bins, independence=self.params.independence
        )
        family2 = KWiseIndependentFamily(
            domain_size=color_domain,
            range_size=num_color_bins,
            independence=self.params.independence,
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
            strategy=strategy,
            batch_size=self.params.selection_batch_size,
            max_candidates=self.params.selection_max_candidates,
            candidate_salt=salt,
            rng_seed=salt,
            parallel_workers=self.params.parallel_workers,
            parallel_recovery=self.params.parallel_recovery_policy(),
            parallel_transport=self.params.parallel_transport,
            parallel_min_pairs=self.params.parallel_min_slab_pairs,
        )
        wrapped_charge = None
        if charge is not None:
            def wrapped_charge(label: str, rounds: int) -> None:  # noqa: E306
                charge(label, rounds)
        # Lemma 4.4/4.5: a pair with zero violations exists; in scaled mode a
        # small positive allowance keeps laptop-scale instances feasible
        # (violating nodes are rerouted to the MIS path, so correctness never
        # depends on the allowance).
        if self.params.is_scaled:
            target = max(4.0, 0.05 * len(high_degree_nodes))
        else:
            target = 0.0
        selection = selector.select(cost, target_bound=target, charge=wrapped_charge)
        h1, h2 = selection.h1, selection.h2
        if poll is not None:
            poll()

        # Post-selection classification is one more pass over the
        # evaluator's static arrays (the very ones the batched selection
        # scored its candidates on), and the palette restriction below is a
        # vectorized label scatter.  The full color universe is hashed
        # exactly once (color_bin_arrays) and shared by both.
        scorer = None
        if self.params.parallel_workers > 1:
            from repro.parallel.executor import parallel_many_scorer

            # Reuses the selection's warm pool (same registry key), so the
            # post-selection outcome shards ride for free.
            scorer = parallel_many_scorer(
                cost,
                self.params.parallel_workers,
                policy=self.params.parallel_recovery_policy(),
                transport=self.params.parallel_transport,
                min_pairs=self.params.parallel_min_slab_pairs,
            )
        color_arrays = color_bin_arrays(palettes, h2, num_color_bins)
        outcome = cost.outcome_selected(
            h1, h2, color_arrays=color_arrays, scorer=scorer
        )
        machine_classification = None
        if classify_machine_level:
            machine_classification = classify_machines(
                graph, palettes, high_degree_nodes, h1, h2, self.params, num_bins
            )

        # Build the bin instances.  Nodes that still violate the conditions
        # (possible only in scaled mode, within the small allowance) are
        # routed to the low-degree/MIS path so correctness never depends on
        # the concentration argument.  All subgraphs of the level — the
        # MIS-path graph plus every bin — are sliced in one batched pass
        # over the (already warm) CSR view.
        violating = outcome.violating_nodes
        usable = high_degree_nodes.difference(violating)
        bin_members = [
            [node for node in usable if outcome.bin_of_node[node] == bin_index]
            for bin_index in range(num_bins)
        ]
        subgraphs = graph.induced_subgraphs(
            [low_degree_nodes.union(violating)] + bin_members, use_csr=True
        )
        low_degree_graph = subgraphs[0]
        if poll is not None:
            poll()

        restricted = palettes.restricted_by_bins(
            bin_members[:num_color_bins], *color_arrays
        )
        color_bins: List[ColorBinInstance] = []
        for bin_index in range(num_color_bins):
            color_bins.append(
                ColorBinInstance(
                    bin_index=bin_index,
                    graph=subgraphs[1 + bin_index],
                    palettes=restricted[bin_index],
                )
            )
        leftover_members = bin_members[last_bin]
        leftover = ColorBinInstance(
            bin_index=last_bin,
            graph=subgraphs[1 + last_bin],
            palettes=palettes.subset(leftover_members),
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
            machine_classification=machine_classification,
        )
