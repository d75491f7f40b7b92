"""``ColorReduce`` (Algorithm 1): constant-round deterministic list coloring.

The algorithm, verbatim from the paper:

    ColorReduce(G, l):
      If G has size O(n): collect G onto a single machine and color locally.
      Otherwise: G_0, ..., G_{l^0.1} <- Partition(G, l).
      Let l' = l^0.9 - l^0.6.
      For each i = 1, ..., l^0.1 - 1, perform ColorReduce(G_i, l') in parallel.
      Update color palettes of G_{l^0.1}, perform ColorReduce(G_{l^0.1}, l').
      Update color palettes of G_0, collect G_0 onto a single machine and
      color locally.

The initial call is ``ColorReduce(G, Delta)``.  Correctness rests on three
facts the implementation preserves and audits:

* color bins receive *disjoint* color sets, so instances recursing in
  parallel can never conflict;
* the leftover bin and the bad graph have their palettes updated (colors of
  already-colored neighbors removed) before being colored;
* every instance handed to a recursive call or to the local greedy coloring
  satisfies ``p(v) > d(v)`` for all of its nodes, so a color always exists.

Round accounting follows the paper's parallel/sequential structure: the
recursive calls on the color bins run simultaneously (their round counts are
combined with a maximum), while the leftover bin and the bad graph are
handled afterwards (their round counts add).  The execution context charges
the underlying simulator and enforces bandwidth/space budgets.

The walk itself is the skeleton both pipelines share
(:class:`repro.core.driver.RecursionDriver`); this module supplies
Algorithm 1's steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.accounting import CostLedger, PoolHealth, RunDurability
from repro.congested_clique.model import CongestedCliqueSimulator
from repro.core.context import CongestedCliqueContext, ExecutionContext
from repro.core.driver import RecursionDriver, RunState, prepare_palettes
from repro.core.level import prefetch_partition_level
from repro.core.local_coloring import (
    GREEDY_ARRAY_CUTOVER_NODES,
    greedy_list_coloring,
)
from repro.core.params import ColorReduceParameters
from repro.core.partition import Partition, PartitionResult
from repro.derand.conditional_expectation import SelectionStrategy
from repro.errors import PaletteError, ReproError
from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment
from repro.graph.validation import assert_valid_list_coloring
from repro.types import Color, NodeId


@dataclass
class RecursionNode:
    """Statistics of one node of the recursion tree (for experiments E2/E8)."""

    depth: int
    num_nodes: int
    num_edges: int
    size: int
    ell: float
    base_case: bool
    num_bins: int = 0
    num_bad_nodes: int = 0
    num_bad_bins: int = 0
    bad_graph_size: int = 0
    selection_evaluations: int = 0
    selection_cost: float = 0.0
    invariant_violations: int = 0
    children: List["RecursionNode"] = field(default_factory=list)

    def max_depth(self) -> int:
        """Deepest recursion level reachable from this node."""
        if not self.children:
            return self.depth
        return max(child.max_depth() for child in self.children)

    def count_nodes(self) -> int:
        """Total number of recursion-tree nodes in this subtree."""
        return 1 + sum(child.count_nodes() for child in self.children)

    def count_base_cases(self) -> int:
        """Number of locally-colored instances in this subtree."""
        own = 1 if self.base_case else 0
        return own + sum(child.count_base_cases() for child in self.children)


@dataclass
class ColorReduceResult:
    """The output of a full ``ColorReduce`` run."""

    coloring: Dict[NodeId, Color]
    rounds: int
    ledger: CostLedger
    recursion_root: RecursionNode
    model: str
    global_nodes: int
    initial_ell: float
    total_bad_nodes: int
    total_invariant_violations: int
    #: Recovery events of the parallel scoring pool during this run (all
    #: zero on a fault-free run, and always all-zero for
    #: ``parallel_workers == 1``).  Faults never change the coloring or the
    #: tree — this record is their only visible trace.
    pool_health: PoolHealth = field(default_factory=PoolHealth)
    #: Durability telemetry (:mod:`repro.runtime`): checkpoints written,
    #: subtrees restored on resume, guard polls and degradations.  All zero
    #: unless a durability knob was set; resume/degradation never changes
    #: the coloring, tree or ledger — this record is their only trace.
    durability: RunDurability = field(default_factory=RunDurability)

    @property
    def max_recursion_depth(self) -> int:
        return self.recursion_root.max_depth()

    @property
    def num_local_colorings(self) -> int:
        return self.recursion_root.count_base_cases()


class ColorReduce(RecursionDriver):
    """Deterministic (Δ+1)-list coloring in a simulated model.

    Parameters
    ----------
    params:
        Numeric parameters (paper exponents by default).
    context:
        Execution context; defaults to a fresh CONGESTED CLIQUE simulator
        sized to the input graph.
    validate:
        Validate the final coloring against the graph and palettes before
        returning (cheap, and every experiment keeps it on).
    """

    ALGORITHM = "color-reduce"
    #: Words assumed per hash-function seed when broadcasting it.
    SEED_WORDS = 2

    def __init__(
        self,
        params: Optional[ColorReduceParameters] = None,
        context: Optional[ExecutionContext] = None,
        validate: bool = True,
    ) -> None:
        self.params = params if params is not None else ColorReduceParameters()
        self._context = context
        self.validate = validate

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(
        self,
        graph: Graph,
        palettes: Optional[PaletteAssignment] = None,
        initial_ell: Optional[float] = None,
        palettes_are_implicit: bool = False,
    ) -> ColorReduceResult:
        """Color ``graph`` from ``palettes`` (defaults to ``{0..Δ}`` each).

        ``initial_ell`` defaults to the maximum degree Δ, matching the
        initial call ``ColorReduce(G, Δ)``.  ``palettes_are_implicit``
        enables the Theorem 1.3 space accounting for plain (Δ+1)-coloring:
        palettes are the trivial ``{0..Δ}`` sets and are never shipped, so
        communication and space are charged without the palette entries.
        """
        if palettes is None:
            palettes = PaletteAssignment.delta_plus_one(graph)
            palettes_are_implicit = True
        prepare_palettes(graph, palettes)
        context = self._context
        if context is None:
            simulator = CongestedCliqueSimulator(max(graph.num_nodes, 1))
            context = CongestedCliqueContext(simulator)
        raw_ell = float(graph.max_degree()) if initial_ell is None else float(initial_ell)
        # Algorithm 1 solves (Δ+1)-list coloring: every palette must have more
        # than l = Δ colors (Corollary 3.3 (i)).  Instances with smaller
        # (deg+1)-style palettes are the low-space algorithm's job
        # (Theorem 1.4 / LowSpaceColorReduce).
        undersized = [
            node for node in graph.nodes() if palettes.palette_size(node) <= raw_ell
        ]
        if undersized:
            raise PaletteError(
                f"node {undersized[0]} has only {palettes.palette_size(undersized[0])} "
                f"colors but ColorReduce requires more than l = {raw_ell:g} per node "
                "((Δ+1)-list coloring); use LowSpaceColorReduce for (deg+1)-list instances"
            )
        ell = max(raw_ell, 1.0)
        state = RunState(
            model=context,
            global_nodes=max(graph.num_nodes, 1),
            palettes_are_implicit=palettes_are_implicit,
        )
        coloring, ledger, tree, pool_health, durability = self._walk(
            graph, palettes, ell, state
        )
        if self.validate:
            assert_valid_list_coloring(graph, palettes, coloring)
        return ColorReduceResult(
            coloring=coloring,
            rounds=ledger.rounds,
            ledger=ledger,
            recursion_root=tree,
            model=context.model_name,
            global_nodes=state.global_nodes,
            initial_ell=ell,
            total_bad_nodes=state.total_bad_nodes,
            total_invariant_violations=state.total_invariant_violations,
            pool_health=pool_health,
            durability=durability,
        )

    # ------------------------------------------------------------------
    # the pipeline's steps (see repro.core.driver)
    # ------------------------------------------------------------------
    def _new_node(self, graph: Graph, ell: float, depth: int) -> RecursionNode:
        return RecursionNode(
            depth=depth,
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            size=graph.size(),
            ell=ell,
            base_case=False,
        )

    def _base_case(
        self,
        graph: Graph,
        palettes: PaletteAssignment,
        ell: float,
        depth: int,
        ledger: CostLedger,
        node: RecursionNode,
        state: RunState,
    ) -> Optional[Dict[NodeId, Color]]:
        """Collect and color an instance of size ``O(n)`` (or at the depth cap)."""
        if graph.num_nodes == 0:
            node.base_case = True
            return {}
        collectable = node.size <= self.params.collect_threshold(state.global_nodes)
        words = self._collect_words(graph, palettes, state)
        fits_locally = words <= state.model.local_instance_capacity_words()
        if (collectable and fits_locally) or graph.num_edges == 0:
            node.base_case = True
            return self._collect_and_color(graph, palettes, ledger, state, label="local-color")
        if depth >= self.params.max_recursion_depth:
            if fits_locally:
                node.base_case = True
                return self._collect_and_color(
                    graph, palettes, ledger, state, label="local-color(depth-cap)"
                )
            raise ReproError(
                f"recursion depth {depth} reached with an instance of size {node.size} "
                f"that does not fit locally ({words} words); "
                "check the partition parameters"
            )
        return None

    def _partition(
        self,
        graph: Graph,
        palettes: PaletteAssignment,
        ell: float,
        ledger: CostLedger,
        node: RecursionNode,
        state: RunState,
        salt: int,
        prefetched,
    ):
        """``Partition(G, l)``, its statistics and its communication charges."""
        partition = Partition(self.params).run(
            graph,
            palettes,
            ell,
            state.global_nodes,
            context=state.model,
            salt=salt,
            cost=prefetched,
            poll=state.poll,
        )
        node.num_bins = partition.num_bins
        node.num_bad_nodes = partition.num_bad_nodes
        node.num_bad_bins = partition.num_bad_bins
        node.bad_graph_size = partition.bad_graph.size()
        node.selection_evaluations = partition.selection.evaluations
        node.selection_cost = partition.selection.cost
        state.total_bad_nodes += partition.num_bad_nodes
        node.invariant_violations = self._audit_invariant(partition, ell, state)

        ledger.charge("hash-selection", partition.selection.rounds_charged)
        seed_rounds = state.model.record_seed_broadcast(self.SEED_WORDS, label="seed-broadcast")
        ledger.charge("seed-broadcast", seed_rounds)
        shuffle_words = self._instance_words(graph, palettes, state)
        shuffle_rounds = state.model.record_partition_shuffle(
            shuffle_words, label="partition-shuffle"
        )
        ledger.charge("partition-shuffle", shuffle_rounds, shuffle_words)
        state.model.record_space(shuffle_words)
        return partition, partition.bad_graph, self.params.next_ell(ell)

    def _palette_update_rounds(self, removed: int, state: RunState) -> int:
        return state.model.record_palette_update(max(removed, 1), label="palette-update")

    def _finish(
        self,
        graph: Graph,
        palettes: PaletteAssignment,
        ledger: CostLedger,
        node: RecursionNode,
        state: RunState,
    ) -> Dict[NodeId, Color]:
        """``G_0``: collect onto a single machine and color locally."""
        return self._collect_and_color(graph, palettes, ledger, state, label="bad-graph-color")

    def _level_prefetch_enabled(self) -> bool:
        # The segmented pass reproduces only FIRST_FEASIBLE's head probes;
        # exhaustive and randomized strategies keep the per-bin route.
        return (
            super()._level_prefetch_enabled()
            and self.params.selection_strategy == SelectionStrategy.FIRST_FEASIBLE
        )

    def _will_partition(
        self, graph: Graph, palettes: PaletteAssignment, depth: int, state: RunState
    ) -> bool:
        """Mirrors :meth:`_base_case`; a misprediction only wastes (or skips)
        a prefetch — the child's own run re-derives the truth."""
        if graph.num_nodes == 0 or graph.num_edges == 0:
            return False
        if depth >= self.params.max_recursion_depth:
            return False
        if graph.size() <= self.params.collect_threshold(state.global_nodes):
            words = self._collect_words(graph, palettes, state)
            if words <= state.model.local_instance_capacity_words():
                return False
        return True

    def _prefetch(self, eligible, ell: float, state: RunState):
        return prefetch_partition_level(eligible, self.params, ell, state.global_nodes)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _collect_and_color(
        self,
        graph: Graph,
        palettes: PaletteAssignment,
        ledger: CostLedger,
        state: RunState,
        label: str,
    ) -> Dict[NodeId, Color]:
        capacity = state.model.local_instance_capacity_words()
        words = self._collect_words(graph, palettes, state)
        if words <= capacity:
            rounds = state.model.record_collect(words, label=label)
            ledger.charge(label, rounds, words)
            state.model.record_space(words, max_local_words=words)
            # Force the array sweep above the small-instance cutover (building
            # the CSR view when a depth-0 collectable instance arrives cold),
            # and take the scalar loop below it so deep-recursion leaves skip
            # the sweep's fixed setup (bit-identical either way).
            return greedy_list_coloring(
                graph,
                palettes,
                use_batch=graph.num_nodes >= GREEDY_ARRAY_CUTOVER_NODES,
            )
        # The instance does not fit on one machine.  The deterministic
        # algorithm never reaches this point (Corollary 3.10 bounds |G_0| by
        # O(n)), but the randomized baseline occasionally does on unlucky
        # seeds.  Rather than failing, split the instance into pieces that do
        # fit and color them sequentially, updating palettes in between —
        # model-legal, and the extra rounds are exactly the measured price of
        # the missing guarantee.
        coloring: Dict[NodeId, Color] = {}
        for piece in self._split_for_capacity(graph, palettes, state, capacity):
            piece_palettes, removed = palettes.subset_updated(
                piece.nodes(), graph, coloring
            )
            if removed:
                update_rounds = state.model.record_palette_update(
                    removed, label="palette-update"
                )
                ledger.charge("palette-update", update_rounds, removed)
            piece_words = self._collect_words(piece, piece_palettes, state)
            rounds = state.model.record_collect(piece_words, label=label)
            ledger.charge(label, rounds, piece_words)
            state.model.record_space(piece_words, max_local_words=piece_words)
            coloring.update(
                greedy_list_coloring(
                    piece,
                    piece_palettes,
                    use_batch=piece.num_nodes >= GREEDY_ARRAY_CUTOVER_NODES,
                )
            )
        return coloring

    def _split_for_capacity(
        self,
        graph: Graph,
        palettes: PaletteAssignment,
        state: RunState,
        capacity: int,
    ) -> List[Graph]:
        """Split an oversized instance into induced subgraphs that fit locally."""
        piece_nodes: List[List[NodeId]] = []
        current: List[NodeId] = []
        current_words = 0
        for node in sorted(graph.nodes()):
            node_words = 1 + graph.degree(node)
            if not state.palettes_are_implicit:
                node_words += min(palettes.palette_size(node), graph.degree(node) + 1)
            if current and current_words + node_words > capacity:
                piece_nodes.append(current)
                current = []
                current_words = 0
            current.append(node)
            current_words += node_words
        if current:
            piece_nodes.append(current)
        # One batched extraction for all pieces (they are disjoint chunks).
        return graph.induced_subgraphs(piece_nodes, use_csr=True)

    def _collect_words(
        self, graph: Graph, palettes: PaletteAssignment, state: RunState
    ) -> int:
        """Words needed to ship an instance to one machine for local coloring.

        Section 3.6: when coloring locally we may drop palette colors down to
        ``d(v) + 1`` per node, so the shipped palette data is ``O(m + n)``
        regardless of the original palette sizes.  With implicit palettes
        (plain (Δ+1)-coloring) no palette entries travel at all.
        """
        words = graph.size()
        if not state.palettes_are_implicit:
            words += sum(
                min(palettes.palette_size(v), graph.degree(v) + 1) for v in graph.nodes()
            )
        return words

    def _instance_words(
        self, graph: Graph, palettes: PaletteAssignment, state: RunState
    ) -> int:
        """Words of an instance when redistributing it across machines."""
        words = graph.size()
        if not state.palettes_are_implicit:
            words += palettes.total_size()
        return words

    def _audit_invariant(
        self, partition: PartitionResult, ell: float, state: RunState
    ) -> int:
        """Audit Lemma 3.2 on the freshly produced color-bin instances.

        Checks, for every good node ``v`` placed in a color bin, that
        ``l' < p'(v)``, ``d'(v) <= l' + palette_slack(l')`` and
        ``d'(v) < p'(v)``.  Violations are counted (and surface in the
        recursion statistics); with the paper's exponents on inputs
        satisfying Corollary 3.3 there should be none.
        """
        next_ell = self.params.next_ell(ell)
        slack = self.params.palette_slack(next_ell)
        literal_lemma = not self.params.is_scaled and not self.params.bins_are_clamped(ell)
        violations = 0
        for bin_instance in partition.color_bins:
            if bin_instance.is_empty:
                continue
            store = bin_instance.palettes.store()
            if store is None:
                violations += self._audit_bin_scalar(
                    bin_instance, next_ell, slack, literal_lemma
                )
                continue
            # Vectorized audit: one comparison sweep per bin over the CSR
            # degrees and the flat palette sizes (aligned through the
            # store's row index), identical counts to the scalar loop.
            import numpy as np

            csr = bin_instance.graph.csr()
            degrees = csr.degrees
            sizes = store.sizes()[store.rows_of(csr.node_ids)]
            if literal_lemma:
                violations += int(np.count_nonzero(next_ell >= sizes))
                violations += int(np.count_nonzero(degrees > next_ell + slack))
            violations += int(np.count_nonzero(degrees >= sizes))
        state.total_invariant_violations += violations
        return violations

    @staticmethod
    def _audit_bin_scalar(
        bin_instance, next_ell: float, slack: float, literal_lemma: bool
    ) -> int:
        """Per-node reference audit of one color bin (see `_audit_invariant`)."""
        violations = 0
        for v in bin_instance.graph.nodes():
            d_prime = bin_instance.graph.degree(v)
            p_prime = bin_instance.palettes.palette_size(v)
            if literal_lemma:
                if next_ell >= p_prime:
                    violations += 1
                if d_prime > next_ell + slack:
                    violations += 1
            if d_prime >= p_prime:
                violations += 1
        return violations

