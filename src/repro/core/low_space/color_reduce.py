"""``LowSpaceColorReduce`` (Algorithm 3): (deg+1)-list coloring in low-space MPC.

The algorithm, verbatim from the paper:

    LowSpaceColorReduce(G):
      G_0, ..., G_{n^δ} <- LowSpacePartition(G).
      For each i = 1, ..., n^δ - 1, perform LowSpaceColorReduce(G_i) in
      parallel.
      Update color palettes of G_{n^δ}, perform LowSpaceColorReduce(G_{n^δ}).
      Update color palettes of G_0, color G_0 using the MIS reduction.

``G_0`` collects the *low-degree* nodes (degree at most ``n^{7δ}``), which
are colored at the end by reducing list coloring to MIS and running a
deterministic MIS algorithm.  Each level of recursion reduces the maximum
degree by (roughly) the bin factor, so after ``O(1)`` levels in the paper's
parameterisation — ``O(log Δ)`` levels with laptop-scale bin counts — only
the MIS path remains, whose round cost dominates and gives the
``O(log Δ + log log n)`` bound of Theorem 1.4.

Round accounting mirrors Algorithm 1's: the color bins recurse in parallel
(max of their round counts), the leftover bin and the MIS step follow
sequentially, and every MIS phase is charged a constant number of MPC
rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.accounting import CostLedger, PoolHealth, RunDurability
from repro.core.level import (
    LEVEL_PREFETCH_MIN_SIZE,
    child_salt,
    prefetch_low_space_level,
)
from repro.core.low_space.mis_reduction import color_via_mis
from repro.core.low_space.params import LowSpaceParameters
from repro.core.low_space.partition import LowSpacePartition
from repro.errors import ReproError
from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment
from repro.graph.validation import assert_valid_list_coloring
from repro.mis.deterministic import deterministic_mis
from repro.mis.luby import MISResult
from repro.mpc.model import MPCSimulator
from repro.mpc.regimes import low_space_regime
from repro.types import Color, NodeId

#: MPC rounds charged per phase of the MIS algorithm (each Luby phase is a
#: constant number of sort/aggregate steps).
ROUNDS_PER_MIS_PHASE = 2
#: MPC rounds charged per LowSpacePartition shuffle (a constant number of
#: deterministic sorts, Lemma 2.1).
PARTITION_SHUFFLE_ROUNDS = 3
#: MPC rounds charged per palette-update step.
PALETTE_UPDATE_ROUNDS = 2


@dataclass
class LowSpaceRecursionNode:
    """Statistics of one node of the low-space recursion tree."""

    depth: int
    num_nodes: int
    num_edges: int
    max_degree: int
    num_bins: int = 0
    low_degree_nodes: int = 0
    violating_nodes: int = 0
    mis_phases: int = 0
    reduction_vertices: int = 0
    children: List["LowSpaceRecursionNode"] = field(default_factory=list)

    def max_depth(self) -> int:
        if not self.children:
            return self.depth
        return max(child.max_depth() for child in self.children)

    def total_mis_phases(self) -> int:
        return self.mis_phases + sum(child.total_mis_phases() for child in self.children)


@dataclass
class LowSpaceResult:
    """Output of a full ``LowSpaceColorReduce`` run."""

    coloring: Dict[NodeId, Color]
    rounds: int
    ledger: CostLedger
    recursion_root: LowSpaceRecursionNode
    epsilon: float
    total_mis_phases: int
    simulator: Optional[MPCSimulator] = None
    #: Recovery events of the parallel scoring pool during this run (see
    #: :attr:`repro.core.color_reduce.ColorReduceResult.pool_health`).
    pool_health: PoolHealth = field(default_factory=PoolHealth)
    #: Durability telemetry (see
    #: :attr:`repro.core.color_reduce.ColorReduceResult.durability`).
    #: Note: the MPC simulator's space telemetry reflects executed work
    #: only — a resumed run skips the restored subtrees' space charges; the
    #: bit-identity guarantee covers coloring, tree and ledger.
    durability: RunDurability = field(default_factory=RunDurability)

    @property
    def max_recursion_depth(self) -> int:
        return self.recursion_root.max_depth()


class LowSpaceColorReduce:
    """Deterministic (deg+1)-list coloring for the low-space MPC regime.

    Parameters
    ----------
    params:
        Low-space parameters (paper exponents by default; use
        :meth:`LowSpaceParameters.scaled` to exercise deeper recursion).
    mis_solver:
        The MIS black box; defaults to the derandomized Luby MIS in
        :mod:`repro.mis.deterministic`.
    simulator:
        Optional low-space :class:`MPCSimulator` for space accounting; a
        fresh one in the ``O(n^ε)`` regime is created per run if omitted.
    validate:
        Validate the final coloring before returning.
    """

    def __init__(
        self,
        params: Optional[LowSpaceParameters] = None,
        mis_solver: Optional[Callable[[Graph], MISResult]] = None,
        simulator: Optional[MPCSimulator] = None,
        validate: bool = True,
    ) -> None:
        self.params = params if params is not None else LowSpaceParameters()
        self.mis_solver = mis_solver if mis_solver is not None else deterministic_mis
        self._simulator = simulator
        self.validate = validate

    # ------------------------------------------------------------------
    def run(
        self, graph: Graph, palettes: Optional[PaletteAssignment] = None
    ) -> LowSpaceResult:
        """Color ``graph`` from ``palettes`` (defaults to (deg+1)-lists)."""
        if palettes is None:
            palettes = PaletteAssignment.degree_plus_one(graph)
        # Warm the shared palette-entry store: validation vectorizes and the
        # partition's evaluator adopts the same flat arrays.
        palettes.store()
        palettes.validate_for_graph(graph)
        simulator = self._simulator
        if simulator is None:
            simulator = MPCSimulator(
                low_space_regime(
                    num_nodes=max(graph.num_nodes, 2),
                    num_edges=graph.num_edges,
                    epsilon=self.params.epsilon,
                )
            )
        durable = None
        if self.params.durability_enabled():
            from repro.runtime.durability import DurableRun

            durable = DurableRun.from_params(
                self.params, "low-space", graph, palettes, max(graph.num_nodes, 1)
            )
        state = _LowSpaceState(
            simulator=simulator,
            global_nodes=max(graph.num_nodes, 1),
            durable=durable,
        )
        health_baseline = None
        if self.params.parallel_workers > 1:
            from repro.parallel.executor import pool_health

            health_baseline = pool_health()
        if durable is None:
            coloring, ledger, tree = self._color_reduce(
                graph, palettes.copy(), depth=0, state=state, salt=1
            )
        else:
            with durable.active():
                coloring, ledger, tree = self._color_reduce(
                    graph, palettes.copy(), depth=0, state=state, salt=1
                )
        run_health = PoolHealth()
        if health_baseline is not None:
            from repro.parallel.executor import pool_health

            run_health = pool_health().delta(health_baseline)
        if self.validate:
            assert_valid_list_coloring(graph, palettes, coloring)
        return LowSpaceResult(
            coloring=coloring,
            rounds=ledger.rounds,
            ledger=ledger,
            recursion_root=tree,
            epsilon=self.params.epsilon,
            total_mis_phases=tree.total_mis_phases(),
            simulator=simulator,
            pool_health=run_health,
            durability=durable.telemetry if durable is not None else RunDurability(),
        )

    # ------------------------------------------------------------------
    def _color_reduce(
        self,
        graph: Graph,
        palettes: PaletteAssignment,
        depth: int,
        state: "_LowSpaceState",
        salt: int = 1,
        prefetched=None,
    ) -> tuple[Dict[NodeId, Color], CostLedger, LowSpaceRecursionNode]:
        """One node of the recursion, through the durability layer.

        Same contract as the linear-space driver's wrapper: zero-overhead
        passthrough without durability knobs; with them, entries poll the
        guardrails, checkpointed salts are restored (bit-identical replay)
        and completed shallow subtrees are recorded.
        """
        durable = state.durable
        if durable is None:
            return self._color_reduce_node(
                graph, palettes, depth, state, salt, prefetched
            )
        durable.poll()
        entry = durable.restored(salt)
        if entry is not None:
            return dict(entry["coloring"]), entry["ledger"].copy(), entry["tree"]
        durable.enter(salt)
        try:
            coloring, ledger, node = self._color_reduce_node(
                graph, palettes, depth, state, salt, prefetched
            )
        finally:
            durable.exit(salt)
        durable.completed(
            salt,
            depth,
            lambda: {
                "coloring": dict(coloring),
                "ledger": ledger.copy(),
                "tree": node,
                "bad_nodes": 0,
                "violations": 0,
            },
        )
        return coloring, ledger, node

    def _color_reduce_node(
        self,
        graph: Graph,
        palettes: PaletteAssignment,
        depth: int,
        state: "_LowSpaceState",
        salt: int = 1,
        prefetched=None,
    ) -> tuple[Dict[NodeId, Color], CostLedger, LowSpaceRecursionNode]:
        """One node of the recursion.

        ``salt`` is the call's positional identity (root 1, children via
        :func:`repro.core.level.child_salt` on their bin index), which lets
        the parent prefetch a whole level's head-batch scores in one
        segmented pass; ``prefetched`` carries this instance's
        :class:`~repro.core.level.CachedPairCost` when it did.
        """
        ledger = CostLedger()
        node = LowSpaceRecursionNode(
            depth=depth,
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            max_degree=graph.max_degree(),
        )
        if graph.num_nodes == 0:
            return {}, ledger, node
        if depth >= self.params.max_recursion_depth:
            raise ReproError(
                f"low-space recursion depth {depth} exceeded; the partition is not "
                "reducing degrees (check the parameters)"
            )

        partition = LowSpacePartition(self.params).run(
            graph,
            palettes,
            global_nodes=state.global_nodes,
            charge=lambda label, rounds: ledger.charge(label, rounds),
            salt=salt,
            cost=prefetched,
            poll=state.durable.poll if state.durable is not None else None,
        )
        node.num_bins = partition.num_bins
        node.low_degree_nodes = partition.low_degree_graph.num_nodes
        node.violating_nodes = partition.num_violating_nodes
        shuffle_words = graph.size() + palettes.total_size()
        state.simulator.record_space_usage(
            min(shuffle_words, state.simulator.regime.total_space_words)
        )
        ledger.charge("partition-shuffle", PARTITION_SHUFFLE_ROUNDS, shuffle_words)

        coloring: Dict[NodeId, Color] = {}

        # A child that contains every node of the parent would recurse
        # forever (possible only for small residual degrees, where the hash
        # happens to map every node to one bin); such children take the MIS
        # path directly instead.  Larger instances cannot degenerate this way
        # because an all-in-one-bin assignment violates the selection
        # conditions.
        def made_progress(child_graph: Graph) -> bool:
            return child_graph.num_nodes < graph.num_nodes

        # --- segmented cross-bin prefetch (repro.core.level) -----------------
        # Score every recursing bin's head batch of hash-pair candidates in
        # one segmented pass before descending (children whose nodes are all
        # low-degree are skipped inside the prefetch — their Partition call
        # takes the trivial path).  Best-effort: any failure falls back to
        # the per-bin evaluators with bit-identical selections.
        prefetched_costs: Dict[int, object] = {}
        if (
            self._level_prefetch_enabled()
            and depth + 1 < self.params.max_recursion_depth
            and (state.durable is None or state.durable.prefetch_allowed)
        ):
            eligible = [
                (
                    bin_instance.bin_index,
                    child_salt(salt, bin_instance.bin_index),
                    bin_instance.graph,
                    bin_instance.palettes,
                )
                for bin_instance in partition.color_bins
                if bin_instance.graph.size() >= LEVEL_PREFETCH_MIN_SIZE
                and made_progress(bin_instance.graph)
                # Bins whose subtrees restore from the checkpoint never
                # reach their Partition call — don't score them.
                and (
                    state.durable is None
                    or not state.durable.has(child_salt(salt, bin_instance.bin_index))
                )
            ]
            if eligible:
                try:
                    prefetched_costs = prefetch_low_space_level(
                        eligible, self.params, state.global_nodes
                    )
                except Exception:  # pragma: no cover - prefetch is best-effort
                    prefetched_costs = {}

        # --- color bins recurse in parallel ---------------------------------
        parallel_ledger: Optional[CostLedger] = None
        for bin_instance in partition.color_bins:
            if bin_instance.is_empty:
                continue
            if made_progress(bin_instance.graph):
                child_coloring, child_ledger, child_node = self._color_reduce(
                    bin_instance.graph,
                    bin_instance.palettes,
                    depth + 1,
                    state,
                    salt=child_salt(salt, bin_instance.bin_index),
                    prefetched=prefetched_costs.get(bin_instance.bin_index),
                )
                node.children.append(child_node)
            else:
                child_coloring, child_ledger = self._color_by_mis(
                    bin_instance.graph, bin_instance.palettes, node, state
                )
            coloring.update(child_coloring)
            if parallel_ledger is None:
                parallel_ledger = child_ledger
            else:
                parallel_ledger.merge_parallel(child_ledger)
        if parallel_ledger is not None:
            ledger.merge_sequential(parallel_ledger)

        # --- leftover bin -----------------------------------------------------
        leftover = partition.leftover
        if not leftover.is_empty:
            removed = leftover.palettes.remove_colors_used_by_neighbors_batch(
                graph, coloring
            )
            ledger.charge("palette-update", PALETTE_UPDATE_ROUNDS, removed)
            if made_progress(leftover.graph):
                child_coloring, child_ledger, child_node = self._color_reduce(
                    leftover.graph,
                    leftover.palettes,
                    depth + 1,
                    state,
                    salt=child_salt(salt, partition.num_bins - 1),
                )
                node.children.append(child_node)
            else:
                child_coloring, child_ledger = self._color_by_mis(
                    leftover.graph, leftover.palettes, node, state
                )
            coloring.update(child_coloring)
            ledger.merge_sequential(child_ledger)

        # --- G_0: the MIS path ------------------------------------------------
        low_graph = partition.low_degree_graph
        if low_graph.num_nodes > 0:
            low_palettes, removed = palettes.subset_updated(
                low_graph.nodes(), graph, coloring
            )
            ledger.charge("palette-update", PALETTE_UPDATE_ROUNDS, removed)
            mis_coloring, mis_ledger = self._color_by_mis(low_graph, low_palettes, node, state)
            ledger.merge_sequential(mis_ledger)
            coloring.update(mis_coloring)

        return coloring, ledger, node

    def _level_prefetch_enabled(self) -> bool:
        """Whether the cross-bin level prefetch applies under these params.

        Same contract as the linear-space driver's gate: the segmented pass
        reproduces the single-process ``FIRST_FEASIBLE`` head probes (the
        strategy this driver always uses), so multiprocess scoring keeps
        the per-bin route.
        """
        return self.params.level_use_batch and self.params.parallel_workers == 1

    def _color_by_mis(
        self,
        graph: Graph,
        palettes: PaletteAssignment,
        node: LowSpaceRecursionNode,
        state: "_LowSpaceState",
    ) -> tuple[Dict[NodeId, Color], CostLedger]:
        """Color one instance via the MIS reduction and charge its rounds."""
        ledger = CostLedger()
        mis_coloring, mis_result, reduction = color_via_mis(graph, palettes, self.mis_solver)
        node.mis_phases += mis_result.phases
        node.reduction_vertices += reduction.num_vertices
        reduction_words = reduction.graph.size()
        state.simulator.record_space_usage(
            min(reduction_words, state.simulator.regime.total_space_words)
        )
        ledger.charge(
            "mis-reduction", ROUNDS_PER_MIS_PHASE * max(mis_result.phases, 1), reduction_words
        )
        return mis_coloring, ledger


@dataclass
class _LowSpaceState:
    """Bookkeeping threaded through one ``LowSpaceColorReduce`` run."""

    simulator: MPCSimulator
    global_nodes: int
    #: The run's :class:`repro.runtime.durability.DurableRun`, or ``None``
    #: when no durability knob is set.
    durable: Optional[object] = None
