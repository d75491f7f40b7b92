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
rounds.  The walk is the skeleton shared with ``ColorReduce``
(:class:`repro.core.driver.RecursionDriver`); this module supplies
Algorithm 3's steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.accounting import CostLedger, PoolHealth, RunDurability
from repro.core.driver import RecursionDriver, RunState, prepare_palettes
from repro.core.level import prefetch_low_space_level
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


class LowSpaceColorReduce(RecursionDriver):
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

    ALGORITHM = "low-space"

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
        prepare_palettes(graph, palettes)
        simulator = self._simulator
        if simulator is None:
            simulator = MPCSimulator(
                low_space_regime(
                    num_nodes=max(graph.num_nodes, 2),
                    num_edges=graph.num_edges,
                    epsilon=self.params.epsilon,
                )
            )
        state = RunState(model=simulator, global_nodes=max(graph.num_nodes, 1))
        coloring, ledger, tree, pool_health, durability = self._walk(
            graph, palettes, None, state
        )
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
            pool_health=pool_health,
            durability=durability,
        )

    # ------------------------------------------------------------------
    # the pipeline's steps (see repro.core.driver)
    # ------------------------------------------------------------------
    def _new_node(self, graph: Graph, ell, depth: int) -> LowSpaceRecursionNode:
        return LowSpaceRecursionNode(
            depth=depth,
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            max_degree=graph.max_degree(),
        )

    def _base_case(self, graph, palettes, ell, depth, ledger, node, state):
        if graph.num_nodes == 0:
            return {}
        if depth >= self.params.max_recursion_depth:
            raise ReproError(
                f"low-space recursion depth {depth} exceeded; the partition is not "
                "reducing degrees (check the parameters)"
            )
        return None

    def _partition(self, graph, palettes, ell, ledger, node, state, salt, prefetched):
        """``LowSpacePartition(G)``, its statistics and its shuffle charge."""
        partition = LowSpacePartition(self.params).run(
            graph,
            palettes,
            global_nodes=state.global_nodes,
            charge=lambda label, rounds: ledger.charge(label, rounds),
            salt=salt,
            cost=prefetched,
            poll=state.poll,
        )
        node.num_bins = partition.num_bins
        node.low_degree_nodes = partition.low_degree_graph.num_nodes
        node.violating_nodes = partition.num_violating_nodes
        shuffle_words = graph.size() + palettes.total_size()
        state.model.record_space_usage(
            min(shuffle_words, state.model.regime.total_space_words)
        )
        ledger.charge("partition-shuffle", PARTITION_SHUFFLE_ROUNDS, shuffle_words)
        return partition, partition.low_degree_graph, None

    def _palette_update_rounds(self, removed: int, state: RunState) -> int:
        return PALETTE_UPDATE_ROUNDS

    def _recurses(self, parent: Graph, child: Graph) -> bool:
        # A child that contains every node of the parent would recurse
        # forever (possible only for small residual degrees, where the hash
        # happens to map every node to one bin); such children take the MIS
        # path directly instead.  Larger instances cannot degenerate this
        # way because an all-in-one-bin assignment violates the selection
        # conditions.
        return child.num_nodes < parent.num_nodes

    def _finish(
        self,
        graph: Graph,
        palettes: PaletteAssignment,
        ledger: CostLedger,
        node: LowSpaceRecursionNode,
        state: RunState,
    ) -> Dict[NodeId, Color]:
        """Color one instance via the MIS reduction and charge its rounds."""
        mis_coloring, mis_result, reduction = color_via_mis(graph, palettes, self.mis_solver)
        node.mis_phases += mis_result.phases
        node.reduction_vertices += reduction.num_vertices
        reduction_words = reduction.graph.size()
        state.model.record_space_usage(
            min(reduction_words, state.model.regime.total_space_words)
        )
        ledger.charge(
            "mis-reduction", ROUNDS_PER_MIS_PHASE * max(mis_result.phases, 1), reduction_words
        )
        return mis_coloring

    def _will_partition(self, graph, palettes, depth: int, state: RunState) -> bool:
        # Children whose nodes are all low-degree are skipped inside the
        # prefetch itself (their partition call takes the trivial path).
        return depth < self.params.max_recursion_depth

    def _prefetch(self, eligible, ell, state: RunState):
        return prefetch_low_space_level(eligible, self.params, state.global_nodes)
