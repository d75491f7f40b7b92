"""The low-space selection cost: Definition 4.1 at node level (Lemma 4.5).

In low-space MPC a single machine cannot hold a high-degree node's whole
neighbor list or palette, so the paper splits them across groups of machines
— ``M_v^N`` for the neighbors and ``M_v^C`` for the palette — with each
machine receiving between ``n^{7δ}`` and ``2 n^{7δ}`` items.  Good/bad is
then defined per machine (Definition 4.1):

* a machine ``x in M_v^N`` is good if ``|d'(x) - d(x) n^{-δ}| <= d(x)^0.6``,
* a machine ``x in M_v^C`` is good if ``p'(x) > p(x) n^{-δ} + p(x)^0.7``,

and the selection cost is simply the number of bad machines (Equation (2)),
whose expectation Lemma 4.4 bounds below 1 — so a pair of hash functions
with *no* bad machines exists and can be fixed deterministically.

Definition 4.1's per-machine classification is not materialised: no
machine group is built and no machine is classified.  Selection uses its
node-level aggregation, the consequences Lemma 4.5 draws from "no bad
machines" (``d'(v) < 2 d(v) n^{-δ}`` and ``d'(v) < p'(v)``), counted as
the number of violating high-degree nodes.

As in :mod:`repro.core.classification`, that cost has two
implementations: the per-node scalar reference (:func:`node_level_outcome`)
and the batched :class:`LowSpaceCostEvaluator`, which runs the count
kernels shared with the Equation (1) cost
(:class:`repro.hashing.batch.BatchCostEvaluatorBase`) over the high-degree
nodes and applies the Lemma 4.5 predicate — bit-identical by construction
and by test.  Both fill the same per-node arrays of one
:class:`NodeLevelOutcome`.  ``LowSpacePartition.run`` takes the selected
pair's outcome from :meth:`LowSpaceCostEvaluator.outcome_selected`;
:func:`node_level_outcome` is the scalar reference the differential tests
reroute it to (``tests/scalar_oracle.py``).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

import numpy as np

from repro.core.low_space.params import DEGREE_SLACK_EXPONENT, LowSpaceParameters
from repro.derand.cost import PairCost
from repro.errors import GraphError
from repro.graph.csr import node_id_array
from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment
from repro.hashing.batch import BatchCostEvaluatorBase
from repro.hashing.family import HashFunction
from repro.types import BinIndex, Color, NodeId


def _key_maps(graph: Graph):
    """``(id_of, key_of)``: between a graph's node ids and the ids ``h1``
    hashes (:func:`~repro.core.low_space.partition.split_by_degree`'s
    sets), for the per-node references; identities outside a solve."""
    csr = graph.csr()
    keys = csr.keys_at(np.arange(csr.num_nodes, dtype=np.int64))
    keys = keys.tolist() if isinstance(keys, np.ndarray) else keys
    ids = csr.id_list()
    return dict(zip(keys, ids)), dict(zip(ids, keys))


class NodeLevelOutcome:
    """Node-level consequences of a candidate pair (Lemma 4.5).

    Holds per-node arrays over the sorted high ids (:meth:`from_arrays`),
    whichever path filled them: the batched
    :meth:`LowSpaceCostEvaluator.outcome_selected` or the per-node
    reference :func:`node_level_outcome`.  ``violating_nodes`` is a set;
    the per-node maps ``bin_of_node``, ``in_bin_degree`` and
    ``in_bin_palette`` are views built on first access.
    ``LowSpacePartition.run`` reads only the violating set and
    :meth:`bins_of`, so production builds no per-node dict.
    """

    def __init__(self, high, bins_high, d_prime, p_prime, violates, last_bin) -> None:
        self.high = high
        self.bins_high = bins_high
        self.d_prime = d_prime
        self.p_prime = p_prime
        self.in_color_bin = bins_high != last_bin
        # Built in sorted-id order, as the per-node reference walks the
        # ids: the set's insertion order decides its iteration order,
        # which reaches the node order of the partition's MIS-path
        # extraction.
        self.violating_nodes: Set[NodeId] = set(high[violates].tolist())
        self._bin_of_node: Optional[Dict[NodeId, BinIndex]] = None
        self._in_bin_degree: Optional[Dict[NodeId, int]] = None
        self._in_bin_palette: Optional[Dict[NodeId, int]] = None

    @classmethod
    def from_arrays(cls, high, bins_high, d_prime, p_prime, violates, last_bin):
        """The outcome of the per-node arrays over the sorted high ids.

        ``high`` is the sorted int64 id array; ``bins_high``, ``d_prime``
        and ``p_prime`` are aligned int64 arrays and ``violates`` the
        Lemma 4.5 mask over it.
        """
        return cls(high, bins_high, d_prime, p_prime, violates, last_bin)

    @property
    def bin_of_node(self) -> Dict[NodeId, BinIndex]:
        if self._bin_of_node is None:
            self._bin_of_node = dict(zip(self.high.tolist(), self.bins_high.tolist()))
        return self._bin_of_node

    @property
    def in_bin_degree(self) -> Dict[NodeId, int]:
        if self._in_bin_degree is None:
            self._in_bin_degree = dict(zip(self.high.tolist(), self.d_prime.tolist()))
        return self._in_bin_degree

    @property
    def in_bin_palette(self) -> Dict[NodeId, int]:
        """``p'(v)`` of the nodes in a color bin."""
        if self._in_bin_palette is None:
            in_color_bin = self.in_color_bin
            self._in_bin_palette = dict(
                zip(self.high[in_color_bin].tolist(), self.p_prime[in_color_bin].tolist())
            )
        return self._in_bin_palette

    def bins_of(self, nodes):
        """The bins of ``nodes`` (an int64 array of high ids), aligned."""
        return self.bins_high[np.searchsorted(self.high, nodes)]

    @property
    def cost(self) -> float:
        return float(len(self.violating_nodes))


def node_level_outcome(
    graph: Graph,
    palettes: PaletteAssignment,
    high_degree_nodes: Set[NodeId],
    h1: HashFunction,
    h2: HashFunction,
    params: LowSpaceParameters,
    num_bins: int,
) -> NodeLevelOutcome:
    """Evaluate the Lemma 4.5 node-level conditions for a candidate pair.

    A high-degree node ``v`` violates the conditions if its in-bin degree
    exceeds ``d(v)/B`` by more than the concentration slack (so the degree
    would not shrink by the bin factor — the quantitative content of
    Lemma 4.5's ``d'(v) < 2 d(v) n^{-δ}``), or — for nodes in a color bin —
    if ``p'(v) <= d'(v)`` (not enough colors to keep the instance
    colorable).  The deterministic selection requires zero violations; this
    is the node-level aggregation of "no bad machines".
    """
    num_color_bins = max(1, num_bins - 1)
    last_bin = num_bins - 1
    bin_of_node: Dict[NodeId, BinIndex] = {
        node: h1(node % h1.domain_size) % num_bins for node in high_degree_nodes
    }
    color_bin_cache: Dict[Color, BinIndex] = {}

    def color_bin(color: Color) -> BinIndex:
        if color not in color_bin_cache:
            color_bin_cache[color] = h2(color % h2.domain_size) % num_color_bins
        return color_bin_cache[color]

    id_of, key_of = _key_maps(graph)
    high = sorted(high_degree_nodes)
    bins, in_bin_degree, in_bin_palette, violates = [], [], [], []
    for node in high:
        node_bin = bin_of_node[node]
        degree = graph.degree(id_of[node])
        d_prime = sum(
            1
            for neighbor in graph.iter_neighbors(id_of[node])
            if bin_of_node.get(key_of[neighbor], -1) == node_bin
        )
        slack = max(
            degree**DEGREE_SLACK_EXPONENT,
            params.degree_slack(params.machine_chunk(graph.num_nodes)),
        )
        threshold = degree / num_bins + slack
        violating = d_prime > threshold
        p_prime = 0
        if node_bin != last_bin:
            p_prime = sum(
                1 for color in palettes.palette(id_of[node]) if color_bin(color) == node_bin
            )
            violating = violating or p_prime <= d_prime
        bins.append(node_bin)
        in_bin_degree.append(d_prime)
        in_bin_palette.append(p_prime)
        violates.append(violating)
    return NodeLevelOutcome.from_arrays(
        np.array(high, dtype=np.int64),
        np.array(bins, dtype=np.int64),
        np.array(in_bin_degree, dtype=np.int64),
        np.array(in_bin_palette, dtype=np.int64),
        np.array(violates, dtype=bool),
        last_bin,
    )


class LowSpaceCostEvaluator(BatchCostEvaluatorBase):
    """Lemma 4.5 violation count with scalar reference and batched kernel.

    The scalar path (``__call__``) delegates to :func:`node_level_outcome`.
    The batched paths (:meth:`many`, :meth:`outcome_selected`) run the
    shared count kernels of
    :class:`repro.hashing.batch.BatchCostEvaluatorBase` over the
    high-degree nodes: the scored ``ids`` are the sorted high ids, the
    edge runs keep the edges with *both* endpoints high (neighbors outside
    the partition can never share a bin), and the palette entries are the
    high nodes'.  The per-node slack
    ``max(d(v)^0.6, degree_slack(machine_chunk))`` is precomputed with
    scalar Python ``pow``, once per distinct degree, so thresholds are
    bit-identical to the reference path.  Costs returned by the two paths
    are exactly equal (``tests/test_batch_kernels.py``).
    """

    _LIVE_ATTRS = ("graph", "palettes", "high_degree_nodes")

    def __init__(
        self,
        graph: Graph,
        palettes: PaletteAssignment,
        high_degree_nodes: Set[NodeId],
        params: LowSpaceParameters,
        num_bins: int,
    ) -> None:
        super().__init__()
        self.graph = graph
        self.palettes = palettes
        self.high_degree_nodes = high_degree_nodes
        self.params = params
        self.num_bins = num_bins

    def __call__(self, h1: HashFunction, h2: HashFunction) -> float:
        return node_level_outcome(
            self.graph,
            self.palettes,
            self.high_degree_nodes,
            h1,
            h2,
            self.params,
            self.num_bins,
        ).cost

    # -- batched paths --------------------------------------------------
    def _prepare(self) -> dict:
        """The prep layout over the high nodes, built from the CSR view.

        No per-node Python: the high nodes get ranks in sorted-id order,
        one endpoint mask keeps the directed edges with both endpoints
        high, and one int64 key sort by (source rank, target rank) lays
        them out as contiguous runs of ascending targets — the order of a
        per-node walk over the sorted high ids and their sorted neighbors
        (``tests/scalar_oracle.py`` keeps that walk as the reference).
        """
        csr = self.graph.csr()
        ids = node_id_array(csr)
        high_ids = np.sort(
            np.fromiter(
                self.high_degree_nodes, dtype=np.int64,
                count=len(self.high_degree_nodes),
            )
        )
        num_high = high_ids.shape[0]
        # Parent positions of the high nodes, in sorted-id order.
        by_id = np.argsort(ids, kind="stable")
        slots = np.searchsorted(ids, high_ids, sorter=by_id)
        found = slots < ids.shape[0]
        found[found] = ids[by_id[slots[found]]] == high_ids[found]
        if not bool(found.all()):
            missing = int(high_ids[np.argmin(found)])
            raise GraphError(f"unknown node {missing}")
        high_positions = by_id[slots]
        rank = np.full(csr.num_nodes, -1, dtype=np.int64)
        rank[high_positions] = np.arange(num_high, dtype=np.int64)
        source_rank = rank[csr.edge_sources]
        target_rank = rank[csr.indices]
        both_high = (source_rank >= 0) & (target_rank >= 0)
        # One int64 key sort orders the edges by (source rank, target rank).
        keys = np.sort(source_rank[both_high] * num_high + target_rank[both_high])
        edge_sources, edge_targets = np.divmod(keys, max(num_high, 1))
        edge_indptr = np.zeros(num_high + 1, dtype=np.int64)
        np.cumsum(np.bincount(edge_sources, minlength=num_high), out=edge_indptr[1:])
        chunk_slack = self.params.degree_slack(
            self.params.machine_chunk(self.graph.num_nodes)
        )
        degrees = csr.degrees[high_positions].astype(np.int64, copy=False)
        # Scalar pow, once per distinct degree, keeps thresholds
        # bit-identical to the reference path (vectorized libm pow may
        # round differently).
        distinct, inverse = np.unique(degrees, return_inverse=True)
        slack = np.array(
            [max(degree**DEGREE_SLACK_EXPONENT, chunk_slack) for degree in distinct.tolist()],
            dtype=np.float64,
        )[inverse]
        return {
            "csr": csr,
            "ids": high_ids,
            "edge_sources": edge_sources,
            "edge_targets": edge_targets,
            "edge_indptr": edge_indptr,
            **self.palette_entry_arrays(self.palettes, csr.ids_at(high_positions)),
            "num_bins": self.num_bins,
            "num_color_bins": max(1, self.num_bins - 1),
            "threshold": degrees / self.num_bins + slack,
        }

    @staticmethod
    def _violations(prep: dict, bins, d_prime, p_prime):
        """The Lemma 4.5 violation mask, elementwise (one pair's vectors or
        a slab's rows): ``d'(v)`` above its threshold, or — in a color bin
        — ``p'(v) <= d'(v)``."""
        violating = d_prime > prep["threshold"]
        violating |= (bins != prep["num_bins"] - 1) & (p_prime <= d_prime)
        return violating

    def _slab_costs(self, prep: dict, bins1, d_prime, p_prime):
        return self._violations(prep, bins1, d_prime, p_prime).sum(axis=1)

    # -- node-level outcome for the selected pair -----------------------
    def outcome_selected(
        self, h1: HashFunction, h2: HashFunction, scorer=None,
        precomputed_counts=None,
    ) -> NodeLevelOutcome:
        """Full :class:`NodeLevelOutcome` for the winning pair.

        The selected pair's pass over the static arrays the selection
        scored its candidates on (:meth:`_selected_pass` — the head
        probe's kept pass when the head won); no adjacency or palette is
        walked again.  ``scorer`` (the selection's
        :class:`repro.parallel.executor.ParallelSlabScorer`) shards the
        counts by node range across the pool, and ``precomputed_counts``
        passes the ``(d', p')`` the segmented level pass
        (:mod:`repro.core.level`) already computed; the counts are the
        same integers either way.  Bit-identical to the scalar
        :func:`node_level_outcome`.
        """
        prep, node_bins, _, d_prime, p_prime, _ = self._selected_pass(
            h1, h2, scorer, precomputed_counts
        )
        bins = node_bins.astype(np.int64)
        return NodeLevelOutcome.from_arrays(
            prep["ids"],
            bins,
            d_prime,
            p_prime,
            self._violations(prep, bins, d_prime, p_prime),
            prep["num_bins"] - 1,
        )

def low_space_cost_function(
    graph: Graph,
    palettes: PaletteAssignment,
    high_degree_nodes: Set[NodeId],
    params: LowSpaceParameters,
    num_bins: int,
) -> PairCost:
    """The selection cost: number of nodes violating the Lemma 4.5 conditions.

    Using the node-level aggregation keeps each cost evaluation linear in the
    instance size; the machine-level count of Equation (2) proper is not
    computed (see the module docstring).  The returned :class:`LowSpaceCostEvaluator` is a
    plain ``(h1, h2) -> float`` callable that additionally exposes a
    batched ``many`` method for the vectorized selection path.
    """
    return LowSpaceCostEvaluator(graph, palettes, high_degree_nodes, params, num_bins)
