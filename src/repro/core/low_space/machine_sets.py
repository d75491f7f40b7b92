"""Machine groups ``M_v^N`` / ``M_v^C`` and Definition 4.1 classification.

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

This module materialises the chunking deterministically (sorted neighbor /
palette lists split into equal chunks) and classifies machines for a
candidate hash pair; it also derives the node-level consequences used by
Lemma 4.5 (``d'(v) < 2 d(v) n^{-δ}`` and ``d'(v) < p'(v)``).

As in :mod:`repro.core.classification`, the selection cost has two
implementations: the per-node scalar reference (:func:`node_level_outcome`)
and the batched :class:`LowSpaceCostEvaluator` built on the vectorized hash
kernels — bit-identical by construction and by test, so the derandomized
selection may score candidate batches as matrix computations.  The
*selected* pair's full node-level outcome has the same split:
:func:`node_level_outcome_batch` computes the reference
:class:`NodeLevelOutcome` from the CSR view.  ``LowSpacePartition.run``
always takes the array form (:meth:`LowSpaceCostEvaluator.outcome_selected`);
:func:`node_level_outcome` is the scalar reference the differential tests
reroute it to (``tests/scalar_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

from repro.core.low_space.params import LowSpaceParameters
from repro.derand.cost import PairCost
from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment
from repro.hashing.batch import BatchCostEvaluatorBase
from repro.hashing.family import HashFunction
from repro.types import BinIndex, Color, NodeId


@dataclass
class MachineChunk:
    """One machine's share of a node's neighbors or palette."""

    node: NodeId
    kind: str  # "neighbors" or "colors"
    items: Sequence[int]
    in_bin_count: int = 0
    is_good: bool = True


@dataclass
class MachineClassification:
    """All machine chunks of one ``LowSpacePartition`` attempt."""

    chunks: List[MachineChunk] = field(default_factory=list)
    bad_machines: int = 0
    node_in_bin_degree: Dict[NodeId, int] = field(default_factory=dict)
    node_in_bin_palette: Dict[NodeId, int] = field(default_factory=dict)

    @property
    def cost(self) -> float:
        """Equation (2): the number of bad machines."""
        return float(self.bad_machines)


def split_into_chunks(items: Sequence[int], chunk_size: int) -> List[Sequence[int]]:
    """Split ``items`` into chunks of between ``chunk_size`` and
    ``2 * chunk_size`` items (the paper's machine loads).

    The last chunk absorbs the remainder so no chunk is smaller than
    ``chunk_size`` (unless the whole list is shorter than that).
    """
    if chunk_size < 1:
        chunk_size = 1
    if len(items) <= 2 * chunk_size:
        return [items] if items else []
    chunks: List[Sequence[int]] = []
    index = 0
    while len(items) - index > 2 * chunk_size:
        chunks.append(items[index : index + chunk_size])
        index += chunk_size
    chunks.append(items[index:])
    return chunks


def classify_machines(
    graph: Graph,
    palettes: PaletteAssignment,
    high_degree_nodes: Set[NodeId],
    h1: HashFunction,
    h2: HashFunction,
    params: LowSpaceParameters,
    num_bins: int,
) -> MachineClassification:
    """Classify every machine chunk for a candidate ``(h1, h2)`` pair.

    Only the *high-degree* nodes (those not moved to ``G_0``) participate in
    the partition; chunks are built for their neighbor lists, and — for nodes
    whose bin is a color bin — for their palettes.
    """
    chunk_size = params.machine_chunk(graph.num_nodes)
    num_color_bins = max(1, num_bins - 1)
    last_bin = num_bins - 1
    degree_slack_exp = params.degree_slack_exponent
    palette_slack_exp = params.palette_slack_exponent

    bin_of_node: Dict[NodeId, BinIndex] = {
        node: h1(node % h1.domain_size) % num_bins for node in high_degree_nodes
    }
    color_bin_cache: Dict[Color, BinIndex] = {}

    def color_bin(color: Color) -> BinIndex:
        if color not in color_bin_cache:
            color_bin_cache[color] = h2(color % h2.domain_size) % num_color_bins
        return color_bin_cache[color]

    result = MachineClassification()
    for node in high_degree_nodes:
        node_bin = bin_of_node[node]
        neighbors = sorted(graph.iter_neighbors(node))
        in_bin_degree = 0
        for chunk_items in split_into_chunks(neighbors, chunk_size):
            in_bin = sum(
                1
                for neighbor in chunk_items
                if bin_of_node.get(neighbor, -1) == node_bin
            )
            in_bin_degree += in_bin
            expectation = len(chunk_items) / num_bins
            slack = max(len(chunk_items), 1) ** degree_slack_exp
            good = abs(in_bin - expectation) <= slack
            chunk = MachineChunk(
                node=node, kind="neighbors", items=chunk_items, in_bin_count=in_bin, is_good=good
            )
            result.chunks.append(chunk)
            if not good:
                result.bad_machines += 1
        result.node_in_bin_degree[node] = in_bin_degree

        if node_bin != last_bin:
            palette = sorted(palettes.palette(node))
            in_bin_palette = 0
            for chunk_items in split_into_chunks(palette, chunk_size):
                in_bin = sum(1 for color in chunk_items if color_bin(color) == node_bin)
                in_bin_palette += in_bin
                # Definition 4.1, literally: p'(x) > p(x) n^{-delta} + p(x)^0.7.
                # With laptop-scale chunk sizes this condition is frequently
                # unsatisfiable (the slack term dominates the chunk), so the
                # scaled-mode selection uses the node-level Lemma 4.5
                # conditions instead; this classification is the diagnostic
                # the E5 experiment reports.
                expectation = len(chunk_items) / num_bins
                slack = max(len(chunk_items), 1) ** palette_slack_exp
                good = in_bin > expectation + slack
                chunk = MachineChunk(
                    node=node, kind="colors", items=chunk_items, in_bin_count=in_bin, is_good=good
                )
                result.chunks.append(chunk)
                if not good:
                    result.bad_machines += 1
            result.node_in_bin_palette[node] = in_bin_palette
    return result


@dataclass
class NodeLevelOutcome:
    """Node-level consequences of a candidate pair (Lemma 4.5)."""

    bin_of_node: Dict[NodeId, BinIndex]
    in_bin_degree: Dict[NodeId, int]
    in_bin_palette: Dict[NodeId, int]
    violating_nodes: Set[NodeId] = field(default_factory=set)

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

    in_bin_degree: Dict[NodeId, int] = {}
    in_bin_palette: Dict[NodeId, int] = {}
    violating: Set[NodeId] = set()
    for node in high_degree_nodes:
        node_bin = bin_of_node[node]
        degree = graph.degree(node)
        d_prime = sum(
            1
            for neighbor in graph.iter_neighbors(node)
            if bin_of_node.get(neighbor, -1) == node_bin
        )
        in_bin_degree[node] = d_prime
        slack = max(
            degree**0.6, params.degree_slack(params.machine_chunk(graph.num_nodes))
        )
        threshold = degree / num_bins + slack
        if d_prime > threshold:
            violating.add(node)
        if node_bin != last_bin:
            p_prime = sum(1 for color in palettes.palette(node) if color_bin(color) == node_bin)
            in_bin_palette[node] = p_prime
            if p_prime <= d_prime:
                violating.add(node)
    return NodeLevelOutcome(
        bin_of_node=bin_of_node,
        in_bin_degree=in_bin_degree,
        in_bin_palette=in_bin_palette,
        violating_nodes=violating,
    )


def node_level_outcome_batch(
    graph: Graph,
    palettes: PaletteAssignment,
    high_degree_nodes: Set[NodeId],
    h1: HashFunction,
    h2: HashFunction,
    params: LowSpaceParameters,
    num_bins: int,
    color_arrays=None,
) -> NodeLevelOutcome:
    """Batched :func:`node_level_outcome` for the *selected* hash pair.

    The low-space selection scores candidates through the batched
    :class:`LowSpaceCostEvaluator`, but the winning pair still needs the
    full :class:`NodeLevelOutcome` (bins, in-bin degrees/palettes, the
    violating set) — previously a per-node walk over Python adjacency and
    palette sets.  This standalone form is a thin wrapper: it builds a
    fresh :class:`LowSpaceCostEvaluator` and runs its
    :meth:`~LowSpaceCostEvaluator.outcome_selected` pass, so there is
    exactly one array pipeline to keep bit-identical to the scalar
    reference.  ``color_arrays`` may pass a precomputed
    ``(sorted universe, color bins)`` pair (see
    :func:`repro.core.classification.color_bin_arrays`) covering at least
    the high nodes' palette colors, so a caller combining classification
    with palette restriction hashes each color only once.
    ``LowSpacePartition.run`` calls ``outcome_selected`` directly on the
    evaluator that drove the selection, reusing its warm static arrays.
    """
    evaluator = LowSpaceCostEvaluator(
        graph, palettes, high_degree_nodes, params, num_bins
    )
    return evaluator.outcome_selected(h1, h2, color_arrays=color_arrays)


def _outcome_from_arrays(high, bins_high, d_prime, p_prime, threshold, last_bin):
    """Assemble a :class:`NodeLevelOutcome` from the per-node arrays.

    Shared final step of :func:`node_level_outcome_batch` and
    :meth:`LowSpaceCostEvaluator.outcome_selected`; plain-list element
    access keeps the (unavoidable) per-node dict construction cheap.
    """
    degree_violation = d_prime > threshold
    in_color_bin = bins_high != last_bin
    palette_violation = in_color_bin & (p_prime <= d_prime)

    in_bin_degree: Dict[NodeId, int] = {}
    in_bin_palette: Dict[NodeId, int] = {}
    violating: Set[NodeId] = set()
    bin_of_node: Dict[NodeId, BinIndex] = {}
    rows = zip(
        high,
        bins_high.tolist(),
        d_prime.tolist(),
        p_prime.tolist(),
        in_color_bin.tolist(),
        (degree_violation | palette_violation).tolist(),
    )
    for node, node_bin, degree_in_bin, palette_in_bin, in_color, violates in rows:
        bin_of_node[node] = node_bin
        in_bin_degree[node] = degree_in_bin
        if in_color:
            in_bin_palette[node] = palette_in_bin
        if violates:
            violating.add(node)
    return NodeLevelOutcome(
        bin_of_node=bin_of_node,
        in_bin_degree=in_bin_degree,
        in_bin_palette=in_bin_palette,
        violating_nodes=violating,
    )


class LowSpaceCostEvaluator(BatchCostEvaluatorBase):
    """Lemma 4.5 violation count with scalar reference and batched kernel.

    The scalar path (``__call__``) delegates to :func:`node_level_outcome`;
    :meth:`many` (inherited scaffolding from
    :class:`repro.hashing.batch.BatchCostEvaluatorBase`) scores a batch of
    candidate pairs with the same vectorized recipe as
    :class:`repro.core.classification.PartitionCostEvaluator`,
    restricted to the high-degree nodes: a ``(S, H)`` node-bin matrix, a
    ``(S, U)`` color-bin matrix over the high nodes' palette universe, and
    two gather + ``reduceat`` segment sums for in-bin degrees (edges with
    *both* endpoints high — neighbors outside the partition can never share
    a bin) and in-bin palette counts.  The per-node slack
    ``max(d(v)^0.6, degree_slack(machine_chunk))`` is precomputed with
    scalar Python ``pow`` so thresholds are bit-identical to the reference
    path.  Costs returned by the two paths are exactly equal
    (``tests/test_batch_kernels.py``).
    """

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

    # -- node-level outcome for the selected pair -----------------------
    def outcome_selected(
        self, h1: HashFunction, h2: HashFunction, color_arrays=None, scorer=None,
        precomputed_counts=None,
    ) -> NodeLevelOutcome:
        """Full :class:`NodeLevelOutcome` for the winning pair, from prep.

        The post-selection counterpart of :meth:`many`: one more pass over
        the same static arrays ``_prepare`` built for the candidate batches
        (high-high edge lists, flattened palette entries, per-node
        thresholds) — no adjacency or palette is walked again.
        ``color_arrays`` may pass the full-universe
        ``(sorted universe, color bins)`` pair
        (:func:`repro.core.classification.color_bin_arrays`) that the
        caller also feeds the palette restriction, in which case the high
        nodes' color bins are looked up there instead of hashed a second
        time.  Bit-identical to the scalar :func:`node_level_outcome`.

        ``scorer`` may pass the selection's
        :class:`repro.parallel.executor.ParallelSlabScorer`: the per-node
        count vectors are then sharded across the worker pool
        (:meth:`phase_shard`) instead of computed serially — the shards
        produce the same integers, so the outcome is bit-identical.
        """
        import numpy as np

        from repro.graph.palettes import color_bins_of_entries

        prep = self._prep
        if prep is None or self._prep_is_stale(prep):
            prep = self._prepare()
        num_color_bins = max(1, self.num_bins - 1)
        last_bin = self.num_bins - 1
        high = prep["high"]
        num_high = len(high)
        bins_high = (np.asarray(h1.hash_many(high)) % self.num_bins).astype(
            np.int64, copy=False
        )
        if precomputed_counts is not None:
            # (d', p') computed elsewhere over the same sorted-high order —
            # e.g. the segmented cross-bin level pass (repro.core.level).
            return _outcome_from_arrays(
                high,
                bins_high,
                np.asarray(precomputed_counts[0], dtype=np.int64),
                np.asarray(precomputed_counts[1], dtype=np.int64),
                prep["threshold"],
                last_bin,
            )
        if scorer is not None:
            parts = scorer.phase_values("outcome", h1, h2, num_high, 2)
            if parts is not None:
                return _outcome_from_arrays(
                    high,
                    bins_high,
                    np.asarray(parts[0], dtype=np.int64),
                    np.asarray(parts[1], dtype=np.int64),
                    prep["threshold"],
                    last_bin,
                )
        same_bin = bins_high[prep["edge_sources"]] == bins_high[prep["edge_targets"]]
        d_prime = np.bincount(
            prep["edge_sources"][same_bin], minlength=num_high
        ).astype(np.int64, copy=False)
        universe = prep["universe"]
        if not universe:
            universe_bins = np.zeros(0, dtype=np.int64)
        elif color_arrays is not None:
            full_universe, full_bins = color_arrays
            universe_bins = color_bins_of_entries(
                np, full_universe, full_bins,
                np.asarray(universe, dtype=np.int64),
            )
        else:
            universe_bins = (np.asarray(h2.hash_many(universe)) % num_color_bins).astype(
                np.int64, copy=False
            )
        entry_bins = universe_bins[prep["entry_colors"]]
        entry_match = entry_bins == bins_high[prep["entry_nodes"]]
        p_prime = np.bincount(
            prep["entry_nodes"][entry_match], minlength=num_high
        ).astype(np.int64, copy=False)
        return _outcome_from_arrays(
            high, bins_high, d_prime, p_prime, prep["threshold"], last_bin
        )

    # -- zero-copy transport --------------------------------------------
    def shared_payload(self):
        """Static arrays + scalar state for the shm evaluator envelope, or
        ``None`` (pickle fallback) when node ids or palette colors do not
        fit ``int64``."""
        prep = self._prep
        if prep is None or self._prep_is_stale(prep):
            prep = self._prepare()
        np = prep["np"]
        try:
            high = np.asarray(prep["high"], dtype=np.int64)
            universe = np.asarray(prep["universe"], dtype=np.int64)
        except (OverflowError, TypeError, ValueError):
            return None
        state = {"params": self.params, "num_bins": self.num_bins}
        arrays = {
            "high": high,
            "universe": universe,
            "edge_sources": prep["edge_sources"],
            "edge_targets": prep["edge_targets"],
            "edge_indptr": prep["edge_indptr"],
            "entry_nodes": prep["entry_nodes"],
            "entry_colors": prep["entry_colors"],
            "entry_indptr": prep["entry_indptr"],
            "threshold": prep["threshold"],
        }
        return state, arrays

    @classmethod
    def from_shared_payload(cls, state, arrays):
        """Worker-side rebuild over attached segment views (zero copies).

        No live graph or palettes — only the prep arrays the batched
        kernels (:meth:`_many_slab`, :meth:`phase_shard`) read; the
        ``float64`` threshold vector crosses bit-exactly, so worker-side
        comparisons match the parent's.
        """
        import numpy as np

        evaluator = cls.__new__(cls)
        evaluator.graph = None
        evaluator.palettes = None
        evaluator.high_degree_nodes = None
        evaluator.params = state["params"]
        evaluator.num_bins = state["num_bins"]
        evaluator._prep = {
            "np": np,
            "_shared": True,
            "graph_signature": None,
            "high": arrays["high"].tolist(),
            "universe": arrays["universe"].tolist(),
            "edge_sources": arrays["edge_sources"],
            "edge_targets": arrays["edge_targets"],
            "edge_indptr": arrays["edge_indptr"],
            "entry_nodes": arrays["entry_nodes"],
            "entry_colors": arrays["entry_colors"],
            "entry_indptr": arrays["entry_indptr"],
            "threshold": arrays["threshold"],
            "node_xs_cache": {},
            "color_xs_cache": {},
        }
        return evaluator

    def phase_shard(
        self, phase: str, h1: HashFunction, h2: HashFunction, start: int, stop: int
    ) -> List[float]:
        """In-bin degree and in-bin palette counts for high nodes
        ``[start, stop)``, concatenated (``outcome`` phase).

        The high-high edge runs and palette-entry runs of a node range are
        contiguous (both indptr-indexed), so a shard touches exactly its
        own edges/entries and its bincounts reproduce the serial pass's
        integers for those nodes.
        """
        if phase != "outcome":
            raise ValueError(f"LowSpaceCostEvaluator has no phase {phase!r}")
        prep = self._prep
        if prep is None or (not prep.get("_shared") and self._prep_is_stale(prep)):
            prep = self._prepare()
        np = prep["np"]
        num_color_bins = max(1, self.num_bins - 1)
        bins_high = (np.asarray(h1.hash_many(prep["high"])) % self.num_bins).astype(
            np.int64, copy=False
        )
        lo, hi = int(prep["edge_indptr"][start]), int(prep["edge_indptr"][stop])
        sources = prep["edge_sources"][lo:hi]
        same_bin = bins_high[sources] == bins_high[prep["edge_targets"][lo:hi]]
        d_prime = np.bincount(sources[same_bin] - start, minlength=stop - start)
        universe = prep["universe"]
        universe_bins = (
            (np.asarray(h2.hash_many(universe)) % num_color_bins).astype(
                np.int64, copy=False
            )
            if len(universe)
            else np.zeros(0, dtype=np.int64)
        )
        elo = int(prep["entry_indptr"][start])
        ehi = int(prep["entry_indptr"][stop])
        owners = prep["entry_nodes"][elo:ehi]
        entry_match = universe_bins[prep["entry_colors"][elo:ehi]] == bins_high[owners]
        p_prime = np.bincount(owners[entry_match] - start, minlength=stop - start)
        return d_prime.tolist() + p_prime.tolist()

    def _prepare(self):
        import numpy as np

        high = sorted(self.high_degree_nodes)
        position = {node: index for index, node in enumerate(high)}
        edge_sources: List[int] = []
        edge_targets: List[int] = []
        edge_indptr = np.zeros(len(high) + 1, dtype=np.int64)
        for index, node in enumerate(high):
            for neighbor in sorted(self.graph.iter_neighbors(node)):
                other = position.get(neighbor)
                if other is not None:
                    edge_sources.append(index)
                    edge_targets.append(other)
            edge_indptr[index + 1] = len(edge_sources)
        # Palette entries and universe for the high nodes come from the
        # assignment's shared array store (one gather + unique instead of a
        # per-color Python loop; sets-backed fallback for colors beyond
        # int64) — see BatchCostEvaluatorBase.palette_entry_arrays.
        entries = self.palette_entry_arrays(self.palettes, high)
        chunk_slack = self.params.degree_slack(
            self.params.machine_chunk(self.graph.num_nodes)
        )
        # Scalar pow per node keeps thresholds bit-identical to the
        # reference path (vectorized libm pow may round differently).
        slack = np.fromiter(
            (
                max(self.graph.degree(node) ** 0.6, chunk_slack)
                for node in high
            ),
            dtype=np.float64,
            count=len(high),
        )
        degrees = np.fromiter(
            (self.graph.degree(node) for node in high), dtype=np.int64, count=len(high)
        )
        self._prep = {
            "np": np,
            # Graph mutations are additive only (add_node/add_edge), so the
            # (nodes, edges) pair detects any change since the arrays were
            # built — mirroring PartitionCostEvaluator's CSR-identity guard.
            "graph_signature": (self.graph.num_nodes, self.graph.num_edges),
            "high": high,
            "universe": entries["universe"],
            "edge_sources": np.asarray(edge_sources, dtype=np.int64),
            "edge_targets": np.asarray(edge_targets, dtype=np.int64),
            "edge_indptr": edge_indptr,
            "entry_nodes": entries["entry_nodes"],
            "entry_colors": entries["entry_positions"],
            "entry_indptr": entries["indptr"],
            "threshold": degrees / self.num_bins + slack,
            "node_xs_cache": {},
            "color_xs_cache": {},
        }
        return self._prep

    def _prep_is_stale(self, prep) -> bool:
        # Graph mutated since the arrays were built: follow the live state.
        return prep["graph_signature"] != (self.graph.num_nodes, self.graph.num_edges)

    def _slab_entries(self, prep) -> int:
        return max(
            1,
            len(prep["entry_nodes"]),
            len(prep["edge_sources"]),
            len(prep["universe"]),
            len(prep["high"]),
        )

    def _many_slab(self, pairs, prep) -> List[float]:
        from repro.hashing import batch as hb

        num_color_bins = max(1, self.num_bins - 1)
        last_bin = self.num_bins - 1
        bins1, bins2 = self._slab_bin_matrices(
            pairs, prep, self.num_bins, num_color_bins, prep["high"], prep["universe"]
        )

        same_bin = bins1[:, prep["edge_sources"]] == bins1[:, prep["edge_targets"]]
        d_prime = hb.segment_sum_rows(same_bin, prep["edge_indptr"])
        entry_match = bins2[:, prep["entry_colors"]] == bins1[:, prep["entry_nodes"]]
        p_prime = hb.segment_sum_rows(entry_match, prep["entry_indptr"])

        violating = d_prime > prep["threshold"]
        violating |= (bins1 != last_bin) & (p_prime <= d_prime)
        return [float(value) for value in violating.sum(axis=1)]


def low_space_cost_function(
    graph: Graph,
    palettes: PaletteAssignment,
    high_degree_nodes: Set[NodeId],
    params: LowSpaceParameters,
    num_bins: int,
) -> PairCost:
    """The selection cost: number of nodes violating the Lemma 4.5 conditions.

    Using the node-level aggregation keeps each cost evaluation linear in the
    instance size; the machine-level classification (Equation (2) proper) is
    available via :func:`classify_machines` and is what the low-space
    experiments report.  The returned :class:`LowSpaceCostEvaluator` is a
    plain ``(h1, h2) -> float`` callable that additionally exposes a
    batched ``many`` method for the vectorized selection path.
    """
    return LowSpaceCostEvaluator(graph, palettes, high_degree_nodes, params, num_bins)
