"""Good/bad nodes and bins (Definition 3.1) and the selection cost function.

``Partition`` hashes nodes into ``B`` bins with ``h1`` and colors into bins
``1..B-1`` with ``h2``.  Definition 3.1 then calls a node *good* when its
in-bin degree and in-bin palette size are close to their expectations, and a
bin *good* when it is not overfull.  The derandomized hash selection
minimises the cost function of Equation (1),

    q(h1, h2) = |bad nodes| + n * |bad bins|,

which Lemma 3.8 bounds in expectation by ``n / l^2``.

This module computes the classification for a concrete ``(h1, h2)`` pair and
exposes the cost function used by :class:`repro.derand.HashPairSelector`.

Two implementations of the cost coexist, by design:

* :func:`classify_partition` — the per-node dataclass path.  It is the
  *reference implementation*: readable, audited against Definition 3.1, and
  the one that builds the actual :class:`PartitionClassification` for the
  selected pair.
* :class:`PartitionCostEvaluator` (returned by
  :func:`partition_cost_function`) — scores *batches* of candidate pairs as
  a handful of NumPy array operations over the graph's CSR view
  (:mod:`repro.graph.csr`) and the vectorized hash kernels
  (:mod:`repro.hashing.batch`): in-bin degrees, bin sizes and in-bin
  palette counts all become ``np.bincount`` scatters.
* :func:`classify_partition_batch` — the batched form of the *final*
  classification for the pair the selection settled on (one row instead of
  a candidate batch), producing the same :class:`PartitionClassification`
  object as the reference.  ``Partition.run`` always takes its fused form,
  :meth:`PartitionCostEvaluator.classify_selected`.

Substitution rule: the batched paths return **bit-identical** results to
the scalar ones for every pair (same integer counts, same IEEE-754
comparisons in the same order).  Production runs only the batched paths;
the scalar reference stays as the evaluator's single-pair ``__call__`` and
as the test oracle (``tests/scalar_oracle.py`` reroutes ``Partition.run``
to :func:`classify_partition` + :func:`color_bin_map`).
``tests/test_batch_kernels.py`` and ``tests/test_final_classification.py``
assert the equivalence, including identical selected seeds and colorings
end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.params import ColorReduceParameters
from repro.derand.cost import PairCost
from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment, color_bins_of_entries
from repro.hashing.batch import BatchCostEvaluatorBase
from repro.hashing.family import HashFunction
from repro.types import BinIndex, Color, NodeId


@dataclass
class NodeClassification:
    """Per-node view of one partition attempt."""

    node: NodeId
    bin_index: BinIndex
    degree: int
    in_bin_degree: int
    palette_size: int
    in_bin_palette_size: Optional[int]
    is_good: bool
    reason: str = ""


@dataclass
class PartitionClassification:
    """The full outcome of classifying a ``(h1, h2)`` pair on an instance.

    ``bin_of_node`` uses bins ``0..B-1``; bin ``B-1`` is the paper's last bin
    (the one that receives no colors), and bins ``0..B-2`` are the color
    bins.  Bad nodes are listed separately and belong to no bin's recursive
    instance (they form the graph ``G_0``).
    """

    num_bins: int
    bin_of_node: Dict[NodeId, BinIndex]
    nodes: Dict[NodeId, NodeClassification]
    bad_nodes: Set[NodeId] = field(default_factory=set)
    bad_bins: Set[BinIndex] = field(default_factory=set)
    bin_sizes: Dict[BinIndex, int] = field(default_factory=dict)

    @property
    def num_bad_nodes(self) -> int:
        return len(self.bad_nodes)

    @property
    def num_bad_bins(self) -> int:
        return len(self.bad_bins)

    def good_nodes_in_bin(self, bin_index: BinIndex) -> List[NodeId]:
        """Good nodes assigned to ``bin_index`` (the recursive instance)."""
        return [
            node
            for node, assigned in self.bin_of_node.items()
            if assigned == bin_index and node not in self.bad_nodes
        ]

    def cost(self, global_nodes: int) -> float:
        """Equation (1): ``|bad nodes| + n * |bad bins|``."""
        return float(self.num_bad_nodes + global_nodes * self.num_bad_bins)


def color_bin_map(
    palettes: PaletteAssignment, h2: HashFunction, num_color_bins: int
) -> Dict[Color, BinIndex]:
    """Hash every color of the palette universe to a color bin.

    Computing this map once per candidate ``h2`` (rather than hashing each
    palette entry separately) keeps the cost-function evaluation linear in
    the universe size plus the number of palette entries.
    """
    universe = palettes.color_universe()
    return {color: h2(color % h2.domain_size) % num_color_bins for color in universe}


def color_bin_arrays(
    palettes: PaletteAssignment, h2: HashFunction, num_color_bins: int
):
    """Vectorized :func:`color_bin_map`: ``(universe, bins)`` as arrays.

    Returns the *sorted* color universe as an int64 array of shape ``(U,)``
    and an aligned int64 array of the bins ``h2`` maps each color to —
    entry-for-entry equal to the scalar ``color_bin_map`` dict (the hash
    kernel is bit-identical, see :mod:`repro.hashing.batch`).  One
    :func:`~repro.hashing.batch.hash_many` call replaces ``U`` scalar
    polynomial evaluations; the pair feeds both the batched final
    classification (:func:`classify_partition_batch`) and the vectorized
    palette restriction
    (:meth:`repro.graph.palettes.PaletteAssignment.restricted_by_bins`), so
    the selected pair's color hashes are computed exactly once per
    ``Partition`` call.
    """
    import numpy as np

    store = palettes._store_if_warm()
    if store is not None:
        # The assignment's array store caches its sorted unique colors:
        # identical to sorted(color_universe()) with no per-palette union.
        universe = store.universe()
    else:
        universe = np.asarray(sorted(palettes.color_universe()), dtype=np.int64)
    if universe.shape[0] == 0:
        return universe, np.zeros(0, dtype=np.int64)
    bins = np.asarray(h2.hash_many(universe.tolist())) % num_color_bins
    return universe, bins.astype(np.int64, copy=False)


def classify_partition(
    graph: Graph,
    palettes: PaletteAssignment,
    h1: HashFunction,
    h2: HashFunction,
    params: ColorReduceParameters,
    ell: float,
    global_nodes: int,
) -> PartitionClassification:
    """Classify every node and bin for a candidate hash pair.

    Implements Definition 3.1 with the parameterized slacks of
    :class:`ColorReduceParameters`:

    * a node ``v`` in a color bin is good iff
      ``|d'(v) - d(v)/B| <= degree_slack`` and
      ``p'(v) >= p(v)/B + palette_slack``;
    * a node in the last bin is good iff the degree condition holds
      (its palette is only updated later, cf. the paper's definition of
      ``p'`` for bin ``l^0.1``);
    * a bin is good iff it has fewer than ``2 n_G / B + n^0.6`` nodes.

    When ``params.enforce_palette_surplus`` is set, a color-bin node whose
    restricted palette is not strictly larger than its in-bin degree is also
    marked bad (guaranteeing the recursive instance stays colorable even in
    scaled mode).
    """
    num_bins = params.num_bins(ell)
    num_color_bins = max(1, num_bins - 1)
    degree_slack = params.degree_slack(ell)
    palette_slack = params.palette_slack(ell)
    instance_nodes = graph.num_nodes
    # The quantitative palette-surplus condition of Definition 3.1 relies on
    # the margin p/B(B-1) between the expected in-bin palette share and the
    # p/B reference, which dominates the slack only in the paper's parameter
    # regime (B = l^0.1, so p > l >= B^10).  In scaled mode, or once the bin
    # count has been clamped at laptop-scale degrees, that margin is not
    # guaranteed, so the classification keeps only the conditions that drive
    # correctness (palette strictly exceeds in-bin degree, enforced below)
    # and degree reduction.
    literal_palette_condition = not params.is_scaled and not params.bins_are_clamped(ell)

    bin_of_node: Dict[NodeId, BinIndex] = {
        node: h1(node % h1.domain_size) % num_bins for node in graph.nodes()
    }
    color_bins = color_bin_map(palettes, h2, num_color_bins)

    bin_sizes: Dict[BinIndex, int] = {index: 0 for index in range(num_bins)}
    for node_bin in bin_of_node.values():
        bin_sizes[node_bin] += 1

    bin_cap = params.bin_cap(ell, instance_nodes, global_nodes)
    bad_bins = {index for index, size in bin_sizes.items() if size >= bin_cap}

    classification = PartitionClassification(
        num_bins=num_bins,
        bin_of_node=bin_of_node,
        nodes={},
        bad_bins=bad_bins,
        bin_sizes=bin_sizes,
    )

    last_bin = num_bins - 1
    for node in graph.nodes():
        node_bin = bin_of_node[node]
        degree = graph.degree(node)
        in_bin_degree = sum(
            1
            for neighbor in graph.iter_neighbors(node)
            if bin_of_node[neighbor] == node_bin
        )
        palette_size = palettes.palette_size(node)
        expected_in_bin_degree = degree / num_bins

        reason = ""
        good = True
        in_bin_palette: Optional[int] = None
        if abs(in_bin_degree - expected_in_bin_degree) > degree_slack:
            good = False
            reason = "degree deviation"
        if node_bin != last_bin:
            in_bin_palette = sum(
                1 for color in palettes.palette(node) if color_bins[color] == node_bin
            )
            if (
                good
                and literal_palette_condition
                and in_bin_palette < palette_size / num_bins + palette_slack
            ):
                good = False
                reason = "palette shortfall"
            if (
                good
                and params.enforce_palette_surplus
                and in_bin_palette <= in_bin_degree
            ):
                good = False
                reason = "palette does not exceed in-bin degree"

        classification.nodes[node] = NodeClassification(
            node=node,
            bin_index=node_bin,
            degree=degree,
            in_bin_degree=in_bin_degree,
            palette_size=palette_size,
            in_bin_palette_size=in_bin_palette,
            is_good=good,
            reason=reason,
        )
        if not good:
            classification.bad_nodes.add(node)

    return classification


def _classify_partition_arrays(
    graph: Graph,
    palettes: PaletteAssignment,
    h1: HashFunction,
    h2: HashFunction,
    params: ColorReduceParameters,
    ell: float,
    global_nodes: int,
    color_arrays,
    collect_restricted: bool,
    prep=None,
    precomputed_counts=None,
):
    """Shared array pipeline behind the batched classification entry points
    (:func:`classify_partition_batch` / :func:`classify_and_restrict_batch`
    / :meth:`PartitionCostEvaluator.classify_selected`); see their
    docstrings.

    ``prep`` may pass a fresh :class:`PartitionCostEvaluator` prep dict, in
    which case the palette-entry arrays the selection already built (flat
    entry owners, universe positions, palette sizes) are reused and no
    palette is flattened again.

    ``precomputed_counts`` may pass ``(in_bin_degree, in_bin_palette)``
    int64 arrays already reassembled from the parallel pool's phase shards
    (:meth:`PartitionCostEvaluator.phase_shard`); the per-edge compare and
    the bincounts — the O(m) half of this pass — are then skipped.  The
    shards compute the identical integers, so the classification is
    bit-identical either way.
    """
    import numpy as np

    num_bins = params.num_bins(ell)
    num_color_bins = max(1, num_bins - 1)
    degree_slack = params.degree_slack(ell)
    palette_slack = params.palette_slack(ell)
    instance_nodes = graph.num_nodes
    literal_palette_condition = not params.is_scaled and not params.bins_are_clamped(ell)
    last_bin = num_bins - 1

    csr = prep["csr"] if prep is not None else graph.csr()
    node_ids = csr.node_ids
    num_nodes = len(node_ids)

    bins1 = (np.asarray(h1.hash_many(node_ids)) % num_bins).astype(np.int64, copy=False)

    bin_size_counts = np.bincount(bins1, minlength=num_bins)
    bin_cap = params.bin_cap(ell, instance_nodes, global_nodes)
    bin_sizes = {index: int(bin_size_counts[index]) for index in range(num_bins)}
    bad_bins = {index for index in range(num_bins) if bin_size_counts[index] >= bin_cap}

    if precomputed_counts is not None:
        in_bin_degree = precomputed_counts[0]
    else:
        same_bin = bins1[csr.edge_sources] == bins1[csr.indices]
        in_bin_degree = np.bincount(
            csr.edge_sources[same_bin], minlength=num_nodes
        ).astype(np.int64, copy=False)

    if prep is not None:
        # The selection's batched evaluator already flattened every palette
        # (entry owners aligned with the CSR node order, colors resolved to
        # universe positions): reuse those arrays verbatim.
        universe = prep.get("universe_array")
        if universe is None:
            universe = np.asarray(prep["universe"], dtype=np.int64)
            prep["universe_array"] = universe
        universe_bins = (
            (np.asarray(h2.hash_many(universe.tolist())) % num_color_bins).astype(
                np.int64, copy=False
            )
            if universe.shape[0]
            else np.zeros(0, dtype=np.int64)
        )
        palette_sizes = prep["palette_sizes"]
        entry_owners = prep["entry_nodes"]
        entry_positions = prep["entry_colors"]
        entry_bins = universe_bins[entry_positions]
        entries_sorted = bool(prep.get("entries_sorted"))
        flat_colors = None
    else:
        # Standalone entry points flatten through the assignment's shared
        # array store (one gather; sets-backed fallback for colors beyond
        # int64), so repeated calls stop re-paying the per-color loop.
        from repro.hashing.batch import BatchCostEvaluatorBase

        entries = BatchCostEvaluatorBase.palette_entry_arrays(palettes, node_ids)
        palette_sizes = entries["sizes"]
        entry_owners = entries["entry_nodes"]
        entries_sorted = entries["sorted_entries"]
        if color_arrays is None:
            universe = entries["universe_array"]
            if universe is None:
                universe = np.asarray(entries["universe"], dtype=np.int64)
            universe_bins = (
                (np.asarray(h2.hash_many(universe.tolist())) % num_color_bins).astype(
                    np.int64, copy=False
                )
                if universe.shape[0]
                else np.zeros(0, dtype=np.int64)
            )
            entry_positions = entries["entry_positions"]
            entry_bins = universe_bins[entry_positions]
            flat_colors = None
        else:
            universe, universe_bins = color_arrays
            flat_colors = entries["flat_colors"]
            if not isinstance(flat_colors, np.ndarray):
                flat_colors = np.fromiter(
                    flat_colors, dtype=np.int64, count=int(palette_sizes.sum())
                )
            entry_positions = None
            entry_bins = color_bins_of_entries(np, universe, universe_bins, flat_colors)
    entry_match = entry_bins == bins1[entry_owners]
    if precomputed_counts is not None:
        in_bin_palette = precomputed_counts[1]
    else:
        in_bin_palette = np.bincount(
            entry_owners[entry_match], minlength=num_nodes
        ).astype(np.int64, copy=False)

    expected = csr.degrees / num_bins
    degree_bad = np.abs(in_bin_degree - expected) > degree_slack
    in_color_bin = bins1 != last_bin
    if literal_palette_condition:
        shortfall = in_color_bin & (
            in_bin_palette < palette_sizes / num_bins + palette_slack
        )
    else:
        shortfall = np.zeros(num_nodes, dtype=bool)
    if params.enforce_palette_surplus:
        surplus_fail = in_color_bin & (in_bin_palette <= in_bin_degree)
    else:
        surplus_fail = np.zeros(num_nodes, dtype=bool)
    is_good = ~(degree_bad | shortfall | surplus_fail)

    # ---- assembly: the only remaining Python loop (n records must be
    # built either way).  Element access goes through plain lists because
    # NumPy scalar indexing would dominate it; the (rare) bad nodes get
    # their reason strings in a second, short pass so the hot loop stays a
    # bare positional constructor.
    bins1_list = bins1.tolist()
    classification = PartitionClassification(
        num_bins=num_bins,
        bin_of_node=dict(zip(node_ids, bins1_list)),
        nodes={},
        bad_bins=bad_bins,
        bin_sizes=bin_sizes,
    )
    rows = zip(
        node_ids,
        bins1_list,
        csr.degrees.tolist(),
        in_bin_degree.tolist(),
        palette_sizes.tolist(),
        in_bin_palette.tolist(),
        in_color_bin.tolist(),
        is_good.tolist(),
    )
    nodes = classification.nodes
    for node, node_bin, degree, d_prime, p_size, p_prime, in_color, good in rows:
        nodes[node] = NodeClassification(
            node, node_bin, degree, d_prime, p_size,
            p_prime if in_color else None, good, "",
        )
    bad_nodes = classification.bad_nodes
    for index in np.flatnonzero(~is_good).tolist():
        node = node_ids[index]
        record = nodes[node]
        if degree_bad[index]:
            record.reason = "degree deviation"
        elif shortfall[index]:
            record.reason = "palette shortfall"
        else:
            record.reason = "palette does not exceed in-bin degree"
        bad_nodes.add(node)

    restricted: Optional[List[PaletteAssignment]] = None
    if collect_restricted:
        # Per-node kept counts are exactly the in-bin palette sizes, so the
        # matched entries already form a CSR layout over the node order.
        if flat_colors is not None:
            kept_colors = flat_colors[entry_match]
        else:
            kept_colors = universe[entry_positions[entry_match]]
        kept_bounds = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(in_bin_palette, out=kept_bounds[1:])
        eligible = is_good & in_color_bin
        restricted = []
        if entries_sorted:
            # Entries came from the palette store (sorted per node): every
            # color bin's assignment adopts gathered slices of the kept
            # array — the children are array-backed from birth, and carry
            # the universe as their membership frame so the downstream
            # palette updates keep their table path.
            from repro.graph.csr import gather_segments

            kept_positions = (
                entry_positions[entry_match] if entry_positions is not None else None
            )
            for bin_index in range(num_color_bins):
                bin_rows = np.flatnonzero(eligible & (bins1 == bin_index))
                lengths, gather = gather_segments(kept_bounds, bin_rows)
                offsets = np.zeros(bin_rows.shape[0] + 1, dtype=np.int64)
                np.cumsum(lengths, out=offsets[1:])
                restricted.append(
                    PaletteAssignment._from_arrays(
                        [node_ids[row] for row in bin_rows.tolist()],
                        kept_colors[gather],
                        offsets,
                        frame=(
                            (universe, kept_positions[gather])
                            if kept_positions is not None
                            else None
                        ),
                    )
                )
        else:
            # Unsorted entries (sets-backed fallback): rebuild per-node sets.
            kept_list = kept_colors.tolist()
            bounds_list = kept_bounds.tolist()
            for bin_index in range(num_color_bins):
                members: Dict[NodeId, Set[Color]] = {}
                for row in np.flatnonzero(eligible & (bins1 == bin_index)).tolist():
                    members[node_ids[row]] = set(
                        kept_list[bounds_list[row] : bounds_list[row + 1]]
                    )
                restricted.append(PaletteAssignment._adopt(members))
    return classification, restricted


def classify_partition_batch(
    graph: Graph,
    palettes: PaletteAssignment,
    h1: HashFunction,
    h2: HashFunction,
    params: ColorReduceParameters,
    ell: float,
    global_nodes: int,
    color_arrays=None,
) -> PartitionClassification:
    """Batched :func:`classify_partition` for the *selected* hash pair.

    The derandomized selection scores candidate pairs through the batched
    :class:`PartitionCostEvaluator`, but the pair that wins still needs the
    full :class:`PartitionClassification` (per-node records, bad sets, bin
    sizes) — previously a per-node walk over Python adjacency sets.  This
    function computes the same object from the graph's CSR view and the
    vectorized hash kernels:

    1. ``bins1``: one :func:`~repro.hashing.batch.hash_many` call over the
       node ids (shape ``(n,)``),
    2. color bins over the sorted palette universe
       (:func:`color_bin_arrays`, shape ``(U,)``; pass ``color_arrays`` to
       reuse a pair already computed elsewhere),
    3. in-bin degrees: one edge-endpoint compare plus one ``bincount`` over
       the CSR's directed edges,
    4. in-bin palette sizes: one lookup gather plus one ``bincount`` over
       the flattened palette entries (shape ``(total_entries,)``),
    5. the Definition 3.1 thresholds as array comparisons.

    Only the final assembly of the per-node dataclasses remains a Python
    loop (it must build ``n`` records either way).  The result is equal to
    the scalar reference — same bins, same bad nodes/bins, same per-node
    records including the ``reason`` strings — which
    ``tests/test_final_classification.py`` asserts field by field.
    """
    classification, _ = _classify_partition_arrays(
        graph, palettes, h1, h2, params, ell, global_nodes, color_arrays,
        collect_restricted=False,
    )
    return classification


def classify_and_restrict_batch(
    graph: Graph,
    palettes: PaletteAssignment,
    h1: HashFunction,
    h2: HashFunction,
    params: ColorReduceParameters,
    ell: float,
    global_nodes: int,
    color_arrays=None,
):
    """One fused pass: classification plus color-bin palette restriction.

    ``Partition.run`` needs both the selected pair's
    :class:`PartitionClassification` *and*, for every color bin, the
    palettes of its good nodes restricted to the colors ``h2`` maps there.
    Both are functions of the same per-entry comparison (``entry's color
    bin == owner's node bin``), so this entry point computes the match
    once and materialises the restricted palettes from the kept entries
    while assembling the per-node records — the palette sets are built
    straight from one gather instead of a second scan over the palettes
    (:meth:`repro.graph.palettes.PaletteAssignment.restricted_by_bins`
    remains the standalone vectorized restriction for callers that already
    have a classification).

    Returns ``(classification, restricted)`` where ``restricted[b]`` is the
    :class:`~repro.graph.palettes.PaletteAssignment` for color bin ``b``
    over ``classification.good_nodes_in_bin(b)`` (same node order, same
    palette sets as the scalar ``restricted_to`` path).  When the entries
    came from the palette store the children are array-backed — they adopt
    slices of the kept-entry compaction and materialise Python sets only
    if someone asks.
    """
    return _classify_partition_arrays(
        graph, palettes, h1, h2, params, ell, global_nodes, color_arrays,
        collect_restricted=True,
    )


class PartitionCostEvaluator(BatchCostEvaluatorBase):
    """Equation (1) cost with a scalar reference path and a batched kernel.

    Calling the evaluator with a single pair runs the per-node reference
    implementation (:func:`classify_partition`).  :meth:`many` (inherited
    scaffolding from :class:`repro.hashing.batch.BatchCostEvaluatorBase`)
    scores a whole batch of candidate pairs as one matrix computation:

    1. ``bins1``: a ``(S, n)`` node-bin matrix from the vectorized Horner
       kernel (one row per candidate seed),
    2. ``bins2``: a ``(S, U)`` color-bin matrix over the palette universe,
    3. in-bin degrees: compare ``bins1`` at the two endpoint positions of
       every directed edge (CSR ``edge_sources`` / ``indices``) and scatter
       the matches with a per-row ``bincount``,
    4. in-bin palette sizes: compare ``bins2`` at each palette entry's color
       position against ``bins1`` at the owning node's position, scatter,
    5. apply the Definition 3.1 thresholds as array comparisons and sum.

    All static arrays (CSR view, palette-entry index arrays, per-node
    degree/palette-size vectors, slack thresholds) are built once per
    evaluator, i.e. once per ``Partition`` call, and shared by every batch
    and every conditional-expectation chunk of the selection.
    """

    def __init__(
        self,
        graph: Graph,
        palettes: PaletteAssignment,
        params: ColorReduceParameters,
        ell: float,
        global_nodes: int,
    ) -> None:
        super().__init__()
        self.graph = graph
        self.palettes = palettes
        self.params = params
        self.ell = ell
        self.global_nodes = global_nodes

    # -- scalar reference path -----------------------------------------
    def __call__(self, h1: HashFunction, h2: HashFunction) -> float:
        classification = classify_partition(
            self.graph, self.palettes, h1, h2, self.params, self.ell, self.global_nodes
        )
        return classification.cost(self.global_nodes)

    # -- final classification for the selected pair ---------------------
    def classify_selected(
        self, h1: HashFunction, h2: HashFunction, scorer=None,
        precomputed_counts=None,
    ):
        """Fused classification + palette restriction for the winning pair.

        The post-selection counterpart of :meth:`many`: one more pass over
        the *same* static arrays ``_prepare`` built for the candidate
        batches (CSR view, flattened palette entries, universe positions)
        yields the full :class:`PartitionClassification` and every color
        bin's restricted palettes — no palette is flattened a second time.
        Returns ``(classification, restricted)`` exactly like
        :func:`classify_and_restrict_batch`, and is bit-identical to the
        scalar :func:`classify_partition` + ``restricted_to`` path.

        ``scorer`` may pass the selection's
        :class:`repro.parallel.executor.ParallelSlabScorer`: the O(m)
        in-bin count vectors are then sharded across the worker pool
        (:meth:`phase_shard`) instead of computed serially — same
        integers, same classification, different wall-clock.
        """
        prep = self._prep
        if prep is None or self._prep_is_stale(prep):
            prep = self._prepare()
        precomputed = None
        if precomputed_counts is not None:
            # Counts computed elsewhere over the same CSR node order — e.g.
            # the segmented cross-bin level pass (repro.core.level), which
            # already produced this pair's (in_bin_degree, in_bin_palette).
            np = prep["np"]
            precomputed = (
                np.asarray(precomputed_counts[0], dtype=np.int64),
                np.asarray(precomputed_counts[1], dtype=np.int64),
            )
        elif scorer is not None:
            parts = scorer.phase_values(
                "classify", h1, h2, len(prep["csr"].node_ids), 2
            )
            if parts is not None:
                np = prep["np"]
                precomputed = (
                    np.asarray(parts[0], dtype=np.int64),
                    np.asarray(parts[1], dtype=np.int64),
                )
        return _classify_partition_arrays(
            self.graph, self.palettes, h1, h2, self.params, self.ell,
            self.global_nodes, None, collect_restricted=True, prep=prep,
            precomputed_counts=precomputed,
        )

    # -- zero-copy transport --------------------------------------------
    def shared_payload(self):
        """Static arrays + scalar state for the shm evaluator envelope.

        Exports the CSR view and the flattened palette-entry arrays the
        batched kernels read; returns ``None`` (pickle fallback) when the
        palette store could not flatten (colors beyond ``int64``) or node
        ids do not fit ``int64``.
        """
        prep = self._prep
        if prep is None or self._prep_is_stale(prep):
            prep = self._prepare()
        if prep["universe_array"] is None or not prep["entries_sorted"]:
            return None
        np = prep["np"]
        csr = prep["csr"]
        try:
            node_ids = np.asarray(csr.node_ids, dtype=np.int64)
        except (OverflowError, TypeError, ValueError):
            return None
        state = {
            "params": self.params,
            "ell": self.ell,
            "global_nodes": self.global_nodes,
            "num_bins": prep["num_bins"],
            "num_color_bins": prep["num_color_bins"],
            "degree_slack": prep["degree_slack"],
            "palette_slack": prep["palette_slack"],
            "bin_cap": prep["bin_cap"],
            "literal_palette": prep["literal_palette"],
            "entries_sorted": prep["entries_sorted"],
        }
        arrays = {
            "node_ids": node_ids,
            "indptr": csr.indptr,
            "indices": csr.indices,
            "degrees": csr.degrees,
            "edge_sources": csr.edge_sources,
            "universe": prep["universe_array"],
            "entry_nodes": prep["entry_nodes"],
            "entry_colors": prep["entry_colors"],
            "entry_indptr": prep["entry_indptr"],
            "palette_sizes": prep["palette_sizes"],
        }
        return state, arrays

    @classmethod
    def from_shared_payload(cls, state, arrays):
        """Worker-side rebuild over attached segment views (zero copies).

        The instance has no live graph or palettes — only the prep arrays
        the batched kernels (:meth:`_many_slab`, :meth:`phase_shard`)
        read.  The scalar ``__call__`` path is deliberately unavailable.
        """
        import numpy as np

        from repro.graph.csr import GraphCSR

        evaluator = cls.__new__(cls)
        evaluator.graph = None
        evaluator.palettes = None
        evaluator.params = state["params"]
        evaluator.ell = state["ell"]
        evaluator.global_nodes = state["global_nodes"]
        universe_array = arrays["universe"]
        evaluator._prep = {
            "np": np,
            "_shared": True,
            "csr": GraphCSR(
                node_ids=arrays["node_ids"].tolist(),
                indptr=arrays["indptr"],
                indices=arrays["indices"],
                degrees=arrays["degrees"],
                edge_sources=arrays["edge_sources"],
            ),
            "universe": universe_array.tolist(),
            "universe_array": universe_array,
            "entry_nodes": arrays["entry_nodes"],
            "entry_colors": arrays["entry_colors"],
            "entry_indptr": arrays["entry_indptr"],
            "palette_sizes": arrays["palette_sizes"],
            "entries_sorted": state["entries_sorted"],
            "num_bins": state["num_bins"],
            "num_color_bins": state["num_color_bins"],
            "degree_slack": state["degree_slack"],
            "palette_slack": state["palette_slack"],
            "bin_cap": state["bin_cap"],
            "literal_palette": state["literal_palette"],
            "node_xs_cache": {},
            "color_xs_cache": {},
        }
        return evaluator

    def phase_shard(
        self, phase: str, h1: HashFunction, h2: HashFunction, start: int, stop: int
    ) -> List[float]:
        """In-bin degree and in-bin palette counts for nodes
        ``[start, stop)``, concatenated (``classify`` phase).

        The CSR edge runs and palette-entry runs of a node range are
        contiguous, so a shard touches exactly its own edges/entries; the
        bincounts produce the same integers the serial pass produces for
        those nodes, making the parent's reassembly bit-identical.
        """
        if phase != "classify":
            raise ValueError(f"PartitionCostEvaluator has no phase {phase!r}")
        prep = self._prep
        if prep is None or (not prep.get("_shared") and self._prep_is_stale(prep)):
            prep = self._prepare()
        np = prep["np"]
        csr = prep["csr"]
        num_bins = prep["num_bins"]
        num_color_bins = prep["num_color_bins"]
        bins1 = (np.asarray(h1.hash_many(csr.node_ids)) % num_bins).astype(
            np.int64, copy=False
        )
        lo, hi = int(csr.indptr[start]), int(csr.indptr[stop])
        sources = csr.edge_sources[lo:hi]
        same_bin = bins1[sources] == bins1[csr.indices[lo:hi]]
        in_bin_degree = np.bincount(
            sources[same_bin] - start, minlength=stop - start
        )
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
        entry_match = universe_bins[prep["entry_colors"][elo:ehi]] == bins1[owners]
        in_bin_palette = np.bincount(
            owners[entry_match] - start, minlength=stop - start
        )
        return in_bin_degree.tolist() + in_bin_palette.tolist()

    # -- batched path ---------------------------------------------------
    def _prepare(self):
        import numpy as np

        params, ell = self.params, self.ell
        num_bins = params.num_bins(ell)
        csr = self.graph.csr()
        # The flattened palette entries come from the assignment's shared
        # array store (see ``palette_entry_arrays``): for children built by
        # the batched restriction kernels the flat arrays already exist, so
        # preparing the evaluator no longer re-flattens per Partition call.
        entries = self.palette_entry_arrays(self.palettes, csr.node_ids)
        self._prep = {
            "np": np,
            "csr": csr,
            "universe": entries["universe"],
            "universe_array": entries["universe_array"],
            "entry_nodes": entries["entry_nodes"],
            "entry_colors": entries["entry_positions"],
            "entry_indptr": entries["indptr"],
            "palette_sizes": entries["sizes"],
            "entries_sorted": entries["sorted_entries"],
            "num_bins": num_bins,
            "num_color_bins": max(1, num_bins - 1),
            "degree_slack": params.degree_slack(ell),
            "palette_slack": params.palette_slack(ell),
            "bin_cap": params.bin_cap(ell, self.graph.num_nodes, self.global_nodes),
            "literal_palette": not params.is_scaled and not params.bins_are_clamped(ell),
            "node_xs_cache": {},
            "color_xs_cache": {},
        }
        return self._prep

    def _prep_is_stale(self, prep) -> bool:
        # The graph was mutated after the first batch (its CSR cache was
        # invalidated): rebuild the static arrays so the batched path keeps
        # matching the live-state scalar path.  Palettes have no such
        # invalidation hook — they must not be mutated while this evaluator
        # is in use (no in-repo caller does).
        return prep["csr"] is not self.graph.csr()

    def _slab_entries(self, prep) -> int:
        return max(
            1,
            len(prep["entry_nodes"]),
            prep["csr"].num_directed_edges,
            len(prep["universe"]),
        )

    def _many_slab(self, pairs, prep) -> List[float]:
        np = prep["np"]
        from repro.hashing import batch as hb

        csr = prep["csr"]
        num_bins = prep["num_bins"]
        num_color_bins = prep["num_color_bins"]
        last_bin = num_bins - 1
        bins1, bins2 = self._slab_bin_matrices(
            pairs, prep, num_bins, num_color_bins, csr.node_ids, prep["universe"]
        )

        bin_sizes = hb.rowwise_bincount(bins1, num_bins)
        num_bad_bins = (bin_sizes >= prep["bin_cap"]).sum(axis=1)

        # Neighbor runs and palette-entry runs are contiguous in the CSR
        # layout, so both in-bin counts are one gather + one reduceat.
        same_bin = bins1[:, csr.edge_sources] == bins1[:, csr.indices]
        in_bin_degree = hb.segment_sum_rows(same_bin, csr.indptr)

        entry_match = bins2[:, prep["entry_colors"]] == bins1[:, prep["entry_nodes"]]
        in_bin_palette = hb.segment_sum_rows(entry_match, prep["entry_indptr"])

        expected = csr.degrees / num_bins
        bad = np.abs(in_bin_degree - expected) > prep["degree_slack"]
        in_color_bin = bins1 != last_bin
        if prep["literal_palette"]:
            bad |= in_color_bin & (
                in_bin_palette
                < prep["palette_sizes"] / num_bins + prep["palette_slack"]
            )
        if self.params.enforce_palette_surplus:
            bad |= in_color_bin & (in_bin_palette <= in_bin_degree)

        costs = bad.sum(axis=1) + self.global_nodes * num_bad_bins
        return [float(value) for value in costs]


def partition_cost_function(
    graph: Graph,
    palettes: PaletteAssignment,
    params: ColorReduceParameters,
    ell: float,
    global_nodes: int,
) -> PairCost:
    """The Equation (1) cost ``q(h1, h2)`` for selection.

    Returns a :class:`PartitionCostEvaluator`: a plain ``(h1, h2) -> float``
    callable (the scalar reference path) that additionally exposes
    :meth:`PartitionCostEvaluator.many` so the selection strategies can
    score whole candidate batches as one matrix computation.
    """
    return PartitionCostEvaluator(graph, palettes, params, ell, global_nodes)
