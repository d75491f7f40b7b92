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

* :func:`classify_partition` — the per-node loop.  It is the *reference
  implementation*: readable and audited against Definition 3.1.
  Production never runs it: it is the evaluator's single-pair
  ``__call__`` and the test oracle (``tests/scalar_oracle.py`` reroutes
  ``Partition.run`` to it plus :func:`color_bin_map`).
* :class:`PartitionCostEvaluator` (returned by
  :func:`partition_cost_function`) — the batched path, on the count
  kernel shared with the low-space cost
  (:class:`repro.hashing.batch.BatchCostEvaluatorBase`):
  :meth:`~PartitionCostEvaluator.many` scores candidate batches, and
  :meth:`~PartitionCostEvaluator.classify_selected` classifies the
  selected pair and restricts its color bins' palettes in one fused pass.

:func:`hash_families` builds the hash families of both pipelines'
partition steps.

Both fill the same per-node columns of one
:class:`PartitionClassification` (:meth:`PartitionClassification.from_arrays`).
Substitution rule: the batched paths return **bit-identical** results to
the scalar ones for every pair (same integer counts, same IEEE-754
comparisons in the same order).  ``tests/test_batch_kernels.py`` and
``tests/test_final_classification.py`` assert the equivalence, including
identical selected seeds and colorings end to end.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import compress
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.params import ColorReduceParameters
from repro.derand.cost import PairCost
from repro.errors import GraphError, PaletteError
from repro.graph.csr import gather_segments, node_id_array, set_order
from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment
from repro.hashing.batch import BatchCostEvaluatorBase
from repro.hashing.family import HashFunction, KWiseIndependentFamily
from repro.hashing.field import MERSENNE_61
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


#: Reason strings of bad nodes, indexed by the reason code that
#: :meth:`PartitionClassification.from_arrays` stores (0 means good).
BAD_REASONS = (
    "",
    "degree deviation",
    "palette shortfall",
    "palette does not exceed in-bin degree",
)


class PartitionClassification:
    """The full outcome of classifying a ``(h1, h2)`` pair on an instance.

    Bins are ``0..B-1``; bin ``B-1`` is the paper's last bin (the one that
    receives no colors), and bins ``0..B-2`` are the color bins.  Bad
    nodes are listed separately and belong to no bin's recursive instance
    (they form the graph ``G_0``).

    The classification holds per-node columns in node order
    (:meth:`from_arrays`), whichever path filled them: the batched
    :meth:`PartitionCostEvaluator.classify_selected` or the per-node
    reference :func:`classify_partition`.  ``bad_nodes`` and
    :meth:`good_nodes_in_bin` read the reason codes (0 is good);
    ``bin_of_node``, ``bin_sizes`` and the per-node
    :class:`NodeClassification` records (``nodes``, reason strings
    included) are views built on first access.  ``Partition.run`` reads
    none of the views, so a production run builds no record.
    """

    def __init__(self, num_bins: int, bad_bins: Set[BinIndex], columns: dict) -> None:
        self.num_bins = num_bins
        self.bad_bins = bad_bins
        #: The per-node columns (see :meth:`from_arrays`), in node order.
        self.columns = columns
        bad = columns["reason_code"] != 0
        node_ids = columns["node_ids"]
        if isinstance(node_ids, np.ndarray):
            self.bad_nodes: Set[NodeId] = set(node_ids[bad].tolist())
        else:
            self.bad_nodes = set(compress(node_ids, bad.tolist()))
        self._bin_of_node: Optional[Dict[NodeId, BinIndex]] = None
        self._nodes: Optional[Dict[NodeId, NodeClassification]] = None
        self._groups: Optional[List[np.ndarray]] = None

    @classmethod
    def from_arrays(cls, num_bins, bad_bins, **columns):
        """A classification over per-node arrays.

        ``columns`` holds ``node_ids`` (the view's ids) and aligned arrays:
        ``bins``, ``degree``, ``in_bin_degree``, ``palette_size``,
        ``in_bin_palette``, ``in_color_bin`` and ``reason_code`` (an index
        into :data:`BAD_REASONS`; 0 means good).  ``bad_bins`` is the set
        of overfull bins.
        """
        return cls(num_bins, bad_bins, columns)

    def _id_list(self) -> list:
        node_ids = self.columns["node_ids"]
        return node_ids.tolist() if isinstance(node_ids, np.ndarray) else node_ids

    @property
    def bin_of_node(self) -> Dict[NodeId, BinIndex]:
        if self._bin_of_node is None:
            columns = self.columns
            self._bin_of_node = dict(zip(self._id_list(), columns["bins"].tolist()))
        return self._bin_of_node

    @property
    def bin_sizes(self) -> Dict[BinIndex, int]:
        """Nodes per bin, every bin listed."""
        counts = np.bincount(self.columns["bins"], minlength=self.num_bins)
        return dict(enumerate(counts.tolist()))

    @property
    def nodes(self) -> Dict[NodeId, NodeClassification]:
        """Per-node records, built on first access."""
        if self._nodes is None:
            self._nodes = self._records()
        return self._nodes

    def _records(self) -> Dict[NodeId, NodeClassification]:
        columns = self.columns
        # None marks the last bin's nodes, whose palette is not restricted.
        in_bin_palette = [
            count if in_color else None
            for count, in_color in zip(
                columns["in_bin_palette"].tolist(), columns["in_color_bin"].tolist()
            )
        ]
        node_ids = self._id_list()
        records = map(
            NodeClassification,
            node_ids,
            columns["bins"].tolist(),
            columns["degree"].tolist(),
            columns["in_bin_degree"].tolist(),
            columns["palette_size"].tolist(),
            in_bin_palette,
            (columns["reason_code"] == 0).tolist(),
            [BAD_REASONS[code] for code in columns["reason_code"].tolist()],
        )
        return dict(zip(node_ids, records))

    @property
    def num_bad_nodes(self) -> int:
        return len(self.bad_nodes)

    @property
    def num_bad_bins(self) -> int:
        return len(self.bad_bins)

    def good_nodes_in_bin(self, bin_index: BinIndex) -> List[NodeId]:
        """Good nodes assigned to ``bin_index`` (the recursive instance)."""
        columns = self.columns
        keep = (columns["bins"] == bin_index) & (columns["reason_code"] == 0)
        return list(compress(self._id_list(), keep.tolist()))

    def bin_groups(self, csr) -> List[np.ndarray]:
        """The node groups ``Partition`` extracts, as positions in ``csr``.

        ``[bad nodes] + [good nodes of bin b for every bin b]``, each in
        :func:`~repro.graph.csr.set_order` — the bad group as the set it
        always was, each bin as the set of its good nodes in node order —
        so the children's node order is the one the extraction has always
        produced.  Cached: the palette restriction of
        :meth:`PartitionCostEvaluator.classify_selected` and the
        extraction read the same groups.
        """
        if self._groups is None:
            bins, bad = self.columns["bins"], self.columns["reason_code"] != 0
            self._groups = [set_order(csr, np.flatnonzero(bad), via_set=True)] + [
                set_order(csr, np.flatnonzero(~bad & (bins == bin_index)))
                for bin_index in range(self.num_bins)
            ]
        return self._groups

    def cost(self, global_nodes: int) -> float:
        """Equation (1): ``|bad nodes| + n * |bad bins|``."""
        return float(self.num_bad_nodes + global_nodes * self.num_bad_bins)


def hash_families(
    graph: Graph,
    palettes: PaletteAssignment,
    num_bins: int,
    independence: int,
    global_nodes: int,
) -> Tuple[KWiseIndependentFamily, KWiseIndependentFamily]:
    """The hash families ``H1`` (nodes) and ``H2`` (colors) of one partition step.

    ``h1`` maps node ids to ``num_bins`` bins and ``h2`` maps colors to the
    ``num_bins - 1`` color bins.  ``h1`` has domain ``[n]`` (global node
    identifiers) and ``h2`` domain ``[n^2]`` — the paper notes a list
    coloring universe can have up to ``n^2`` colors — each grown to cover
    the instance's ids and colors.  Both families hash into the field
    ``F_p`` with ``p <= 2**61 - 1``, so every id and color must be an
    integer below that: an id that is not is a
    :class:`~repro.errors.GraphError`, a color a
    :class:`~repro.errors.PaletteError`, each naming the first offender.
    Shared by ``Partition``, ``LowSpacePartition`` and the level prefetch.
    """
    ids = node_id_array(graph.csr())
    node_domain = _field_domain(ids, global_nodes, "node id", GraphError)
    store = palettes.store()
    if store.table is not None:
        odd = next(
            (
                color
                for node in palettes.nodes()
                for color in palettes.iter_palette(node)
                if not isinstance(color, numbers.Integral) or not -(2**63) <= color < 2**63
            ),
            None,
        )
        assert odd is not None, "a color table holds a color that is not an int64 integer"
        kind = "an int64 integer" if isinstance(odd, numbers.Integral) else "an integer"
        raise PaletteError(
            f"color {odd!r} is not {kind}; partitioning hashes integer colors"
        )
    color_domain = _field_domain(
        store.universe(), global_nodes * global_nodes, "color", PaletteError
    )
    family1 = KWiseIndependentFamily(
        domain_size=node_domain, range_size=num_bins, independence=independence
    )
    family2 = KWiseIndependentFamily(
        domain_size=color_domain,
        range_size=max(1, num_bins - 1),
        independence=independence,
    )
    return family1, family2


def _field_domain(values, floor: int, label: str, error) -> int:
    """``max(floor, max(values) + 1)``, once every value is below the field.

    ``values`` is an int64 array; the first value at or beyond
    ``2**61 - 1`` (in array order) is named in ``error``.
    """
    if values.shape[0] == 0:
        return max(floor, 1)
    beyond = values >= MERSENNE_61
    if bool(beyond.any()):
        odd = int(values[beyond.argmax()])
        raise error(
            f"{label} {odd} is not below 2**61 - 1; partitioning hashes "
            f"{label}s into that field"
        )
    return max(floor, int(values.max()) + 1)


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
    polynomial evaluations; the pair feeds the vectorized palette
    restriction
    (:meth:`repro.graph.palettes.PaletteAssignment.restricted_by_bins`).
    """
    store = palettes.store()
    if store.table is not None:
        raise PaletteError(
            "palette colors are not int64 integers; partitioning hashes "
            "integer colors"
        )
    # The assignment's array store caches its sorted unique colors:
    # identical to sorted(color_universe()) with no per-palette union.
    universe = store.universe()
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

    A color-bin node whose restricted palette is not strictly larger than
    its in-bin degree is also marked bad (guaranteeing the recursive
    instance stays colorable even in scaled mode).
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
    literal_palette_condition = params.literal_regime(ell)

    csr = graph.csr()
    bin_of_node: Dict[NodeId, BinIndex] = {
        node: h1(key % h1.domain_size) % num_bins
        for node, key in zip(graph.nodes(), node_id_array(csr).tolist())
    }
    color_bins = color_bin_map(palettes, h2, num_color_bins)

    bin_sizes: Dict[BinIndex, int] = {index: 0 for index in range(num_bins)}
    for node_bin in bin_of_node.values():
        bin_sizes[node_bin] += 1

    bin_cap = params.bin_cap(ell, instance_nodes, global_nodes)
    bad_bins = {index for index, size in bin_sizes.items() if size >= bin_cap}

    # One row per node, in node order; the reason code indexes BAD_REASONS
    # and the first failed condition names it.
    rows = []
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

        reason_code = 0
        in_bin_palette = 0
        if abs(in_bin_degree - expected_in_bin_degree) > degree_slack:
            reason_code = 1  # degree deviation
        if node_bin != last_bin:
            in_bin_palette = sum(
                1 for color in palettes.palette(node) if color_bins[color] == node_bin
            )
            if (
                not reason_code
                and literal_palette_condition
                and in_bin_palette < palette_size / num_bins + palette_slack
            ):
                reason_code = 2  # palette shortfall
            if not reason_code and in_bin_palette <= in_bin_degree:
                reason_code = 3  # palette does not exceed in-bin degree
        rows.append(
            (node_bin, degree, in_bin_degree, palette_size, in_bin_palette, reason_code)
        )

    bins, degrees, in_bin_degrees, palette_sizes, in_bin_palettes, reason_codes = (
        np.array(rows, dtype=np.int64).reshape(len(rows), 6).T
    )
    return PartitionClassification.from_arrays(
        num_bins,
        bad_bins,
        node_ids=csr.node_ids,
        bins=bins,
        degree=degrees,
        in_bin_degree=in_bin_degrees,
        palette_size=palette_sizes,
        in_bin_palette=in_bin_palettes,
        in_color_bin=bins != last_bin,
        reason_code=reason_codes,
    )


class PartitionCostEvaluator(BatchCostEvaluatorBase):
    """Equation (1) cost with a scalar reference path and a batched kernel.

    Calling the evaluator with a single pair runs the per-node reference
    implementation (:func:`classify_partition`).  The batched paths
    (:meth:`many`, :meth:`classify_selected`) run the shared count kernel
    of :class:`repro.hashing.batch.BatchCostEvaluatorBase` over the
    instance's CSR view — the prep's edge runs *are* the CSR arrays, no
    copy — and apply the Definition 3.1 thresholds (:meth:`_conditions`)
    as array comparisons.  The static arrays are built once per
    evaluator, i.e. once per ``Partition`` call, and shared by every batch
    of the selection and the selected pair's pass.
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

    # -- batched paths --------------------------------------------------
    def _prepare(self) -> dict:
        params, ell = self.params, self.ell
        num_bins = params.num_bins(ell)
        csr = self.graph.csr()
        prep = {
            "csr": csr,
            "ids": node_id_array(csr),
            "edge_sources": csr.edge_sources,
            "edge_targets": csr.indices,
            "edge_indptr": csr.indptr,
            **self.palette_entry_arrays(self.palettes, csr.node_ids),
            "num_bins": num_bins,
            "num_color_bins": max(1, num_bins - 1),
            "degrees": csr.degrees,
            "degree_slack": params.degree_slack(ell),
            "palette_slack": params.palette_slack(ell),
            "bin_cap": params.bin_cap(ell, self.graph.num_nodes, self.global_nodes),
            "literal_palette": params.literal_regime(ell),
        }
        prep["palette_sizes"] = np.diff(prep["entry_indptr"])
        return prep

    def _conditions(self, prep: dict, bins, in_bin_degree, in_bin_palette):
        """Definition 3.1's bad-node conditions over one pair's vectors.

        Returns ``(degree deviation, palette shortfall, no palette
        surplus)``; the shortfall is ``None`` outside the literal regime
        (see :func:`classify_partition`).
        """
        num_bins = prep["num_bins"]
        expected = prep["degrees"] / num_bins
        degree_bad = np.abs(in_bin_degree - expected) > prep["degree_slack"]
        in_color_bin = bins != num_bins - 1
        shortfall = None
        if prep["literal_palette"]:
            shortfall = in_color_bin & (
                in_bin_palette < prep["palette_sizes"] / num_bins + prep["palette_slack"]
            )
        surplus_fail = in_color_bin & (in_bin_palette <= in_bin_degree)
        return degree_bad, shortfall, surplus_fail

    def _pair_cost(self, prep: dict, node_bins, d_prime, p_prime) -> float:
        bin_sizes = np.bincount(node_bins, minlength=prep["num_bins"])
        num_bad_bins = int((bin_sizes >= prep["bin_cap"]).sum())
        bad, shortfall, surplus_fail = self._conditions(prep, node_bins, d_prime, p_prime)
        bad |= surplus_fail
        if shortfall is not None:
            bad |= shortfall
        return float(int(bad.sum()) + self.global_nodes * num_bad_bins)

    # -- final classification for the selected pair ---------------------
    def classify_selected(
        self, h1: HashFunction, h2: HashFunction, scorer=None,
        precomputed_counts=None,
    ):
        """Classification plus color-bin palette restriction for the winning pair.

        The selected pair's pass over the static arrays the selection
        scored its candidates on (:meth:`_selected_pass` — the head
        probe's kept pass when the head won): the in-bin counts, the
        :class:`PartitionClassification` (per-node columns; records only
        on demand), and — from the same entry match — every color bin's
        restricted palettes.  Returns ``(classification, restricted)``
        where ``restricted[b]`` holds the good nodes of color bin ``b``,
        bit-identical to the scalar :func:`classify_partition` plus the
        per-bin palette restriction of ``tests/scalar_oracle.py``.

        ``scorer`` may pass the selection's
        :class:`repro.parallel.executor.ParallelSlabScorer` (the counts
        are sharded by node range across the pool), and
        ``precomputed_counts`` the ``(in_bin_degree, in_bin_palette)`` the
        segmented level pass (:mod:`repro.core.level`) already computed —
        the same integers either way.
        """
        (prep, node_bins, universe_bins, in_bin_degree, in_bin_palette,
         entry_match) = self._selected_pass(h1, h2, scorer, precomputed_counts)
        entry_colors = prep["entry_colors"]
        if entry_match is None:
            entry_match = universe_bins[entry_colors] == np.repeat(
                node_bins, prep["palette_sizes"]
            )
        bins = node_bins.astype(np.int64)
        num_bins = prep["num_bins"]
        csr = prep["csr"]
        node_ids = csr.node_ids
        num_nodes = len(node_ids)

        bin_size_counts = np.bincount(bins, minlength=num_bins)
        bad_bins = {
            index for index in range(num_bins) if bin_size_counts[index] >= prep["bin_cap"]
        }
        degree_bad, shortfall, surplus_fail = self._conditions(
            prep, bins, in_bin_degree, in_bin_palette
        )
        # The first failed condition names the reason: write the codes in
        # reverse order of precedence.
        reason_code = np.zeros(num_nodes, dtype=np.int64)
        for code, failed in ((3, surplus_fail), (2, shortfall), (1, degree_bad)):
            if failed is not None:
                reason_code[failed] = code
        in_color_bin = bins != num_bins - 1
        classification = PartitionClassification.from_arrays(
            num_bins,
            bad_bins,
            node_ids=node_ids,
            bins=bins,
            degree=prep["degrees"],
            in_bin_degree=in_bin_degree,
            palette_size=prep["palette_sizes"],
            in_bin_palette=in_bin_palette,
            in_color_bin=in_color_bin,
            reason_code=reason_code,
        )

        # The kept entries, per node, are exactly the in-bin palette counts,
        # so the matched entries already form a CSR layout over the node
        # order.  Every color bin's assignment adopts gathered slices of
        # the kept arrays, its nodes in the order the bin's graph will
        # list them (:meth:`PartitionClassification.bin_groups`):
        # array-backed from birth and aligned with its graph.
        kept_colors = prep["universe"][entry_colors[entry_match]]
        kept_bounds = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(in_bin_palette, out=kept_bounds[1:])
        groups = classification.bin_groups(csr)
        restricted: List[PaletteAssignment] = []
        for bin_index in range(prep["num_color_bins"]):
            bin_rows = groups[1 + bin_index]
            if bin_index == num_bins - 1:  # a single bin is no color bin
                bin_rows = bin_rows[:0]
            lengths, gather = gather_segments(kept_bounds, bin_rows)
            offsets = np.zeros(bin_rows.shape[0] + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            restricted.append(
                PaletteAssignment._from_arrays(
                    csr.ids_at(bin_rows), kept_colors[gather], offsets
                )
            )
        return classification, restricted


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
