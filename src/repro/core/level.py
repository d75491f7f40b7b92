"""Segmented cross-bin kernels: score a whole recursion level in one pass.

After a ``Partition`` call splits an instance into ``B`` sibling color
bins, the recursion descends into each bin separately, and each child's
own ``Partition`` call scores its head candidate batch with its own
batched evaluator — one array pass per child.  This module evaluates the
Eq (1) / Eq (2) costs of *all* siblings' head candidate batches in one
segmented array pass instead:

* per-child static arrays (CSR edges, flattened palette entries,
  thresholds) are concatenated once with per-bin offsets,
* the per-child candidate hash functions are applied per *element row*
  through :func:`repro.hashing.batch.hash_rows` (each child has its own
  families and salt, so each element picks its child's polynomial and
  field),
* bad-node masks / violation masks are computed elementwise exactly as the
  per-child batched kernels do, and reduced per child with one
  ``bincount`` over the child-of-element row labels.

The results are handed to each child as a :class:`CachedPairCost` — a
transparent proxy over the child's own evaluator whose cached values are
**bit-identical** to what the per-bin reference would compute (same IEEE
float64 elementwise operations on the same inputs, in the same order), so
selection outcomes, classifications, ledgers and colorings are unchanged
with the segmented path on or off (``level_use_batch``).

Candidate replication contract
------------------------------
:func:`head_pairs` reproduces, exactly, the first ``selection_batch_size``
candidates that the child's own
:meth:`repro.derand.conditional_expectation.HashPairSelector._candidate_batches`
will enumerate for its salt.  This requires the recursion's salts to be
*positionally* derivable — :func:`repro.core.driver.child_salt` mixes the
parent's salt with the child's bin ordinal, replacing the old depth-first
Partition counter (whose value for sibling ``k`` depended on the entire
subtree of siblings ``0..k-1`` and so could not be known at prefetch time).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.derand.conditional_expectation import _mix64
from repro.hashing import batch as hb

#: Engagement floor for the cross-bin prefetch, in instance size
#: (``num_nodes + num_edges``).  The prefetch eagerly scores the *whole*
#: head batch for every sibling, while the per-bin ``FIRST_FEASIBLE``
#: scan scores the head candidate alone first and stops there when it is
#: feasible — usually (Lemma 3.8).  The trade can only pay on children
#: big enough to amortize the level arrays' setup; below the floor the
#: drivers keep the per-bin route (outcomes are identical either way).
LEVEL_PREFETCH_MIN_SIZE = 32_768


def head_pairs(family1, family2, salt: int, count: int) -> List[tuple]:
    """The first ``count`` candidate pairs the selector will draw.

    Mirrors ``HashPairSelector._candidate_batches`` exactly for
    ``candidate_salt=salt`` — same splitmix64 offsets, same per-family
    modulus — so the pairs (and their order) equal the child selection's
    first batch.
    """
    offset = _mix64(salt) if salt else 0
    pairs = []
    for index in range(count):
        seed1 = _mix64(offset + 2 * index) % family1.family_size
        seed2 = _mix64(offset + 2 * index + 1) % family2.family_size
        pairs.append(
            (family1.from_seed_int(seed1), family2.from_seed_int(seed2))
        )
    return pairs


def _pair_key(h1, h2) -> tuple:
    """Hashable identity of a concrete hash pair (coefficients + field)."""
    return (
        tuple(h1.coefficients), h1.prime, h1.range_size,
        tuple(h2.coefficients), h2.prime, h2.range_size,
    )


class CachedPairCost:
    """Transparent cost-evaluator proxy serving prefetched head values.

    Wraps a child's own :class:`PartitionCostEvaluator` /
    :class:`LowSpaceCostEvaluator`.  Calls whose pair was scored by the
    segmented level pass are answered from the cache (bit-identical
    values); everything else — unknown pairs, ``many`` batches beyond the
    head, attribute access — delegates to the wrapped evaluator, so the
    proxy is safe to hand to any selection strategy.
    """

    def __init__(self, inner, values: Dict[tuple, float], counts: Dict[tuple, tuple]):
        self._inner = inner
        self._values = values
        self._counts = counts

    def __call__(self, h1, h2) -> float:
        value = self._values.get(_pair_key(h1, h2))
        if value is not None:
            return value
        return self._inner(h1, h2)

    def many(self, pairs) -> List[float]:
        values = [self._values.get(_pair_key(h1, h2)) for h1, h2 in pairs]
        if all(value is not None for value in values):
            return values
        return self._inner.many(pairs)

    def classify_selected(self, h1, h2, scorer=None):
        counts = None if scorer is not None else self._counts.get(_pair_key(h1, h2))
        return self._inner.classify_selected(
            h1, h2, scorer=scorer, precomputed_counts=counts
        )

    def outcome_selected(self, h1, h2, color_arrays=None, scorer=None):
        counts = None if scorer is not None else self._counts.get(_pair_key(h1, h2))
        return self._inner.outcome_selected(
            h1, h2, color_arrays=color_arrays, scorer=scorer,
            precomputed_counts=counts,
        )

    def __getattr__(self, name):
        return getattr(self._inner, name)


# ----------------------------------------------------------------------
# Equation (1): segmented Partition cost across sibling bins
# ----------------------------------------------------------------------

def partition_level_arrays(evaluators: Sequence) -> dict:
    """Concatenated static arrays for a level of Partition evaluators.

    Each evaluator must be a prepared
    :class:`~repro.core.classification.PartitionCostEvaluator`; all must
    share ``params`` knobs and ``ell`` (siblings of one level do).  Edge
    endpoints, palette-entry owners and universe positions are shifted by
    per-child offsets so one flat pass covers the level.
    """
    preps = []
    for evaluator in evaluators:
        prep = evaluator._prep
        if prep is None or evaluator._prep_is_stale(prep):
            prep = evaluator._prepare()
        preps.append(prep)
    first = preps[0]
    num_children = len(preps)
    node_counts = [prep["csr"].num_nodes for prep in preps]
    node_offsets = np.zeros(num_children + 1, dtype=np.int64)
    np.cumsum(node_counts, out=node_offsets[1:])
    universe_counts = [len(prep["universe"]) for prep in preps]
    universe_offsets = np.zeros(num_children + 1, dtype=np.int64)
    np.cumsum(universe_counts, out=universe_offsets[1:])

    def _concat(parts, dtype=np.int64):
        if not parts:
            return np.zeros(0, dtype=dtype)
        return np.concatenate([np.asarray(part) for part in parts]).astype(
            dtype, copy=False
        )

    edge_sources = _concat(
        [
            prep["csr"].edge_sources.astype(np.int64) + node_offsets[index]
            for index, prep in enumerate(preps)
        ]
    )
    edge_targets = _concat(
        [
            prep["csr"].indices.astype(np.int64) + node_offsets[index]
            for index, prep in enumerate(preps)
        ]
    )
    entry_owners = _concat(
        [
            prep["entry_nodes"] + node_offsets[index]
            for index, prep in enumerate(preps)
        ]
    )
    entry_positions = _concat(
        [
            prep["entry_colors"] + universe_offsets[index]
            for index, prep in enumerate(preps)
        ]
    )
    return {
        "evaluators": list(evaluators),
        "preps": preps,
        "num_bins": first["num_bins"],
        "num_color_bins": first["num_color_bins"],
        "degree_slack": first["degree_slack"],
        "palette_slack": first["palette_slack"],
        "literal_palette": first["literal_palette"],
        "bin_caps": np.asarray([prep["bin_cap"] for prep in preps], dtype=np.float64),
        "node_row": np.repeat(np.arange(num_children, dtype=np.int64), node_counts),
        "node_offsets": node_offsets,
        "universe_row": np.repeat(
            np.arange(num_children, dtype=np.int64), universe_counts
        ),
        "universe_offsets": universe_offsets,
        "edge_sources": edge_sources,
        "edge_targets": edge_targets,
        "entry_owners": entry_owners,
        "entry_positions": entry_positions,
        "degrees": _concat([prep["csr"].degrees for prep in preps]),
        "palette_sizes": _concat([prep["palette_sizes"] for prep in preps]),
    }


def score_partition_level(
    level: dict, pair_row: Sequence[tuple]
) -> Tuple[List[float], List[Tuple[np.ndarray, np.ndarray]]]:
    """Eq (1) cost of one ``(h1, h2)`` pair per child, in one level pass.

    ``pair_row[c]`` is child ``c``'s candidate pair.  Returns
    ``(costs, counts)`` where ``costs[c]`` is bit-identical to
    ``evaluators[c].many([pair_row[c]])[0]`` and ``counts[c]`` is that
    child's ``(in_bin_degree, in_bin_palette)`` int64 arrays in CSR node
    order — exactly the ``precomputed_counts`` the child's
    ``classify_selected`` accepts.
    """
    evaluators = level["evaluators"]
    preps = level["preps"]
    num_children = len(preps)
    num_bins = level["num_bins"]
    num_color_bins = level["num_color_bins"]
    last_bin = num_bins - 1
    node_row = level["node_row"]
    universe_row = level["universe_row"]
    total_nodes = node_row.shape[0]

    node_xs = np.concatenate(
        [
            evaluators[index]._cached_xs(
                preps[index], "node_xs_cache", pair_row[index][0],
                preps[index]["csr"].node_ids,
            )
            for index in range(num_children)
        ]
    ) if total_nodes else np.zeros(0, dtype=np.int64)
    color_xs = np.concatenate(
        [
            evaluators[index]._cached_xs(
                preps[index], "color_xs_cache", pair_row[index][1],
                preps[index]["universe"],
            )
            for index in range(num_children)
        ]
    ) if universe_row.shape[0] else np.zeros(0, dtype=np.int64)

    bins1 = hb.narrow_bins(
        hb.hash_rows([pair[0] for pair in pair_row], node_xs, node_row) % num_bins,
        num_bins,
    )
    bins2 = hb.narrow_bins(
        hb.hash_rows([pair[1] for pair in pair_row], color_xs, universe_row)
        % num_color_bins,
        num_color_bins,
    )

    bin_sizes = np.bincount(
        node_row * num_bins + bins1, minlength=num_children * num_bins
    ).reshape(num_children, num_bins)
    num_bad_bins = (bin_sizes >= level["bin_caps"][:, None]).sum(axis=1)

    edge_sources = level["edge_sources"]
    same_bin = bins1[edge_sources] == bins1[level["edge_targets"]]
    in_bin_degree = np.bincount(
        edge_sources[same_bin], minlength=total_nodes
    ).astype(np.int64, copy=False)

    entry_owners = level["entry_owners"]
    entry_match = bins2[level["entry_positions"]] == bins1[entry_owners]
    in_bin_palette = np.bincount(
        entry_owners[entry_match], minlength=total_nodes
    ).astype(np.int64, copy=False)

    expected = level["degrees"] / num_bins
    bad = np.abs(in_bin_degree - expected) > level["degree_slack"]
    in_color_bin = bins1 != last_bin
    if level["literal_palette"]:
        bad |= in_color_bin & (
            in_bin_palette < level["palette_sizes"] / num_bins + level["palette_slack"]
        )
    if evaluators[0].params.enforce_palette_surplus:
        bad |= in_color_bin & (in_bin_palette <= in_bin_degree)

    bad_counts = np.bincount(node_row[bad], minlength=num_children)
    offsets = level["node_offsets"]
    costs = [
        float(bad_counts[index] + evaluators[index].global_nodes * num_bad_bins[index])
        for index in range(num_children)
    ]
    counts = [
        (
            in_bin_degree[offsets[index] : offsets[index + 1]],
            in_bin_palette[offsets[index] : offsets[index + 1]],
        )
        for index in range(num_children)
    ]
    return costs, counts


def prefetch_partition_level(
    children: Sequence[tuple], params, ell: float, global_nodes: int
) -> Dict:
    """Prefetch every sibling bin's head candidate batch in one level pass.

    ``children`` holds ``(key, salt, graph, palettes)`` per sibling that
    will recurse (Eq (1) pipeline, shared ``ell``).  Returns
    ``{key: CachedPairCost}`` — each child's own evaluator wrapped with
    its head-batch costs, plus the first candidate's
    ``(in_bin_degree, in_bin_palette)`` for the post-selection
    classification.  Any failure to prefetch is the caller's cue to fall
    back to per-bin evaluation (values are identical either way).
    """
    from repro.core.classification import partition_cost_function
    from repro.core.partition import Partition

    if not children:
        return {}
    count = min(params.selection_batch_size, params.selection_max_candidates)
    builder = Partition(params)
    evaluators = []
    pairs_by_child = []
    for key, salt, graph, palettes in children:
        family1, family2 = builder.build_families(graph, palettes, ell, global_nodes)
        pairs_by_child.append(head_pairs(family1, family2, salt, count))
        evaluators.append(
            partition_cost_function(graph, palettes, params, ell, global_nodes)
        )
    level = partition_level_arrays(evaluators)
    values: List[Dict[tuple, float]] = [{} for _ in children]
    counts: List[Dict[tuple, tuple]] = [{} for _ in children]
    for candidate in range(count):
        pair_row = [pairs[candidate] for pairs in pairs_by_child]
        row_costs, row_counts = score_partition_level(level, pair_row)
        for index, (h1, h2) in enumerate(pair_row):
            key = _pair_key(h1, h2)
            values[index][key] = row_costs[index]
            if candidate == 0:
                # The head is the usual selection (Lemma 3.8); keeping its
                # counts lets classify_selected skip its own count pass.
                counts[index][key] = row_counts[index]
    return {
        child[0]: CachedPairCost(evaluators[index], values[index], counts[index])
        for index, child in enumerate(children)
    }


# ----------------------------------------------------------------------
# Equation (2): segmented LowSpacePartition cost across sibling bins
# ----------------------------------------------------------------------

def low_space_level_arrays(evaluators: Sequence) -> dict:
    """Concatenated static arrays for a level of low-space evaluators.

    Each must be a prepared
    :class:`~repro.core.low_space.machine_sets.LowSpaceCostEvaluator`
    (same ``num_bins`` across the level).  High-node lists, high-high
    edge endpoints and palette entries are offset per child.
    """
    preps = []
    for evaluator in evaluators:
        prep = evaluator._prep
        if prep is None or evaluator._prep_is_stale(prep):
            prep = evaluator._prepare()
        preps.append(prep)
    num_children = len(preps)
    high_counts = [len(prep["high"]) for prep in preps]
    high_offsets = np.zeros(num_children + 1, dtype=np.int64)
    np.cumsum(high_counts, out=high_offsets[1:])
    universe_counts = [len(prep["universe"]) for prep in preps]
    universe_offsets = np.zeros(num_children + 1, dtype=np.int64)
    np.cumsum(universe_counts, out=universe_offsets[1:])

    def _concat(parts, dtype):
        if not parts:
            return np.zeros(0, dtype=dtype)
        return np.concatenate([np.asarray(part) for part in parts]).astype(
            dtype, copy=False
        )

    return {
        "evaluators": list(evaluators),
        "preps": preps,
        "num_bins": evaluators[0].num_bins,
        "high_row": np.repeat(np.arange(num_children, dtype=np.int64), high_counts),
        "high_offsets": high_offsets,
        "universe_row": np.repeat(
            np.arange(num_children, dtype=np.int64), universe_counts
        ),
        "edge_sources": _concat(
            [
                prep["edge_sources"] + high_offsets[index]
                for index, prep in enumerate(preps)
            ],
            np.int64,
        ),
        "edge_targets": _concat(
            [
                prep["edge_targets"] + high_offsets[index]
                for index, prep in enumerate(preps)
            ],
            np.int64,
        ),
        "entry_owners": _concat(
            [
                prep["entry_nodes"] + high_offsets[index]
                for index, prep in enumerate(preps)
            ],
            np.int64,
        ),
        "entry_positions": _concat(
            [
                prep["entry_colors"] + universe_offsets[index]
                for index, prep in enumerate(preps)
            ],
            np.int64,
        ),
        "threshold": _concat(
            [prep["threshold"] for prep in preps], np.float64
        ),
    }


def score_low_space_level(
    level: dict, pair_row: Sequence[tuple]
) -> Tuple[List[float], List[Tuple[np.ndarray, np.ndarray]]]:
    """Eq (2) violation count of one pair per child, in one level pass.

    Returns ``(costs, counts)``: ``costs[c]`` is bit-identical to
    ``evaluators[c].many([pair_row[c]])[0]``; ``counts[c]`` is the child's
    ``(d', p')`` int64 arrays in sorted-high order — the
    ``precomputed_counts`` its ``outcome_selected`` accepts.
    """
    evaluators = level["evaluators"]
    preps = level["preps"]
    num_children = len(preps)
    num_bins = level["num_bins"]
    num_color_bins = max(1, num_bins - 1)
    last_bin = num_bins - 1
    high_row = level["high_row"]
    universe_row = level["universe_row"]
    total_high = high_row.shape[0]

    high_xs = np.concatenate(
        [
            evaluators[index]._cached_xs(
                preps[index], "node_xs_cache", pair_row[index][0],
                preps[index]["high"],
            )
            for index in range(num_children)
        ]
    ) if total_high else np.zeros(0, dtype=np.int64)
    color_xs = np.concatenate(
        [
            evaluators[index]._cached_xs(
                preps[index], "color_xs_cache", pair_row[index][1],
                preps[index]["universe"],
            )
            for index in range(num_children)
        ]
    ) if universe_row.shape[0] else np.zeros(0, dtype=np.int64)

    bins1 = hb.narrow_bins(
        hb.hash_rows([pair[0] for pair in pair_row], high_xs, high_row) % num_bins,
        num_bins,
    )
    bins2 = hb.narrow_bins(
        hb.hash_rows([pair[1] for pair in pair_row], color_xs, universe_row)
        % num_color_bins,
        num_color_bins,
    )

    edge_sources = level["edge_sources"]
    same_bin = bins1[edge_sources] == bins1[level["edge_targets"]]
    d_prime = np.bincount(edge_sources[same_bin], minlength=total_high).astype(
        np.int64, copy=False
    )
    entry_owners = level["entry_owners"]
    entry_match = bins2[level["entry_positions"]] == bins1[entry_owners]
    p_prime = np.bincount(entry_owners[entry_match], minlength=total_high).astype(
        np.int64, copy=False
    )

    violating = d_prime > level["threshold"]
    violating |= (bins1 != last_bin) & (p_prime <= d_prime)
    violating_counts = np.bincount(high_row[violating], minlength=num_children)
    offsets = level["high_offsets"]
    costs = [float(violating_counts[index]) for index in range(num_children)]
    counts = [
        (
            d_prime[offsets[index] : offsets[index + 1]],
            p_prime[offsets[index] : offsets[index + 1]],
        )
        for index in range(num_children)
    ]
    return costs, counts


def prefetch_low_space_level(
    children: Sequence[tuple], params, global_nodes: int
) -> Dict:
    """Prefetch sibling head batches for the low-space (Eq (2)) pipeline.

    ``children`` holds ``(key, salt, graph, palettes)`` per sibling that
    will recurse and has at least one high-degree node.  Family
    construction, the low/high split and the candidate enumeration mirror
    :meth:`repro.core.low_space.partition.LowSpacePartition.run` exactly;
    returns ``{key: CachedPairCost}``.
    """
    from repro.core.low_space.machine_sets import low_space_cost_function
    from repro.hashing.family import KWiseIndependentFamily

    if not children:
        return {}
    count = min(params.selection_batch_size, params.selection_max_candidates)
    threshold = params.low_degree_threshold(global_nodes)
    num_bins = params.num_bins(global_nodes)
    num_color_bins = max(1, num_bins - 1)
    evaluators = []
    pairs_by_child = []
    kept_children = []
    for key, salt, graph, palettes in children:
        high_degree_nodes = {
            node for node in graph.nodes() if graph.degree(node) > threshold
        }
        if not high_degree_nodes:
            # The child's run() takes the no-partition early return; there
            # is no cost to prefetch.
            continue
        node_domain = max(global_nodes, max(graph.nodes(), default=0) + 1)
        universe = palettes.color_universe()
        color_domain = max(global_nodes * global_nodes, max(universe, default=0) + 1)
        family1 = KWiseIndependentFamily(
            domain_size=node_domain, range_size=num_bins,
            independence=params.independence,
        )
        family2 = KWiseIndependentFamily(
            domain_size=color_domain, range_size=num_color_bins,
            independence=params.independence,
        )
        pairs_by_child.append(head_pairs(family1, family2, salt, count))
        evaluators.append(
            low_space_cost_function(
                graph, palettes, high_degree_nodes, params, num_bins
            )
        )
        kept_children.append(key)
    if not evaluators:
        return {}
    level = low_space_level_arrays(evaluators)
    values: List[Dict[tuple, float]] = [{} for _ in evaluators]
    counts: List[Dict[tuple, tuple]] = [{} for _ in evaluators]
    for candidate in range(count):
        pair_row = [pairs[candidate] for pairs in pairs_by_child]
        row_costs, row_counts = score_low_space_level(level, pair_row)
        for index, (h1, h2) in enumerate(pair_row):
            key = _pair_key(h1, h2)
            values[index][key] = row_costs[index]
            if candidate == 0:
                counts[index][key] = row_counts[index]
    return {
        key: CachedPairCost(evaluators[index], values[index], counts[index])
        for index, key in enumerate(kept_children)
    }
