"""P3 — throughput of the post-selection classify + palette-restriction step.

After the derandomized selection settles on a hash pair, ``Partition.run``
still has to (a) classify every node for the selected pair
(:class:`PartitionClassification`) and (b) restrict every color bin's
palettes to the colors ``h2`` maps to that bin.  With the *selection* and
the *subgraph extraction* batched, this step was once the biggest Python
loop left in the pipeline.  The batch layer replaces it with
:meth:`repro.core.classification.PartitionCostEvaluator.classify_selected`:
the evaluators' shared node-range count over the selection's static
arrays (edge-endpoint compares and ``bincount`` scatters over the CSR
view and the flattened palette entries), the Definition 3.1 thresholds as
array comparisons, and the color-bin restriction fused into the same
pass from the matched entries.

This benchmark times the combined step for one real partition level (the
pair comes from an actual hash selection) for both paths, asserting

* a >= 3x speedup of the combined step at the default scale (n = 2000),
  and
* identical outputs — same classification, field by field, and the same
  restricted palette sets —

so future PRs have a recorded trajectory to regress against.  The
batched classification keeps per-node columns and builds no
``NodeClassification`` record unless ``.nodes`` is read, so the timed
batched step builds none; the equivalence check reads ``.nodes`` and
compares the records built on demand.
"""

from __future__ import annotations

import time

from scalar_oracle import restricted_to

from repro.core.classification import (
    classify_partition,
    color_bin_map,
    partition_cost_function,
)
from repro.core.params import ColorReduceParameters
from repro.core.partition import Partition
from repro.graph.generators import erdos_renyi
from repro.graph.palettes import PaletteAssignment

_SCALES = {
    # (num nodes, average degree, timing rounds)
    "smoke": (600, 20, 5),
    "default": (2000, 30, 9),
    "full": (4000, 60, 9),
}

#: Required speedups per scale.  At smoke size the fixed kernel overheads
#: (universe sort, array setup) are a large fraction of the tiny scalar
#: time, so only the realistic scales demand the full 3x.
_REQUIRED_SPEEDUP = {"smoke": 1.2, "default": 3.0, "full": 3.0}


def _setup(scale: str):
    num_nodes, avg_degree, rounds = _SCALES[scale]
    graph = erdos_renyi(num_nodes, avg_degree / num_nodes, seed=42)
    palettes = PaletteAssignment.delta_plus_one(graph)
    params = ColorReduceParameters.scaled(num_bins=4)
    ell = max(float(graph.max_degree()), 2.0)
    # Exactly what Partition.run does: one evaluator drives the selection
    # and is then reused (static arrays warm) for the final classification.
    evaluator = partition_cost_function(graph, palettes, params, ell, graph.num_nodes)
    selection = Partition(params).select_hash_pair(
        graph, palettes, ell, graph.num_nodes, salt=1, cost=evaluator
    )
    graph.csr()  # warm, as it is after a real batched selection
    return graph, palettes, params, ell, selection, evaluator, rounds


def _scalar_step(graph, palettes, params, ell, h1, h2):
    """The pre-PR-3 path: per-node classification + per-color restriction."""
    classification = classify_partition(
        graph, palettes, h1, h2, params, ell, graph.num_nodes
    )
    num_color_bins = max(1, classification.num_bins - 1)
    colors_to_bins = color_bin_map(palettes, h2, num_color_bins)
    restricted = [
        restricted_to(
            palettes,
            classification.good_nodes_in_bin(bin_index),
            keep_color=lambda color, b=bin_index: colors_to_bins[color] == b,
        )
        for bin_index in range(num_color_bins)
    ]
    return classification, restricted


def _batched_step(evaluator, h1, h2):
    """The PR-3 path: one fused pass over the evaluator's warm arrays."""
    return evaluator.classify_selected(h1, h2)


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_p3_final_classification(benchmark, experiment_scale):
    graph, palettes, params, ell, selection, evaluator, rounds = _setup(experiment_scale)
    h1, h2 = selection.h1, selection.h2

    # Warm both paths once (interpreter/ufunc one-offs are not part of
    # either algorithm).
    _scalar_step(graph, palettes, params, ell, h1, h2)
    _batched_step(evaluator, h1, h2)

    scalar_seconds = _best_of(
        lambda: _scalar_step(graph, palettes, params, ell, h1, h2), rounds
    )
    batched_seconds = benchmark.pedantic(
        _best_of,
        args=(lambda: _batched_step(evaluator, h1, h2), rounds),
        rounds=1,
        iterations=1,
    )
    speedup = scalar_seconds / batched_seconds

    # --- equivalence: identical classification and restricted palettes ----
    scalar_cls, scalar_restricted = _scalar_step(graph, palettes, params, ell, h1, h2)
    batched_cls, batched_restricted = _batched_step(evaluator, h1, h2)
    # A color bin's restricted palettes list its nodes in the order its
    # graph will (``bin_groups``); the reference lists them in node order.
    bin_order = [
        graph.csr().ids_at(rows) for rows in batched_cls.bin_groups(graph.csr())[1:]
    ]
    identical = (
        batched_cls.bin_of_node == scalar_cls.bin_of_node
        and batched_cls.bad_nodes == scalar_cls.bad_nodes
        and batched_cls.bad_bins == scalar_cls.bad_bins
        and batched_cls.bin_sizes == scalar_cls.bin_sizes
        and batched_cls.nodes == scalar_cls.nodes
        and len(batched_restricted) == len(scalar_restricted)
        and all(
            actual.nodes() == order
            and sorted(actual.nodes()) == sorted(expected.nodes())
            and all(
                actual.palette(node) == expected.palette(node)
                for node in expected.nodes()
            )
            for expected, actual, order in zip(
                scalar_restricted, batched_restricted, bin_order
            )
        )
    )

    benchmark.extra_info["num_nodes"] = graph.num_nodes
    benchmark.extra_info["num_edges"] = graph.num_edges
    benchmark.extra_info["palette_entries"] = palettes.total_size()
    benchmark.extra_info["scalar_seconds"] = round(scalar_seconds, 5)
    benchmark.extra_info["batched_seconds"] = round(batched_seconds, 5)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["identical_outputs"] = identical

    from bench_json import emit_bench_json

    emit_bench_json(
        "p3",
        [
            {
                "op": "classify-and-restrict",
                "n": graph.num_nodes,
                "scalar_s": round(scalar_seconds, 5),
                "batch_s": round(batched_seconds, 5),
                "speedup": round(speedup, 2),
            }
        ],
    )

    print()
    print("P3: post-selection classify + palette restriction (batched vs scalar)")
    print(
        f"  instance: n={graph.num_nodes} m={graph.num_edges} "
        f"palette entries={palettes.total_size()}"
    )
    print(
        f"  combined step: scalar {scalar_seconds * 1e3:8.2f}ms  "
        f"batched {batched_seconds * 1e3:8.2f}ms   speedup {speedup:6.1f}x"
    )
    print(f"  identical outputs: {identical}")

    assert identical, "batched classification must match the scalar reference exactly"
    required = _REQUIRED_SPEEDUP[experiment_scale]
    assert speedup >= required, (
        f"post-selection step only {speedup:.1f}x faster than scalar "
        f"(required {required}x at scale {experiment_scale!r})"
    )
