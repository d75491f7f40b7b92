"""P2 — throughput of bin-instance construction: CSR extraction vs scalar.

Every ``Partition`` / ``LowSpacePartition`` level materialises its bin
instances as induced subgraphs.  The CSR-backed extraction layer
(:func:`repro.graph.csr.split_by_bins`, ``Graph.induced_subgraphs``)
replaces the scalar per-neighbor set-membership loops (kept as the
reference ``induced_subgraphs`` in ``tests/scalar_oracle.py``) with one
label scatter plus per-group array gathers on the cached CSR view.  This
benchmark times the bin-instance construction phase of one real partition
level (the groups come from an actual hash selection + classification) for
both paths, asserting

* a >= 5x speedup of the construction phase at the default scale
  (n = 2000), and
* identical children — same node insertion order, same adjacency sets —

so future PRs have a recorded trajectory to regress against.  A secondary
measurement re-runs both paths and then touches every child's adjacency
sets (the CSR path materialises them lazily), reported as extra info so
the deferred cost stays visible.
"""

from __future__ import annotations

import time

from scalar_oracle import induced_subgraphs

from repro.core.classification import classify_partition
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

#: Required construction-phase speedups per scale.  At smoke size the fixed
#: kernel overheads (label arrays, per-group gather setup) are a large
#: fraction of the tiny scalar time, so only the realistic scales demand
#: the full 5x.
_REQUIRED_SPEEDUP = {"smoke": 1.5, "default": 5.0, "full": 5.0}


def _setup(scale: str):
    num_nodes, avg_degree, rounds = _SCALES[scale]
    graph = erdos_renyi(num_nodes, avg_degree / num_nodes, seed=42)
    palettes = PaletteAssignment.delta_plus_one(graph)
    params = ColorReduceParameters.scaled(num_bins=4)
    ell = max(float(graph.max_degree()), 2.0)
    selection = Partition(params).select_hash_pair(
        graph, palettes, ell, graph.num_nodes, salt=1
    )
    classification = classify_partition(
        graph, palettes, selection.h1, selection.h2, params, ell, graph.num_nodes
    )
    # The exact groups Partition.run materialises: the bad graph plus every
    # bin (color bins and leftover).
    groups = [classification.bad_nodes] + [
        classification.good_nodes_in_bin(bin_index)
        for bin_index in range(classification.num_bins)
    ]
    graph.csr()  # warm, as it is after a real batched selection
    return graph, groups, rounds


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _touch_children(children) -> int:
    """Force adjacency materialisation (the CSR path defers it)."""
    total = 0
    for child in children:
        for node in child.nodes():
            total += len(child.neighbors(node))
    return total


def test_p2_subgraph_extraction(benchmark, experiment_scale):
    graph, groups, rounds = _setup(experiment_scale)

    # Warm both paths once (interpreter/ufunc one-offs are not part of
    # either algorithm).
    induced_subgraphs(graph, groups)
    graph.induced_subgraphs(groups)

    # --- headline: the bin-instance construction phase --------------------
    scalar_seconds = _best_of(
        lambda: induced_subgraphs(graph, groups), rounds
    )
    batched_seconds = benchmark.pedantic(
        _best_of,
        args=(lambda: graph.induced_subgraphs(groups), rounds),
        rounds=1,
        iterations=1,
    )
    speedup = scalar_seconds / batched_seconds

    # --- secondary: construction plus full adjacency consumption ----------
    scalar_consumed = _best_of(
        lambda: _touch_children(induced_subgraphs(graph, groups)),
        rounds,
    )
    batched_consumed = _best_of(
        lambda: _touch_children(graph.induced_subgraphs(groups)),
        rounds,
    )
    consumed_speedup = scalar_consumed / batched_consumed

    # --- equivalence: identical children ----------------------------------
    scalar_children = induced_subgraphs(graph, groups)
    batched_children = graph.induced_subgraphs(groups)
    identical = True
    for expected, actual in zip(scalar_children, batched_children):
        if actual.nodes() != expected.nodes():
            identical = False
            break
        if any(
            actual.neighbors(node) != expected.neighbors(node)
            for node in expected.nodes()
        ):
            identical = False
            break

    benchmark.extra_info["num_nodes"] = graph.num_nodes
    benchmark.extra_info["num_edges"] = graph.num_edges
    benchmark.extra_info["num_groups"] = len(groups)
    benchmark.extra_info["scalar_seconds"] = round(scalar_seconds, 5)
    benchmark.extra_info["batched_seconds"] = round(batched_seconds, 5)
    benchmark.extra_info["construction_speedup"] = round(speedup, 2)
    benchmark.extra_info["consumed_speedup"] = round(consumed_speedup, 2)
    benchmark.extra_info["identical_children"] = identical

    from bench_json import emit_bench_json

    emit_bench_json(
        "p2",
        [
            {
                "op": "bin-instance-construction",
                "n": graph.num_nodes,
                "scalar_s": round(scalar_seconds, 5),
                "batch_s": round(batched_seconds, 5),
                "speedup": round(speedup, 2),
            },
            {
                "op": "construction-plus-consumption",
                "n": graph.num_nodes,
                "scalar_s": round(scalar_consumed, 5),
                "batch_s": round(batched_consumed, 5),
                "speedup": round(consumed_speedup, 2),
            },
        ],
    )

    print()
    print("P2: bin-instance construction throughput (CSR extraction vs scalar)")
    print(
        f"  instance: n={graph.num_nodes} m={graph.num_edges} "
        f"groups={len(groups)}"
    )
    print(
        f"  construction phase:         scalar {scalar_seconds * 1e3:8.2f}ms  "
        f"batched {batched_seconds * 1e3:8.2f}ms   speedup {speedup:6.1f}x"
    )
    print(
        f"  incl. adjacency consumption: scalar {scalar_consumed * 1e3:7.2f}ms  "
        f"batched {batched_consumed * 1e3:8.2f}ms   speedup {consumed_speedup:6.1f}x"
    )
    print(f"  identical children:         {identical}")

    assert identical, "CSR-backed extraction must match the scalar reference exactly"
    required = _REQUIRED_SPEEDUP[experiment_scale]
    assert speedup >= required, (
        f"bin-instance construction only {speedup:.1f}x faster than scalar "
        f"(need {required:.1f}x)"
    )
