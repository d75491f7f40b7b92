"""P1 — throughput of the derandomized seed search: batched vs scalar.

The vectorized hash-evaluation / batched cost kernels
(:mod:`repro.hashing.batch`, :class:`repro.core.classification.PartitionCostEvaluator`)
replace the per-node, per-candidate Python loops of the selection cost with
matrix computations.  This benchmark times hash-pair selection on an
``n ~ 2000`` instance for both selection strategies and both evaluation
paths, asserting

* a >= 10x speedup of the FIRST_FEASIBLE feasibility scan, and
* bit-identical selection outcomes (same seeds, cost and accounting),

so future PRs have a recorded trajectory (``BENCH_*.json``) to regress
against.  The throughput measurement scans a fixed candidate budget (an
unreachable target bound, so both paths examine exactly the same
candidates); the equivalence measurement runs a real selection against the
Lemma 3.9 target.
"""

from __future__ import annotations

import time

import pytest

from repro.core.classification import partition_cost_function
from repro.core.params import ColorReduceParameters
from repro.core.partition import Partition
from repro.derand.conditional_expectation import HashPairSelector, SelectionStrategy
from repro.errors import DerandomizationError
from repro.graph.generators import erdos_renyi
from repro.graph.palettes import PaletteAssignment
from repro.hashing.family import KWiseIndependentFamily

_SCALES = {
    # (num nodes, average degree, scan candidate budget)
    "smoke": (600, 20, 48),
    "default": (2000, 30, 96),
    "full": (3000, 40, 192),
}

#: Required FIRST_FEASIBLE / CONDITIONAL_EXPECTATION speedups per scale.
#: At smoke size the fixed kernel overheads (array prep, candidate
#: generation) are a large fraction of the tiny scalar time, so only the
#: realistic scales demand the full 10x.
_REQUIRED_SPEEDUP = {
    "smoke": (1.5, 1.5),
    "default": (10.0, 2.0),
    "full": (10.0, 2.0),
}


def _setup(scale: str):
    num_nodes, avg_degree, budget = _SCALES[scale]
    graph = erdos_renyi(num_nodes, avg_degree / num_nodes, seed=42)
    palettes = PaletteAssignment.delta_plus_one(graph)
    params = ColorReduceParameters.scaled(num_bins=4)
    ell = max(float(graph.max_degree()), 2.0)
    cost = partition_cost_function(graph, palettes, params, ell, graph.num_nodes)
    family1, family2 = Partition(params).build_families(
        graph, palettes, ell, graph.num_nodes
    )
    return graph, palettes, params, ell, cost, family1, family2, budget


def _scoring(cost, use_batch):
    """``cost`` itself, or a plain callable without ``many`` that makes the
    selector take its scalar per-pair scan (the reference timing)."""
    if use_batch:
        return cost
    return lambda h1, h2: cost(h1, h2)


def _scan_fixed_budget(cost, family1, family2, budget, use_batch):
    """FIRST_FEASIBLE over exactly ``budget`` candidates (infeasible bound)."""
    selector = HashPairSelector(
        family1,
        family2,
        strategy=SelectionStrategy.FIRST_FEASIBLE,
        batch_size=16,
        max_candidates=budget,
        candidate_salt=7,
    )
    started = time.perf_counter()
    with pytest.raises(DerandomizationError):
        selector.select(_scoring(cost, use_batch), target_bound=-1.0)
    return time.perf_counter() - started


def _conditional_expectation_search(cost, family1, family2, use_batch):
    """One full conditional-expectation search (reduced color-seed width)."""
    selector = HashPairSelector(
        family1,
        family2,
        strategy=SelectionStrategy.CONDITIONAL_EXPECTATION,
        chunk_bits=4,
        completion_samples=1,
        exact_completion_bits=4,
        candidate_salt=7,
    )
    started = time.perf_counter()
    outcome = selector.select(_scoring(cost, use_batch), target_bound=None)
    return time.perf_counter() - started, outcome


def test_p1_selection_throughput(benchmark, experiment_scale):
    graph, palettes, params, ell, cost, family1, family2, budget = _setup(
        experiment_scale
    )

    # Warm both paths once (NumPy ufunc initialisation and interpreter
    # caches are process-level one-offs, not part of either algorithm);
    # the timed evaluator below is fresh, so its array prep is included.
    warm_pair = (family1.from_seed_int(1), family2.from_seed_int(1))
    partition_cost_function(graph, palettes, params, ell, graph.num_nodes).many(
        [warm_pair]
    )
    cost(*warm_pair)

    # --- headline: FIRST_FEASIBLE scan over a fixed candidate budget ------
    scalar_scan = _scan_fixed_budget(cost, family1, family2, budget, use_batch=False)
    batched_scan = benchmark.pedantic(
        _scan_fixed_budget,
        args=(cost, family1, family2, budget, True),
        rounds=1,
        iterations=1,
    )
    scan_speedup = scalar_scan / batched_scan

    # --- bit-identical real selection (Lemma 3.9 target) ------------------
    target = params.cost_target(ell, graph.num_nodes)
    outcomes = {}
    for use_batch in (True, False):
        selector = HashPairSelector(
            family1,
            family2,
            strategy=SelectionStrategy.FIRST_FEASIBLE,
            batch_size=16,
            max_candidates=4096,
            candidate_salt=7,
        )
        outcomes[use_batch] = selector.select(
            _scoring(cost, use_batch), target_bound=target
        )
    identical = (
        outcomes[True].h1.seed == outcomes[False].h1.seed
        and outcomes[True].h2.seed == outcomes[False].h2.seed
        and outcomes[True].cost == outcomes[False].cost
        and outcomes[True].evaluations == outcomes[False].evaluations
    )

    # --- second strategy: conditional expectation --------------------------
    # A narrow color family keeps the joint seed short enough that the
    # scalar reference search finishes in benchmark time.
    universe = palettes.color_universe()
    narrow_family2 = KWiseIndependentFamily(
        domain_size=max(universe) + 1,
        range_size=family2.range_size,
        independence=params.independence,
    )
    scalar_ce, outcome_ce_scalar = _conditional_expectation_search(
        cost, family1, narrow_family2, use_batch=False
    )
    batched_ce, outcome_ce_batched = _conditional_expectation_search(
        cost, family1, narrow_family2, use_batch=True
    )
    ce_speedup = scalar_ce / batched_ce
    ce_identical = (
        outcome_ce_batched.h1.seed == outcome_ce_scalar.h1.seed
        and outcome_ce_batched.h2.seed == outcome_ce_scalar.h2.seed
        and outcome_ce_batched.cost == outcome_ce_scalar.cost
        and outcome_ce_batched.evaluations == outcome_ce_scalar.evaluations
    )

    benchmark.extra_info["num_nodes"] = graph.num_nodes
    benchmark.extra_info["num_edges"] = graph.num_edges
    benchmark.extra_info["scan_candidates"] = budget
    benchmark.extra_info["scalar_scan_seconds"] = round(scalar_scan, 4)
    benchmark.extra_info["batched_scan_seconds"] = round(batched_scan, 4)
    benchmark.extra_info["first_feasible_speedup"] = round(scan_speedup, 2)
    benchmark.extra_info["conditional_expectation_speedup"] = round(ce_speedup, 2)
    benchmark.extra_info["identical_selection"] = identical and ce_identical

    from bench_json import emit_bench_json

    emit_bench_json(
        "p1",
        [
            {
                "op": "first-feasible-scan",
                "n": graph.num_nodes,
                "scalar_s": round(scalar_scan, 5),
                "batch_s": round(batched_scan, 5),
                "speedup": round(scan_speedup, 2),
            },
            {
                "op": "conditional-expectation",
                "n": graph.num_nodes,
                "scalar_s": round(scalar_ce, 5),
                "batch_s": round(batched_ce, 5),
                "speedup": round(ce_speedup, 2),
            },
        ],
    )

    print()
    print("P1: derandomized seed-search throughput (batched kernels vs scalar)")
    print(
        f"  instance: n={graph.num_nodes} m={graph.num_edges} "
        f"candidates={budget}"
    )
    print(
        f"  FIRST_FEASIBLE scan:        scalar {scalar_scan:8.3f}s   "
        f"batched {batched_scan:8.3f}s   speedup {scan_speedup:6.1f}x"
    )
    print(
        f"  CONDITIONAL_EXPECTATION:    scalar {scalar_ce:8.3f}s   "
        f"batched {batched_ce:8.3f}s   speedup {ce_speedup:6.1f}x"
    )
    print(f"  identical selected seeds:   {identical and ce_identical}")

    required_scan, required_ce = _REQUIRED_SPEEDUP[experiment_scale]
    assert identical, "batched FIRST_FEASIBLE selection must match scalar exactly"
    assert ce_identical, "batched conditional expectation must match scalar exactly"
    assert scan_speedup >= required_scan, (
        f"FIRST_FEASIBLE batched scan only {scan_speedup:.1f}x faster than scalar"
    )
    assert ce_speedup >= required_ce, (
        f"conditional-expectation batched search only {ce_speedup:.1f}x faster"
    )
