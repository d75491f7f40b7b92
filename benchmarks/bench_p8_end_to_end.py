"""P8 — million-node scale: segmented cross-bin kernels, end to end.

Two claims, measured on one large Erdős–Rényi instance:

1. **Level-loop ratio** (informational record, ``gate: false``).  With
   ``FIRST_FEASIBLE`` selection every recursing bin of a level first
   scores its head pair, the first pair of its candidate sequence; the
   per-bin reference scores each bin's head with that bin's own
   ``many([head])`` probe (what the selector does), while the segmented
   kernel layer (:mod:`repro.core.level`) scores all sibling bins' heads
   in one concatenated pass.  The two paths produce bit-identical cost
   values (asserted here).  The record's times are one head per bin.

2. **End-to-end wall-clock** (gated record, ``metric: seconds``).  A full
   ``ColorReduce`` run is timed with a median-of-k protocol
   (``BENCH_P8_E2E_RUNS`` repeats, default 3; the recorded ``batch_s`` is
   the median, so one scheduler hiccup cannot fail the gate), and the
   coloring is asserted identical across the repeats.
   ``check_regression.py`` gates the median lower-is-better: the fresh
   time must stay within ``baseline / tolerance``.

3. **Low-space end-to-end wall-clock** (gated record
   ``e2e-lowspace``, ``metric: seconds``).  ``LowSpaceColorReduce`` with
   the default parameters on ``power_law(n, 4)`` (seed 0) with random
   (deg+1)-lists (seed ``1_000_003``) — at ``n = 10^5`` the
   ``ls-powerlaw`` instance of ``perfbench`` — timed with the same
   median-of-k protocol, the coloring asserted identical across the
   repeats.

4. **Neutrality + determinism** (smoke scale).  The run with
   ``level_use_batch`` on must produce the *identical* coloring, recursion
   tree and round ledger as with it off — the prefetch only moves work,
   never changes outcomes.  Peak RSS is recorded informationally
   (``gate: false`` — a capacity record, not a speedup).

The smoke scale runs ``n = 10^5`` on every push; the default (nightly)
scale runs ``n = 10^6``, where the flag-off reference would double an
already long run, so only the flag-on path executes end to end and the
differential assertions ride the smoke scale.  Results are written to
``BENCH_p8.json``.
"""

from __future__ import annotations

import os
import resource
import statistics
import time

from bench_json import emit_bench_json

from repro.core.classification import partition_cost_function
from repro.core.color_reduce import ColorReduce
from repro.core.driver import child_salt
from repro.core.level import prefetch_partition_level
from repro.core.low_space.color_reduce import LowSpaceColorReduce
from repro.core.low_space.params import LowSpaceParameters
from repro.core.params import ColorReduceParameters
from repro.core.partition import Partition
from repro.derand.conditional_expectation import candidate_pairs
from repro.graph.generators import degree_plus_one_palettes, erdos_renyi, power_law
from repro.graph.palettes import PaletteAssignment

_SCALES = {
    # (num nodes, average degree, run the flag-off reference end to end)
    "smoke": (100_000, 16, True),
    "default": (1_000_000, 8, False),
    "full": (1_000_000, 8, False),
}

#: Nodes of the low-space end-to-end instance per scale.
_LOW_SPACE_NODES = {"smoke": 100_000, "default": 1_000_000, "full": 1_000_000}

#: collect_factor 0.25 forces at least two partitioning levels at these
#: scales (children of the root are still above the collect threshold), so
#: the cross-bin prefetch actually engages below the root.
_PARAMS = dict(num_bins=4, collect_factor=0.25)


def _peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tree_signature(node):
    return (
        node.depth,
        node.num_nodes,
        node.num_edges,
        node.num_bins,
        node.num_bad_nodes,
        node.invariant_violations,
        tuple(_tree_signature(child) for child in node.children),
    )


def _level_head_scoring(graph, palettes, params, ell, global_nodes, min_children):
    """Time the per-bin vs segmented head scoring of the root's children.

    Returns ``(per_bin_seconds, segmented_seconds)`` after asserting the
    two paths produced identical head costs for every bin.
    """
    partition = Partition(params).run(graph, palettes, ell, global_nodes, salt=1)
    next_ell = params.next_ell(ell)
    children = [
        (b.bin_index, child_salt(1, b.bin_index), b.graph, b.palettes)
        for b in partition.color_bins
        if not b.is_empty
    ]
    assert len(children) >= min_children, (
        f"expected at least {min_children} non-empty sibling bins, got "
        f"{len(children)}"
    )
    builder = Partition(params)
    head_of = {
        key: candidate_pairs(
            *builder.build_families(cg, cp, next_ell, global_nodes), salt, 0, 1
        )
        for key, salt, cg, cp in children
    }

    started = time.perf_counter()
    reference = {}
    for key, _salt, child_graph, child_palettes in children:
        cost = partition_cost_function(
            child_graph, child_palettes, params, next_ell, global_nodes
        )
        reference[key] = cost.many(head_of[key])
    per_bin_seconds = time.perf_counter() - started

    started = time.perf_counter()
    prefetched = prefetch_partition_level(children, params, next_ell, global_nodes)
    segmented_seconds = time.perf_counter() - started

    for key, _salt, _cg, _cp in children:
        proxy = prefetched[key]
        assert proxy.many(head_of[key]) == reference[key], (
            f"segmented head cost diverged from the per-bin reference in "
            f"bin {key}"
        )
    return per_bin_seconds, segmented_seconds


def _median_of_runs(solve, runs: int):
    """``(median seconds, samples, first result)`` of ``runs`` timed solves,
    asserting every repeat reproduces the first run's coloring exactly."""
    samples = []
    first = None
    for _ in range(runs):
        started = time.perf_counter()
        result = solve()
        samples.append(time.perf_counter() - started)
        if first is None:
            first = result
        else:
            assert result.coloring == first.coloring, (
                "end-to-end repeats produced different colorings"
            )
    return statistics.median(samples), samples, first


def _low_space_e2e(experiment_scale: str, runs: int):
    """The gated ``e2e-lowspace`` record."""
    graph = power_law(_LOW_SPACE_NODES[experiment_scale], attachment=4, seed=0)
    palettes = degree_plus_one_palettes(graph, seed=1_000_003)
    median, samples, _ = _median_of_runs(
        lambda: LowSpaceColorReduce(LowSpaceParameters()).run(graph, palettes.copy()),
        runs,
    )
    return {
        "op": "e2e-lowspace",
        "n": graph.num_nodes,
        "batch_s": round(median, 5),
        "speedup": 0.0,
        "metric": "seconds",
        "runs": runs,
        "samples": [round(s, 5) for s in samples],
        "gate": True,
    }


def test_p8_end_to_end(benchmark, experiment_scale):
    num_nodes, avg_degree, run_reference = _SCALES[experiment_scale]
    graph = erdos_renyi(num_nodes, avg_degree / num_nodes, seed=42)
    palettes = PaletteAssignment.delta_plus_one(graph)
    ell = max(float(graph.max_degree()), 1.0)

    params_on = ColorReduceParameters.scaled(**_PARAMS)
    params_off = ColorReduceParameters.scaled(**_PARAMS, level_use_batch=False)

    # The smoke instance is known to spread the root across >= 2 color bins;
    # at n = 10^6 the selected pair happens to leave a single (500k-node)
    # non-empty color bin, which still exercises the segmented layer.
    per_bin_s, segmented_s = _level_head_scoring(
        graph, palettes, params_on, ell, graph.num_nodes,
        min_children=2 if experiment_scale == "smoke" else 1,
    )
    level_speedup = per_bin_s / segmented_s

    # Median-of-k end-to-end protocol: k timed runs (default 3, override
    # with BENCH_P8_E2E_RUNS), recording the median so one scheduler
    # hiccup cannot fail the wall-clock gate; every repeat must reproduce
    # the first run's coloring exactly.
    e2e_runs = max(1, int(os.environ.get("BENCH_P8_E2E_RUNS", "3")))
    on_seconds, samples, result_on = _median_of_runs(
        lambda: ColorReduce(params_on).run(graph), e2e_runs
    )

    off_seconds = None
    if run_reference:
        started = time.perf_counter()
        result_off = ColorReduce(params_off).run(graph)
        off_seconds = time.perf_counter() - started
        assert result_on.coloring == result_off.coloring, (
            "level_use_batch changed the coloring"
        )
        assert _tree_signature(result_on.recursion_root) == _tree_signature(
            result_off.recursion_root
        ), "level_use_batch changed the recursion tree"
        assert result_on.rounds == result_off.rounds, (
            "level_use_batch changed the round count"
        )

    rss_mb = _peak_rss_mb()
    # After the RSS read: the peak-rss record stays the ColorReduce run's.
    low_space_record = _low_space_e2e(experiment_scale, e2e_runs)

    benchmark.extra_info["num_nodes"] = graph.num_nodes
    benchmark.extra_info["num_edges"] = graph.num_edges
    benchmark.extra_info["level_speedup"] = round(level_speedup, 2)
    benchmark.extra_info["e2e_on_s"] = round(on_seconds, 2)
    benchmark.extra_info["peak_rss_mb"] = round(rss_mb, 1)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    records = [
        {
            "op": "level-head-scoring",
            "n": graph.num_nodes,
            "scalar_s": round(per_bin_s, 5),
            "batch_s": round(segmented_s, 5),
            "speedup": round(level_speedup, 2),
            "gate": False,
        },
        {
            "op": "peak-rss",
            "n": graph.num_nodes,
            "rss_mb": round(rss_mb, 1),
            "speedup": 0.0,
            "gate": False,
        },
    ]
    e2e_record = {
        "op": "e2e-colorreduce",
        "n": graph.num_nodes,
        "batch_s": round(on_seconds, 5),
        "speedup": 0.0,
        "metric": "seconds",
        "runs": e2e_runs,
        "samples": [round(s, 5) for s in samples],
        "gate": True,
    }
    if off_seconds is not None:
        e2e_record["scalar_s"] = round(off_seconds, 5)
    records.insert(1, e2e_record)
    records.append(low_space_record)
    emit_bench_json("p8", records)

    print()
    print("P8: million-node scale (segmented cross-bin kernels)")
    print(
        f"  instance: n={graph.num_nodes} m={graph.num_edges} "
        f"maxdeg={graph.max_degree()}"
    )
    print(
        f"  level head scoring: per-bin {per_bin_s:8.3f}s vs segmented "
        f"{segmented_s:8.3f}s ({level_speedup:5.2f}x, bit-identical values)"
    )
    if off_seconds is not None:
        print(
            f"  end-to-end ColorReduce: flag-off {off_seconds:8.2f}s vs "
            f"flag-on median {on_seconds:8.2f}s of {e2e_runs} "
            "(identical coloring/tree/rounds)"
        )
    else:
        print(
            f"  end-to-end ColorReduce (flag on): median {on_seconds:8.2f}s "
            f"of {e2e_runs} run(s) {[round(s, 2) for s in samples]}"
        )
    print(
        f"  end-to-end LowSpaceColorReduce: median "
        f"{low_space_record['batch_s']:8.2f}s of {e2e_runs} run(s) "
        f"{[round(s, 2) for s in low_space_record['samples']]}"
    )
    print(f"  peak RSS: {rss_mb:8.1f} MiB")
