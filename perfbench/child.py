"""One timed solve in a process of its own.

Usage (from ``run.py``; ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py WORKLOAD INPUTS.npz WORKDIR TRACE

Loads the pre-generated raw inputs, then times the set-up (instance build)
and the solve, checks the coloring, and prints one JSON record.  The
process does nothing else, so its RSS high-water mark is the workload's
``peak_rss_mb``.  With ``TRACE`` = 1 the layer entry points are wrapped
(:mod:`tracer`) for the set-up and the solve, and the record carries the
per-layer reduction.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback

import workloads
from tracer import Tracer


def solve_once(name: str, inputs: str, workdir: str, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    raw = workloads.load(inputs)
    # Import everything the timed region touches, so neither timing pays
    # for module loading a long-lived caller would have done once.
    import repro.core.color_reduce  # noqa: F401
    import repro.core.low_space.color_reduce  # noqa: F401
    import repro.runtime.durability  # noqa: F401

    if workload.workers > 1:
        import repro.parallel.executor  # noqa: F401
    gc.collect()
    tracer = Tracer().install() if trace else None
    try:
        started = time.perf_counter()
        graph, palettes = workloads.build(workload, raw)
        built = time.perf_counter()
        result = workloads.solve(workload, graph, palettes, workdir)
        solved = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.restore()
    record = {
        "setup_s": built - started,
        "solve_s": solved - built,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcome": workloads.check(raw, result),
        "mis_phases": int(getattr(result, "total_mis_phases", 0)),
        "pool_health": result.pool_health.as_dict(),
    }
    if hasattr(result.recursion_root, "selection_evaluations"):
        record["tree_selection_evaluations"] = _tree_sum(result.recursion_root)
    if tracer is not None:
        record["layers"] = tracer.layers((built, solved))
    return record


def _tree_sum(node) -> int:
    return node.selection_evaluations + sum(_tree_sum(c) for c in node.children)


def main(argv) -> int:
    name, inputs, workdir, trace = argv
    try:
        record = solve_once(name, inputs, workdir, trace == "1")
    except Exception as exc:  # the parent counts it as a failed solve
        traceback.print_exc()
        record = {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        if "repro.parallel.executor" in sys.modules:
            sys.modules["repro.parallel.executor"].shutdown_executors()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
