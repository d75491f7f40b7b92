"""The engine's benchmark: one workload, one seed, closed-loop solves.

Usage, from the repository root::

    python3 perfbench/run.py --workload cc-er --seed 0 --seconds 20 --trace 0

The seed makes the workload's raw inputs (outside every metric).  Then one
client runs solves back to back until ``--seconds`` have passed, each in a
fresh process (``child.py``) that builds the instance from the raw inputs,
solves it and checks the coloring.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and the metrics —
end-to-end ones with ``--trace 0``, per-layer ones with ``--trace 1``,
where traced and untraced solves alternate.  Metric names and units come
from ``BENCHMARK.json``; ``layers.json`` holds each layer metric's rationale
and the per-workload checks of the traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
PINS = os.path.join(HERE, "pins.json")
LAYERS = os.path.join(HERE, "layers.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

#: Whole-run budget: no solve starts, and none may run, past this point.
BUDGET_S = 170.0


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-pins", action="store_true",
        help="record this run's outcome as the pinned one for its workload and seed",
    )
    return parser.parse_args(argv)


def run_child(name: str, inputs: str, run_dir: str, traced: bool, timeout: float) -> dict:
    """One solve in a fresh process; returns its record (``error`` on failure)."""
    workdir = tempfile.mkdtemp(dir=run_dir)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [sys.executable, os.path.join(HERE, "child.py"), name, inputs, workdir,
               "1" if traced else "0"]
    # A session of its own, so a solve that is stopped takes its pool
    # workers with it.
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except BaseException as exc:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        # The killed pool could not unlink its shared-memory segments.
        from repro.parallel.slabs import sweep_orphan_segments

        sweep_orphan_segments()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        return {"error": f"solve exceeded {timeout:.0f} s", "traced": traced}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {"error": f"child exited {proc.returncode} without a record"}
    if "error" in record:
        sys.stderr.write(stderr)
    record["traced"] = traced
    return record


def judge(records, pinned) -> int:
    """Mark each record ok or failed; returns the number failed.

    A solve fails if it raised, returned an invalid coloring, or its
    outcome (coloring and tree digests, rounds, words) differs from the
    pinned one or from the run's first successful solve.
    """
    reference = pinned
    failed = 0
    for record in records:
        outcome = record.get("outcome")
        if outcome is None:
            record["ok"] = False
        else:
            reference = reference or outcome
            record["ok"] = outcome == reference
            if not record["ok"]:
                record["error"] = f"outcome {outcome} differs from {reference}"
        if not record["ok"]:
            failed += 1
            print(f"failed solve: {record.get('error')}", file=sys.stderr)
    return failed


def end_to_end(records) -> dict:
    ok = [r for r in records if r["ok"]]
    values = {
        key: statistics.median(r[key] for r in ok)
        for key in ("solve_s", "setup_s", "peak_rss_mb")
    }
    values["rounds"] = ok[0]["outcome"]["rounds"]
    values["message_words"] = ok[0]["outcome"]["message_words"]
    return values


def layer_values(record: dict) -> dict:
    """The per-layer metrics of one traced solve."""
    layers = record["layers"]
    health = record["pool_health"]
    out = dict(layers)
    partitions = layers.get("derand.select_calls", 0)
    candidates = layers.get("derand.candidates", 0)
    out.update({
        "derand.partitions": partitions,
        "derand.yield": partitions / candidates if candidates else 0.0,
        "runtime.ckpt_writes": layers.get("runtime.ckpt_write_calls", 0),
        "mis.phases": record["mis_phases"],
        "parallel.bytes_shared": health["bytes_shared"],
        "parallel.bytes_shipped": health["bytes_shipped"],
        "parallel.retries": health["shard_retries"],
        "driver.self_s": record["solve_s"] - layers["covered_s"],
        "trace.solve_s": record["solve_s"],
    })
    return out


def per_layer(records, names, expect):
    """Median per-layer metrics over the traced solves, plus the checks.

    Returns ``(values, problems)``; a problem is a counter that stayed zero
    where ``expect`` says the workload does work there (a silent mis-wrap),
    or moved where it says the layer is idle.
    """
    traced = [r for r in records if r["ok"] and r["traced"]]
    plain = [r["solve_s"] for r in records if r["ok"] and not r["traced"]]
    layers = [layer_values(r) for r in traced]
    values = {name: statistics.median(v.get(name, 0) for v in layers) for name in names}
    values["trace.overhead_s"] = values["trace.solve_s"] - statistics.median(plain)
    problems = []
    for v, record in zip(layers, traced):
        problems += [f"{c} is zero" for c in expect["work"] if not v.get(c, 0)]
        problems += [f"{c} is non-zero" for c in expect["idle"] if v.get(c, 0)]
        tree = record.get("tree_selection_evaluations")
        if tree is not None and tree != v.get("derand.candidates", 0):
            problems.append(
                f"derand.candidates {v.get('derand.candidates', 0)} != {tree} "
                "selection evaluations in the recursion tree"
            )
    return values, sorted(set(problems))


def main(argv) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no library sources at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, generate

    workload = WORKLOADS[args.workload]
    with open(PINS) as handle:
        pins = json.load(handle)
    with open(BENCHMARK) as handle:
        benchmark = json.load(handle)
    with open(LAYERS) as handle:
        expect = json.load(handle)["expect"][args.workload]
    pinned = pins.get(args.workload, {}).get(str(args.seed))

    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-{args.seed}-")
    try:
        inputs = os.path.join(run_dir, "inputs.npz")
        shape = generate(workload, args.seed, inputs)
        generated = time.monotonic()
        print(f"{args.workload} seed={args.seed} n={shape['n']} m={shape['m']} "
              f"max_degree={shape['max_degree']}; inputs in "
              f"{generated - started:.1f} s (excluded)")
        records = []
        deadline = generated + args.seconds
        minimum = 2 if args.trace else 1
        while len(records) < minimum or time.monotonic() < deadline:
            left = BUDGET_S - (time.monotonic() - started)
            if left < 10:
                break
            traced = bool(args.trace) and len(records) % 2 == 1
            records.append(run_child(args.workload, inputs, run_dir, traced, left))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = judge(records, pinned)
    # A traced run needs a successful solve of each kind for the overhead.
    kinds = {r["traced"] for r in records if r["ok"]}
    if not kinds or (args.trace and len(kinds) < 2):
        print("error: no successful solve to report", file=sys.stderr)
        return 1
    correct = failed == 0
    if args.update_pins:
        pins.setdefault(args.workload, {})[str(args.seed)] = next(
            r["outcome"] for r in records if r["ok"])
        with open(PINS, "w") as handle:
            json.dump(pins, handle, indent=2, sort_keys=True)
            handle.write("\n")
    units = {m["name"]: m["unit"]
             for m in benchmark["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        values, problems = per_layer(records, units, expect)
        for problem in problems:
            print(f"trace check failed on {args.workload}: {problem}", file=sys.stderr)
        correct = correct and not problems
    else:
        values = end_to_end(records)
    solves = len(records)
    print(f"{solves} solves, {failed} failed (failed_frac {failed / solves:.3f}); "
          f"pinned outcome {'checked' if pinned else 'not pinned for this seed'}")
    for key in ("setup_s", "solve_s"):
        samples = " ".join(f"{r[key]:.3f}" for r in records if r["ok"])
        print(f"  {key} samples: {samples}")
    for name, value in values.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": solves,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
