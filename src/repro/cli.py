"""Command-line interface: run the algorithms and experiments from a shell.

Usage examples::

    python -m repro color --workload dense-random-lists --nodes 500
    python -m repro color --workload social-power-law --nodes 800 --algorithm low-space
    python -m repro experiment E3 --scale smoke
    python -m repro list-experiments
    python -m repro list-workloads
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro import ColorReduce, LowSpaceColorReduce
from repro.analysis.metrics import collect_metrics
from repro.analysis.reporting import Table
from repro.errors import (
    ConfigurationError,
    ReproError,
    RunAbortedError,
    RunInterrupted,
)
from repro.experiments.registry import get_experiment, list_experiments
from repro.experiments.workloads import build_workload, list_workloads
from repro.graph.validation import count_colors_used
from repro.parallel.executor import effective_cpu_count


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Simple, Deterministic, Constant-Round Coloring in the "
            "Congested Clique' (Czumaj, Davies, Parter, PODC 2020)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    color = subparsers.add_parser("color", help="color a named workload and print metrics")
    color.add_argument(
        "--workload",
        default=None,
        help="named workload to color (default: dense-random-lists)",
    )
    color.add_argument(
        "--edge-list",
        default=None,
        metavar="PATH",
        help=(
            "color a graph read from an edge-list file instead of a named "
            "workload: one 'u v' pair of non-negative integers per line, "
            "'#' comments and blank lines ignored; palettes are random "
            "(deg+1)-lists seeded by --seed"
        ),
    )
    color.add_argument("--nodes", type=int, default=None, help="workload size (default 400)")
    color.add_argument("--seed", type=int, default=1)
    color.add_argument(
        "--algorithm",
        choices=("congested-clique", "low-space"),
        default="congested-clique",
        help="ColorReduce (Theorem 1.1) or LowSpaceColorReduce (Theorem 1.4)",
    )
    color.add_argument(
        "--parallel-workers",
        type=int,
        default=1,
        help=(
            "shard candidate-slab scoring of the derandomized seed search "
            "across this many worker processes (1 = in-process; outcomes "
            "are bit-identical for every value)"
        ),
    )

    durability = color.add_argument_group(
        "durability",
        "run-level checkpoint/resume, resource guardrails and signal-safe "
        "shutdown (see docs/ARCHITECTURE.md, 'Failure semantics')",
    )
    durability.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help=(
            "periodically write the completed-subtree frontier to PATH "
            "(two slot files, digest-verified); a killed run resumes "
            "bit-identically with --resume PATH"
        ),
    )
    durability.add_argument(
        "--checkpoint-every-levels",
        type=int,
        default=1,
        metavar="K",
        help="flush the checkpoint after every K-th recorded subtree (default 1)",
    )
    durability.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help=(
            "resume from a checkpoint written by a previous (interrupted) "
            "run of the same instance and parameters; the file's fingerprint "
            "is validated first"
        ),
    )
    durability.add_argument(
        "--memory-budget-mb",
        type=float,
        default=None,
        metavar="MB",
        help=(
            "soft RSS budget: at 80%% prefetch is disabled, at 90%% worker "
            "pools are drained, at 100%% the run checkpoints and aborts "
            "resumably (exit 75) instead of risking the OOM killer"
        ),
    )
    durability.add_argument(
        "--deadline-seconds",
        type=float,
        default=None,
        metavar="S",
        help=(
            "wall-clock watchdog: past the deadline the run checkpoints "
            "and aborts resumably (exit 75)"
        ),
    )

    experiment = subparsers.add_parser("experiment", help="run one experiment (E1-E9)")
    experiment.add_argument("experiment_id", help="experiment id, e.g. E3")
    experiment.add_argument("--scale", choices=("smoke", "default", "full"), default="smoke")

    serve = subparsers.add_parser(
        "serve",
        help="run the coloring service (async jobs + result cache); see docs/SERVICE.md",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port",
        type=int,
        default=8642,
        help="bind port; 0 picks an ephemeral port (default 8642)",
    )
    serve.add_argument(
        "--service-workers",
        type=int,
        default=2,
        metavar="N",
        help="executor threads = jobs computed concurrently (default 2)",
    )
    serve.add_argument(
        "--spool-dir",
        default=".repro-service",
        metavar="DIR",
        help=(
            "root of the service's on-disk state: per-job checkpoints "
            "(jobs/<id>/run.ckpt) and the persisted result cache (cache/)"
        ),
    )
    serve.add_argument(
        "--cache-capacity",
        type=int,
        default=256,
        metavar="N",
        help="in-memory result-cache entries kept, LRU (default 256)",
    )
    serve.add_argument(
        "--no-cache-persist",
        action="store_true",
        help="keep the result cache in memory only (skip spool-dir/cache)",
    )
    serve.add_argument(
        "--max-nodes",
        type=int,
        default=200_000,
        help="reject submissions with more nodes than this (default 200000)",
    )
    serve.add_argument(
        "--max-edges",
        type=int,
        default=2_000_000,
        help="reject submissions with more edges than this (default 2000000)",
    )
    serve.add_argument(
        "--memory-budget-mb",
        type=float,
        default=None,
        metavar="MB",
        help=(
            "per-job soft RSS budget; a job over budget checkpoints into "
            "the resumable 'checkpointed' state instead of being killed"
        ),
    )
    serve.add_argument(
        "--deadline-seconds",
        type=float,
        default=None,
        metavar="S",
        help="per-job wall-clock deadline; over-deadline jobs checkpoint resumably",
    )

    subparsers.add_parser("list-experiments", help="list the registered experiments")
    subparsers.add_parser("list-workloads", help="list the named workloads")
    return parser


def _validate_workers(workers: int) -> None:
    """Reject impossible worker counts up front, warn about dubious ones.

    A non-positive count is a configuration error (caught in :func:`main`
    and rendered as a one-line ``error:``), matching the parameter sets'
    own validation instead of surfacing a deep ``SlabExecutor`` failure.
    More workers than *usable* CPUs is legal — the pool still produces
    bit-identical results — but it only adds scheduling overhead, so it
    earns a warning on stderr rather than a failure.  The CPU count is
    affinity-aware (:func:`repro.parallel.executor.effective_cpu_count`):
    in a cgroup-pinned container ``os.cpu_count()`` reports the host's
    cores, which would silence the warning exactly where oversubscription
    hurts most.
    """
    if workers < 1:
        raise ConfigurationError(
            f"--parallel-workers must be at least 1, got {workers}"
        )
    cpus = effective_cpu_count()
    if workers > cpus:
        print(
            f"warning: --parallel-workers {workers} exceeds the "
            f"{cpus} available CPU(s); results are identical but "
            "oversubscription adds overhead",
            file=sys.stderr,
        )


def _durability_overrides(args: argparse.Namespace) -> dict:
    """The durability knobs, validated for contradictions up front.

    The parameter sets validate values (positivity, non-empty paths); the
    checks here are the CLI-level contradictions a parameter set cannot
    see — a ``--resume`` file that does not exist, or a cadence passed
    without anything to checkpoint.
    """
    import os

    if args.resume is not None and not os.path.exists(args.resume):
        raise ConfigurationError(
            f"--resume {args.resume}: checkpoint file does not exist"
        )
    if args.checkpoint_every_levels != 1 and args.checkpoint is None:
        raise ConfigurationError(
            "--checkpoint-every-levels requires --checkpoint"
        )
    return dict(
        checkpoint_path=args.checkpoint,
        resume_path=args.resume,
        checkpoint_every_levels=args.checkpoint_every_levels,
        memory_budget_mb=args.memory_budget_mb,
        deadline_seconds=args.deadline_seconds,
    )


def _load_edge_list(path: str):
    """Parse an edge-list file (delegates to :mod:`repro.graph.io`).

    The service layer's ``edge_list`` submissions go through the same
    parser, so both front ends reject malformed input with identical
    ``path:lineno`` messages.
    """
    from repro.graph.io import load_edge_list_file

    return load_edge_list_file(path, flag="--edge-list")


def _resolve_instance(args: argparse.Namespace):
    """The (graph, palettes, description) triple the color command runs on.

    Exactly one instance source applies: ``--edge-list`` (palettes are
    seeded (deg+1)-lists) or a named ``--workload`` (default
    ``dense-random-lists`` at 400 nodes).  Mixing the two, or a
    non-positive ``--nodes``, is a :class:`ConfigurationError`.
    """
    if args.edge_list is not None:
        if args.workload is not None:
            raise ConfigurationError(
                "--edge-list and --workload are mutually exclusive"
            )
        if args.nodes is not None:
            raise ConfigurationError(
                "--nodes conflicts with --edge-list (the file defines the nodes)"
            )
        from repro.graph.generators import degree_plus_one_palettes

        graph = _load_edge_list(args.edge_list)
        palettes = degree_plus_one_palettes(graph, seed=args.seed)
        return graph, palettes, f"edge-list {args.edge_list!r}"
    nodes = 400 if args.nodes is None else args.nodes
    if nodes < 1:
        raise ConfigurationError(f"--nodes must be positive, got {nodes}")
    workload = args.workload if args.workload is not None else "dense-random-lists"
    graph, palettes, spec = build_workload(workload, nodes, seed=args.seed)
    return graph, palettes, f"workload {spec.name!r} ({spec.problem})"


def _run_color(args: argparse.Namespace) -> int:
    _validate_workers(args.parallel_workers)
    overrides = dict(
        parallel_workers=args.parallel_workers, **_durability_overrides(args)
    )
    graph, palettes, description = _resolve_instance(args)
    print(
        f"{description}: n={graph.num_nodes}, "
        f"m={graph.num_edges}, Delta={graph.max_degree()}"
    )
    workers = args.parallel_workers
    if args.algorithm == "low-space":
        from repro.core.low_space.params import LowSpaceParameters

        result = LowSpaceColorReduce(
            LowSpaceParameters(**overrides)
        ).run(graph, palettes)
        print(
            f"LowSpaceColorReduce: rounds={result.rounds}, "
            f"depth={result.max_recursion_depth}, MIS phases={result.total_mis_phases}, "
            f"colors used={count_colors_used(result.coloring)}"
        )
    else:
        from repro.core.params import ColorReduceParameters

        result = ColorReduce(
            ColorReduceParameters(**overrides)
        ).run(graph, palettes)
        metrics = collect_metrics(graph, result)
        print(
            f"ColorReduce: rounds={metrics.rounds}, depth={metrics.recursion_depth}, "
            f"bad nodes={metrics.total_bad_nodes}, colors used={metrics.colors_used}"
        )
    if workers > 1:
        health = result.pool_health
        state = "degraded (self-healed)" if health.degraded else "healthy"
        print(f"pool health: {state}: {health.summary()}")
    if any(v is not None for v in (args.checkpoint, args.resume, args.memory_budget_mb, args.deadline_seconds)):
        print(f"durability: {result.durability.summary()}")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service.app import serve
    from repro.service.settings import ServiceSettings

    settings = ServiceSettings(
        host=args.host,
        port=args.port,
        workers=args.service_workers,
        spool_dir=args.spool_dir,
        cache_capacity=args.cache_capacity,
        persist_cache=not args.no_cache_persist,
        max_nodes=args.max_nodes,
        max_edges=args.max_edges,
        memory_budget_mb=args.memory_budget_mb,
        deadline_seconds=args.deadline_seconds,
    )
    return serve(settings)


def _run_experiment(args: argparse.Namespace) -> int:
    spec = get_experiment(args.experiment_id)
    print(f"{spec.experiment_id}: {spec.claim}  [{spec.paper_reference}]")
    result = spec.runner(args.scale)
    print()
    print(result.render())
    return 0


def _list_experiments() -> int:
    table = Table(title="registered experiments", columns=("id", "paper reference", "claim"))
    for spec in list_experiments():
        table.add_row(spec.experiment_id, spec.paper_reference, spec.claim)
    print(table.render())
    return 0


def _list_workloads() -> int:
    table = Table(title="named workloads", columns=("name", "problem", "description"))
    for spec in list_workloads():
        table.add_row(spec.name, spec.problem, spec.description)
    print(table.render())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro`` and the ``repro`` console script."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "color":
            return _run_color(args)
        if args.command == "experiment":
            return _run_experiment(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "list-experiments":
            return _list_experiments()
        if args.command == "list-workloads":
            return _list_workloads()
    except RunInterrupted as exc:
        # Signal-safe shutdown: the in-flight level finished, the final
        # checkpoint was flushed, pools drained, segments unlinked.  The
        # exit code is the conventional 128+signum so shell scripts see
        # the same code a raw kill would have produced.
        hint = (
            f"; resume with --resume {exc.checkpoint_path}"
            if exc.checkpoint_path
            else ""
        )
        print(f"interrupted: {exc}{hint}", file=sys.stderr)
        return 128 + exc.signum
    except RunAbortedError as exc:
        # Resource-guard abort (memory budget or deadline): checkpointed
        # if a path was configured, always resumable.  75 is EX_TEMPFAIL —
        # "try again later", which is exactly the contract.
        hint = (
            f"; resume with --resume {exc.checkpoint_path}"
            if exc.checkpoint_path
            else ""
        )
        print(f"aborted: {exc}{hint}", file=sys.stderr)
        return 75
    except ReproError as exc:
        # Library-level misconfiguration is a usage error, not a crash: one
        # actionable line, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1  # pragma: no cover - argparse enforces the choices above


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
