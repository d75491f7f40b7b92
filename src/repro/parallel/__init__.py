"""Parallel execution layer: multiprocess candidate-slab scoring.

The derandomized seed search scores slabs of candidate hash pairs through
the batched cost evaluators; each slab is embarrassingly parallel across
candidates (the paper's machines evaluating conditional expectations for
candidate seed chunks concurrently).  This package shards slabs over worker
processes while keeping every outcome bit-identical to the in-process path:

* :mod:`repro.parallel.planner` — deterministic contiguous shard plans,
* :mod:`repro.parallel.slabs` — what crosses the process boundary (compact
  pair payloads per slab; the evaluator envelope once per level; the
  zero-copy shared-memory segment codec and lifecycle registry),
* :mod:`repro.parallel.executor` — the long-lived self-healing worker pool
  (shard retry, in-place respawn, in-process rescue, circuit breaker) and
  the ``pairs -> values`` scorer the selection strategies call,
* :mod:`repro.parallel.faults` — deterministic fault injection so every
  recovery path is exercised reproducibly in tests and CI.

Entry point for users: the ``parallel_workers`` knob on
:class:`repro.core.params.ColorReduceParameters` /
:class:`repro.core.low_space.params.LowSpaceParameters` (and the CLI's
``--parallel-workers``), routed through
:class:`repro.derand.conditional_expectation.HashPairSelector`.  It is the
only parallel option: the pool picks its own recovery policy, transport and
engagement floor.  ``parallel_workers=1`` (the default) never touches this
package.
"""

from repro.parallel.executor import (
    MIN_PAIRS_ENV,
    CircuitBreaker,
    ParallelSlabScorer,
    RecoveryPolicy,
    SlabExecutor,
    effective_cpu_count,
    get_executor,
    parallel_many_scorer,
    pool_health,
    reset_pool_health,
    resolve_min_pairs,
    shutdown_executors,
)
from repro.parallel.faults import (
    EVERY_TASK,
    FAULT_KINDS,
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
    plan_from_env,
)
from repro.parallel.planner import plan_shards, shard_slices
from repro.parallel.slabs import (
    SEGMENT_PREFIX,
    decode_evaluator,
    decode_slab,
    encode_evaluator,
    encode_slab,
    shared_memory_available,
    unlink_all_segments,
)

__all__ = [
    "CircuitBreaker",
    "EVERY_TASK",
    "FAULT_KINDS",
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "FaultSpec",
    "MIN_PAIRS_ENV",
    "ParallelSlabScorer",
    "RecoveryPolicy",
    "SEGMENT_PREFIX",
    "SlabExecutor",
    "decode_evaluator",
    "decode_slab",
    "effective_cpu_count",
    "encode_evaluator",
    "encode_slab",
    "get_executor",
    "parallel_many_scorer",
    "plan_from_env",
    "plan_shards",
    "pool_health",
    "reset_pool_health",
    "resolve_min_pairs",
    "shard_slices",
    "shared_memory_available",
    "shutdown_executors",
    "unlink_all_segments",
]
