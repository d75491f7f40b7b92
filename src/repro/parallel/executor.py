"""Self-healing worker-process pool for parallel candidate-slab scoring.

:class:`SlabExecutor` owns ``W`` long-lived worker processes (the in-repo
analogue of the paper's MPC machines evaluating conditional expectations for
candidate seed chunks in parallel).  The protocol is deliberately tiny:

* ``("load", token, envelope)`` — broadcast once per evaluator (i.e. once
  per Partition level): the pickled cost evaluator
  (:func:`repro.parallel.slabs.encode_evaluator`), cached worker-side under
  ``token``.  The static arrays are **not** in the envelope; each worker
  prepares them once on its first slab and reuses them for every later slab
  of the level.
* ``("score", token, job, shard, payload)`` — one shard of a candidate slab
  (:func:`repro.parallel.slabs.encode_slab`); the worker answers
  ``("ok", job, shard, token, values)`` with the shard's cost vector,
  computed by the evaluator's ordinary ``many`` kernel, or
  ``("error", job, shard, token, message)``.

Determinism rule
----------------
Workers return *values*, never decisions.  The parent reassembles the
per-shard vectors in shard order (shards tile the slab in candidate order —
see :mod:`repro.parallel.planner`), so the assembled vector equals
``evaluator.many(slab)`` entry for entry, and the selection's positional
argmin / first-feasible reduction picks the same pair for every worker
count.  The evaluator must not be mutated while slabs are in flight (no
in-repo caller does: selection completes before the instance graph changes).

Failure semantics
-----------------
The paper's model assumes machines that always answer; real processes do
not.  Because workers only ever return values, every lost shard is exactly
recomputable, so the pool recovers from **any** worker failure without
changing a single output bit:

* a reply failing the integrity checks (job/token echo, shard length,
  float-decodable values) or carrying an explicit error is discarded and
  the shard is retried;
* a shard with no reply within ``RecoveryPolicy.shard_timeout`` seconds is
  re-enqueued to the next worker (the slow reply, if it ever arrives, is
  absorbed if first or dropped as stale);
* a dead worker is respawned *in place* — the replacement inherits the
  evaluator-envelope window so later slabs need no re-ship — and its
  in-flight shards are re-routed to survivors;
* a worker whose parent died without closing the pool (SIGKILL, the OOM
  killer) exits within ``PARENT_POLL_SECONDS`` of going idle;
* after ``RecoveryPolicy.max_shard_retries`` failed attempts a shard is
  rescored in-process via the evaluator's own ``many`` (always available:
  the parent holds the original evaluator), which is the bit-identical
  last resort;
* :class:`ParallelSlabScorer` carries a circuit breaker: repeated
  pool-level failures demote whole slabs to the in-process path for a
  cool-down, then a single probe slab re-engages the pool.

Every recovery action is counted in a :class:`repro.accounting.PoolHealth`
record (per pool and process-wide); :class:`ParallelExecutionError` remains
only for the truly unrecoverable cases — a closed pool, or a respawn the
host refuses (:class:`repro.errors.WorkerCrashError`).  Fault injection for
tests and CI lives in :mod:`repro.parallel.faults`.

Pools are cached per (worker count, start method) (:func:`get_executor`);
dead workers are respawned on lookup and pools are torn down at interpreter
exit.  ``workers=1`` never reaches this module — the selector keeps its
zero-overhead in-process path.

Transport and engagement
------------------------
The worker count is the pool's only input; everything else is chosen here.
The transport follows what the platform allows (see
:mod:`repro.parallel.slabs`): where shared memory is available, the
evaluator envelope's static arrays and each job's coefficient matrices move
through named shared-memory segments and the queues carry only small
control tuples; coefficients beyond ``int64`` and platforms without shared
memory take the pickle envelope, bit-identically.  :class:`~repro.accounting.PoolHealth`
splits the volume into ``bytes_shipped`` (pickled, per worker) vs
``bytes_shared`` (published once).  Engagement is adaptive:
:func:`resolve_min_pairs` disables the pool outright on hosts without a
second usable core (``REPRO_PARALLEL_MIN_PAIRS`` overrides, ``0`` forcing
engagement) so ``parallel_workers > 1`` is never a slowdown.  Recovery runs
on :class:`RecoveryPolicy` defaults; tests tune a pool by assigning its
``policy``.  :meth:`SlabExecutor.run_phase` extends the same shard/retry/
rescue machinery to the selected pair's count pass: each shard is a node
range ``[start, stop)`` counted by the evaluator's ``range_counts`` (see
:class:`repro.hashing.batch.BatchCostEvaluatorBase`), so the parent's
reassembly equals the serial ``[0, n)`` count.  That pass is the head
probe's: :class:`ParallelSlabScorer` scores a one-pair batch through it
(``probe``), and the evaluator keeps the counts for the classification or
low-space outcome that follows when the head wins; a losing head's winner
is counted by one more ``run_phase``.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import queue as queue_module
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.accounting import PoolHealth
from repro.errors import (
    ConfigurationError,
    ParallelExecutionError,
    ShardIntegrityError,
    WorkerCrashError,
)
from repro.parallel import slabs
from repro.parallel.faults import (
    FAULT_PLAN_ENV,
    FaultInjector,
    FaultPlan,
    plan_from_env,
)
from repro.parallel.planner import plan_shards

#: Evaluators cached per worker before FIFO eviction; recursion produces one
#: evaluator per Partition level, so a small window covers the active levels.
WORKER_CACHE_SIZE = 4

#: Slabs smaller than this stay in-process regardless of worker count: a
#: shard must carry enough pairs to amortise its encode + queue round-trip,
#: and sub-millisecond numpy work per shard loses to IPC (measured: the
#: default pipelines' 16-pair feasibility batches shard at a net loss, while
#: the conditional-expectation chunk slabs — 100+ pairs — win).  Either path
#: returns the exact ``many`` values, so this is a pure perf threshold.
MIN_PARALLEL_PAIRS = 32

#: Environment variable forcing the multiprocessing start method (the chaos
#: CI job runs the fault suite under both ``fork`` and ``spawn``).
START_METHOD_ENV = "REPRO_PARALLEL_START_METHOD"

#: Environment override for the adaptive engagement floor: an integer slab
#: size (``0`` = always engage the pool).  Takes precedence over the
#: cpu-count heuristic — tests and CI use it to exercise the pool on
#: single-core hosts.
MIN_PAIRS_ENV = "REPRO_PARALLEL_MIN_PAIRS"

_TOKEN_COUNTER = itertools.count(1)
_TOKEN_ATTR = "_parallel_token"

#: Process-wide cumulative health record (every executor and scorer also
#: bumps its own); pipelines snapshot/delta this around a run.
_HEALTH = PoolHealth()


def pool_health() -> PoolHealth:
    """A copy of the process-wide cumulative :class:`PoolHealth` record."""
    return _HEALTH.copy()


def reset_pool_health() -> None:
    """Zero the process-wide health record (tests)."""
    for counter in _HEALTH.as_dict():
        setattr(_HEALTH, counter, 0)


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs of the executor's self-healing behaviour.

    Attributes
    ----------
    max_shard_retries:
        Failed attempts tolerated per shard before the parent rescores the
        shard in-process (0 = rescue on the first failure).
    shard_timeout:
        Seconds to wait for one shard's reply before abandoning the
        attempt (a hung worker's reply is later dropped as stale).
    retry_backoff:
        Base seconds slept before a retry (scaled by the attempt number,
        capped at 1s); damps retry storms against a struggling host.
    breaker_threshold:
        Consecutive pool-level failures (slabs needing in-process rescue)
        before the circuit breaker opens.
    breaker_cooldown:
        Slabs scored in-process while the breaker is open, after which a
        single probe slab re-tests the pool.
    """

    max_shard_retries: int = 2
    shard_timeout: float = 30.0
    retry_backoff: float = 0.05
    breaker_threshold: int = 3
    breaker_cooldown: int = 8

    def __post_init__(self) -> None:
        if self.max_shard_retries < 0:
            raise ConfigurationError("max_shard_retries must be >= 0")
        if self.shard_timeout <= 0:
            raise ConfigurationError("shard_timeout must be positive")
        if self.retry_backoff < 0:
            raise ConfigurationError("retry_backoff must be >= 0")
        if self.breaker_threshold < 1:
            raise ConfigurationError("breaker_threshold must be >= 1")
        if self.breaker_cooldown < 1:
            raise ConfigurationError("breaker_cooldown must be >= 1")


def _preferred_start_method() -> str:
    """``fork`` where available (cheap, inherits imports), else ``spawn``.

    ``REPRO_PARALLEL_START_METHOD`` overrides (the chaos CI job exercises
    both); an unavailable override is a configuration error, not a silent
    fallback.
    """
    methods = multiprocessing.get_all_start_methods()
    override = os.environ.get(START_METHOD_ENV, "").strip()
    if override:
        if override not in methods:
            raise ConfigurationError(
                f"{START_METHOD_ENV}={override!r} is not available on this "
                f"platform (have {methods})"
            )
        return override
    return "fork" if "fork" in methods else "spawn"


def effective_cpu_count() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the host's cores even inside an
    affinity/cgroup-limited container; the scheduler affinity mask is the
    truthful bound where the platform exposes it.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_min_pairs(num_workers: int) -> Optional[int]:
    """The slab-size floor below which scoring stays in-process, or
    ``None`` when the pool should not engage at all.

    The ``REPRO_PARALLEL_MIN_PAIRS`` override (``0`` = always engage) wins;
    otherwise the adaptive default — ``None`` on hosts without a second
    usable core (where worker processes can only lose wall-clock), else
    ``max(2 * workers, MIN_PARALLEL_PAIRS)``.
    """
    raw = os.environ.get(MIN_PAIRS_ENV, "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"{MIN_PAIRS_ENV} must be an integer, got {raw!r}"
            ) from None
        if value < 0:
            raise ConfigurationError(f"{MIN_PAIRS_ENV} must be >= 0")
        return value
    if effective_cpu_count() < 2:
        return None
    return max(2 * num_workers, MIN_PARALLEL_PAIRS)


class _LoadFailure:
    """Worker-side marker: the evaluator envelope failed to unpickle."""

    def __init__(self, message: str) -> None:
        self.message = message


def _release_evaluator(evaluator) -> None:
    """Worker-side: detach an evicted evaluator's shared-memory segment."""
    segment = getattr(evaluator, "_shm_segment", None)
    if segment is not None:
        evaluator._shm_segment = None
        slabs.release_attached(segment, evaluator)


def _score_payload(evaluator, payload) -> List[float]:
    """Worker-side payload dispatch: slab (shm or inline) or node range."""
    tag = payload[0] if isinstance(payload, tuple) and payload else None
    if tag == "shmslab":
        return [float(v) for v in evaluator.many(slabs.open_slab_shard(payload))]
    if tag == "range":
        _, pair_payload, start, stop = payload
        h1, h2 = slabs.decode_slab(pair_payload)[0]
        return _range_values(evaluator, h1, h2, start, stop)
    return [float(v) for v in evaluator.many(slabs.decode_slab(payload))]


def _range_values(evaluator, h1, h2, start: int, stop: int) -> List[float]:
    """One node-range shard's ``d'`` then ``p'`` counts, as exact floats."""
    d_prime, p_prime = evaluator.range_counts(h1, h2, start, stop)
    return [float(v) for v in d_prime.tolist() + p_prime.tolist()]


#: How often an idle worker checks that its parent is still alive.
PARENT_POLL_SECONDS = 1.0


def _worker_main(
    worker_index: int, task_queue, result_queue, fault_plan: Optional[FaultPlan]
) -> None:
    """Worker loop: cache evaluators by token, score shards via ``many``.

    ``fault_plan`` is the deterministic chaos hook (tests/CI only, ``None``
    in production and for respawned replacements); see
    :mod:`repro.parallel.faults` for the taxonomy applied below.
    """
    from collections import OrderedDict

    injector = FaultInjector(fault_plan, worker_index)
    cache: "OrderedDict[int, object]" = OrderedDict()
    parent = os.getppid()
    while True:
        try:
            task = task_queue.get(timeout=PARENT_POLL_SECONDS)
        except queue_module.Empty:
            # A parent killed outright (SIGKILL, the OOM killer) sends no
            # ``None``, and the worker holds its own end of the queue's
            # pipe, so it would wait forever, holding the parent's stdout
            # and stderr open.  Reparented means the parent is gone.
            if os.getppid() != parent:
                return
            continue
        if task is None:
            return
        kind = task[0]
        if kind == "load":
            _, token, envelope = task
            try:
                cache[token] = slabs.restore_evaluator(envelope)
            except BaseException as exc:  # noqa: BLE001 - reported on use
                cache[token] = _LoadFailure(f"evaluator failed to load: {exc!r}")
            cache.move_to_end(token)
            # FIFO eviction by ship order.  Loads are broadcast to every
            # worker in the same order, and scoring never reorders the
            # cache, so all workers — and the parent's mirror of this
            # window (SlabExecutor._loaded_tokens) — evict identically.
            while len(cache) > WORKER_CACHE_SIZE:
                _, evicted = cache.popitem(last=False)
                _release_evaluator(evicted)
            continue
        _, token, job, shard, payload = task
        fault = injector.next_fault()
        if fault is not None:
            if fault.kind == "crash":
                os._exit(17)
            if fault.kind == "drop":
                continue
            if fault.kind == "error":
                result_queue.put(
                    ("error", job, shard, token, "injected worker fault")
                )
                continue
            if fault.kind == "delay":
                time.sleep(fault.seconds)
            # "garble" is applied to the computed values below.
        try:
            evaluator = cache.get(token)
            if evaluator is None:
                raise ParallelExecutionError(
                    f"no evaluator loaded for token {token}"
                )
            if isinstance(evaluator, _LoadFailure):
                raise ParallelExecutionError(evaluator.message)
            values = _score_payload(evaluator, payload)
            if fault is not None and fault.kind == "garble":
                values = values[:-1]
            result_queue.put(("ok", job, shard, token, values))
        except BaseException as exc:  # noqa: BLE001 - surfaced in the parent
            result_queue.put(("error", job, shard, token, repr(exc)))


class CircuitBreaker:
    """Consecutive-failure breaker over pool-level slab outcomes.

    Closed: slabs go to the pool; each slab that needed an in-process
    rescue (or failed outright) counts one failure, a clean slab resets
    the count.  After ``breaker_threshold`` consecutive failures the
    breaker opens: the next ``breaker_cooldown`` slabs are scored
    in-process outright (the pool gets a breather), then a single probe
    slab re-tests the pool — one more failure re-opens immediately, a
    success closes the breaker.  Either path returns the exact ``many``
    values, so the breaker changes *where* scoring happens, never *what*
    is scored.
    """

    def __init__(self, executor: "SlabExecutor") -> None:
        self._executor = executor
        self._failures = 0
        self._skip_remaining = 0

    @property
    def tripped(self) -> bool:
        """Whether the breaker is currently open (slabs bypass the pool)."""
        return self._skip_remaining > 0

    def allow(self) -> bool:
        """Whether the next slab may use the pool (consumes one cool-down
        step when open)."""
        if self._skip_remaining > 0:
            self._skip_remaining -= 1
            if self._skip_remaining == 0:
                # The next slab is the re-probe: one more failure re-trips
                # immediately instead of re-accumulating a full threshold.
                self._failures = self._executor.policy.breaker_threshold - 1
            return False
        return True

    def record_success(self) -> None:
        self._failures = 0

    def record_failure(self) -> None:
        self._failures += 1
        if self._failures >= self._executor.policy.breaker_threshold:
            self._failures = 0
            self._skip_remaining = self._executor.policy.breaker_cooldown
            self._executor._health_bump("breaker_trips")


class SlabExecutor:
    """A self-healing pool of worker processes scoring candidate-slab shards."""

    def __init__(
        self,
        num_workers: int,
        start_method: Optional[str] = None,
        policy: Optional[RecoveryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if num_workers < 2:
            raise ConfigurationError(
                "SlabExecutor needs at least 2 workers; workers=1 stays in-process"
            )
        self.num_workers = num_workers
        # Shared memory where the platform has it; the pickle envelope is
        # the fallback (and, per slab, the route for coefficients beyond
        # int64).
        self.transport = "shm" if slabs.shared_memory_available() else "pickle"
        self.policy = policy if policy is not None else RecoveryPolicy()
        self.health = PoolHealth()
        self.breaker = CircuitBreaker(self)
        if fault_plan is None:
            fault_plan = plan_from_env()
        self._fault_plan_json = fault_plan.to_json() if fault_plan else None
        from collections import OrderedDict

        self._context = multiprocessing.get_context(
            start_method or _preferred_start_method()
        )
        self._result_queue = self._context.Queue()
        self._task_queues: List = []
        self._processes: List = []
        # Mirror of every worker's evaluator cache — token -> envelope, in
        # ship (FIFO) order.  Evicting here exactly when the workers evict
        # keeps "is it still loaded over there?" answerable without a round
        # trip, and keeping the envelopes lets a respawned replacement
        # worker be brought up to date without re-pickling anything.
        self._loaded_tokens: "OrderedDict[int, tuple]" = OrderedDict()
        self._jobs = itertools.count(1)
        self._closed = False
        # Reclaim /dev/shm segments leaked by SIGKILLed/OOM-killed owners
        # before spawning anything: a previous run that died without its
        # atexit hook leaves repro_<pid>_* files behind, and pool startup
        # is the natural (and contention-free) moment to sweep them.
        if self.transport == "shm":
            from repro.parallel.slabs import sweep_orphan_segments

            swept = sweep_orphan_segments()
            if swept:
                self._health_bump("orphan_segments_swept", swept)
        for index in range(num_workers):
            task_queue, process = self._spawn_one(index, fault_plan)
            self._task_queues.append(task_queue)
            self._processes.append(process)

    # ------------------------------------------------------------------
    # health plumbing
    # ------------------------------------------------------------------
    def _health_bump(self, counter: str, amount: int = 1) -> None:
        """Count one recovery event, per-pool and process-wide."""
        self.health.bump(counter, amount)
        _HEALTH.bump(counter, amount)

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn_one(self, index: int, fault_plan: Optional[FaultPlan]):
        task_queue = self._context.Queue()
        process = self._context.Process(
            target=_worker_main,
            args=(index, task_queue, self._result_queue, fault_plan),
            daemon=True,
        )
        process.start()
        return task_queue, process

    def _respawn_worker(self, index: int) -> None:
        """Replace a dead worker in place and replay the evaluator window.

        Replacements never carry a fault plan (each injected fault fires at
        most once), so recovery always converges in the chaos tests.
        """
        self._close_queue(self._task_queues[index])
        try:
            task_queue, process = self._spawn_one(index, fault_plan=None)
        except BaseException as exc:  # pragma: no cover - host refused a spawn
            self.close()
            raise WorkerCrashError(
                f"worker {index} died and could not be respawned: {exc!r}"
            ) from exc
        self._task_queues[index] = task_queue
        self._processes[index] = process
        for token, envelope in self._loaded_tokens.items():
            task_queue.put(("load", token, envelope))
        self._health_bump("worker_respawns")

    def _reap_dead_workers(self, pending: Dict[int, Tuple[int, float]]) -> List[int]:
        """Respawn dead workers in place; return their pending shard indexes."""
        affected: List[int] = []
        for index, process in enumerate(self._processes):
            if process.is_alive():
                continue
            process.join(timeout=1.0)
            self._health_bump("worker_deaths")
            self._respawn_worker(index)
            affected.extend(
                shard for shard, (worker, _) in pending.items() if worker == index
            )
        return affected

    def ensure_workers(self) -> None:
        """Respawn any workers that died while the pool was idle."""
        if self._closed:
            raise ParallelExecutionError("executor is closed")
        self._reap_dead_workers({})

    @property
    def alive(self) -> bool:
        """Whether the pool is usable as-is (open, all workers running).

        A pool with dead workers is *not* unusable — :meth:`score_slab`
        and :meth:`ensure_workers` heal it in place — but callers holding
        no registry entry may use this to decide on a rebuild.
        """
        return not self._closed and all(p.is_alive() for p in self._processes)

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def score_slab(self, evaluator, pairs: Sequence) -> List[float]:
        """Score one candidate slab across the pool, surviving any worker
        failure.

        Ships the evaluator on first sight (broadcast to every worker),
        splits the slab with the deterministic planner, and reassembles the
        per-shard cost vectors in shard order — the result equals
        ``evaluator.many(pairs)`` exactly, whether a shard was answered on
        the first attempt, retried on another worker, or rescued
        in-process.  Under the ``shm`` transport the slab's coefficient
        matrices live in one job-scoped shared-memory segment (unlinked
        when the job completes); slabs that cannot be published (primes
        beyond ``int64``) ship inline as before.  Raises only if the pool
        is closed.
        """
        pairs = list(pairs)
        if not pairs:
            return []
        if self._closed:
            raise ParallelExecutionError("executor is closed")
        token = self._ensure_loaded(evaluator)
        shards = plan_shards(len(pairs), self.num_workers)
        slab = slabs.publish_slab(pairs) if self.transport == "shm" else None
        if slab is not None:
            self._health_bump("bytes_shared", slab.nbytes)
            coeff_words = 0
        else:
            h1_ref, h2_ref = pairs[0]
            coeff_words = len(h1_ref.coefficients) + len(h2_ref.coefficients)

        def build_payload(shard_index: int):
            start, stop = shards[shard_index]
            if slab is not None:
                return slab.shard_payload(start, stop)
            self._health_bump("bytes_shipped", 8 * coeff_words * (stop - start))
            return slabs.encode_slab(pairs[start:stop])

        def rescue(shard_index: int) -> List[float]:
            start, stop = shards[shard_index]
            return [float(v) for v in evaluator.many(pairs[start:stop])]

        def expected_len(shard_index: int) -> int:
            start, stop = shards[shard_index]
            return stop - start

        try:
            per_shard = self._run_shards(
                token, shards, build_payload, rescue, expected_len
            )
        finally:
            if slab is not None:
                slabs.unlink_segment(slab.name)
        values_out: List[float] = []
        for shard_values in per_shard:
            values_out.extend(shard_values)
        return values_out

    def run_phase(
        self, evaluator, h1, h2, num_items: int
    ) -> Tuple[List[float], List[float]]:
        """Shard the selected pair's count pass across the pool by node range.

        Workers call ``evaluator.range_counts(h1, h2, start, stop)`` on
        their range and reply with its ``d'`` then ``p'`` counts; the parent
        reassembles both full-length vectors in node order.  Same
        retry/respawn/rescue machinery as :meth:`score_slab` — a failed
        shard is recomputed in-process via the parent evaluator's own
        ``range_counts`` — so the result is bit-identical to the serial
        pass.  Raises only if the pool is closed.
        """
        if num_items <= 0:
            return [], []
        if self._closed:
            raise ParallelExecutionError("executor is closed")
        token = self._ensure_loaded(evaluator)
        shards = plan_shards(num_items, self.num_workers)
        pair_payload = slabs.encode_slab([(h1, h2)])

        def build_payload(shard_index: int):
            start, stop = shards[shard_index]
            return ("range", pair_payload, start, stop)

        def rescue(shard_index: int) -> List[float]:
            start, stop = shards[shard_index]
            return _range_values(evaluator, h1, h2, start, stop)

        def expected_len(shard_index: int) -> int:
            start, stop = shards[shard_index]
            return 2 * (stop - start)

        per_shard = self._run_shards(
            token, shards, build_payload, rescue, expected_len
        )
        d_prime: List[float] = []
        p_prime: List[float] = []
        for (start, stop), values in zip(shards, per_shard):
            width = stop - start
            d_prime.extend(values[:width])
            p_prime.extend(values[width:])
        return d_prime, p_prime

    def _run_shards(
        self, token, shards, build_payload, compute_in_process, expected_len
    ) -> List[List[float]]:
        """Dispatch/collect one job's shards with retry, respawn and
        in-process rescue; returns the per-shard value vectors in shard
        order.  ``compute_in_process`` is the bit-identical last resort run
        by the parent when a shard exhausts its retries."""
        job = next(self._jobs)
        policy = self.policy
        collected: Dict[int, List[float]] = {}
        attempts = [0] * len(shards)
        #: shard -> (worker index it was sent to, reply deadline)
        pending: Dict[int, Tuple[int, float]] = {}

        def rescue(shard_index: int) -> None:
            collected[shard_index] = compute_in_process(shard_index)
            self._health_bump("in_process_rescues")

        def dispatch(shard_index: int, worker_index: int) -> None:
            self._task_queues[worker_index].put(
                ("score", token, job, shard_index, build_payload(shard_index))
            )
            pending[shard_index] = (
                worker_index,
                time.monotonic() + policy.shard_timeout,
            )

        def fail_attempt(shard_index: int) -> None:
            worker_index, _ = pending.pop(shard_index)
            attempts[shard_index] += 1
            if attempts[shard_index] > policy.max_shard_retries:
                rescue(shard_index)
                return
            if policy.retry_backoff:
                time.sleep(min(policy.retry_backoff * attempts[shard_index], 1.0))
            self._health_bump("shard_retries")
            # Deterministic re-route: the next worker in ring order (the
            # failed one may be dead, wedged, or merely slow; values are
            # placement-independent, so any worker is equally correct).
            dispatch(shard_index, (worker_index + 1) % self.num_workers)

        for shard_index in range(len(shards)):
            # At most num_workers shards, so the initial assignment is one
            # shard per worker — and deterministic, like the plan itself.
            dispatch(shard_index, shard_index % self.num_workers)

        poll = max(0.01, min(0.2, policy.shard_timeout / 4.0))
        while len(collected) < len(shards):
            # Dead workers first: respawn in place, re-route their shards.
            for shard_index in self._reap_dead_workers(pending):
                fail_attempt(shard_index)
            # Absorb one reply; short poll so deaths and deadline expiries
            # are noticed promptly instead of stalling on a silent queue.
            try:
                reply = self._result_queue.get(timeout=poll)
            except queue_module.Empty:
                reply = None
            if reply is not None:
                shard_index, values, failure = self._parse_reply(
                    reply, job, token, expected_len, pending
                )
                if shard_index is not None:
                    if failure is None:
                        collected[shard_index] = values
                        pending.pop(shard_index, None)
                    else:
                        self._health_bump(failure)
                        fail_attempt(shard_index)
            # Per-shard deadlines: a hung/dropped reply only costs one
            # timeout window, not the whole run.
            now = time.monotonic()
            for shard_index in [
                shard
                for shard, (_, deadline) in pending.items()
                if now > deadline
            ]:
                self._health_bump("shard_timeouts")
                fail_attempt(shard_index)

        return [collected[shard_index] for shard_index in range(len(shards))]

    def _ensure_loaded(self, evaluator) -> int:
        token = self._token_of(evaluator)
        if token not in self._loaded_tokens:
            envelope = slabs.publish_evaluator(evaluator, self.transport)
            shipped, shared = slabs.envelope_cost(envelope)
            # The pickled part of the envelope crosses the queue once per
            # worker; the shared part is published once, period.
            self._health_bump("bytes_shipped", shipped * self.num_workers)
            if shared:
                self._health_bump("bytes_shared", shared)
            for task_queue in self._task_queues:
                task_queue.put(("load", token, envelope))
            self._loaded_tokens[token] = envelope
            while len(self._loaded_tokens) > WORKER_CACHE_SIZE:
                # The workers evict the same oldest-shipped token on this
                # load; a later slab for it will simply re-ship.  The
                # evicted envelope's segment has no consumer left either —
                # unlink it now rather than at close.
                _, evicted = self._loaded_tokens.popitem(last=False)
                for name in slabs.envelope_segments(evicted):
                    slabs.unlink_segment(name)
        return token

    def _parse_reply(self, reply, job, token, expected_len, pending):
        """Validate one reply; returns ``(shard, values, failure_counter)``.

        ``(None, None, None)`` means the reply was stale (an older job, or
        a shard already resolved by a faster attempt) and carried no
        information.  A live shard's reply either passes the integrity
        checks (job match established, token echo, exact shard length,
        float-decodable values) and returns its vector, or comes back with
        the :class:`PoolHealth` counter to charge before retrying.
        """
        try:
            kind, reply_job, shard_index, reply_token, data = reply
        except (TypeError, ValueError):
            # Unintelligible envelope (wrong arity) with no shard to pin it
            # on; count it so garbage never passes silently.
            self._health_bump("integrity_failures")
            return None, None, None
        if reply_job != job or shard_index not in pending:
            # Stale: a prior job's shard, or a slow duplicate of a shard
            # that a retry (or rescue) already resolved.  Values are
            # deterministic, so dropping the duplicate loses nothing.
            return None, None, None
        if kind == "error":
            return shard_index, None, "error_replies"
        required = expected_len(shard_index)
        try:
            if reply_token != token:
                raise ShardIntegrityError(
                    f"token echo mismatch on shard {shard_index}: "
                    f"{reply_token!r} != {token!r}"
                )
            values = [float(v) for v in data]
            if len(values) != required:
                raise ShardIntegrityError(
                    f"shard {shard_index} replied {len(values)} values, "
                    f"expected {required}"
                )
        except (ShardIntegrityError, TypeError, ValueError):
            return shard_index, None, "integrity_failures"
        return shard_index, values, None

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and release the queues; safe to call twice."""
        if self._closed:
            return
        self._closed = True
        for task_queue, process in zip(self._task_queues, self._processes):
            try:
                task_queue.put(None)
            except Exception:  # pragma: no cover - queue already broken
                pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - wedged worker
                process.terminate()
                process.join(timeout=5.0)
        # Release the queue resources (feeder threads and pipe fds) so
        # repeated pool respawns cannot accumulate open descriptors.
        for task_queue in self._task_queues:
            self._close_queue(task_queue)
        self._close_queue(self._result_queue)
        # The workers are gone; this pool's envelope segments have no
        # consumer left and are unlinked here (atexit is only the backstop).
        for envelope in self._loaded_tokens.values():
            for name in slabs.envelope_segments(envelope):
                slabs.unlink_segment(name)
        self._loaded_tokens.clear()

    @staticmethod
    def _close_queue(q) -> None:
        """Close one multiprocessing queue without risking a hang.

        ``close()`` stops the feeder and closes the write pipe;
        ``cancel_join_thread()`` guarantees interpreter exit never blocks
        on unflushed buffers (replies nobody will read); the remaining
        reader fd is released when the queue object is dropped.
        """
        try:
            q.cancel_join_thread()
            q.close()
        except Exception:  # pragma: no cover - queue already broken
            pass

    # ------------------------------------------------------------------
    @staticmethod
    def _token_of(evaluator) -> int:
        """A process-unique token identifying this evaluator instance."""
        token = getattr(evaluator, _TOKEN_ATTR, None)
        if token is None:
            token = next(_TOKEN_COUNTER)
            setattr(evaluator, _TOKEN_ATTR, token)
        return token


# ----------------------------------------------------------------------
# process-wide pool registry
# ----------------------------------------------------------------------
_EXECUTORS: Dict[Tuple[int, str], SlabExecutor] = {}


def get_executor(num_workers: int) -> SlabExecutor:
    """The shared pool for ``num_workers`` under the current start method,
    (re)spawned lazily.

    Pools persist across selections and Partition levels so workers are
    spawned once per process; dead workers are respawned in place rather
    than tearing the pool down.  The registry is keyed on (worker count,
    start method): a pool spawned under ``fork`` is never silently reused
    after ``REPRO_PARALLEL_START_METHOD`` asks for ``spawn``.  A cached
    pool is rebuilt when it was closed or when the ``REPRO_FAULT_PLAN``
    environment hook changed (a new chaos scenario must reach fresh
    workers).
    """
    env_plan = os.environ.get(FAULT_PLAN_ENV, "").strip() or None
    start_method = _preferred_start_method()
    key = (num_workers, start_method)
    executor = _EXECUTORS.get(key)
    if executor is not None and (
        executor._closed or executor._fault_plan_json != env_plan
    ):
        executor.close()
        executor = None
    if executor is None:
        executor = SlabExecutor(num_workers, start_method=start_method)
        _EXECUTORS[key] = executor
    else:
        executor.ensure_workers()
    return executor


def shutdown_executors() -> None:
    """Close every cached pool (used by tests and at interpreter exit)."""
    while _EXECUTORS:
        _, executor = _EXECUTORS.popitem()
        executor.close()


atexit.register(shutdown_executors)


class ParallelSlabScorer:
    """``pairs -> values`` adapter the selection strategies call.

    Drop-in for the evaluator's bound ``many``: slabs below the IPC
    break-even (``min_pairs``, resolved by :func:`resolve_min_pairs` —
    ``None`` disables the pool outright on hosts without a second usable
    core) are scored in-process; larger slabs go through the pool.  The
    pool self-heals around worker failures, and the executor's circuit
    breaker demotes scoring to the in-process path after repeated
    pool-level failures (with a cool-down re-probe), so a degraded host
    gracefully converges to exactly the single-process behaviour.  A
    one-pair batch (the head probe) is the selected pair's count pass,
    sharded by node range through :meth:`phase_values` and kept by the
    evaluator for the classification.  Every path returns the exact
    ``many`` values, so none of this ever affects the selected pair.
    """

    def __init__(self, cost, executor: SlabExecutor) -> None:
        self.cost = cost
        self.executor = executor
        self.min_pairs = resolve_min_pairs(executor.num_workers)

    def __call__(self, pairs) -> List[float]:
        pairs = list(pairs)
        if len(pairs) == 1:
            return [self.cost.probe(*pairs[0], scorer=self)]
        if self.min_pairs is None or len(pairs) < self.min_pairs:
            return self.cost.many(pairs)
        breaker = self.executor.breaker
        if not breaker.allow():
            self.executor._health_bump("breaker_skipped_slabs")
            return self.cost.many(pairs)
        rescues_before = self.executor.health.in_process_rescues
        try:
            values = self.executor.score_slab(self.cost, pairs)
        except ParallelExecutionError:
            # Truly unrecoverable pool failure (closed pool, refused
            # respawn): degrade to the bit-identical in-process path and
            # let the breaker decide whether to keep trying the pool.
            self.executor._health_bump("in_process_rescues")
            breaker.record_failure()
            return self.cost.many(pairs)
        if self.executor.health.in_process_rescues > rescues_before:
            breaker.record_failure()
        else:
            breaker.record_success()
        return values

    def phase_values(
        self, h1, h2, num_items: int
    ) -> Optional[Tuple[List[float], List[float]]]:
        """Pool-sharded ``(d', p')`` of the selected pair, or ``None`` when
        the caller should count them itself (below the engagement floor,
        breaker open, or unrecoverable pool failure).  Either way the
        final counts are bit-identical — the pool only moves *where* the
        bincounts run.
        """
        if (
            self.min_pairs is None
            or num_items < 2
            or num_items < self.min_pairs
        ):
            return None
        breaker = self.executor.breaker
        if not breaker.allow():
            self.executor._health_bump("breaker_skipped_slabs")
            return None
        rescues_before = self.executor.health.in_process_rescues
        try:
            parts = self.executor.run_phase(self.cost, h1, h2, num_items)
        except ParallelExecutionError:
            self.executor._health_bump("in_process_rescues")
            breaker.record_failure()
            return None
        if self.executor.health.in_process_rescues > rescues_before:
            breaker.record_failure()
        else:
            breaker.record_success()
        return parts


def parallel_many_scorer(cost, num_workers: int) -> Optional[ParallelSlabScorer]:
    """A parallel scorer for ``cost``, or ``None`` if it cannot (or should
    not) be shipped.

    Only the batched cost evaluators (anything deriving from
    :class:`repro.hashing.batch.BatchCostEvaluatorBase`, which guarantees a
    picklable state and a slab-sliced ``many``) cross the process boundary;
    other ``many``-bearing costs stay on the in-process path.  Returns
    ``None`` — without spawning anything — when adaptive engagement rules
    the pool out (:func:`resolve_min_pairs`), so ``parallel_workers > 1``
    on a single-core host costs nothing at all.
    """
    if num_workers < 2:
        return None
    from repro.hashing.batch import BatchCostEvaluatorBase

    if not isinstance(cost, BatchCostEvaluatorBase):
        return None
    if resolve_min_pairs(num_workers) is None:
        return None
    return ParallelSlabScorer(cost, get_executor(num_workers))
