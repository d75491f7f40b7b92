"""Chaos tests: the parallel scoring pool under deterministic fault injection.

The contract under test (see "Failure semantics" in ``docs/ARCHITECTURE.md``):
for ANY injected worker failure — crash, hang, dropped reply, garbled reply,
error reply — the pool recovers (shard retry, in-place respawn, in-process
rescue, circuit breaker) and produces cost vectors, selected seeds,
recursion trees and colorings bit-identical to the fault-free single-process
run.  The only visible trace of a fault is the :class:`PoolHealth` record.
"""

from __future__ import annotations

import gc
import os
import signal
import time

import pytest

from repro.accounting import PoolHealth
from repro.core.classification import partition_cost_function
from repro.core.color_reduce import ColorReduce
from repro.core.params import ColorReduceParameters
from repro.core.partition import Partition
from repro.errors import ConfigurationError, ParallelExecutionError
from repro.graph.generators import erdos_renyi
from repro.graph.palettes import PaletteAssignment
from repro.parallel import (
    EVERY_TASK,
    FAULT_KINDS,
    FAULT_PLAN_ENV,
    CircuitBreaker,
    FaultPlan,
    FaultSpec,
    ParallelSlabScorer,
    RecoveryPolicy,
    SlabExecutor,
    get_executor,
    plan_from_env,
    shutdown_executors,
)
from repro.parallel.faults import FaultInjector


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_executors()


@pytest.fixture(autouse=True)
def _tiny_parallel_floor(monkeypatch):
    """Drop the IPC break-even floor so small test slabs genuinely cross the
    process boundary (values are identical either way; these tests exist to
    prove the recovery paths bit-exact).  The env override also pins the
    adaptive engagement floor: on a single-CPU runner the pool would
    otherwise never engage at all."""
    from repro.parallel import executor as executor_module

    monkeypatch.setattr(executor_module, "MIN_PARALLEL_PAIRS", 2)
    monkeypatch.setenv(executor_module.MIN_PAIRS_ENV, "2")


# ----------------------------------------------------------------------
# shared small instance (mirrors tests/test_parallel.py)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def selection_setup():
    graph = erdos_renyi(220, 0.12, seed=17)
    palettes = PaletteAssignment.delta_plus_one(graph)
    params = ColorReduceParameters.scaled(num_bins=3)
    ell = max(float(graph.max_degree()), 2.0)
    family1, family2 = Partition(params).build_families(
        graph, palettes, ell, graph.num_nodes
    )
    return graph, palettes, params, ell, family1, family2


def _fresh_cost(setup):
    graph, palettes, params, ell, _, _ = setup
    return partition_cost_function(graph, palettes, params, ell, graph.num_nodes)


def _pairs(setup, count, salt=0):
    _, _, _, _, family1, family2 = setup
    return [
        (family1.from_seed_int(3 * i + salt), family2.from_seed_int(5 * i + 1 + salt))
        for i in range(count)
    ]


#: Fast recovery knobs for the direct-executor tests (the delay faults below
#: sleep longer than this timeout to simulate a hang).
FAST = RecoveryPolicy(max_shard_retries=2, shard_timeout=1.5, retry_backoff=0.01)


# ----------------------------------------------------------------------
# FaultPlan / FaultSpec / FaultInjector units
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(worker=-1, task=1, kind="crash")
        with pytest.raises(ConfigurationError):
            FaultSpec(worker=0, task=-1, kind="crash")
        with pytest.raises(ConfigurationError):
            FaultSpec(worker=0, task=1, kind="segfault")
        with pytest.raises(ConfigurationError):
            FaultSpec(worker=0, task=1, kind="delay", seconds=-0.5)

    def test_json_roundtrip(self):
        plan = FaultPlan.of(
            FaultSpec(worker=0, task=2, kind="crash"),
            FaultSpec(worker=1, task=EVERY_TASK, kind="delay", seconds=0.25),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert not plan.is_empty
        assert FaultPlan.of().is_empty

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_json("{not json")
        with pytest.raises(ConfigurationError):
            FaultPlan.from_json('{"worker": 0}')  # not a list
        with pytest.raises(ConfigurationError):
            FaultPlan.from_json('[{"worker": 0, "task": 1, "kind": "nope"}]')
        with pytest.raises(ConfigurationError):
            FaultPlan.from_json('[{"worker": 0, "frequency": 2}]')

    def test_scattered_is_a_pure_function_of_the_seed(self):
        a = FaultPlan.scattered(seed=9, num_workers=4)
        b = FaultPlan.scattered(seed=9, num_workers=4)
        c = FaultPlan.scattered(seed=10, num_workers=4)
        assert a == b
        assert a != c
        assert all(spec.kind in FAULT_KINDS for spec in a.specs)

    def test_for_worker_filters(self):
        plan = FaultPlan.of(
            FaultSpec(worker=0, task=1, kind="drop"),
            FaultSpec(worker=2, task=1, kind="error"),
            FaultSpec(worker=0, task=3, kind="garble"),
        )
        assert [spec.kind for spec in plan.for_worker(0)] == ["drop", "garble"]
        assert plan.for_worker(1) == ()

    def test_plan_from_env(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        assert plan_from_env() is None
        plan = FaultPlan.of(FaultSpec(worker=1, task=1, kind="drop"))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        assert plan_from_env() == plan
        monkeypatch.setenv(FAULT_PLAN_ENV, "[{]")
        with pytest.raises(ConfigurationError):
            plan_from_env()


class TestFaultInjector:
    def test_one_shot_fires_on_its_ordinal_only(self):
        plan = FaultPlan.of(FaultSpec(worker=0, task=2, kind="crash"))
        injector = FaultInjector(plan, worker_index=0)
        assert injector.next_fault() is None  # task 1
        fired = injector.next_fault()  # task 2
        assert fired is not None and fired.kind == "crash"
        assert injector.next_fault() is None  # task 3: spec consumed

    def test_other_workers_see_nothing(self):
        plan = FaultPlan.of(FaultSpec(worker=0, task=1, kind="crash"))
        injector = FaultInjector(plan, worker_index=1)
        assert all(injector.next_fault() is None for _ in range(5))

    def test_persistent_fires_every_task_and_is_shadowed_by_ordinals(self):
        plan = FaultPlan.of(
            FaultSpec(worker=0, task=EVERY_TASK, kind="garble"),
            FaultSpec(worker=0, task=2, kind="error"),
        )
        injector = FaultInjector(plan, worker_index=0)
        kinds = [injector.next_fault().kind for _ in range(4)]
        assert kinds == ["garble", "error", "garble", "garble"]


# ----------------------------------------------------------------------
# executor recovery: every fault kind, bit-identical values, counted
# ----------------------------------------------------------------------
#: What each single fault must leave in the health record (counter -> floor).
EXPECTED_COUNTERS = {
    "crash": {"worker_deaths": 1, "worker_respawns": 1, "shard_retries": 1},
    "delay": {"shard_timeouts": 1, "shard_retries": 1},
    "drop": {"shard_timeouts": 1, "shard_retries": 1},
    "garble": {"integrity_failures": 1, "shard_retries": 1},
    "error": {"error_replies": 1, "shard_retries": 1},
}


class TestExecutorRecovery:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_single_fault_recovers_bit_identically(self, selection_setup, kind):
        cost = _fresh_cost(selection_setup)
        pairs = _pairs(selection_setup, 30)
        expected = cost.many(pairs)
        plan = FaultPlan.of(
            FaultSpec(worker=0, task=1, kind=kind, seconds=FAST.shard_timeout + 1.0)
        )
        executor = SlabExecutor(2, policy=FAST, fault_plan=plan)
        try:
            # Never raises, and the values are exactly the in-process ones.
            assert executor.score_slab(cost, pairs) == expected
            for counter, floor in EXPECTED_COUNTERS[kind].items():
                assert getattr(executor.health, counter) >= floor, counter
            assert executor.health.in_process_rescues == 0
            # The pool healed: a second slab scores cleanly on it.
            more = _pairs(selection_setup, 12, salt=50)
            assert executor.score_slab(cost, more) == cost.many(more)
        finally:
            executor.close()

    def test_out_of_order_replies_reassemble_in_candidate_order(
        self, selection_setup
    ):
        # A sub-timeout delay on worker 0 makes shard 0's reply arrive last;
        # the assembled vector must still tile the slab in candidate order.
        cost = _fresh_cost(selection_setup)
        pairs = _pairs(selection_setup, 20)
        plan = FaultPlan.of(FaultSpec(worker=0, task=1, kind="delay", seconds=0.3))
        policy = RecoveryPolicy(shard_timeout=10.0, retry_backoff=0.01)
        executor = SlabExecutor(2, policy=policy, fault_plan=plan)
        try:
            assert executor.score_slab(cost, pairs) == cost.many(pairs)
            assert executor.health.shard_retries == 0  # absorbed, not retried
        finally:
            executor.close()

    def test_retried_shards_reassemble_in_candidate_order(self, selection_setup):
        # Crashing worker 0 re-routes shard 0 to worker 1, so it completes
        # *after* shard 1 — order in the result must be positional anyway.
        cost = _fresh_cost(selection_setup)
        pairs = _pairs(selection_setup, 24)
        plan = FaultPlan.of(FaultSpec(worker=0, task=1, kind="crash"))
        executor = SlabExecutor(2, policy=FAST, fault_plan=plan)
        try:
            assert executor.score_slab(cost, pairs) == cost.many(pairs)
            assert executor.health.worker_respawns == 1
        finally:
            executor.close()

    def test_retry_exhaustion_falls_back_to_in_process_rescue(
        self, selection_setup
    ):
        # Persistent garble on BOTH workers: every pool attempt fails, so
        # each shard must be rescued in-process — and still be bit-exact.
        cost = _fresh_cost(selection_setup)
        pairs = _pairs(selection_setup, 18)
        plan = FaultPlan.of(
            FaultSpec(worker=0, task=EVERY_TASK, kind="garble"),
            FaultSpec(worker=1, task=EVERY_TASK, kind="garble"),
        )
        policy = RecoveryPolicy(
            max_shard_retries=1, shard_timeout=2.0, retry_backoff=0.0
        )
        executor = SlabExecutor(2, policy=policy, fault_plan=plan)
        try:
            assert executor.score_slab(cost, pairs) == cost.many(pairs)
            assert executor.health.in_process_rescues >= 1
            assert executor.health.integrity_failures >= 2
        finally:
            executor.close()

    def test_closed_pool_raises_parallel_execution_error(self, selection_setup):
        cost = _fresh_cost(selection_setup)
        executor = SlabExecutor(2, policy=FAST)
        executor.close()
        with pytest.raises(ParallelExecutionError):
            executor.score_slab(cost, _pairs(selection_setup, 8))

    def test_idle_deaths_are_healed_on_ensure_workers(self, selection_setup):
        plan = FaultPlan.of(FaultSpec(worker=1, task=1, kind="crash"))
        executor = SlabExecutor(2, policy=FAST, fault_plan=plan)
        try:
            cost = _fresh_cost(selection_setup)
            pairs = _pairs(selection_setup, 10)
            assert executor.score_slab(cost, pairs) == cost.many(pairs)
            executor.ensure_workers()
            assert executor.alive
        finally:
            executor.close()


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
class _StubExecutor:
    """The two hooks CircuitBreaker reads: a policy and a health bump."""

    def __init__(self, threshold, cooldown):
        self.policy = RecoveryPolicy(
            breaker_threshold=threshold, breaker_cooldown=cooldown
        )
        self.health = PoolHealth()

    def _health_bump(self, counter, amount=1):
        self.health.bump(counter, amount)


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_and_cools_down(self):
        stub = _StubExecutor(threshold=2, cooldown=3)
        breaker = CircuitBreaker(stub)
        assert breaker.allow()
        breaker.record_failure()
        assert not breaker.tripped
        breaker.record_failure()
        assert breaker.tripped
        assert stub.health.breaker_trips == 1
        # Cool-down: exactly `cooldown` slabs are denied the pool.
        assert [breaker.allow() for _ in range(3)] == [False, False, False]
        # Then the probe slab is allowed through...
        assert breaker.allow()
        # ...and a single probe failure re-trips immediately.
        breaker.record_failure()
        assert breaker.tripped
        assert stub.health.breaker_trips == 2

    def test_success_resets_the_failure_count(self):
        stub = _StubExecutor(threshold=2, cooldown=3)
        breaker = CircuitBreaker(stub)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert not breaker.tripped  # never saw 2 *consecutive* failures

    def test_probe_success_closes_the_breaker(self):
        stub = _StubExecutor(threshold=2, cooldown=2)
        breaker = CircuitBreaker(stub)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.tripped
        assert not breaker.allow() and not breaker.allow()
        assert breaker.allow()  # probe
        breaker.record_success()
        assert not breaker.tripped
        assert breaker.allow()
        assert stub.health.breaker_trips == 1


class TestScorerDegradation:
    def test_breaker_demotes_scoring_and_reprobes(self, selection_setup):
        # One-shot garbles on worker 0's first two tasks with zero retry
        # budget: the first two slabs each need an in-process rescue (two
        # consecutive pool-level failures -> trip), the cool-down slabs
        # skip the pool, and the probe slab finds the (now fault-free)
        # worker healthy again — closing the breaker.
        cost = _fresh_cost(selection_setup)
        plan = FaultPlan.of(
            FaultSpec(worker=0, task=1, kind="garble"),
            FaultSpec(worker=0, task=2, kind="garble"),
        )
        policy = RecoveryPolicy(
            max_shard_retries=0,
            shard_timeout=2.0,
            retry_backoff=0.0,
            breaker_threshold=2,
            breaker_cooldown=2,
        )
        executor = SlabExecutor(2, policy=policy, fault_plan=plan)
        try:
            scorer = ParallelSlabScorer(cost, executor)
            slabs = [_pairs(selection_setup, 10, salt=13 * i) for i in range(6)]
            for slab in slabs:
                assert scorer(slab) == cost.many(slab)  # every path bit-exact
            health = executor.health
            assert health.breaker_trips == 1
            assert health.breaker_skipped_slabs == 2
            assert health.in_process_rescues == 2
            assert not executor.breaker.tripped  # probe succeeded, closed
        finally:
            executor.close()

    def test_scorer_never_raises_even_when_the_pool_is_gone(self, selection_setup):
        cost = _fresh_cost(selection_setup)
        executor = SlabExecutor(2, policy=FAST)
        executor.close()  # simulate a pool lost out from under the scorer
        scorer = ParallelSlabScorer(cost, executor)
        pairs = _pairs(selection_setup, 9)
        assert scorer(pairs) == cost.many(pairs)
        assert executor.health.in_process_rescues == 1


# ----------------------------------------------------------------------
# pool hygiene: repeated spawn/teardown must not leak file descriptors
# ----------------------------------------------------------------------
class TestPoolHygiene:
    def test_repeated_pools_do_not_leak_fds(self, selection_setup):
        cost = _fresh_cost(selection_setup)
        pairs = _pairs(selection_setup, 8)

        def open_fds() -> int:
            return len(os.listdir("/proc/self/fd"))

        # Warm one cycle first so lazily created singletons (imports,
        # multiprocessing plumbing) don't count against the measurement.
        executor = SlabExecutor(2, policy=FAST)
        executor.score_slab(cost, pairs)
        executor.close()
        del executor
        gc.collect()
        before = open_fds()
        for _ in range(8):
            executor = SlabExecutor(2, policy=FAST)
            assert executor.score_slab(cost, pairs) == cost.many(pairs)
            executor.close()
            del executor
        gc.collect()
        assert open_fds() <= before + 4


# ----------------------------------------------------------------------
# registry behaviour under faults
# ----------------------------------------------------------------------
class TestRegistry:
    def test_env_fault_plan_change_rebuilds_the_pool(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        clean = get_executor(2)
        plan = FaultPlan.of(FaultSpec(worker=0, task=1, kind="drop"))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        chaotic = get_executor(2)
        assert chaotic is not clean
        assert not clean.alive  # the stale pool was closed, not leaked
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        clean_again = get_executor(2)
        assert clean_again is not chaotic
        shutdown_executors()


# ----------------------------------------------------------------------
# signals: a pool forked inside a durable run stays terminable
# ----------------------------------------------------------------------
class TestWorkerSignals:
    def test_a_worker_forked_under_a_signal_watcher_obeys_sigterm(self, monkeypatch):
        from repro.parallel import executor as executor_module
        from repro.runtime.signals import SignalWatcher

        if executor_module._preferred_start_method() != "fork":
            pytest.skip("only a forked worker inherits the parent's handlers")
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        shutdown_executors()  # the pool must be forked under the watcher
        watcher = SignalWatcher()
        assert watcher.install()
        try:
            worker = get_executor(2)._processes[0]
            # Until the worker loop resets its handlers, a SIGTERM meets the
            # inherited recording handler: resend until the worker exits.
            deadline = time.monotonic() + 5.0
            while worker.is_alive() and time.monotonic() < deadline:
                os.kill(worker.pid, signal.SIGTERM)
                worker.join(timeout=0.1)
            assert not worker.is_alive()
            assert worker.exitcode == -signal.SIGTERM
        finally:
            shutdown_executors()
            watcher.restore()
        assert watcher.signum is None  # the parent saw no signal


# ----------------------------------------------------------------------
# end-to-end: ColorReduce under injected chaos, bit-identical to workers=1
# ----------------------------------------------------------------------
def _chaos_graph():
    return erdos_renyi(150, 0.12, seed=23)


def _run_color_reduce(workers: int):
    # EXHAUSTIVE scores every candidate batch through the batch scorer, so
    # the pool genuinely sees a stream of slabs (FIRST_FEASIBLE usually
    # stops at its one-candidate head slab on these instances and would
    # leave the pool idle — no faults would ever fire).
    from repro.derand.conditional_expectation import SelectionStrategy

    params = ColorReduceParameters.scaled(
        num_bins=3,
        parallel_workers=workers,
        selection_strategy=SelectionStrategy.EXHAUSTIVE,
        selection_max_candidates=64,
    )
    graph = _chaos_graph()
    palettes = PaletteAssignment.delta_plus_one(graph)
    return ColorReduce(params).run(graph, palettes)


def _run_signature(result):
    """Everything the fault-free and faulty runs must agree on, bit for bit."""
    return (
        result.coloring,
        result.rounds,
        result.total_bad_nodes,
        result.recursion_root.count_nodes(),
        result.max_recursion_depth,
        result.ledger.rounds,
        result.ledger.message_words,
    )


def _chaos_pool(workers: int, **policy) -> None:
    """Give the shared pool for ``workers`` (spawned under the current fault
    plan) a fast recovery policy; the run picks up the same pool."""
    get_executor(workers).policy = RecoveryPolicy(shard_timeout=0.5, **policy)


@pytest.fixture(scope="module")
def fault_free_baseline():
    return _run_signature(_run_color_reduce(workers=1))


class TestEndToEndChaos:
    @pytest.mark.parametrize("workers", (2, 4))
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_single_fault_runs_are_bit_identical(
        self, monkeypatch, fault_free_baseline, kind, workers
    ):
        # Acceptance: parallel_workers > 1 never raises for ANY injected
        # single-fault scenario, and the outcome matches workers=1 exactly.
        plan = FaultPlan.of(
            FaultSpec(worker=0, task=2, kind=kind, seconds=1.2)
        )
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        _chaos_pool(workers, max_shard_retries=2)
        result = _run_color_reduce(workers)
        assert _run_signature(result) == fault_free_baseline
        if kind in ("crash",):
            assert result.pool_health.worker_respawns >= 1
        monkeypatch.delenv(FAULT_PLAN_ENV)
        shutdown_executors()

    def test_crash_hang_garble_mid_run_matches_workers_one(
        self, monkeypatch, fault_free_baseline
    ):
        # The ISSUE's acceptance scenario: a crash, a hang and garbled
        # replies in one workers=4 run.  Persistent garble on two adjacent
        # workers with a 1-retry budget also forces an in-process rescue.
        plan = FaultPlan.of(
            FaultSpec(worker=0, task=2, kind="crash"),
            FaultSpec(worker=1, task=1, kind="delay", seconds=1.5),
            FaultSpec(worker=2, task=EVERY_TASK, kind="garble"),
            FaultSpec(worker=3, task=EVERY_TASK, kind="garble"),
        )
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        _chaos_pool(4, max_shard_retries=1)
        result = _run_color_reduce(4)
        assert _run_signature(result) == fault_free_baseline
        health = result.pool_health
        assert health.degraded
        assert health.shard_retries >= 1
        assert health.worker_respawns >= 1
        assert health.in_process_rescues >= 1
        monkeypatch.delenv(FAULT_PLAN_ENV)
        shutdown_executors()

    def test_fault_free_parallel_run_reports_healthy(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        result = _run_color_reduce(2)
        assert not result.pool_health.degraded
        assert result.pool_health.total_events == 0
        shutdown_executors()


# ----------------------------------------------------------------------
# the recovery policy (the pool's own, not a run parameter)
# ----------------------------------------------------------------------
class TestRecoveryKnobs:
    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            RecoveryPolicy(max_shard_retries=-1)
        with pytest.raises(ConfigurationError):
            RecoveryPolicy(shard_timeout=0.0)
        with pytest.raises(ConfigurationError):
            RecoveryPolicy(breaker_threshold=0)
        with pytest.raises(ConfigurationError):
            RecoveryPolicy(breaker_cooldown=0)
