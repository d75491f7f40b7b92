"""Shared-memory transport tests: lifecycle, leaks, fallback, bit-identity.

The contract under test (see "Transport" in ``docs/ARCHITECTURE.md``): the
zero-copy shared-memory transport changes only *how* bytes reach the
workers — every value, selection outcome and coloring is bit-identical to
both the pickle envelope and the in-process path.  The pool picks its
transport from the platform, so the pickle reference is reached by
switching shared memory off (:func:`_without_shared_memory`), exactly as
on a platform without it.  The parent owns every
``repro_*`` segment and unlinks it on eviction, close and interpreter
exit, so no run leaves segments behind in ``/dev/shm`` — even when a
worker crashes mid-slab.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core.classification import hash_families, partition_cost_function
from repro.core.color_reduce import ColorReduce
from repro.core.low_space.machine_sets import low_space_cost_function
from repro.core.low_space.params import LowSpaceParameters
from repro.core.params import ColorReduceParameters
from repro.core.partition import Partition
from repro.graph.generators import erdos_renyi
from repro.graph.palettes import PaletteAssignment
from repro.parallel import (
    FAULT_PLAN_ENV,
    SEGMENT_PREFIX,
    FaultPlan,
    FaultSpec,
    RecoveryPolicy,
    SlabExecutor,
    get_executor,
    shared_memory_available,
    shutdown_executors,
)
from repro.parallel import slabs


pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory is unavailable",
)

_SHM_DIR = Path("/dev/shm")


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_executors()


@pytest.fixture(autouse=True)
def _tiny_parallel_floor(monkeypatch):
    """Mirror of the other parallel suites: drop the IPC break-even floor
    and pin the adaptive engagement floor so small test slabs genuinely
    cross the process boundary on single-CPU runners too."""
    from repro.parallel import executor as executor_module

    monkeypatch.setattr(executor_module, "MIN_PARALLEL_PAIRS", 2)
    monkeypatch.setenv(executor_module.MIN_PAIRS_ENV, "2")


def _repro_segments():
    """The ``repro_*`` segment names currently visible in ``/dev/shm``."""
    if not _SHM_DIR.is_dir():
        return set()
    return {p.name for p in _SHM_DIR.iterdir() if p.name.startswith(SEGMENT_PREFIX)}


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


@pytest.fixture(scope="module")
def low_space_setup():
    graph = erdos_renyi(220, 0.12, seed=17)
    palettes = PaletteAssignment.degree_plus_one(graph)
    params = LowSpaceParameters.scaled(num_bins=3, low_degree_threshold=20)
    high = {node for node in graph.nodes() if graph.degree(node) > 20}
    num_bins = params.num_bins(graph.num_nodes)
    family1, family2 = hash_families(
        graph, palettes, num_bins, params.independence, graph.num_nodes
    )
    return graph, palettes, params, high, num_bins, family1, family2


def _both_evaluators(selection_setup, low_space_setup):
    """``(name, fresh evaluator, families)`` for the Eq. (1) and the
    Lemma 4.5 cost, which share the base class's count kernels."""
    graph, palettes, params, high, num_bins, family1, family2 = low_space_setup
    return [
        ("partition", _fresh_cost(selection_setup), selection_setup[4:]),
        (
            "low-space",
            low_space_cost_function(graph, palettes, high, params, num_bins),
            (family1, family2),
        ),
    ]


def _pairs(setup, count, salt=0):
    family1, family2 = setup[-2:]
    return [
        (family1.from_seed_int(3 * i + salt), family2.from_seed_int(5 * i + 1 + salt))
        for i in range(count)
    ]


FAST = RecoveryPolicy(max_shard_retries=2, shard_timeout=1.5, retry_backoff=0.01)


def _without_shared_memory(monkeypatch) -> None:
    """Make pools built from here on see a platform without shared memory,
    so they take the pickle envelope (the differential reference)."""
    monkeypatch.setattr(slabs, "shared_memory_available", lambda: False)


def _use_transport(monkeypatch, transport: str) -> None:
    if transport == "pickle":
        _without_shared_memory(monkeypatch)


# ----------------------------------------------------------------------
# segment codec units
# ----------------------------------------------------------------------
class TestSegmentCodec:
    def test_publish_attach_roundtrip(self):
        np = pytest.importorskip("numpy")
        arrays = {
            "a": np.arange(13, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 7),
            "empty": np.zeros(0, dtype=np.int64),
        }
        name, manifest = slabs.publish_arrays(arrays, generation=41)
        try:
            segment, views = slabs.attach_arrays(name, 41, manifest)
            try:
                for key, original in arrays.items():
                    assert views[key].dtype == original.dtype
                    assert (views[key] == original).all()
            finally:
                del views
                slabs.release_attached(segment)
        finally:
            slabs.unlink_segment(name)
        assert name not in _repro_segments()

    def test_generation_mismatch_is_an_integrity_error(self):
        np = pytest.importorskip("numpy")
        from repro.errors import ShardIntegrityError

        name, manifest = slabs.publish_arrays(
            {"a": np.arange(4, dtype=np.int64)}, generation=7
        )
        try:
            with pytest.raises(ShardIntegrityError):
                slabs.attach_arrays(name, 8, manifest)
        finally:
            slabs.unlink_segment(name)

    def test_unlink_is_idempotent(self):
        np = pytest.importorskip("numpy")
        name, _ = slabs.publish_arrays(
            {"a": np.arange(4, dtype=np.int64)}, generation=1
        )
        slabs.unlink_segment(name)
        slabs.unlink_segment(name)  # second unlink must not raise
        assert name not in _repro_segments()


# ----------------------------------------------------------------------
# evaluator envelope
# ----------------------------------------------------------------------
class TestEvaluatorEnvelope:
    def test_shm_roundtrip_reproduces_costs(self, selection_setup, low_space_setup):
        for name, cost, families in _both_evaluators(selection_setup, low_space_setup):
            pairs = _pairs(families, 6)
            h1, h2 = pairs[0]
            state, arrays = cost.shared_payload()
            direct = type(cost).from_shared_payload(state, arrays)
            assert direct.many(pairs) == cost.many(pairs), name
            envelope = slabs.publish_evaluator(cost, "shm")
            assert envelope[0] == "shm", "batched evaluator should take the shm path"
            try:
                restored = slabs.restore_evaluator(envelope)
                try:
                    assert restored.many(pairs) == cost.many(pairs), name
                    for left, right in zip(
                        restored.range_counts(h1, h2, 3, 40),
                        cost.range_counts(h1, h2, 3, 40),
                    ):
                        assert left.tolist() == right.tolist(), name
                finally:
                    slabs.release_attached(restored._shm_segment, restored)
            finally:
                for segment in slabs.envelope_segments(envelope):
                    slabs.unlink_segment(segment)

    def test_pickle_transport_still_roundtrips(self, selection_setup):
        cost = _fresh_cost(selection_setup)
        pairs = _pairs(selection_setup, 6)
        envelope = slabs.publish_evaluator(cost, "pickle")
        assert envelope[0] == "pickle"
        assert slabs.envelope_segments(envelope) == []
        restored = slabs.restore_evaluator(envelope)
        assert restored.many(pairs) == cost.many(pairs)

    def test_envelope_cost_splits_shipped_and_shared(self, selection_setup):
        cost = _fresh_cost(selection_setup)
        shm_shipped, shm_shared = slabs.envelope_cost(
            slabs.publish_evaluator(cost, "shm")
        )
        slabs.unlink_all_segments()
        pickle_shipped, pickle_shared = slabs.envelope_cost(
            slabs.publish_evaluator(cost, "pickle")
        )
        assert shm_shared > 0 and pickle_shared == 0
        # The shm envelope ships only the small state pickle; the static
        # arrays ride the segment instead.
        assert shm_shipped < pickle_shipped


# ----------------------------------------------------------------------
# executor over the shm transport
# ----------------------------------------------------------------------
class TestShmExecutor:
    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    def test_sharded_scoring_equals_in_process_many(
        self, selection_setup, transport, monkeypatch
    ):
        cost = _fresh_cost(selection_setup)
        pairs = _pairs(selection_setup, 11)
        _use_transport(monkeypatch, transport)
        executor = SlabExecutor(2, policy=FAST)
        try:
            assert executor.transport == transport
            assert executor.score_slab(cost, pairs) == cost.many(pairs)
        finally:
            executor.close()

    def test_shared_pool_transport_follows_the_platform(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        shutdown_executors()
        try:
            assert get_executor(2).transport == "shm"
            shutdown_executors()
            _without_shared_memory(monkeypatch)
            assert get_executor(2).transport == "pickle"
        finally:
            shutdown_executors()

    def test_volume_counters_split_by_transport(self, selection_setup, monkeypatch):
        cost = _fresh_cost(selection_setup)
        pairs = _pairs(selection_setup, 11)

        executor = SlabExecutor(2, policy=FAST)
        try:
            executor.score_slab(cost, pairs)
            assert executor.health.bytes_shared > 0
        finally:
            executor.close()

        _without_shared_memory(monkeypatch)
        executor = SlabExecutor(2, policy=FAST)
        try:
            executor.score_slab(cost, pairs)
            assert executor.health.bytes_shared == 0
            assert executor.health.bytes_shipped > 0
        finally:
            executor.close()

    def test_volume_counters_never_degrade_health(self, selection_setup):
        cost = _fresh_cost(selection_setup)
        executor = SlabExecutor(2, policy=FAST)
        try:
            executor.score_slab(cost, _pairs(selection_setup, 8))
            health = executor.health
            assert health.bytes_shared > 0
            assert health.total_events == 0
            assert not health.degraded
        finally:
            executor.close()


# ----------------------------------------------------------------------
# segment lifecycle: no leaks, ever
# ----------------------------------------------------------------------
class TestSegmentHygiene:
    def test_repeated_pools_leak_no_segments(self, selection_setup):
        """Mirror of the fd-leak test: create/score/close cycles must leave
        /dev/shm exactly as they found it."""
        cost = _fresh_cost(selection_setup)
        pairs = _pairs(selection_setup, 8)
        before = _repro_segments()
        for _ in range(8):
            executor = SlabExecutor(2, policy=FAST)
            try:
                assert executor.score_slab(cost, pairs) == cost.many(pairs)
            finally:
                executor.close()
        assert _repro_segments() == before

    def test_worker_crash_mid_slab_leaks_no_segments(self, selection_setup):
        cost = _fresh_cost(selection_setup)
        pairs = _pairs(selection_setup, 10)
        plan = FaultPlan.of(FaultSpec(worker=0, task=1, kind="crash"))
        before = _repro_segments()
        executor = SlabExecutor(2, policy=FAST, fault_plan=plan)
        try:
            assert executor.score_slab(cost, pairs) == cost.many(pairs)
            assert executor.health.worker_respawns >= 1
        finally:
            executor.close()
        assert _repro_segments() == before

    def test_eviction_unlinks_the_old_envelope(self, selection_setup):
        from repro.parallel.executor import WORKER_CACHE_SIZE

        graph, palettes, params, ell, _, _ = selection_setup
        executor = SlabExecutor(2, policy=FAST)
        try:
            before = _repro_segments()
            for extra in range(WORKER_CACHE_SIZE + 1):
                cost = partition_cost_function(
                    graph, palettes, params, ell + extra, graph.num_nodes
                )
                executor.score_slab(cost, _pairs(selection_setup, 4, salt=extra))
            # The cache holds WORKER_CACHE_SIZE envelopes; the evicted
            # first evaluator's segment must already be gone.
            assert len(_repro_segments() - before) <= WORKER_CACHE_SIZE
        finally:
            executor.close()


# ----------------------------------------------------------------------
# registry: the stale-pool bug
# ----------------------------------------------------------------------
class TestStartMethodRegistry:
    def test_start_method_change_yields_a_matching_pool(self, monkeypatch):
        """Changing REPRO_PARALLEL_START_METHOD mid-session must not hand
        back the cached pool built with the old method (the stale-pool
        bug: the fork pool kept serving after spawn was requested)."""
        import multiprocessing

        available = multiprocessing.get_all_start_methods()
        if "fork" not in available or "spawn" not in available:
            pytest.skip("needs both fork and spawn start methods")
        from repro.parallel.executor import START_METHOD_ENV

        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        monkeypatch.setenv(START_METHOD_ENV, "fork")
        forked = get_executor(2)
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        spawned = get_executor(2)
        try:
            assert spawned is not forked
            assert spawned._context.get_start_method() == "spawn"
            assert forked._context.get_start_method() == "fork"
            # And the fork-keyed entry is still the same pool, not rebuilt.
            monkeypatch.setenv(START_METHOD_ENV, "fork")
            assert get_executor(2) is forked
        finally:
            shutdown_executors()


# ----------------------------------------------------------------------
# end-to-end: chaos replay against the shm transport
# ----------------------------------------------------------------------
def _run_color_reduce(workers: int):
    from repro.derand.conditional_expectation import SelectionStrategy

    params = ColorReduceParameters.scaled(
        num_bins=3,
        parallel_workers=workers,
        selection_strategy=SelectionStrategy.EXHAUSTIVE,
        selection_max_candidates=64,
    )
    graph = erdos_renyi(150, 0.12, seed=23)
    palettes = PaletteAssignment.delta_plus_one(graph)
    return ColorReduce(params).run(graph, palettes)


def _run_signature(result):
    return (
        result.coloring,
        result.rounds,
        result.total_bad_nodes,
        result.recursion_root.count_nodes(),
        result.max_recursion_depth,
        result.ledger.rounds,
        result.ledger.message_words,
    )


@pytest.fixture(scope="module")
def fault_free_baseline():
    return _run_signature(_run_color_reduce(workers=1))


class TestEndToEndShm:
    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    def test_transports_bit_identical_to_workers_one(
        self, transport, fault_free_baseline, monkeypatch
    ):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        shutdown_executors()
        _use_transport(monkeypatch, transport)
        pool = get_executor(2)
        assert pool.transport == transport
        pool.policy = RecoveryPolicy(shard_timeout=10)
        result = _run_color_reduce(workers=2)
        assert _run_signature(result) == fault_free_baseline
        shutdown_executors()

    @pytest.mark.parametrize("kind", ["garble", "drop"])
    def test_faults_on_shm_transport_stay_bit_identical(
        self, kind, fault_free_baseline, monkeypatch
    ):
        plan = FaultPlan.of(
            FaultSpec(worker=0, task=1, kind=kind),
            FaultSpec(worker=1, task=2, kind=kind),
        )
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        shutdown_executors()
        pool = get_executor(2)
        assert pool.transport == "shm"
        pool.policy = RecoveryPolicy(shard_timeout=0.5, max_shard_retries=1)
        result = _run_color_reduce(workers=2)
        assert _run_signature(result) == fault_free_baseline
        assert result.pool_health.degraded
        shutdown_executors()

    def test_post_selection_phases_accept_a_scorer(
        self, selection_setup, low_space_setup
    ):
        """The selected pair's pass with a pool-backed scorer must equal the
        serial path for both evaluators (the sharded range counts are
        exact)."""
        from repro.parallel.executor import ParallelSlabScorer

        for name, cost, (family1, family2) in _both_evaluators(
            selection_setup, low_space_setup
        ):
            h1 = family1.from_seed_int(9)
            h2 = family2.from_seed_int(14)
            selected = (
                cost.classify_selected if name == "partition" else cost.outcome_selected
            )
            serial = selected(h1, h2)
            executor = SlabExecutor(2, policy=FAST)
            try:
                scorer = ParallelSlabScorer(cost, executor)
                sharded = selected(h1, h2, scorer=scorer)
                assert executor.health.in_process_rescues == 0, name
            finally:
                executor.close()
            if name == "partition":
                (classification, restricted), (expected, expected_restricted) = (
                    sharded, serial
                )
                assert classification.nodes == expected.nodes
                assert classification.bad_nodes == expected.bad_nodes
                for bin_index in range(classification.num_bins):
                    assert classification.good_nodes_in_bin(
                        bin_index
                    ) == expected.good_nodes_in_bin(bin_index)
                for left, right in zip(restricted, expected_restricted):
                    assert left.nodes() == right.nodes()
                    assert all(
                        left.palette(node) == right.palette(node)
                        for node in right.nodes()
                    )
            else:
                assert sharded.violating_nodes == serial.violating_nodes
                assert sharded.bin_of_node == serial.bin_of_node
                assert sharded.in_bin_degree == serial.in_bin_degree
                assert sharded.in_bin_palette == serial.in_bin_palette
