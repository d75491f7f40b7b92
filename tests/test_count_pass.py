"""One count pass per partition step, on narrow bins.

The batched evaluators (``BatchCostEvaluatorBase``) count a pair's in-bin
degree ``d'`` and in-bin palette size ``p'`` with ``_count_range``: the
node bins stay narrow (int8 / int16), each node's bin is repeated over its
palette-entry run, and the counts are segment sums over the CSR runs.
These tests hold that kernel to the int64 gather + ``bincount`` reference
(``scalar_oracle.count_range_gather``), and check that a partition step
counts its winning pair once: a one-pair batch (the head probe) is scored
by the selected pair's pass, which the classification then takes.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from scalar_oracle import assert_same_run, count_range_gather

import repro.core.color_reduce as color_reduce_module
import repro.core.driver as driver_module
import repro.core.level as level
import repro.core.low_space.color_reduce as low_space_color_reduce_module
import repro.derand.conditional_expectation as conditional_expectation
from repro.core.classification import hash_families, partition_cost_function
from repro.core.color_reduce import ColorReduce
from repro.core.low_space.color_reduce import LowSpaceColorReduce
from repro.core.low_space.machine_sets import low_space_cost_function
from repro.core.low_space.params import LowSpaceParameters
from repro.core.low_space.partition import LowSpacePartition
from repro.core.params import ColorReduceParameters
from repro.core.partition import Partition
from repro.graph.generators import erdos_renyi, power_law
from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment
from repro.hashing.batch import BatchCostEvaluatorBase, segment_sums


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------
def _ragged_instance():
    """Isolated nodes, empty palettes, and empty trailing runs.

    Nodes 6..9 have no edges; nodes 1, 5, 8 and 9 have empty palettes, so
    both the edge runs and the entry runs end with empty segments.
    """
    graph = Graph.from_edges(
        [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (2, 5)],
        nodes=range(10),
    )
    palettes = PaletteAssignment.from_lists(
        {
            0: [1, 2, 3, 4],
            1: [],
            2: [2, 5, 7],
            3: [1, 9],
            4: [3, 4, 5, 6, 7],
            5: [],
            6: [8],
            7: [1, 2],
            8: [],
            9: [],
        }
    )
    return graph, palettes


def _random_instance(seed):
    graph = erdos_renyi(120, 0.08, seed=seed)
    rng = np.random.default_rng(seed)
    palettes = PaletteAssignment.from_lists(
        {
            node: sorted(rng.choice(60, size=int(rng.integers(0, 12)), replace=False).tolist())
            for node in graph.nodes()
        }
    )
    return graph, palettes


def _evaluator(kind, graph, palettes, num_bins):
    """``(evaluator, family1, family2)`` for ``kind`` with ``num_bins`` bins."""
    global_nodes = max(graph.num_nodes, 1)
    if kind == "partition":
        params = ColorReduceParameters.scaled(num_bins=num_bins)
        # A large degree proxy lifts the scaled l^(1/3) cap on the bin count.
        ell = 1e8
        assert params.num_bins(ell) == num_bins
        cost = partition_cost_function(graph, palettes, params, ell, global_nodes)
    else:
        params = LowSpaceParameters.scaled(num_bins=num_bins, low_degree_threshold=1)
        high = {node for node in graph.nodes() if graph.degree(node) > 1}
        cost = low_space_cost_function(graph, palettes, high, params, num_bins)
    family1, family2 = hash_families(
        graph, palettes, num_bins, params.independence, global_nodes
    )
    return cost, family1, family2


# Two bins is the fewest a step takes: one color bin, which every color
# hashes to, and the last bin.  300 bins take the int16 bin labels.
KINDS_AND_BINS = [
    ("partition", 2),
    ("partition", 5),
    ("partition", 300),
    ("low-space", 2),
    ("low-space", 4),
    ("low-space", 300),
]


# ----------------------------------------------------------------------
# the narrow kernel against the int64 reference
# ----------------------------------------------------------------------
def test_segment_sums_leave_empty_segments_zero():
    mask = np.array([True, False, True, True, False, True])
    bounds = np.array([0, 0, 2, 2, 5, 6, 6, 6])
    assert segment_sums(mask, bounds).tolist() == [0, 1, 0, 2, 1, 0, 0]
    assert segment_sums(mask, bounds).dtype == np.int64
    assert segment_sums(mask[:0], np.zeros(4, dtype=np.int64)).tolist() == [0, 0, 0]
    assert segment_sums(mask[:0], np.zeros(1, dtype=np.int64)).tolist() == []
    # A run longer than any narrow accumulator holds.
    ones = np.ones(70_000, dtype=bool)
    assert segment_sums(ones, np.array([0, 3, 70_000])).tolist() == [3, 69_997]


class TestNarrowCountKernel:
    @pytest.mark.parametrize("kind, num_bins", KINDS_AND_BINS)
    @pytest.mark.parametrize("instance", ["ragged", "random-3", "random-8"])
    def test_range_counts_match_the_gather_reference(self, kind, num_bins, instance):
        if instance == "ragged":
            graph, palettes = _ragged_instance()
        else:
            graph, palettes = _random_instance(int(instance.split("-")[1]))
        cost, family1, family2 = _evaluator(kind, graph, palettes, num_bins)
        prep = cost._prepared()
        num_nodes = len(prep["ids"])
        rng = np.random.default_rng(num_bins)
        for seed in range(4):
            h1 = family1.from_seed_int(int(rng.integers(1 << 20)))
            h2 = family2.from_seed_int(int(rng.integers(1 << 20)) + seed)
            node_bins, universe_bins = cost._pair_bins(h1, h2, prep)
            assert node_bins.itemsize <= (1 if num_bins < 127 else 2)
            whole = cost._count_range(prep, node_bins, universe_bins, 0, num_nodes)
            expected = count_range_gather(prep, node_bins, universe_bins, 0, num_nodes)
            for actual, reference in zip(whole, expected):
                assert actual.dtype == reference.dtype
                assert actual.tolist() == reference.tolist()
            # Random cuts: every sub-range matches the reference, and the
            # sub-range counts concatenate to the [0, n) counts.
            cuts = rng.integers(0, num_nodes + 1, size=int(rng.integers(0, 5)))
            bounds = sorted({0, num_nodes, *cuts.tolist()})
            parts = []
            for start, stop in zip(bounds, bounds[1:]):
                part = cost._count_range(prep, node_bins, universe_bins, start, stop)
                reference = count_range_gather(
                    prep, node_bins, universe_bins, start, stop
                )
                for actual, expected_part in zip(part, reference):
                    assert actual.tolist() == expected_part.tolist()
                parts.append(part)
            for index in range(3):
                joined = np.concatenate([part[index] for part in parts])
                assert joined.tolist() == whole[index].tolist()
            # The slab kernel counts the same integers for the same pair.
            _, slab_d, slab_p = cost._count_slab([(h1, h2)], prep)
            assert slab_d[0].tolist() == whole[0].tolist()
            assert slab_p[0].tolist() == whole[1].tolist()

    @pytest.mark.parametrize("kind, num_bins", KINDS_AND_BINS)
    def test_one_pair_cost_equals_the_slab_cost(self, kind, num_bins):
        graph, palettes = _random_instance(5)
        cost, family1, family2 = _evaluator(kind, graph, palettes, num_bins)
        pairs = [
            (family1.from_seed_int(7 * index + 1), family2.from_seed_int(11 * index + 2))
            for index in range(6)
        ]
        batch = cost.many(pairs)
        assert [cost.many([pair])[0] for pair in pairs] == batch
        assert batch == [cost(h1, h2) for h1, h2 in pairs]

    @pytest.mark.parametrize("kind, num_bins", KINDS_AND_BINS)
    def test_one_row_slabs_count_each_pair_over_the_range(
        self, kind, num_bins, count_range_calls, monkeypatch
    ):
        graph, palettes = _random_instance(6)
        cost, family1, family2 = _evaluator(kind, graph, palettes, num_bins)
        pairs = [
            (family1.from_seed_int(5 * index + 3), family2.from_seed_int(13 * index + 1))
            for index in range(5)
        ]
        slab_costs = cost.many(pairs)
        assert not count_range_calls
        monkeypatch.setattr(BatchCostEvaluatorBase, "MAX_ELEMENTS", 1)
        slab_calls = []
        count_slab = BatchCostEvaluatorBase._count_slab

        def spy_slab(self, chunk, prep):
            slab_calls.append(len(chunk))
            return count_slab(self, chunk, prep)

        monkeypatch.setattr(BatchCostEvaluatorBase, "_count_slab", spy_slab)
        one_row_costs = cost.many(pairs)
        prep = cost._prepared()
        num_nodes = len(prep["ids"])
        assert not slab_calls
        assert count_range_calls == [(0, num_nodes)] * len(pairs)
        # Only a one-pair batch is a probe; a longer batch keeps no pass.
        assert cost._kept is None
        expected = []
        for h1, h2 in pairs:
            node_bins, universe_bins = cost._pair_bins(h1, h2, prep)
            d_prime, p_prime, _ = count_range_gather(
                prep, node_bins, universe_bins, 0, num_nodes
            )
            expected.append(cost._pair_cost(prep, node_bins, d_prime, p_prime))
        assert one_row_costs == expected == slab_costs
        assert one_row_costs == [cost(h1, h2) for h1, h2 in pairs]


# ----------------------------------------------------------------------
# one pass per partition step
# ----------------------------------------------------------------------
def _palette_lists(assignments):
    return [
        {node: sorted(palettes.palette(node)) for node in palettes.nodes()}
        for palettes in assignments
    ]


@pytest.fixture
def count_range_calls(monkeypatch):
    """Count every ``_count_range`` call (serial passes and pool shards
    counted in this process)."""
    calls = []
    kernel = BatchCostEvaluatorBase._count_range

    def spy(prep, node_bins, universe_bins, start, stop):
        calls.append((start, stop))
        return kernel(prep, node_bins, universe_bins, start, stop)

    monkeypatch.setattr(BatchCostEvaluatorBase, "_count_range", staticmethod(spy))
    return calls


def _losing_head(monkeypatch):
    """Make the head candidate a constant ``h1`` (every node in bin 0),
    which the selection rejects; the rest of the sequence is unchanged.
    Patched where the selector and the level prefetch look the sequence
    up, so a prefetched head loses too."""
    candidates = conditional_expectation.candidate_pairs

    def with_constant_head(family1, family2, salt, start, stop):
        pairs = candidates(family1, family2, salt, start, stop)
        if start == 0 and pairs:
            pairs[0] = (family1.from_seed_int(0), pairs[0][1])
        return pairs

    monkeypatch.setattr(conditional_expectation, "candidate_pairs", with_constant_head)
    monkeypatch.setattr(level, "candidate_pairs", with_constant_head)


def _partition_step():
    graph = erdos_renyi(300, 0.1, seed=5)
    palettes = PaletteAssignment.delta_plus_one(graph)
    params = ColorReduceParameters.scaled(num_bins=3)
    return Partition(params).run(
        graph, palettes, float(graph.max_degree()), graph.num_nodes, salt=3
    )


def _low_space_step():
    graph = power_law(400, attachment=4, seed=3)
    palettes = PaletteAssignment.delta_plus_one(graph)
    params = LowSpaceParameters.scaled(num_bins=3, low_degree_threshold=6)
    return LowSpacePartition(params).run(graph, palettes, graph.num_nodes, salt=3)


STEPS = {"partition": _partition_step, "low-space": _low_space_step}


class TestOnePassPerStep:
    @pytest.mark.parametrize("step", sorted(STEPS))
    def test_a_winning_head_is_counted_once(self, step, count_range_calls):
        result = STEPS[step]()
        assert result.selection.evaluations == 1
        assert len(count_range_calls) == 1

    @pytest.mark.parametrize("step", sorted(STEPS))
    def test_a_losing_head_and_its_winner_are_counted_once_each(
        self, step, count_range_calls, monkeypatch
    ):
        _losing_head(monkeypatch)
        result = STEPS[step]()
        assert result.selection.evaluations > 1
        assert len(count_range_calls) == 2

    def test_a_second_classification_recounts(self, count_range_calls):
        graph, palettes = _random_instance(3)
        cost, family1, family2 = _evaluator("partition", graph, palettes, 3)
        h1, h2 = family1.from_seed_int(5), family2.from_seed_int(9)
        cost.many([(h1, h2)])
        assert len(count_range_calls) == 1
        first, first_restricted = cost.classify_selected(h1, h2)
        assert len(count_range_calls) == 1  # the kept pass
        second, second_restricted = cost.classify_selected(h1, h2)
        assert len(count_range_calls) == 2  # taken once, then counted again
        assert first.nodes == second.nodes
        assert _palette_lists(first_restricted) == _palette_lists(second_restricted)

    def test_the_kept_pass_is_keyed_on_the_pair_objects(self, count_range_calls):
        graph, palettes = _random_instance(3)
        cost, family1, family2 = _evaluator("low-space", graph, palettes, 3)
        h1, h2 = family1.from_seed_int(5), family2.from_seed_int(9)
        cost.many([(h1, h2)])
        # An equal pair built anew is another key: it is counted.
        expected = cost.outcome_selected(
            family1.from_seed_int(5), family2.from_seed_int(9)
        )
        assert len(count_range_calls) == 2
        # The slot was cleared by that call, so the probed pair recounts.
        again = cost.outcome_selected(h1, h2)
        assert len(count_range_calls) == 3
        assert again.violating_nodes == expected.violating_nodes
        assert again.bins_high.tolist() == expected.bins_high.tolist()


class TestKeptPassStaysLocal:
    @pytest.mark.parametrize("kind", ["partition", "low-space"])
    def test_pickle_and_shared_payload_carry_no_kept_pass(self, kind):
        graph, palettes = _random_instance(4)
        cost, family1, family2 = _evaluator(kind, graph, palettes, 3)
        h1, h2 = family1.from_seed_int(5), family2.from_seed_int(9)
        cost.many([(h1, h2)])
        assert cost._kept is not None
        clone = pickle.loads(pickle.dumps(cost))
        assert clone._kept is None and clone._prep is None
        (attrs, scalars), arrays = cost.shared_payload()
        assert "_kept" not in attrs and "_kept" not in scalars
        assert "entry_nodes" not in arrays
        restored = type(cost).from_shared_payload((attrs, scalars), arrays)
        assert restored._kept is None
        assert cost._kept is not None  # publishing leaves the slot alone


# ----------------------------------------------------------------------
# the level prefetch: one head pair per child, in one level pass
# ----------------------------------------------------------------------
def _color_reduce_solve(level_use_batch):
    graph = erdos_renyi(600, 0.05, seed=5)
    params = ColorReduceParameters.scaled(
        num_bins=3, collect_factor=0.25, level_use_batch=level_use_batch
    )
    return ColorReduce(params).run(graph)


def _low_space_solve(level_use_batch):
    graph = power_law(800, attachment=6, seed=3)
    params = LowSpaceParameters.scaled(
        num_bins=3, low_degree_threshold=3, level_use_batch=level_use_batch
    )
    return LowSpaceColorReduce(params).run(
        graph, PaletteAssignment.delta_plus_one(graph)
    )


#: pipeline -> (solve, driver module, prefetch name, level kernel, step class)
PIPELINES = {
    "color-reduce": (
        _color_reduce_solve,
        color_reduce_module,
        "prefetch_partition_level",
        "score_partition_level",
        Partition,
    ),
    "low-space": (
        _low_space_solve,
        low_space_color_reduce_module,
        "prefetch_low_space_level",
        "score_low_space_level",
        LowSpacePartition,
    ),
}


def _spy(monkeypatch, owner, name, record):
    """Replace ``owner.name`` with a wrapper passing ``record`` the call."""
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        record(args, kwargs, result)
        return result

    monkeypatch.setattr(owner, name, spy)


class TestLevelPrefetch:
    """The driver prefetch, engaged on small instances by dropping its
    size floor: each prefetched child's head pair is built once and
    scored in one level pass, and the solve equals the per-bin route."""

    def _prefetched_solve(self, pipeline, monkeypatch, count_range_calls):
        solve, driver, prefetch, kernel, step = PIPELINES[pipeline]
        monkeypatch.setattr(driver_module, "LEVEL_PREFETCH_MIN_SIZE", 0)
        seen = {"prefetches": [], "passes": [], "heads": [], "steps": []}
        _spy(
            monkeypatch, driver, prefetch,
            lambda args, kwargs, proxies: seen["prefetches"].append(len(proxies)),
        )
        _spy(
            monkeypatch, level, kernel,
            lambda args, kwargs, scored: seen["passes"].append(len(args[1])),
        )
        _spy(
            monkeypatch, level, "candidate_pairs",
            lambda args, kwargs, pairs: seen["heads"].append(len(pairs)),
        )
        run = step.run

        def spy_run(self, *args, **kwargs):
            before = len(count_range_calls)
            result = run(self, *args, **kwargs)
            if isinstance(kwargs.get("cost"), level.CachedPairCost):
                seen["steps"].append(
                    (result.selection.evaluations, len(count_range_calls) - before)
                )
            return result

        monkeypatch.setattr(step, "run", spy_run)
        return solve(True), seen

    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    def test_heads_are_scored_once_in_one_level_pass(
        self, pipeline, monkeypatch, count_range_calls
    ):
        reference = PIPELINES[pipeline][0](False)
        production, seen = self._prefetched_solve(
            pipeline, monkeypatch, count_range_calls
        )
        assert_same_run(production, reference)
        levels = [count for count in seen["prefetches"] if count]
        assert levels, "the prefetch never engaged"
        # One level pass per prefetched level, one pair built per child.
        assert seen["passes"] == levels
        assert seen["heads"] == [1] * sum(levels)
        # A prefetched child whose head wins counts nothing itself: its
        # classification takes the level pass's counts.
        winners = [calls for evaluations, calls in seen["steps"] if evaluations == 1]
        assert winners and winners == [0] * len(winners)
        assert len(seen["steps"]) == sum(levels)

    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    def test_a_prefetched_head_that_loses(
        self, pipeline, monkeypatch, count_range_calls
    ):
        _losing_head(monkeypatch)
        reference = PIPELINES[pipeline][0](False)
        # One-row slabs: the rest of each losing scan runs the range kernel.
        monkeypatch.setattr(BatchCostEvaluatorBase, "MAX_ELEMENTS", 1)
        production, seen = self._prefetched_solve(
            pipeline, monkeypatch, count_range_calls
        )
        assert_same_run(production, reference)
        batch = ColorReduceParameters().selection_batch_size
        losers = [calls for evaluations, calls in seen["steps"] if evaluations > 1]
        assert losers, "no prefetched head lost"
        # The head came from the level pass; the rest of the first batch is
        # counted once each, the winner's classification once more.  (A
        # constant h1 can still win a small child, which counts nothing.)
        assert losers == [batch] * len(losers)
        assert all(
            evaluations <= batch and (evaluations > 1 or calls == 0)
            for evaluations, calls in seen["steps"]
        )


# ----------------------------------------------------------------------
# the pool: the head probe is the run_phase pass
# ----------------------------------------------------------------------
def _signature(result):
    return (
        result.coloring,
        result.rounds,
        result.total_bad_nodes,
        result.recursion_root.count_nodes(),
        result.max_recursion_depth,
        result.ledger.rounds,
        result.ledger.message_words,
    )


def _color_reduce(workers):
    graph = erdos_renyi(300, 0.1, seed=5)
    palettes = PaletteAssignment.delta_plus_one(graph)
    params = ColorReduceParameters.scaled(num_bins=3, parallel_workers=workers)
    return ColorReduce(params).run(graph, palettes)


def test_forced_pool_runs_one_phase_per_partition(monkeypatch):
    from repro.parallel import executor as executor_module

    baseline = _signature(_color_reduce(workers=1))

    evaluations = []
    run = Partition.run

    def spy_run(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        evaluations.append(result.selection.evaluations)
        return result

    phases = []
    run_phase = executor_module.SlabExecutor.run_phase

    def spy_phase(self, *args, **kwargs):
        phases.append(args[-1])
        return run_phase(self, *args, **kwargs)

    monkeypatch.setattr(Partition, "run", spy_run)
    monkeypatch.setattr(executor_module.SlabExecutor, "run_phase", spy_phase)
    monkeypatch.setenv(executor_module.MIN_PAIRS_ENV, "0")
    executor_module.shutdown_executors()
    try:
        result = _color_reduce(workers=2)
    finally:
        executor_module.shutdown_executors()
    assert _signature(result) == baseline
    assert evaluations and all(value == 1 for value in evaluations)
    assert len(phases) == len(evaluations)
