"""Unit tests for the derandomization machinery (hash-pair selection)."""

from __future__ import annotations

import pytest
from scalar_oracle import production_and_reference

from repro.derand.conditional_expectation import (
    HashPairSelector,
    SelectionStrategy,
    _mix64,
)
from repro.derand.cost import empirical_expected_cost, is_feasible
from repro.errors import ConfigurationError, DerandomizationError
from repro.hashing.family import KWiseIndependentFamily


def small_families():
    family1 = KWiseIndependentFamily(domain_size=64, range_size=4, independence=4)
    family2 = KWiseIndependentFamily(domain_size=256, range_size=3, independence=4)
    return family1, family2


def balance_cost(h1, h2):
    """A simple decomposable cost: imbalance of h1 over [64] plus h2 over [128]."""
    counts1 = [0, 0, 0, 0]
    for x in range(64):
        counts1[h1(x)] += 1
    counts2 = [0, 0, 0]
    for x in range(128):
        counts2[h2(x)] += 1
    return (max(counts1) - min(counts1)) + (max(counts2) - min(counts2))


class TestMix64:
    def test_deterministic_and_spread(self):
        values = [_mix64(i) for i in range(100)]
        assert values == [_mix64(i) for i in range(100)]
        assert len(set(values)) == 100


class TestSelectorConfiguration:
    def test_invalid_parameters(self):
        family1, family2 = small_families()
        with pytest.raises(ConfigurationError):
            HashPairSelector(family1, family2, chunk_bits=0)
        with pytest.raises(ConfigurationError):
            HashPairSelector(family1, family2, batch_size=0)
        with pytest.raises(ConfigurationError):
            HashPairSelector(family1, family2, max_candidates=0)
        with pytest.raises(ConfigurationError):
            HashPairSelector(family1, family2, completion_samples=0)


class TestFirstFeasible:
    def test_meets_bound(self):
        family1, family2 = small_families()
        selector = HashPairSelector(family1, family2)
        expected = empirical_expected_cost(balance_cost, family1, family2, num_samples=16)
        outcome = selector.select(balance_cost, target_bound=expected * 1.5)
        assert outcome.cost <= expected * 1.5
        assert outcome.evaluations >= 1
        assert outcome.strategy is SelectionStrategy.FIRST_FEASIBLE

    def test_unreachable_bound_raises(self):
        family1, family2 = small_families()
        selector = HashPairSelector(family1, family2, max_candidates=32)
        with pytest.raises(DerandomizationError):
            selector.select(balance_cost, target_bound=-1.0)

    def test_no_bound_returns_first_candidate(self):
        family1, family2 = small_families()
        selector = HashPairSelector(family1, family2)
        outcome = selector.select(balance_cost, target_bound=None)
        assert outcome.evaluations == 1

    def test_deterministic(self):
        family1, family2 = small_families()
        a = HashPairSelector(family1, family2).select(balance_cost, target_bound=100.0)
        b = HashPairSelector(family1, family2).select(balance_cost, target_bound=100.0)
        assert a.h1.seed == b.h1.seed
        assert a.h2.seed == b.h2.seed

    def test_candidate_salt_changes_sequence(self):
        family1, family2 = small_families()
        a = HashPairSelector(family1, family2, candidate_salt=0).select(
            balance_cost, target_bound=None
        )
        b = HashPairSelector(family1, family2, candidate_salt=5).select(
            balance_cost, target_bound=None
        )
        assert a.h1.seed != b.h1.seed

    def test_charge_callback_invoked(self):
        family1, family2 = small_families()
        charges = []
        selector = HashPairSelector(family1, family2)
        selector.select(
            balance_cost, target_bound=1000.0, charge=lambda label, rounds: charges.append(rounds)
        )
        assert charges and all(rounds > 0 for rounds in charges)


def _pair_key(h1, h2):
    return (h1.coefficients, h2.coefficients)


class _TableCost:
    """A batched cost with a fixed value per candidate, counting its calls."""

    def __init__(self, pairs, values):
        self._table = {_pair_key(h1, h2): value for (h1, h2), value in zip(pairs, values)}
        self.scalar_calls = 0
        self.many_sizes = []

    def __call__(self, h1, h2):
        self.scalar_calls += 1
        return self._table[_pair_key(h1, h2)]

    def many(self, pairs):
        self.many_sizes.append(len(pairs))
        return [self._table[_pair_key(h1, h2)] for h1, h2 in pairs]


class TestBatchedHeadProbe:
    """FIRST_FEASIBLE scores its head candidate through ``many`` only."""

    MAX_CANDIDATES = 48

    def _select(self, values, target_bound):
        family1, family2 = small_families()
        selector = HashPairSelector(
            family1,
            family2,
            max_candidates=self.MAX_CANDIDATES,
            candidate_salt=7,
        )
        pairs = [pair for batch in selector._candidate_batches() for pair in batch]
        cost = _TableCost(pairs, values)
        charges = []
        try:
            outcome = selector.select(
                cost,
                target_bound=target_bound,
                charge=lambda label, rounds: charges.append((label, rounds)),
            )
        except DerandomizationError as exc:
            return ("error", str(exc), charges), cost
        decided = (
            _pair_key(outcome.h1, outcome.h2),
            outcome.cost,
            outcome.evaluations,
            outcome.rounds_charged,
            charges,
        )
        return decided, cost

    @pytest.mark.parametrize(
        "feasible_index, target_bound",
        [
            (0, 5.0),  # feasible head
            (0, None),  # no bound: the head is always taken
            (3, 5.0),  # infeasible head, feasible later in the first batch
            (20, 5.0),  # whole first batch infeasible
            (None, 5.0),  # nothing feasible: DerandomizationError
        ],
    )
    def test_matches_scalar_reference_without_scalar_calls(
        self, monkeypatch, feasible_index, target_bound
    ):
        values = [9.0] * self.MAX_CANDIDATES
        if feasible_index is not None:
            values[feasible_index] = 2.0
        (batched, batched_cost), (reference, reference_cost), oracle = (
            production_and_reference(
                monkeypatch, lambda: self._select(values, target_bound)
            )
        )
        oracle.assert_called("HashPairSelector._batch_cost")
        assert batched == reference
        assert batched_cost.scalar_calls == 0
        assert batched_cost.many_sizes[0] == 1  # the head is scored alone
        assert reference_cost.many_sizes == []

    @pytest.mark.parametrize(
        "feasible_index, built", [(0, 1), (3, 16), (20, 32)]
    )
    def test_builds_the_rest_of_the_first_batch_only_when_the_head_fails(
        self, monkeypatch, feasible_index, built
    ):
        values = [9.0] * self.MAX_CANDIDATES
        values[feasible_index] = 2.0
        seeds = []
        from_seed_int = KWiseIndependentFamily.from_seed_int

        def counted(family, seed):
            seeds.append(seed)
            return from_seed_int(family, seed)

        family1, family2 = small_families()
        selector = HashPairSelector(
            family1, family2, max_candidates=self.MAX_CANDIDATES, candidate_salt=7
        )
        pairs = [pair for batch in selector._candidate_batches() for pair in batch]
        cost = _TableCost(pairs, values)
        monkeypatch.setattr(KWiseIndependentFamily, "from_seed_int", counted)
        outcome = selector.select(cost, target_bound=5.0)
        assert len(seeds) == 2 * built  # one h1 and one h2 per built candidate
        assert (_pair_key(outcome.h1, outcome.h2), outcome.evaluations) == (
            _pair_key(*pairs[feasible_index]),
            feasible_index + 1,
        )


class TestExhaustive:
    def test_returns_minimum_over_candidates(self):
        family1, family2 = small_families()
        selector = HashPairSelector(
            family1, family2, strategy=SelectionStrategy.EXHAUSTIVE, max_candidates=24
        )
        outcome = selector.select(balance_cost)
        scan = HashPairSelector(
            family1, family2, strategy=SelectionStrategy.EXHAUSTIVE, max_candidates=24
        )
        # Re-running gives the same minimum (deterministic candidate set).
        assert scan.select(balance_cost).cost == outcome.cost
        assert outcome.evaluations == 24


class TestRandom:
    def test_reproducible_given_seed(self):
        family1, family2 = small_families()
        a = HashPairSelector(
            family1, family2, strategy=SelectionStrategy.RANDOM, rng_seed=3
        ).select(balance_cost)
        b = HashPairSelector(
            family1, family2, strategy=SelectionStrategy.RANDOM, rng_seed=3
        ).select(balance_cost)
        assert a.h1.seed == b.h1.seed
        assert a.cost == b.cost

    def test_different_seeds_differ(self):
        family1, family2 = small_families()
        a = HashPairSelector(
            family1, family2, strategy=SelectionStrategy.RANDOM, rng_seed=3
        ).select(balance_cost)
        b = HashPairSelector(
            family1, family2, strategy=SelectionStrategy.RANDOM, rng_seed=4
        ).select(balance_cost)
        assert a.h1.seed != b.h1.seed


class TestConditionalExpectation:
    def test_meets_bound_or_falls_back(self):
        family1, family2 = small_families()
        expected = empirical_expected_cost(balance_cost, family1, family2, num_samples=16)
        selector = HashPairSelector(
            family1,
            family2,
            strategy=SelectionStrategy.CONDITIONAL_EXPECTATION,
            chunk_bits=8,
            completion_samples=2,
        )
        outcome = selector.select(balance_cost, target_bound=expected * 1.5)
        assert outcome.cost <= expected * 1.5

    def test_without_bound_returns_fixed_seed(self):
        family1, family2 = small_families()
        selector = HashPairSelector(
            family1,
            family2,
            strategy=SelectionStrategy.CONDITIONAL_EXPECTATION,
            chunk_bits=8,
        )
        a = selector.select(balance_cost)
        b = selector.select(balance_cost)
        assert a.h1.seed == b.h1.seed
        assert not a.fallback_used


class TestCostHelpers:
    def test_empirical_expected_cost_positive(self):
        family1, family2 = small_families()
        value = empirical_expected_cost(balance_cost, family1, family2, num_samples=8)
        assert value > 0

    def test_empirical_expected_cost_invalid_samples(self):
        family1, family2 = small_families()
        with pytest.raises(ConfigurationError):
            empirical_expected_cost(balance_cost, family1, family2, num_samples=0)

    def test_is_feasible(self):
        family1, family2 = small_families()
        h1 = family1.from_seed_int(0)
        h2 = family2.from_seed_int(0)
        assert is_feasible(balance_cost, h1, h2, None)
        assert not is_feasible(lambda a, b: 10.0, h1, h2, 5.0)
