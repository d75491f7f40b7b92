"""Deterministic hash-pair selection (the paper's Section 2.4 machinery).

The paper fixes the ``O(log n)``-bit seed of the pair ``(h1, h2)`` with the
method of conditional expectations: the seed is agreed upon in chunks of
``δ log n`` bits; for each of the ``n^δ`` candidate values of the next chunk,
machines compute their local contribution to the conditional expectation of
the cost function, a constant-round prefix-sum aggregates them, and the best
candidate is fixed.  Everything is deterministic and takes ``O(1)`` rounds
because the seed has ``O(log n)`` bits, i.e. ``O(1/δ)`` chunks.

This module implements that search plus three companions:

``CONDITIONAL_EXPECTATION``
    The chunked search.  The conditional expectation for a candidate prefix
    is computed by averaging the exact cost over completions of the remaining
    bits: over *all* completions when few bits remain (exact), otherwise over
    a fixed deterministic set of completions (documented estimator — see
    DESIGN.md's substitution table).  After the last chunk the true cost of
    the fully-fixed seed is evaluated; if a target bound is supplied and not
    met, the selector falls back to the feasibility scan below, so the
    returned pair always satisfies the bound that the analysis guarantees to
    be satisfiable.

``FIRST_FEASIBLE`` (default)
    A batched deterministic scan over an explicit candidate sequence of
    seeds.  Each batch of candidates is evaluated "in parallel" (in the
    model, ``n^Ω(1)`` concurrent prefix sums — Section 2.1 — evaluate all
    candidates of a batch in ``O(1)`` rounds) and the first candidate meeting
    the target bound is chosen.  Because Lemma 3.8 bounds the *expected* cost
    by the target, a constant fraction of seeds is feasible and the scan
    terminates after a constant expected number of batches; the simulator is
    charged per batch actually examined.

``EXHAUSTIVE``
    Minimum-cost pair over a bounded deterministic candidate set (used by
    tests and by the derandomization experiment to find the true optimum on
    small instances).

``RANDOM``
    A uniformly random pair (the randomized baseline being derandomized).

Batched scoring
---------------
Every strategy scores its candidates through one batch scorer,
``pairs -> values``: a feasibility-scan batch, an exhaustive batch, one
chunk's candidate x completion set of the conditional-expectation search,
and the single pair of ``RANDOM`` or of the search's final seed.  A cost
exposing ``many(pairs) -> values`` (the evaluators returned by
:func:`repro.core.classification.partition_cost_function` and
:func:`repro.core.low_space.machine_sets.low_space_cost_function`) is its
own scorer: one matrix computation per call on the vectorized hash kernels
(:mod:`repro.hashing.batch`).  A plain ``(h1, h2) -> float`` callable is
lifted at the door to the per-pair list ``[cost(h1, h2) for ...]``, which
is how the kernel benchmarks time the reference; the differential tests'
oracle (``tests/scalar_oracle.py``) lifts an evaluator's scalar
``__call__`` the same way.  The conditional-expectation search caches
scores by full joint seed across chunks, since fixing a chunk makes later
candidate seeds a subset of seeds already scored.  ``many`` is required to
be bit-identical to the scalar form, so the selected pair, its cost, and
all accounting (``evaluations``, ``rounds_charged``) are independent of
the scorer.

Multiprocess scoring
--------------------
With ``parallel_workers > 1`` each slab is additionally sharded across a
pool of worker processes (:mod:`repro.parallel`): the deterministic planner
splits the slab into contiguous per-worker sub-slabs, every worker scores
its shard through the evaluator's own ``many`` kernel (the evaluator is
shipped once per Partition level, its static arrays rebuilt worker-side
once), and the parent reassembles the cost vectors in candidate order.
Workers return values, never decisions, so the argmin / first-feasible
reduction stays positional in the parent and the selected seeds are
bit-identical for every worker count — ``parallel_workers=1`` (default)
keeps the zero-overhead in-process path and never spawns anything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.derand.cost import PairCost
from repro.errors import ConfigurationError, DerandomizationError
from repro.hashing.family import HashFunction, KWiseIndependentFamily
from repro.hashing.seeds import Seed, enumerate_chunk_values

#: Simulated rounds charged per chunk of the conditional-expectation search
#: or per batch of the feasibility scan (one aggregation + one broadcast).
ROUNDS_PER_SELECTION_STEP = 2

#: Odd 64-bit constant used to derive deterministic, well-spread candidate
#: seed integers (splitmix64 increment).
_MIX_CONSTANT = 0x9E3779B97F4A7C15


def _mix64(value: int) -> int:
    """A deterministic 64-bit mixing function (splitmix64 finalizer)."""
    value = (value + _MIX_CONSTANT) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


def candidate_pairs(
    family1: KWiseIndependentFamily,
    family2: KWiseIndependentFamily,
    salt: int,
    start: int,
    stop: int,
) -> List[Tuple[HashFunction, HashFunction]]:
    """Pairs ``start..stop-1`` of the deterministic candidate sequence.

    Candidate ``i`` takes its two seeds from splitmix64 at ``2i`` and
    ``2i + 1`` past the salt's offset, reduced modulo each family's size,
    so the sequence is well spread and depends only on the families and
    ``salt``.  The selector's scans (:meth:`HashPairSelector._candidates`)
    and the cross-bin level prefetch (:mod:`repro.core.level`) both read
    it here, which is what lets the prefetch score a child's head pair
    before the child's own selection runs.
    """
    offset = _mix64(salt) if salt else 0
    return [
        (
            family1.from_seed_int(_mix64(offset + 2 * index) % family1.family_size),
            family2.from_seed_int(
                _mix64(offset + 2 * index + 1) % family2.family_size
            ),
        )
        for index in range(start, stop)
    ]


class SelectionStrategy(str, Enum):
    """How the hash pair is chosen."""

    FIRST_FEASIBLE = "first-feasible"
    CONDITIONAL_EXPECTATION = "conditional-expectation"
    EXHAUSTIVE = "exhaustive"
    RANDOM = "random"


@dataclass
class SelectionOutcome:
    """The result of a hash-pair selection."""

    h1: HashFunction
    h2: HashFunction
    cost: float
    evaluations: int
    rounds_charged: int
    strategy: SelectionStrategy
    fallback_used: bool = False


#: Callback used to charge simulated rounds: ``charge(label, rounds)``.
ChargeCallback = Callable[[str, int], None]


class HashPairSelector:
    """Selects a pair ``(h1, h2)`` from two hash families against a cost.

    Parameters
    ----------
    family1, family2:
        The node-hash and color-hash families (``H1``, ``H2`` in the paper).
    strategy:
        The selection strategy; see the module docstring.
    chunk_bits:
        Seed bits fixed per step of the conditional-expectation search
        (the paper's ``δ log n``).
    completion_samples:
        Number of deterministic completions used to estimate a conditional
        expectation when exact enumeration of the remaining bits is too
        large.
    exact_completion_bits:
        If at most this many seed bits remain unfixed, the conditional
        expectation is computed exactly by enumerating all completions.
    batch_size:
        Candidates evaluated per simulated ``O(1)``-round step of the
        feasibility scan.
    max_candidates:
        Hard cap on candidates examined before raising
        :class:`repro.errors.DerandomizationError`.
    candidate_salt:
        Deterministic offset mixed into the candidate-seed sequence so that
        different Partition calls examine different (but still deterministic)
        candidate orders.
    parallel_workers:
        Shard batched slabs across this many worker processes (see the
        module notes on multiprocess scoring).  ``1`` (default) scores
        in-process with zero parallel overhead; values above 1 require the
        cost to be a shippable batched evaluator, else scoring stays
        in-process.  Outcomes are identical for every value.  The worker
        count is the pool's only input: its recovery policy, transport and
        engagement floor are chosen by :mod:`repro.parallel.executor`.
    """

    def __init__(
        self,
        family1: KWiseIndependentFamily,
        family2: KWiseIndependentFamily,
        strategy: SelectionStrategy = SelectionStrategy.FIRST_FEASIBLE,
        *,
        chunk_bits: int = 4,
        completion_samples: int = 2,
        exact_completion_bits: int = 8,
        batch_size: int = 16,
        max_candidates: int = 4096,
        rng_seed: int = 0,
        candidate_salt: int = 0,
        parallel_workers: int = 1,
    ) -> None:
        if chunk_bits < 1:
            raise ConfigurationError("chunk_bits must be positive")
        if completion_samples < 1:
            raise ConfigurationError("completion_samples must be positive")
        if batch_size < 1:
            raise ConfigurationError("batch_size must be positive")
        if max_candidates < 1:
            raise ConfigurationError("max_candidates must be positive")
        if parallel_workers < 1:
            raise ConfigurationError("parallel_workers must be positive")
        self.family1 = family1
        self.family2 = family2
        self.strategy = SelectionStrategy(strategy)
        self.chunk_bits = chunk_bits
        self.completion_samples = completion_samples
        self.exact_completion_bits = exact_completion_bits
        self.batch_size = batch_size
        self.max_candidates = max_candidates
        self.rng_seed = rng_seed
        self.candidate_salt = candidate_salt
        self.parallel_workers = parallel_workers

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def select(
        self,
        cost: PairCost,
        target_bound: Optional[float] = None,
        charge: Optional[ChargeCallback] = None,
    ) -> SelectionOutcome:
        """Select a hash pair according to the configured strategy.

        ``target_bound`` is the cost value the analysis guarantees to be
        achievable (e.g. ``n / l^2`` from Lemma 3.9); strategies that verify
        feasibility use it.  ``charge`` receives the simulated round charges.
        """
        if self.strategy is SelectionStrategy.RANDOM:
            return self._select_random(cost, charge)
        if self.strategy is SelectionStrategy.EXHAUSTIVE:
            return self._select_exhaustive(cost, charge)
        if self.strategy is SelectionStrategy.CONDITIONAL_EXPECTATION:
            return self._select_conditional_expectation(cost, target_bound, charge)
        return self._select_first_feasible(cost, target_bound, charge)

    # ------------------------------------------------------------------
    # strategies
    # ------------------------------------------------------------------
    def _select_random(
        self, cost: PairCost, charge: Optional[ChargeCallback]
    ) -> SelectionOutcome:
        rng = random.Random(self.rng_seed)
        h1 = self.family1.random_function(rng)
        h2 = self.family2.random_function(rng)
        self._charge(charge, 1)
        return SelectionOutcome(
            h1=h1,
            h2=h2,
            cost=self._batch_cost(cost)([(h1, h2)])[0],
            evaluations=1,
            rounds_charged=ROUNDS_PER_SELECTION_STEP,
            strategy=SelectionStrategy.RANDOM,
        )

    def _select_exhaustive(
        self, cost: PairCost, charge: Optional[ChargeCallback]
    ) -> SelectionOutcome:
        best: Optional[Tuple[float, HashFunction, HashFunction]] = None
        evaluations = 0
        steps = 0
        batch_cost = self._batch_cost(cost)
        for batch in self._candidate_batches():
            steps += 1
            for (h1, h2), value in zip(batch, batch_cost(batch)):
                evaluations += 1
                if best is None or value < best[0]:
                    best = (value, h1, h2)
            if evaluations >= self.max_candidates:
                break
        if best is None:  # pragma: no cover - max_candidates >= 1 prevents this
            raise DerandomizationError("no candidates were examined")
        self._charge(charge, steps)
        return SelectionOutcome(
            h1=best[1],
            h2=best[2],
            cost=best[0],
            evaluations=evaluations,
            rounds_charged=steps * ROUNDS_PER_SELECTION_STEP,
            strategy=SelectionStrategy.EXHAUSTIVE,
        )

    def _select_first_feasible(
        self,
        cost: PairCost,
        target_bound: Optional[float],
        charge: Optional[ChargeCallback],
    ) -> SelectionOutcome:
        evaluations = 0
        steps = 0
        best: Optional[Tuple[float, HashFunction, HashFunction]] = None
        batch_cost = self._batch_cost(cost)
        for start in range(0, self.max_candidates, self.batch_size):
            stop = min(start + self.batch_size, self.max_candidates)
            steps += 1
            # One matrix computation scores the whole batch (in the model:
            # the batch's concurrent prefix sums); evaluations are counted
            # up to the first feasible candidate, in candidate order.  The
            # very first candidate is built and scored alone: Lemma 3.8
            # makes it feasible a constant fraction of the time, so the
            # rest of the batch is often never built.
            if start == 0:
                batch = self._candidates(0, 1)
                values = list(batch_cost(batch))
                if not (target_bound is None or values[0] <= target_bound):
                    rest = self._candidates(1, stop)
                    batch += rest
                    values += batch_cost(rest)
            else:
                batch = self._candidates(start, stop)
                values = batch_cost(batch)
            for (h1, h2), value in zip(batch, values):
                evaluations += 1
                if best is None or value < best[0]:
                    best = (value, h1, h2)
                if target_bound is None or value <= target_bound:
                    self._charge(charge, steps)
                    return SelectionOutcome(
                        h1=h1,
                        h2=h2,
                        cost=value,
                        evaluations=evaluations,
                        rounds_charged=steps * ROUNDS_PER_SELECTION_STEP,
                        strategy=SelectionStrategy.FIRST_FEASIBLE,
                    )
            if evaluations >= self.max_candidates:
                break
        self._charge(charge, steps)
        assert best is not None
        raise DerandomizationError(
            f"no hash pair among {evaluations} candidates met the target bound "
            f"{target_bound}; best cost seen was {best[0]}",
            best=SelectionOutcome(
                h1=best[1],
                h2=best[2],
                cost=best[0],
                evaluations=evaluations,
                rounds_charged=steps * ROUNDS_PER_SELECTION_STEP,
                strategy=SelectionStrategy.FIRST_FEASIBLE,
            ),
        )

    def _select_conditional_expectation(
        self,
        cost: PairCost,
        target_bound: Optional[float],
        charge: Optional[ChargeCallback],
    ) -> SelectionOutcome:
        total_bits = self.family1.seed_length_bits + self.family2.seed_length_bits
        prefix = Seed.empty()
        evaluations = 0
        steps = 0
        batch_cost = self._batch_cost(cost)
        # Scores are cached by full joint seed across chunks: fixing the best
        # chunk value makes the next chunk's candidate x completion seeds a
        # subset of seeds already scored in this chunk, so cached batches
        # shrink the matrix work of every later chunk instead of
        # re-evaluating fixed prefixes.
        score_cache: Dict[Tuple[int, ...], float] = {}
        while len(prefix) < total_bits:
            remaining_after = total_bits - len(prefix) - self.chunk_bits
            chunk_width = min(self.chunk_bits, total_bits - len(prefix))
            best_value: Optional[float] = None
            best_candidate = 0
            estimates, used = self._chunk_estimates(
                batch_cost,
                prefix,
                chunk_width,
                total_bits,
                max(remaining_after, 0),
                score_cache,
            )
            evaluations += used
            for candidate, estimate in enumerate(estimates):
                if best_value is None or estimate < best_value:
                    best_value = estimate
                    best_candidate = candidate
            prefix = prefix.extended(best_candidate, chunk_width)
            steps += 1
        h1, h2 = self._pair_from_joint_seed(prefix)
        final_cost = batch_cost([(h1, h2)])[0]
        evaluations += 1
        self._charge(charge, steps)
        rounds = steps * ROUNDS_PER_SELECTION_STEP
        if target_bound is not None and final_cost > target_bound:
            fallback = self._select_first_feasible(cost, target_bound, charge)
            fallback.evaluations += evaluations
            fallback.rounds_charged += rounds
            fallback.fallback_used = True
            return fallback
        return SelectionOutcome(
            h1=h1,
            h2=h2,
            cost=final_cost,
            evaluations=evaluations,
            rounds_charged=rounds,
            strategy=SelectionStrategy.CONDITIONAL_EXPECTATION,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _batch_cost(self, cost: PairCost) -> Callable[[list], list]:
        """The scorer every strategy reads: ``pairs -> values``.

        A batched cost is any callable with a ``many(pairs) -> values``
        method returning exactly ``[cost(h1, h2) for h1, h2 in pairs]``
        (the evaluators in :mod:`repro.core.classification` and
        :mod:`repro.core.low_space.machine_sets` guarantee bit-identical
        values, so selection outcomes are independent of the scorer).  A
        plain callable is lifted to that per-pair list here, once.
        """
        many = getattr(cost, "many", None)
        if not callable(many):
            return lambda pairs: [cost(h1, h2) for h1, h2 in pairs]
        if self.parallel_workers > 1:
            from repro.parallel.executor import parallel_many_scorer

            scorer = parallel_many_scorer(cost, self.parallel_workers)
            if scorer is not None:
                # Sharded scoring returns the exact `many` value vector, so
                # the positional scans below are untouched by worker count.
                return scorer
        return many

    def _completions(self, remaining_bits: int):
        """The deterministic completion set for a candidate prefix."""
        if remaining_bits <= self.exact_completion_bits:
            return range(1 << remaining_bits)
        return [
            _mix64(index + 1) & ((1 << remaining_bits) - 1)
            for index in range(self.completion_samples)
        ]

    def _chunk_estimates(
        self,
        batch_cost,
        prefix: Seed,
        chunk_width: int,
        total_bits: int,
        remaining_bits: int,
        score_cache: Dict[Tuple[int, ...], float],
    ) -> Tuple[List[float], int]:
        """All candidate estimates of one chunk as one matrix computation.

        ``E[cost | prefix]`` of each candidate prefix is the average of the
        cost over its completions (:meth:`_completions`).  Every
        (candidate, completion) full seed of the chunk is assembled first;
        seeds not in ``score_cache`` are scored with a single
        ``batch_cost`` call, and the per-candidate averages are then formed
        in completion order.  ``evaluations`` counts every (candidate,
        completion) pair, cache hits included — the cache removes
        recomputation, not model work.
        """
        completions = list(self._completions(remaining_bits))
        keys_per_candidate: List[List[Tuple[int, ...]]] = []
        pending: Dict[Tuple[int, ...], Tuple[HashFunction, HashFunction]] = {}
        for candidate in enumerate_chunk_values(chunk_width):
            candidate_prefix = prefix.extended(candidate, chunk_width)
            keys: List[Tuple[int, ...]] = []
            for completion in completions:
                full = self._complete_seed(candidate_prefix, completion, total_bits)
                keys.append(full.bits)
                if full.bits not in score_cache and full.bits not in pending:
                    pending[full.bits] = self._pair_from_joint_seed(full)
            keys_per_candidate.append(keys)
        if pending:
            fresh_keys = list(pending)
            values = batch_cost([pending[key] for key in fresh_keys])
            score_cache.update(zip(fresh_keys, values))
        estimates: List[float] = []
        used = 0
        for keys in keys_per_candidate:
            total = 0.0
            for key in keys:
                total += score_cache[key]
                used += 1
            estimates.append(total / len(keys))
        return estimates, used

    @staticmethod
    def _complete_seed(prefix: Seed, completion_value: int, total_bits: int) -> Seed:
        remaining = total_bits - len(prefix)
        if remaining == 0:
            return prefix
        return prefix.extended(completion_value & ((1 << remaining) - 1), remaining)

    def _pair_from_joint_seed(self, joint: Seed) -> Tuple[HashFunction, HashFunction]:
        split = self.family1.seed_length_bits
        seed1 = Seed(joint.bits[:split])
        seed2 = Seed(joint.bits[split:])
        return self.family1.from_seed(seed1), self.family2.from_seed(seed2)

    def _candidates(
        self, start: int, stop: int
    ) -> List[Tuple[HashFunction, HashFunction]]:
        """Candidate pairs ``start..stop-1`` of this selector's sequence."""
        return candidate_pairs(
            self.family1, self.family2, self.candidate_salt, start, stop
        )

    def _candidate_batches(self) -> Iterator[List[Tuple[HashFunction, HashFunction]]]:
        """The candidate sequence in batches of ``batch_size``."""
        for start in range(0, self.max_candidates, self.batch_size):
            stop = min(start + self.batch_size, self.max_candidates)
            yield self._candidates(start, stop)

    @staticmethod
    def _charge(charge: Optional[ChargeCallback], steps: int) -> None:
        if charge is not None and steps > 0:
            charge("hash-selection", steps * ROUNDS_PER_SELECTION_STEP)
