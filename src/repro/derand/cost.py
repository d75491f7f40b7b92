"""Cost-function interface for hash-pair selection.

A *pair cost* is any function ``q(h1, h2) -> float`` over a pair of hash
functions; the paper uses

* Equation (1): ``q = |bad nodes| + n * |bad bins|`` for the congested-clique
  / linear-space partitioning, and
* Equation (2): ``q = |bad machines|`` for the low-space partitioning.

The selection strategies in
:mod:`repro.derand.conditional_expectation` only need to *evaluate* the cost
for candidate pairs, so the interface is deliberately a plain callable.  The
helpers here estimate the expected cost over random pairs (to compare with
the analytic bound of Lemma 3.8) and verify feasibility of a chosen pair.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.hashing.family import HashFunction, KWiseIndependentFamily

#: A cost function over a pair of hash functions (lower is better).
PairCost = Callable[[HashFunction, HashFunction], float]


def assert_uniform_pair_families(
    pairs: Sequence[Tuple[HashFunction, HashFunction]],
) -> None:
    """Require every pair of a batch to come from the same two hash families.

    The batched cost evaluators vectorize over one ``(prime, domain, range)``
    per side, taken from the first pair; a mixed batch would be scored with
    the wrong field and produce plausible-looking but wrong costs, so it is
    rejected loudly instead.
    """
    h1_ref, h2_ref = pairs[0]
    for h1, h2 in pairs:
        if (h1.prime, h1.domain_size, h1.range_size) != (
            h1_ref.prime,
            h1_ref.domain_size,
            h1_ref.range_size,
        ) or (h2.prime, h2.domain_size, h2.range_size) != (
            h2_ref.prime,
            h2_ref.domain_size,
            h2_ref.range_size,
        ):
            raise ConfigurationError(
                "all pairs of a batch must come from the same two hash families"
            )


def empirical_expected_cost(
    cost: PairCost,
    family1: KWiseIndependentFamily,
    family2: KWiseIndependentFamily,
    num_samples: int = 32,
    seed: int = 0,
) -> float:
    """Monte-Carlo estimate of ``E[q(h1, h2)]`` over uniformly random pairs.

    Used by the derandomization experiments (E7) to compare the analytic
    bound of Lemma 3.8 (``E[q] <= n / l^2``) with the measured average.
    """
    if num_samples < 1:
        raise ConfigurationError("num_samples must be positive")
    rng = random.Random(seed)
    total = 0.0
    for _ in range(num_samples):
        h1 = family1.random_function(rng)
        h2 = family2.random_function(rng)
        total += cost(h1, h2)
    return total / num_samples


def is_feasible(
    cost: PairCost,
    h1: HashFunction,
    h2: HashFunction,
    target_bound: Optional[float],
) -> bool:
    """Whether the pair meets the target bound (always true if no bound)."""
    if target_bound is None:
        return True
    return cost(h1, h2) <= target_bound
