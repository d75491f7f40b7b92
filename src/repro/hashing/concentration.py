"""The Bellare–Rompel concentration bound for bounded independence.

Lemma 2.2 of the paper (quoting Lemma 2.2 of Bellare–Rompel, FOCS'94):

    Let ``c >= 4`` be an even integer.  Suppose ``Z_1, ..., Z_t`` are
    ``c``-wise independent random variables taking values in ``[0, 1]``.
    Let ``Z = Z_1 + ... + Z_t``, ``mu = E[Z]`` and ``lambda > 0``.  Then

        Pr[|Z - mu| >= lambda] <= 2 * (c * t / lambda^2)^(c / 2).

The analysis modules use this to compute, for given instance parameters, the
failure probabilities claimed in Lemmas 3.4–3.7 (bad bins / bad degree /
bad palette events), and the hash-family experiments check the empirical
deviation frequencies against the bound.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError


def bellare_rompel_tail_bound(
    num_variables: int, deviation: float, independence: int
) -> float:
    """Upper bound on ``Pr[|Z - E[Z]| >= deviation]`` from Lemma 2.2.

    Parameters
    ----------
    num_variables:
        ``t``, the number of ``[0, 1]``-valued summands.
    deviation:
        ``lambda``, the absolute deviation from the mean.
    independence:
        ``c``, the independence parameter; must be an even integer ``>= 4``.

    Returns
    -------
    float
        The bound ``min(1, 2 (c t / lambda^2)^(c/2))``.
    """
    if independence < 4 or independence % 2 != 0:
        raise ConfigurationError("independence must be an even integer >= 4")
    if num_variables < 0:
        raise ConfigurationError("num_variables must be non-negative")
    if deviation <= 0:
        raise ConfigurationError("deviation must be positive")
    if num_variables == 0:
        return 0.0
    ratio = independence * num_variables / (deviation * deviation)
    bound = 2.0 * math.pow(ratio, independence / 2.0)
    return min(1.0, bound)


def independence_needed_for_bound(
    num_variables: int, deviation: float, target_probability: float, max_independence: int = 64
) -> int:
    """Smallest even ``c >= 4`` for which Lemma 2.2 gives the target bound.

    Used by the experiments to report the independence parameter that the
    paper's "sufficiently large constant ``c``" phrase resolves to for each
    concrete instance.  Raises :class:`ConfigurationError` if no ``c`` up to
    ``max_independence`` suffices (which happens when the ratio
    ``c t / lambda^2`` is at least 1, so increasing ``c`` cannot help).
    """
    if not 0.0 < target_probability < 1.0:
        raise ConfigurationError("target_probability must be in (0, 1)")
    for candidate in range(4, max_independence + 1, 2):
        if bellare_rompel_tail_bound(num_variables, deviation, candidate) <= target_probability:
            return candidate
    raise ConfigurationError(
        "no independence parameter up to "
        f"{max_independence} achieves probability {target_probability} "
        f"for t={num_variables}, lambda={deviation}"
    )


def bad_degree_probability_bound(degree: int, ell: float, independence: int) -> float:
    """Lemma 3.5 instantiation: ``Pr[|d'(v) - d(v) l^-0.1| >= l^0.6]``.

    The summands are the ``d(v)`` indicator variables that each neighbor of
    ``v`` lands in ``v``'s bin.  The paper upper-bounds this by ``l^-3`` for
    sufficiently large ``c``; this helper returns the Lemma 2.2 value for the
    given ``c`` so experiments can compare.
    """
    from repro.core.params import DEGREE_SLACK_EXPONENT  # repro.core imports hashing

    if ell <= 1.0:
        return 1.0
    return bellare_rompel_tail_bound(degree, math.pow(ell, DEGREE_SLACK_EXPONENT), independence)


def bad_palette_probability_bound(palette_size: int, independence: int) -> float:
    """Lemma 3.6 instantiation: ``Pr[p'(v) <= p(v) l^-0.1 + l^0.7]``.

    The summands are the ``p(v)`` indicators that each palette color is
    hashed to ``v``'s bin, and the deviation used in the proof is
    ``p(v)^0.6``.
    """
    from repro.core.params import DEGREE_SLACK_EXPONENT  # repro.core imports hashing

    if palette_size <= 1:
        return 1.0
    return bellare_rompel_tail_bound(
        palette_size, math.pow(palette_size, DEGREE_SLACK_EXPONENT), independence
    )


def bad_bin_probability_bound(num_nodes: int, independence: int) -> float:
    """Lemma 3.4 instantiation: probability a fixed bin exceeds its size cap.

    The summands are the ``n_G`` indicators that each node hashes to the
    fixed bin, and the deviation used in the proof is ``n^0.6`` (in terms of
    the *global* number of nodes, which for the purposes of this bound we
    take equal to ``num_nodes``).
    """
    from repro.core.params import BIN_CAP_SLACK_EXPONENT  # repro.core imports hashing

    if num_nodes <= 1:
        return 0.0
    return bellare_rompel_tail_bound(
        num_nodes, math.pow(num_nodes, BIN_CAP_SLACK_EXPONENT), independence
    )
