"""Derandomized Luby MIS (the substitute for the SPAA'20 black box).

Theorem 1.4 uses the deterministic low-space MPC MIS algorithm of Czumaj,
Davies and Parter (SPAA'20) as a black box with round envelope
``O(log Δ + log log n)``.  Re-implementing that algorithm in full is outside
the scope of this reproduction (it is its own paper); instead we provide a
deterministic MIS with the same interface and a measured ``O(log n)``-phase
envelope, via the classic derandomization of Luby's algorithm:

* per phase, node priorities are drawn from a ``k``-wise independent hash
  family (so a single ``O(log n)``-bit seed determines the whole phase);
* the standard analysis shows that with pairwise-independent priorities the
  expected number of edges removed in a phase is at least a constant
  fraction of the surviving edges;
* the seed is therefore chosen deterministically: the phase tries candidate
  seeds one at a time, in a fixed order, and keeps the first whose realised
  number of removed edges is at least a fixed fraction of the surviving
  edges, giving ``O(log m)`` phases.

Each candidate is evaluated with arrays over the live edge list: one
vectorized polynomial evaluation for the priorities, strict local minima
of the lexicographic ``(field value, node id)`` key, the removed mask and
the removed-edge count.  The scalar per-node loop is kept as the test
oracle ``tests/mis_oracle.py``; both give the same set and phase count.

DESIGN.md records this substitution; the low-space coloring experiments
report the measured phase counts of this component separately so the
substitution's effect on the end-to-end round count is visible.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import DerandomizationError
from repro.graph.graph import Graph
from repro.hashing.batch import evaluate_polynomial_many
from repro.hashing.family import KWiseIndependentFamily
from repro.mis.luby import MISResult

#: Fraction of surviving edges a phase must remove for its seed to be
#: accepted.  Luby's analysis guarantees an expected fraction of at least
#: 1/2 under full independence and a constant fraction under pairwise
#: independence; 1/8 is a deliberately conservative, always-achievable
#: target that keeps the seed scan short.
_REQUIRED_EDGE_FRACTION = 0.125

#: Candidate seeds examined per phase before declaring failure.
_MAX_SEEDS_PER_PHASE = 512


def _priority_inputs(node_ids, prime: int):
    """``(points, tie)`` int64 arrays aligned with ``node_ids``.

    ``points`` are the ids reduced mod ``prime`` (what ``field_value``
    evaluates); ``tie`` orders like the ids — the ids themselves, or their
    ranks when some id does not fit int64.
    """
    try:
        ids = np.asarray(node_ids, dtype=np.int64)
        return ids % prime, ids
    except OverflowError:
        exact = np.asarray(node_ids, dtype=object)
        tie = np.empty(len(node_ids), dtype=np.int64)
        tie[np.argsort(exact, kind="stable")] = np.arange(len(node_ids), dtype=np.int64)
        return (exact % prime).astype(np.int64), tie


def deterministic_mis(
    graph: Graph,
    independence: int = 4,
    max_phases: Optional[int] = None,
) -> MISResult:
    """Deterministic MIS via derandomized Luby phases.

    Raises :class:`repro.errors.DerandomizationError` if some phase cannot
    find a seed removing the required edge fraction within the scan budget
    (which the analysis rules out; surfacing it loudly is preferable to
    silently looping).  Nodes still alive after ``max_phases`` phases are
    folded in greedily in ascending id order.
    """
    csr = graph.csr()
    node_ids = csr.node_ids
    num_nodes = csr.num_nodes
    if max_phases is None:
        max_phases = 8 * max(1, num_nodes.bit_length()) + 8
    domain = max(max(node_ids, default=0) + 1, 1)
    family = KWiseIndependentFamily(
        domain_size=domain, range_size=max(domain, 2), independence=independence
    )
    points, tie = _priority_inputs(node_ids, family.prime)

    alive = np.ones(num_nodes, dtype=bool)
    chosen = np.zeros(num_nodes, dtype=bool)
    once = csr.edge_sources < csr.indices
    tails = csr.edge_sources[once].astype(np.int64)
    heads = csr.indices[once].astype(np.int64)
    phases = 0
    while alive.any() and phases < max_phases:
        edges_left = int(tails.shape[0])
        if edges_left == 0:
            # No edges left: every surviving node is isolated and joins.
            chosen |= alive
            alive[:] = False
            break
        phases += 1
        live = np.flatnonzero(alive)
        live_points = points[live]
        tie_tails = tie[tails]
        tie_heads = tie[heads]
        accepted = False
        for seed_int in range(_MAX_SEEDS_PER_PHASE):
            priority_of = family.from_seed_int(seed_int + phases * _MAX_SEEDS_PER_PHASE)
            values = evaluate_polynomial_many(
                priority_of.coefficients, live_points, family.prime
            )
            field = np.zeros(num_nodes, dtype=values.dtype)
            field[live] = values
            field_tails = field[tails]
            field_heads = field[heads]
            tail_first = (field_tails < field_heads) | (
                (field_tails == field_heads) & (tie_tails < tie_heads)
            )
            beaten = np.zeros(num_nodes, dtype=bool)
            beaten[heads[tail_first]] = True
            beaten[tails[~tail_first]] = True
            winners = alive & ~beaten
            removed = winners.copy()
            removed[heads[winners[tails]]] = True
            removed[tails[winners[heads]]] = True
            touched = removed[tails] | removed[heads]
            removed_edges = int(np.count_nonzero(touched))
            if removed_edges >= _REQUIRED_EDGE_FRACTION * edges_left and winners.any():
                chosen |= winners
                alive &= ~removed
                tails = tails[~touched]
                heads = heads[~touched]
                accepted = True
                break
        if not accepted:
            raise DerandomizationError(
                f"phase {phases}: no seed among {_MAX_SEEDS_PER_PHASE} removed "
                f"{_REQUIRED_EDGE_FRACTION:.0%} of the {edges_left} surviving edges"
            )
    stragglers = np.flatnonzero(alive)
    indptr, indices = csr.indptr, csr.indices
    for pos in stragglers[np.argsort(tie[stragglers], kind="stable")].tolist():
        if not chosen[indices[indptr[pos] : indptr[pos + 1]]].any():
            chosen[pos] = True
    return MISResult(
        independent_set={node_ids[pos] for pos in np.flatnonzero(chosen).tolist()},
        phases=phases,
    )
