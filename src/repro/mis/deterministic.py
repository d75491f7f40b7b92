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

The core, :func:`mis_on_edges`, takes the vertex count, the edges (once
each) and the vertex ids, and returns the chosen mask and the phase count;
the list-coloring reduction calls it on its edge arrays, and
:func:`deterministic_mis` on a graph's CSR view.  Each candidate is
evaluated with arrays over the live edge list: one vectorized polynomial
evaluation for the priorities, strict local minima of the lexicographic
``(field value, node id)`` key, the removed mask and the removed-edge
count.  The scalar per-node loop is kept as the test oracle
``tests/mis_oracle.py``; both give the same set and phase count.

DESIGN.md records this substitution; the low-space coloring experiments
report the measured phase counts of this component separately so the
substitution's effect on the end-to-end round count is visible.
"""

from __future__ import annotations

from typing import Optional, Tuple

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


def _id_keys(node_ids) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(ids, tie, domain)`` for the vertex ids ``node_ids``.

    ``ids`` is an int64 array (an object array when some id does not fit
    int64), ``tie`` int64 keys ordering like the ids — the ids themselves,
    or their ranks — and ``domain`` the hash domain, clamped to at least 1.
    """
    try:
        ids = np.asarray(node_ids, dtype=np.int64)
        tie = ids
    except OverflowError:
        ids = np.asarray(node_ids, dtype=object)
        tie = np.unique(ids, return_inverse=True)[1].astype(np.int64)
    domain = max(int(ids.max()) + 1, 1) if ids.shape[0] else 1
    return ids, tie, domain


def mis_on_edges(
    num_vertices: int, tails, heads, node_ids, independence=4, max_phases=None
) -> Tuple[np.ndarray, int]:
    """Derandomized Luby phases on an undirected edge list.

    Vertex ``i`` has id ``node_ids[i]``; ``tails[j]`` and ``heads[j]`` are
    the vertex indices (an integer array each) of edge ``j``, each edge
    listed once.  The ids
    seed the priorities and break their ties.  Returns ``(chosen,
    phases)``: the MIS as a boolean mask over the vertices, and the number
    of phases.

    Raises :class:`repro.errors.DerandomizationError` if some phase cannot
    find a seed removing the required edge fraction within the scan budget
    (which the analysis rules out; surfacing it loudly is preferable to
    silently looping).  Vertices still alive after ``max_phases`` phases
    are folded in greedily in ascending id order.
    """
    if max_phases is None:
        max_phases = 8 * max(1, num_vertices.bit_length()) + 8
    ids, tie, domain = _id_keys(node_ids)
    family = KWiseIndependentFamily(
        domain_size=domain, range_size=max(domain, 2), independence=independence
    )
    points = (ids % family.prime).astype(np.int64)

    alive = np.ones(num_vertices, dtype=bool)
    chosen = np.zeros(num_vertices, dtype=bool)
    phases = 0
    while tails.shape[0] and phases < max_phases:
        edges_left = int(tails.shape[0])
        phases += 1
        live = np.flatnonzero(alive)
        live_points = points[live]
        tie_tails = tie[tails]
        tie_heads = tie[heads]
        for seed_int in range(_MAX_SEEDS_PER_PHASE):
            priority_of = family.from_seed_int(seed_int + phases * _MAX_SEEDS_PER_PHASE)
            values = evaluate_polynomial_many(
                priority_of.coefficients, live_points, family.prime
            )
            field = np.zeros(num_vertices, dtype=values.dtype)
            field[live] = values
            field_tails = field[tails]
            field_heads = field[heads]
            tail_first = (field_tails < field_heads) | (
                (field_tails == field_heads) & (tie_tails < tie_heads)
            )
            beaten = np.zeros(num_vertices, dtype=bool)
            beaten[heads[tail_first]] = True
            beaten[tails[~tail_first]] = True
            winners = alive & ~beaten
            removed = winners.copy()
            removed[heads[winners[tails]]] = True
            removed[tails[winners[heads]]] = True
            touched = removed[tails] | removed[heads]
            removed_edges = np.count_nonzero(touched)
            if removed_edges >= _REQUIRED_EDGE_FRACTION * edges_left and winners.any():
                chosen |= winners
                alive &= ~removed
                tails = tails[~touched]
                heads = heads[~touched]
                break
        else:
            raise DerandomizationError(
                f"phase {phases}: no seed among {_MAX_SEEDS_PER_PHASE} removed "
                f"{_REQUIRED_EDGE_FRACTION:.0%} of the {edges_left} surviving edges"
            )
    if not tails.shape[0]:
        # No edges left: every surviving vertex is isolated and joins.
        return chosen | alive, phases
    # Past ``max_phases``: fold the stragglers in.  A winner's live
    # neighbors leave with it, so no straggler has a chosen neighbor, and
    # the live edges (both ends alive) are all the adjacency the fold reads.
    ends = np.concatenate((tails, heads))
    order = np.argsort(ends, kind="stable")
    neighbors = np.concatenate((heads, tails))[order]
    indptr = np.searchsorted(ends[order], np.arange(num_vertices + 1))
    stragglers = np.flatnonzero(alive)
    for pos in stragglers[np.argsort(tie[stragglers], kind="stable")].tolist():
        if not chosen[neighbors[indptr[pos] : indptr[pos + 1]]].any():
            chosen[pos] = True
    return chosen, phases


def deterministic_mis(
    graph: Graph,
    independence: int = 4,
    max_phases: Optional[int] = None,
) -> MISResult:
    """Deterministic MIS of ``graph``: :func:`mis_on_edges` over its CSR
    view's edges, read back as a set of node ids."""
    csr = graph.csr()
    ids, once = csr.node_ids, csr.edge_sources < csr.indices
    edges = csr.edge_sources[once], csr.indices[once]
    chosen, phases = mis_on_edges(csr.num_nodes, *edges, ids, independence, max_phases)
    return MISResult({ids[pos] for pos in np.flatnonzero(chosen).tolist()}, phases)
