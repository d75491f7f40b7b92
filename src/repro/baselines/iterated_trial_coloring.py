"""Deterministic logarithmic-round trial coloring (the prior-art stand-in).

Before the present paper, the deterministic state of the art for
(Δ+1)-coloring in the CONGESTED CLIQUE was logarithmic in Δ (Censor-Hillel,
Parter, Schwartzman DISC'17 via MIS; Parter ICALP'18).  Those algorithms are
substantial systems in their own right; as a behavioural stand-in we
implement the classic *derandomized trial coloring* loop, which has the same
logarithmic round growth and uses the same derandomization toolkit as the
rest of this library:

Each phase (a constant number of CONGESTED CLIQUE rounds):

1. a hash function ``h`` drawn from a ``c``-wise independent family proposes
   a palette color for every uncolored node (its ``h``-th remaining color);
2. a node keeps its proposal if no uncolored neighbor proposes the same
   color and no already-colored neighbor owns it;
3. the seed of ``h`` is fixed deterministically (the same feasibility-scan /
   conditional-expectation machinery) so that at least the expected number
   of nodes succeed — a constant fraction, since each node succeeds with
   probability at least ``(1 - 1/(d+1))^d >= 1/4`` in expectation over the
   proposals.

A constant fraction of nodes is colored per phase, so the number of phases
is ``Θ(log n)`` — the logarithmic curve the E4 experiment plots against
``ColorReduce``'s constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.accounting import CostLedger
from repro.derand.conditional_expectation import _mix64
from repro.errors import ColoringError, DerandomizationError
from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment
from repro.graph.validation import assert_valid_list_coloring
from repro.hashing.family import HashFunction, KWiseIndependentFamily
from repro.types import Color, NodeId

#: CONGESTED CLIQUE rounds charged per phase (propose + resolve + announce).
ROUNDS_PER_PHASE = 3
#: Candidate seeds examined per phase before giving up.
_MAX_SEEDS_PER_PHASE = 256
#: Fraction of the estimated expected successes a seed must achieve to be
#: accepted.  The estimate assumes fully independent proposals while the
#: family is only c-wise independent, so a factor-1/2 margin keeps every
#: phase feasible without affecting the logarithmic phase count.
_REQUIRED_FRACTION = 0.5


@dataclass
class TrialColoringResult:
    """Output of the iterated trial-coloring baseline."""

    coloring: Dict[NodeId, Color]
    phases: int
    rounds: int
    ledger: CostLedger


def _neighbor_lists(graph: Graph) -> Dict[NodeId, list]:
    """Every node's neighbors, read once off the CSR view.

    Each list is in the iteration order of ``graph.neighbors(node)`` (the
    same set, built from the same row), so the floating-point product in
    :func:`_expected_successes` multiplies in the same order.
    """
    csr = graph.csr()
    ids, indptr, indices = csr.id_list(), csr.indptr.tolist(), csr.indices.tolist()
    return {
        node: list({ids[target] for target in indices[indptr[pos] : indptr[pos + 1]]})
        for pos, node in enumerate(ids)
    }


def _expected_successes(
    neighbors: Dict[NodeId, list],
    remaining: Dict[NodeId, list],
    uncolored: set,
) -> float:
    """Lower bound on the expected number of successful proposals.

    Under uniform proposals, node ``v`` succeeds with probability at least
    ``prod_u (1 - 1/|remaining(u)|)`` over uncolored neighbors ``u`` — at
    least ``(1 - 1/(d+1))^d >= 1/4`` because ``|remaining(v)| > d(v)`` is
    maintained throughout.
    """
    total = 0.0
    for node in uncolored:
        probability = 1.0
        for neighbor in neighbors[node]:
            if neighbor in uncolored:
                probability *= max(0.0, 1.0 - 1.0 / max(len(remaining[neighbor]), 1))
        total += probability
    return total


def iterated_trial_coloring(
    graph: Graph,
    palettes: Optional[PaletteAssignment] = None,
    independence: int = 4,
    max_phases: Optional[int] = None,
    validate: bool = True,
) -> TrialColoringResult:
    """Run the deterministic trial-coloring baseline."""
    if palettes is None:
        palettes = PaletteAssignment.delta_plus_one(graph)
    palettes.validate_for_graph(graph)
    remaining: Dict[NodeId, list] = {
        node: sorted(palettes.palette(node)) for node in graph.nodes()
    }
    uncolored = set(graph.nodes())
    neighbors = _neighbor_lists(graph)
    coloring: Dict[NodeId, Color] = {}
    ledger = CostLedger()
    if max_phases is None:
        max_phases = 8 * max(1, graph.num_nodes.bit_length()) + 16
    domain = max(graph.nodes(), default=0) + 1
    phases = 0

    while uncolored and phases < max_phases:
        phases += 1
        expected = _expected_successes(neighbors, remaining, uncolored)
        family = KWiseIndependentFamily(
            domain_size=max(domain, 2), range_size=max(domain, 2), independence=independence
        )
        accepted = False
        for attempt in range(_MAX_SEEDS_PER_PHASE):
            seed_int = _mix64(phases * _MAX_SEEDS_PER_PHASE + attempt)
            proposer = family.from_seed_int(seed_int)
            proposals = _propose(proposer, remaining, uncolored)
            successes = _successful_nodes(neighbors, proposals, coloring, uncolored)
            if len(successes) >= _REQUIRED_FRACTION * min(expected, len(uncolored)) and successes:
                for node in successes:
                    color = proposals[node]
                    coloring[node] = color
                uncolored.difference_update(successes)
                for node in list(uncolored):
                    palette = remaining[node]
                    used = {
                        coloring[neighbor] for neighbor in neighbors[node] if neighbor in coloring
                    }
                    remaining[node] = [color for color in palette if color not in used]
                ledger.charge("trial-phase", ROUNDS_PER_PHASE, len(successes))
                accepted = True
                break
        if not accepted:
            raise DerandomizationError(
                f"phase {phases}: no seed among {_MAX_SEEDS_PER_PHASE} achieved the "
                f"expected {expected:.1f} successes over {len(uncolored)} uncolored nodes"
            )
    if uncolored:
        raise ColoringError(
            f"{len(uncolored)} nodes remain uncolored after {phases} phases"
        )
    if validate:
        assert_valid_list_coloring(graph, palettes, coloring)
    return TrialColoringResult(
        coloring=coloring, phases=phases, rounds=ledger.rounds, ledger=ledger
    )


def _propose(
    proposer: HashFunction, remaining: Dict[NodeId, list], uncolored: set
) -> Dict[NodeId, Color]:
    """Each uncolored node proposes its ``h(v)``-th remaining color."""
    proposals: Dict[NodeId, Color] = {}
    for node in uncolored:
        palette = remaining[node]
        index = proposer.field_value(node) % len(palette)
        proposals[node] = palette[index]
    return proposals


def _successful_nodes(
    neighbors: Dict[NodeId, list],
    proposals: Dict[NodeId, Color],
    coloring: Dict[NodeId, Color],
    uncolored: set,
) -> set:
    """Nodes whose proposal conflicts with no neighbor's proposal or color."""
    winners = set()
    for node in uncolored:
        proposal = proposals[node]
        conflict = False
        for neighbor in neighbors[node]:
            if neighbor in uncolored and proposals[neighbor] == proposal:
                conflict = True
                break
            if coloring.get(neighbor) == proposal:
                conflict = True
                break
        if not conflict:
            winners.add(node)
    return winners
