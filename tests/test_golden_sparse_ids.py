"""Golden outcomes on relabelled instances (both pipelines).

The perfbench pins cover ids ``0..n-1`` only, where a node's position in
the sorted root equals its id.  These instances relabel the same graphs
with sparse, negative and very large ids, and give list palettes that
hold the colors ``-1`` and ``-2**62``, so a node's hashed id, the order
of the extracted bins and the color ranks can only come out right if the
engine keeps positions and ids apart.  The digests were recorded on the
engine before its inner loops moved to root positions; any change to
them is an output change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest

from repro.core import ColorReduce, ColorReduceParameters
from repro.core.low_space.color_reduce import LowSpaceColorReduce
from repro.core.low_space.params import LowSpaceParameters
from repro.graph import Graph, PaletteAssignment, generators

#: Relabellings of the base graph's ``0..n-1`` ids.
RELABELS = {
    "7v+1000": lambda v: 7 * v + 1000,
    "negative": lambda v: -3 * v - 5,
    # The largest ids h1's field (2**61 - 1) still hashes.
    "near-2^61": lambda v: 2**61 - 2 - 11 * v,
}

#: Colors beyond the usual ``{0..Δ}``: a negative one and one near -2**62.
ODD_COLORS = (-1, -(2**62))


def relabelled(graph: Graph, relabel) -> Graph:
    return Graph.from_edges(
        [(relabel(u), relabel(v)) for u, v in graph.edges()],
        nodes=[relabel(v) for v in graph.nodes()],
    )


def odd_lists(graph: Graph, extra: int, seed: int) -> PaletteAssignment:
    """``deg(v) + 1 + extra`` colors per node, every palette holding both
    :data:`ODD_COLORS`, the rest drawn from a shared universe."""
    rng = random.Random(seed)
    universe = list(range(3 * graph.max_degree() + 8))
    return PaletteAssignment.from_lists(
        {
            node: list(ODD_COLORS)
            + rng.sample(universe, graph.degree(node) + extra - 1)
            for node in graph.nodes()
        }
    )


def outcome_digest(result) -> str:
    """sha256 over coloring, recursion tree, rounds and ledger."""
    h = hashlib.sha256()
    h.update(repr(sorted(result.coloring.items())).encode())
    h.update(repr(dataclasses.astuple(result.recursion_root)).encode())
    h.update(repr(result.rounds).encode())
    h.update(repr(result.ledger.snapshot()).encode())
    return h.hexdigest()


def _base() -> Graph:
    return generators.erdos_renyi(600, 0.05, seed=3)


def run_case(pipeline: str, relabel: str, palettes: str) -> str:
    graph = relabelled(_base(), RELABELS[relabel])
    if pipeline == "color-reduce":
        solver = ColorReduce(ColorReduceParameters.scaled(num_bins=4))
        lists = odd_lists(graph, graph.max_degree() - min(graph.degrees().values()) + 1, 5)
    else:
        solver = LowSpaceColorReduce(
            LowSpaceParameters.scaled(num_bins=3, low_degree_threshold=8)
        )
        lists = odd_lists(graph, 0, 5)
    return outcome_digest(solver.run(graph, lists if palettes == "lists" else None))


def run_base_case(pipeline: str) -> str:
    """Ids near 2**62 on an instance that never partitions (h1's field
    stops at 2**61 - 1): both pipelines color it in one local step."""
    graph = relabelled(generators.ring(40), lambda v: 2**62 + 13 * v)
    if pipeline == "color-reduce":
        return outcome_digest(ColorReduce().run(graph, odd_lists(graph, 1, 7)))
    return outcome_digest(LowSpaceColorReduce().run(graph, odd_lists(graph, 0, 7)))


GOLDEN = {
    ("color-reduce", "7v+1000", "default"): "9198ae807a263ed97b1ae6e4d327053769baf8a590963d756262539f724c53c3",
    ("color-reduce", "7v+1000", "lists"): "7e09e7f5768ffe0201774db27e5631881fb9f570e1566a8eacf7d5f13d7db5a2",
    ("color-reduce", "negative", "default"): "ef2936c9689b6828bdaf2d114e70ff25a8b010fd467dbaefa89a12019f5cef3d",
    ("color-reduce", "negative", "lists"): "7adce67ab4757d9c038c00c3ec621d840a25aa7829b11560dc384654a76b069d",
    ("color-reduce", "near-2^61", "default"): "3cac55d52a5110fb0c6ee7c59a7b1303bd52edccc4c9443d8a27b26de76def5e",
    ("color-reduce", "near-2^61", "lists"): "be21a93f2969e6537dd6f65cee436e28b08f4a308b69186a84d6e5c4fd502615",
    ("low-space", "7v+1000", "default"): "44cf8674b972a9fea6204ddedaba888e5df685830475467a509863c0d96348c1",
    ("low-space", "7v+1000", "lists"): "68385cddb4aefc8ac0ad10fb3f55aaa57de860307d0645a2a9b165c09cb39ad4",
    ("low-space", "negative", "default"): "615bed7d0f8e4af7e630b31353d009e179d346ac0a2d2c2aba5497e2bafa9590",
    ("low-space", "negative", "lists"): "e863dc085b264236088f0091c9d3034e9f5ef6b146ca0fd21be468d15913a7bb",
    ("low-space", "near-2^61", "default"): "eed1f636acbdc7dad5f895726eb5a065ee6e0fd00e9fa9902d8ecdb2d33d8191",
    ("low-space", "near-2^61", "lists"): "9d7da5277929740920ddae2ddaabdffd9dfd7b133e32ed0d0df8b19cb0cbc041",
    ("color-reduce", "near-2^62", "lists"): "ebeccfc4b6e00847e4b366f301a3dee4ec6cbe7cf63d2579e6574b44185b762e",
    ("low-space", "near-2^62", "lists"): "1775ecc0b45b7af73b98d07067591a0eeb1b3604cd6722197d6cf56b52e72b96",
}

CASES = [
    (pipeline, relabel, palettes)
    for pipeline in ("color-reduce", "low-space")
    for relabel in RELABELS
    for palettes in ("default", "lists")
]


@pytest.mark.parametrize("pipeline,relabel,palettes", CASES)
def test_relabelled_outcome_is_pinned(pipeline, relabel, palettes):
    assert run_case(pipeline, relabel, palettes) == GOLDEN[(pipeline, relabel, palettes)]


@pytest.mark.parametrize("pipeline", ["color-reduce", "low-space"])
def test_ids_near_2_62_base_case_is_pinned(pipeline):
    assert run_base_case(pipeline) == GOLDEN[(pipeline, "near-2^62", "lists")]
