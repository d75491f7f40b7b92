"""Scale determinism (nightly): flags, worker counts and the scalar oracle
never change results.

The fast suites verify bit-identity of individual kernels on laptop-size
instances; these tests assert the end-to-end contract at the scales where
the optimized paths actually engage (the segmented cross-bin prefetch has
a ``LEVEL_PREFETCH_MIN_SIZE`` engagement floor of tens of thousands of
nodes, so small-instance runs exercise only its gating, not its kernels).

Marked ``slow`` — the default run deselects them (``addopts`` in
``pyproject.toml``); the nightly CI job runs ``pytest -m slow tests``.
"""

from __future__ import annotations

import pytest
from scalar_oracle import PARTITION_ENTRY_POINTS, production_and_reference

from repro.core.color_reduce import ColorReduce
from repro.core.params import ColorReduceParameters
from repro.graph.generators import erdos_renyi


def _tree_signature(node):
    return (
        node.depth,
        node.num_nodes,
        node.num_edges,
        node.num_bins,
        node.num_bad_nodes,
        node.invariant_violations,
        tuple(_tree_signature(child) for child in node.children),
    )


def _fingerprint(result):
    return (
        result.coloring,
        result.rounds,
        result.ledger.snapshot(),
        _tree_signature(result.recursion_root),
    )


@pytest.mark.slow
def test_level_flag_and_workers_deterministic_at_1e5():
    """n = 10^5: segmented prefetch on/off and 1 vs 2 workers all agree.

    The baseline configuration engages the cross-bin prefetch (batch flags
    on, one worker); the variants disable it two different ways — by the
    ``level_use_batch`` flag and by the ``parallel_workers > 1`` gate —
    and every run must produce the identical coloring, recursion tree,
    round count and per-phase ledger.
    """
    graph = erdos_renyi(100_000, 16 / 100_000, seed=42)
    configurations = {
        "prefetch-on": dict(),
        "prefetch-off": dict(level_use_batch=False),
        "two-workers": dict(parallel_workers=2),
    }
    fingerprints = {}
    for label, overrides in configurations.items():
        params = ColorReduceParameters.scaled(
            num_bins=4, collect_factor=0.25, **overrides
        )
        fingerprints[label] = _fingerprint(ColorReduce(params).run(graph))
        assert len(fingerprints[label][0]) == graph.num_nodes
    baseline = fingerprints["prefetch-on"]
    for label, fingerprint in fingerprints.items():
        assert fingerprint == baseline, (
            f"configuration {label!r} diverged from the baseline run"
        )


@pytest.mark.slow
def test_graph_batch_flag_deterministic_at_1e4(monkeypatch):
    """n = 10^4: the array kernels equal the scalar oracle end to end."""
    graph = erdos_renyi(10_000, 12 / 10_000, seed=7)
    params = ColorReduceParameters.scaled(
        num_bins=3, collect_factor=0.25, level_use_batch=False
    )
    batched, scalar, oracle = production_and_reference(
        monkeypatch, lambda: _fingerprint(ColorReduce(params).run(graph))
    )
    oracle.assert_called(*PARTITION_ENTRY_POINTS, "greedy_list_coloring")
    assert batched == scalar
