"""The benchmark's workloads: raw inputs from a seed, instance build, solve.

Each workload is a fixed recipe over the library's public surface:

* :func:`generate` turns a seed into *raw inputs* with the library's own
  generators (``repro.graph.generators``) and writes them as flat arrays
  (edge list, palette entries) — the shape a user's input would have;
* :func:`load` decodes those arrays into the plain Python values a caller
  hands to the constructors (edge tuples, ``node -> list`` palettes);
* :func:`build` is the timed set-up: ``Graph.from_edges`` plus the palette
  constructor (plus the pool start where the workload runs two workers);
* :func:`solve` is the timed solve through ``ColorReduce(...).run`` or
  ``LowSpaceColorReduce(...).run``;
* :func:`check` validates the coloring against the raw inputs, independently
  of the library, and digests it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``erdos_renyi`` (n, average degree) or ``power_law`` (n, attachment).
    graph: str
    n: int
    degree: int
    #: ``implicit`` ({0..Δ} for every node), ``shared`` (shared-universe
    #: lists of ``palette_size`` colors) or ``deg+1`` ((deg+1)-lists).
    palettes: str
    algorithm: str = "color-reduce"
    workers: int = 1
    durable: bool = False
    palette_size: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("cc-er", "erdos_renyi", 50_000, 16, "implicit"),
        # A fixed palette size (Δ+1 only if larger) keeps the palette
        # working set, which this workload measures, the same across seeds.
        Workload("cc-lists", "power_law", 10_000, 4, "shared", durable=True,
                 palette_size=480),
        Workload("ls-powerlaw", "power_law", 100_000, 4, "deg+1",
                 algorithm="low-space"),
        Workload("cc-er-w2", "erdos_renyi", 50_000, 16, "implicit", workers=2),
    )
}

#: Offset between a run's graph seed and its palette seed.
PALETTE_SEED_OFFSET = 1_000_003


# ----------------------------------------------------------------------
# raw inputs
# ----------------------------------------------------------------------
def generate(workload: Workload, seed: int, path: str) -> Dict[str, int]:
    """Write the raw inputs of ``workload`` at ``seed`` to ``path`` (.npz).

    Returns the instance's shape (``n``, ``m``, ``max_degree``).
    """
    from repro.graph import generators

    if workload.graph == "erdos_renyi":
        graph = generators.erdos_renyi(workload.n, workload.degree / workload.n, seed=seed)
    else:
        graph = generators.power_law(workload.n, attachment=workload.degree, seed=seed)
    n = graph.num_nodes
    if sorted(graph.nodes()) != list(range(n)):
        raise ValueError("generators are expected to label nodes 0..n-1")
    edges = np.array(list(graph.edges()), dtype=np.int32).reshape(-1, 2)
    delta = graph.max_degree()
    arrays = {"n": np.int64(n), "edges": edges}
    palette_seed = seed + PALETTE_SEED_OFFSET
    assignment = None
    if workload.palettes == "shared":
        size = max(workload.palette_size, delta + 1)
        assignment = generators.shared_universe_palettes(
            graph, palette_size=size, universe_size=2 * size, seed=palette_seed
        )
    elif workload.palettes == "deg+1":
        assignment = generators.degree_plus_one_palettes(graph, seed=palette_seed)
    if assignment is not None:
        # The array store holds every palette as a sorted slice, in node order.
        store = assignment.store()
        if list(store.nodes) != list(range(n)):
            raise ValueError("palette store is expected in node order 0..n-1")
        arrays["offsets"] = np.asarray(store.offsets, dtype=np.int64)
        arrays["flat"] = np.asarray(store.flat, dtype=np.int32)
    np.savez(path, **arrays)
    return {"n": n, "m": len(edges), "max_degree": delta}


@dataclass
class RawInputs:
    n: int
    edges: np.ndarray
    flat: Optional[np.ndarray]
    offsets: Optional[np.ndarray]
    #: Decoded forms handed to the constructors.
    edge_list: List[list]
    palette_lists: Optional[Dict[int, List[int]]]


def load(path: str) -> RawInputs:
    with np.load(path) as data:
        n = int(data["n"])
        edges = data["edges"]
        flat = data["flat"] if "flat" in data else None
        offsets = data["offsets"] if "offsets" in data else None
    palette_lists = None
    if flat is not None:
        entries = flat.tolist()
        bounds = offsets.tolist()
        palette_lists = {v: entries[bounds[v]:bounds[v + 1]] for v in range(n)}
    return RawInputs(n, edges, flat, offsets, edges.tolist(), palette_lists)


# ----------------------------------------------------------------------
# the timed steps
# ----------------------------------------------------------------------
def build(workload: Workload, raw: RawInputs):
    """Set-up: what the user hands to ``run()``, built from the raw inputs."""
    from repro.graph.graph import Graph
    from repro.graph.palettes import PaletteAssignment

    graph = Graph.from_edges(raw.edge_list, nodes=range(raw.n))
    if raw.palette_lists is None:
        palettes = PaletteAssignment.delta_plus_one(graph)
    else:
        palettes = PaletteAssignment.from_lists(raw.palette_lists)
    if workload.workers > 1:
        from repro.parallel import executor

        executor.get_executor(workload.workers)
    return graph, palettes


def solver(workload: Workload, workdir: str):
    """The configured solver object (cheap; built inside the timed solve)."""
    if workload.algorithm == "low-space":
        from repro.core.low_space.color_reduce import LowSpaceColorReduce
        from repro.core.low_space.params import LowSpaceParameters

        return LowSpaceColorReduce(LowSpaceParameters(parallel_workers=workload.workers))
    from repro.core.color_reduce import ColorReduce
    from repro.core.params import ColorReduceParameters

    durability = {}
    if workload.durable:
        durability = dict(
            checkpoint_path=os.path.join(workdir, "run.ckpt"), checkpoint_every_levels=1
        )
    params = ColorReduceParameters.scaled(
        num_bins=4, collect_factor=0.25, parallel_workers=workload.workers, **durability
    )
    return ColorReduce(params)


def solve(workload: Workload, graph, palettes, workdir: str):
    if workload.palettes == "implicit":
        return solver(workload, workdir).run(graph, palettes, palettes_are_implicit=True)
    return solver(workload, workdir).run(graph, palettes)


# ----------------------------------------------------------------------
# output check
# ----------------------------------------------------------------------
def check(raw: RawInputs, result) -> Dict[str, object]:
    """Validate ``result.coloring`` against the raw inputs and digest it.

    Raises ``ValueError`` on an invalid list coloring.
    """
    n = raw.n
    coloring = result.coloring
    if len(coloring) != n:
        raise ValueError(f"{len(coloring)} of {n} nodes colored")
    colors = np.fromiter((coloring[v] for v in range(n)), dtype=np.int64, count=n)
    u, v = raw.edges[:, 0], raw.edges[:, 1]
    clashes = int(np.count_nonzero(colors[u] == colors[v]))
    if clashes:
        raise ValueError(f"{clashes} monochromatic edges")
    if raw.flat is None:
        delta = int(np.bincount(raw.edges.ravel(), minlength=n).max()) if len(u) else 0
        outside = int(np.count_nonzero((colors < 0) | (colors > delta)))
    else:
        sizes = np.diff(raw.offsets)
        owners = np.repeat(np.arange(n), sizes)
        hit = raw.flat == colors[owners]
        outside = int(np.count_nonzero(np.bincount(owners[hit], minlength=n) == 0))
    if outside:
        raise ValueError(f"{outside} nodes colored outside their palettes")
    tree = repr(dataclasses.astuple(result.recursion_root)).encode()
    return {
        "coloring_sha256": hashlib.sha256(colors.tobytes()).hexdigest(),
        "tree_sha256": hashlib.sha256(tree).hexdigest(),
        "rounds": int(result.rounds),
        "message_words": int(result.ledger.message_words),
    }
