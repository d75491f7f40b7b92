"""Graph substrate: data structures, palettes, generators and validation.

The paper's algorithms operate on an undirected simple graph together with a
per-node color palette.  This subpackage provides:

* :class:`repro.graph.graph.Graph` — an adjacency-set graph with the
  operations the algorithms need (induced subgraphs, degrees, size),
* :mod:`repro.graph.csr` — a cached array ("CSR") view of a graph used by
  the batched cost kernels (in-bin degrees and bin sizes as
  ``np.bincount``/scatter operations) and by the vectorized
  subgraph-extraction layer,
* :class:`repro.graph.palettes.PaletteAssignment` — per-node palettes with
  the restriction/removal operations used by ``Partition`` and the
  palette-update steps of ``ColorReduce``,
* :mod:`repro.graph.generators` — synthetic workload generators,
* :mod:`repro.graph.validation` — proper/list-coloring validation.

Instances are built array-first: ``Graph.from_edges`` builds the canonical
view in one vectorised pass and leaves the adjacency sets lazy, and the
palette constructors (``delta_plus_one``, ``degree_plus_one``,
``from_lists``) write the flat palette store directly, sets lazy.  Both
``run`` methods then put the instance in sorted node order once
(:func:`repro.graph.palettes.canonical_instance`), so a run's node order is
canonical whatever the input order, for mutually comparable ids.

The array-view contract, in brief (details in :mod:`repro.graph.csr`): a
graph built from sets (``Graph(nodes, edges)``) builds its view on the
first ``Graph.csr()`` call and caches it; ``add_node`` / ``add_edge``
invalidate it (``_csr = None``), and the next ``csr()`` call rebuilds from
the live adjacency sets.  ``induced_subgraph`` / ``induced_subgraphs``
always cut their children from the view (building it if cold).  Each child
carries its own canonical warm view and materialises its adjacency sets
lazily on first set-based access.  The per-neighbor set loop the
extraction replaced yields the same node insertion order and adjacency
sets; it is the differential tests' reference (``tests/scalar_oracle.py``).
"""

from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment
from repro.graph.validation import (
    assert_proper_coloring,
    assert_valid_list_coloring,
    is_proper_coloring,
    is_valid_list_coloring,
)

__all__ = [
    "Graph",
    "PaletteAssignment",
    "assert_proper_coloring",
    "assert_valid_list_coloring",
    "is_proper_coloring",
    "is_valid_list_coloring",
]
