"""Graph substrate: data structures, palettes, generators and validation.

The paper's algorithms operate on an undirected simple graph together with a
per-node color palette.  This subpackage provides:

* :class:`repro.graph.graph.Graph` — a graph held as one array view, with
  the operations the algorithms need (induced subgraphs, degrees, size),
* :mod:`repro.graph.csr` — that array ("CSR") view, its one builder, and
  the vectorized subgraph-extraction layer; the batched cost kernels read
  it directly (in-bin degrees and bin sizes as ``np.bincount``/scatter
  operations),
* :class:`repro.graph.palettes.PaletteAssignment` — per-node palettes held
  as one flat array store, with the restriction/removal operations used
  by ``Partition`` and the palette-update steps of ``ColorReduce``,
* :mod:`repro.graph.generators` — synthetic workload generators,
* :mod:`repro.graph.validation` — proper/list-coloring validation.

Each object has one backing.  ``Graph.from_edges`` builds the canonical
view in one vectorised pass; ``add_node`` / ``add_edge`` buffer their
additions, and the next query folds them into a new view through the same
builder.  ``induced_subgraph`` / ``induced_subgraphs`` cut their children
from the view, each child a canonical view of its own.  Every palette
constructor (``PaletteAssignment(mapping)``, ``delta_plus_one``,
``degree_plus_one``, ``from_lists``) writes the flat palette store;
colors that are not int64 integers are held as codes into a color table.
Both ``run`` methods then put the instance in sorted node order once
(:func:`repro.graph.palettes.canonical_instance`), so a run's node order is
canonical whatever the input order, for mutually comparable ids.

Details of the array view are in :mod:`repro.graph.csr`.  The per-node
set loops the arrays replaced are the differential tests' references
(``tests/scalar_oracle.py``).
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
