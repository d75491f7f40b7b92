"""Low-space MPC coloring (Section 4 of the paper, Theorem 1.4).

The low-space regime (``O(n^ε)`` words per machine) cannot collect an
``O(n)``-size instance onto one machine, so the algorithm changes in two
ways relative to Section 3:

* the recursion reduces degrees only until they drop below ``n^{7δ}``
  (``δ = ε/22``), and the low-degree leftover graph ``G_0`` is colored via a
  reduction to MIS (Luby's clique construction) instead of locally;
* because a machine cannot hold a whole neighborhood or palette, the paper
  classifies good/bad per *machine* (Definition 4.1) over chunks of each
  node's neighbor list and palette; the hash selection here uses that
  classification's node-level aggregation (Lemma 4.5).

Modules:

* :mod:`repro.core.low_space.params` — the regime parameters (paper
  ``n^δ``/``n^{7δ}`` with a documented scaled mode),
* :mod:`repro.core.low_space.machine_sets` — the Lemma 4.5 node-level
  selection cost (the aggregation of the Equation (2) cost),
* :mod:`repro.core.low_space.partition` — ``LowSpacePartition``
  (Algorithm 4),
* :mod:`repro.core.low_space.mis_reduction` — the list-coloring → MIS
  reduction and the MIS-based coloring of low-degree instances,
* :mod:`repro.core.low_space.color_reduce` — ``LowSpaceColorReduce``
  (Algorithm 3) with round/space accounting in the low-space MPC simulator.
"""

from repro.core.low_space.color_reduce import LowSpaceColorReduce, LowSpaceResult
from repro.core.low_space.params import LowSpaceParameters
from repro.core.low_space.partition import LowSpacePartition, LowSpacePartitionResult

__all__ = [
    "LowSpaceColorReduce",
    "LowSpaceResult",
    "LowSpaceParameters",
    "LowSpacePartition",
    "LowSpacePartitionResult",
]
