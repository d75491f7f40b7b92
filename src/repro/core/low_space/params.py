"""Parameters of the low-space MPC coloring algorithm (Section 4).

The paper sets ``δ = ε/22`` and uses

* ``n^δ`` bins per level of ``LowSpacePartition``,
* degree threshold ``n^{7δ}`` below which nodes are moved to ``G_0`` and
  colored via the MIS reduction,
* machine chunks of between ``n^{7δ}`` and ``2 n^{7δ}`` neighbors/colors
  (Definition 4.1), whose size sets the degree slack of the Lemma 4.5
  node-level selection cost,
* the degree slack ``d(x)^0.6`` of Definition 4.1
  (:data:`DEGREE_SLACK_EXPONENT`, a constant like the linear-space
  exponents of :mod:`repro.core.params`).

As with the linear-space parameters, the literal exponents only separate
from small constants at astronomically large ``n``; the scaled mode fixes
the bin count, degree threshold and chunk size explicitly so multi-level
recursion and the MIS path are exercised on laptop-size graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.params import RunParameters
from repro.errors import ConfigurationError

#: Definition 4.1's degree slack ``d(x)^0.6`` of a chunk or node.
DEGREE_SLACK_EXPONENT = 0.6


@dataclass(frozen=True)
class LowSpaceParameters(RunParameters):
    """Numeric knobs of ``LowSpaceColorReduce`` / ``LowSpacePartition``.

    The selection, worker-pool, level-prefetch and durability knobs are
    inherited from :class:`repro.core.params.RunParameters`.
    """

    epsilon: float = 0.5
    num_bins_override: Optional[int] = None
    low_degree_threshold_override: Optional[int] = None
    machine_chunk_override: Optional[int] = None
    independence: int = 4
    max_recursion_depth: int = 20

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigurationError("epsilon must be in (0, 1]")
        if self.independence < 4 or self.independence % 2 != 0:
            raise ConfigurationError("independence must be an even integer >= 4")
        if self.num_bins_override is not None and self.num_bins_override < 2:
            raise ConfigurationError("num_bins_override must be at least 2")
        if (
            self.low_degree_threshold_override is not None
            and self.low_degree_threshold_override < 1
        ):
            raise ConfigurationError("low_degree_threshold_override must be positive")
        if self.machine_chunk_override is not None and self.machine_chunk_override < 1:
            raise ConfigurationError("machine_chunk_override must be positive")
        super().__post_init__()

    # ------------------------------------------------------------------
    @classmethod
    def scaled(
        cls,
        num_bins: int,
        low_degree_threshold: int,
        machine_chunk: Optional[int] = None,
        **overrides,
    ) -> "LowSpaceParameters":
        """Explicit bin count / degree threshold for laptop-scale runs."""
        return cls(
            num_bins_override=num_bins,
            low_degree_threshold_override=low_degree_threshold,
            machine_chunk_override=(
                machine_chunk if machine_chunk is not None else low_degree_threshold
            ),
            **overrides,
        )

    @property
    def delta(self) -> float:
        """The paper's ``δ = ε / 22``."""
        return self.epsilon / 22.0

    @property
    def is_scaled(self) -> bool:
        return any(
            override is not None
            for override in (
                self.num_bins_override,
                self.low_degree_threshold_override,
                self.machine_chunk_override,
            )
        )

    # ------------------------------------------------------------------
    def num_bins(self, num_nodes: int) -> int:
        """Bins per level: ``n^δ`` (clamped to at least 2)."""
        if self.num_bins_override is not None:
            return self.num_bins_override
        return max(2, int(math.floor(math.pow(num_nodes, self.delta))))

    def low_degree_threshold(self, num_nodes: int) -> int:
        """Nodes with degree at most ``n^{7δ}`` go to ``G_0`` (MIS path).

        The floor of 2 only matters for laptop-scale ``n`` (where ``n^{7δ}``
        has not yet separated from 1): degree-2 instances are trivially
        within the MIS reduction's budget, and partitioning them further
        would make no progress.
        """
        if self.low_degree_threshold_override is not None:
            return self.low_degree_threshold_override
        return max(2, int(math.floor(math.pow(num_nodes, 7.0 * self.delta))))

    def machine_chunk(self, num_nodes: int) -> int:
        """Chunk size of the ``M_v^N`` / ``M_v^C`` machine groups; it sets
        the degree slack of the node-level selection cost."""
        if self.machine_chunk_override is not None:
            return self.machine_chunk_override
        return max(1, self.low_degree_threshold(num_nodes))

    def violation_allowance(self, num_high: int) -> float:
        """The selection's target: violating nodes a hash pair may leave
        among ``num_high`` high-degree nodes.

        Lemma 4.4/4.5: a pair with zero violations exists; in scaled mode a
        small positive allowance keeps laptop-scale instances feasible.
        Violating nodes take the MIS path, so correctness never depends on
        the allowance.
        """
        return max(4.0, 0.05 * num_high) if self.is_scaled else 0.0

    def degree_slack(self, chunk_size: int) -> float:
        """The ``d(x)^0.6`` slack of Definition 4.1."""
        return math.pow(max(chunk_size, 1), DEGREE_SLACK_EXPONENT)
