"""Execution contexts: binding ``ColorReduce`` to a simulated model.

The same algorithm (Algorithm 1) proves Theorem 1.1 (CONGESTED CLIQUE) and
Theorems 1.2/1.3 (linear-space MPC); only the model whose budgets are charged
differs.  An :class:`ExecutionContext` exposes the handful of model-level
operations the algorithm performs, each returning the number of rounds
charged, so the algorithm itself stays model-agnostic:

* selecting a hash pair (the conditional-expectation / feasibility-scan
  steps, each ``O(1)`` rounds),
* broadcasting the chosen seed,
* redistributing nodes/edges/palettes according to the partition (Lenzen
  routing in the clique; a constant number of sorts in MPC),
* updating palettes after a group of instances has been colored,
* collecting an ``O(n)``-size instance onto a single node/machine and
  coloring it locally.

Budget violations (a node exceeding its ``O(n)`` routing load, a machine
exceeding its local space) raise the corresponding
:class:`repro.errors.ModelViolationError` subclass — the experiments and the
test suite rely on these checks being enforced rather than assumed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.accounting import CostLedger
from repro.congested_clique.model import CongestedCliqueSimulator
from repro.congested_clique.router import LENZEN_ROUTING_ROUNDS
from repro.errors import ConfigurationError
from repro.mpc.model import MPCSimulator
from repro.mpc import primitives as mpc_primitives


class ExecutionContext(ABC):
    """Model-level operations used by ``ColorReduce`` (rounds are returned,
    budget checks are enforced by the underlying simulator)."""

    #: Human-readable model name used in reports.
    model_name: str = "abstract"

    @property
    @abstractmethod
    def ledger(self) -> CostLedger:
        """The global ledger of the underlying simulator."""

    @abstractmethod
    def local_instance_capacity_words(self) -> int:
        """How many words can be gathered onto a single node/machine."""

    @abstractmethod
    def record_collect(self, words: int, label: str) -> int:
        """Charge collecting ``words`` words onto one node/machine."""

    @abstractmethod
    def record_partition_shuffle(self, words: int, label: str) -> int:
        """Charge redistributing ``words`` words according to a partition."""

    @abstractmethod
    def record_palette_update(self, words: int, label: str) -> int:
        """Charge the palette-update communication over ``words`` words."""

    @abstractmethod
    def record_seed_broadcast(self, seed_words: int, label: str) -> int:
        """Charge broadcasting a chosen hash seed to all nodes/machines."""

    @abstractmethod
    def record_selection_step(self, label: str, rounds: int) -> None:
        """Charge one constant-round step of the hash-selection search."""

    @abstractmethod
    def record_space(self, total_words: int, max_local_words: Optional[int] = None) -> None:
        """Record space usage for the space experiments (no-op where N/A)."""

    # Convenient adapter for :class:`repro.derand.HashPairSelector`.
    def selection_charge_callback(self, label: str):
        """A ``charge(label, rounds)`` callback for the hash-pair selector."""

        def _charge(_inner_label: str, rounds: int) -> None:
            self.record_selection_step(label, rounds)

        return _charge


class CongestedCliqueContext(ExecutionContext):
    """Charges ``ColorReduce`` operations to a CONGESTED CLIQUE simulator."""

    model_name = "congested-clique"

    def __init__(self, simulator: CongestedCliqueSimulator) -> None:
        self.simulator = simulator

    @property
    def ledger(self) -> CostLedger:
        return self.simulator.ledger

    def local_instance_capacity_words(self) -> int:
        return self.simulator.per_node_capacity_words

    def record_collect(self, words: int, label: str) -> int:
        return self.simulator.collect_onto_node(target=0, total_words=words, label=label)

    def record_partition_shuffle(self, words: int, label: str) -> int:
        # Redistribution of nodes, palettes and edges is a single Lenzen
        # routing instance: every node sends its own O(Delta) words and
        # receives the data of the nodes mapped to it, both O(n) per node.
        self.simulator.ledger.charge(label, LENZEN_ROUTING_ROUNDS, words)
        return LENZEN_ROUTING_ROUNDS

    def record_palette_update(self, words: int, label: str) -> int:
        # Each colored node announces its color to its neighbors: one
        # all-to-all round (a color fits in one word).
        self.simulator.ledger.charge(label, 1, words)
        return 1

    def record_seed_broadcast(self, seed_words: int, label: str) -> int:
        return self.simulator.broadcast(source=0, words=max(1, seed_words), label=label)

    def record_selection_step(self, label: str, rounds: int) -> None:
        self.simulator.ledger.charge(label, rounds, self.simulator.num_nodes)

    def record_space(self, total_words: int, max_local_words: Optional[int] = None) -> None:
        # The congested clique has no explicit space budget beyond the O(n)
        # routing loads already enforced elsewhere.
        return None


class LinearSpaceMPCContext(ExecutionContext):
    """Charges ``ColorReduce`` operations to a linear-space MPC simulator."""

    model_name = "linear-space-mpc"

    def __init__(self, simulator: MPCSimulator) -> None:
        self.simulator = simulator

    @property
    def ledger(self) -> CostLedger:
        return self.simulator.ledger

    def local_instance_capacity_words(self) -> int:
        return self.simulator.regime.local_space_words

    def record_collect(self, words: int, label: str) -> int:
        return self.simulator.collect_onto_machine(words, label=label)

    def record_partition_shuffle(self, words: int, label: str) -> int:
        # Redistribution = a constant number of deterministic sorts
        # (Lemma 2.1): sort (node, bin) and (color, bin) records.
        return self.simulator.sort(words, label=label)

    def record_palette_update(self, words: int, label: str) -> int:
        # Palette updates are implemented by sorting (edge, color) records so
        # used colors meet the palettes they must be removed from.
        return self.simulator.sort(words, label=label)

    def record_seed_broadcast(self, seed_words: int, label: str) -> int:
        return self.simulator.broadcast(max(1, seed_words), label=label)

    def record_selection_step(self, label: str, rounds: int) -> None:
        self.simulator.charge_rounds(label, rounds, words=self.simulator.num_machines)

    def record_space(self, total_words: int, max_local_words: Optional[int] = None) -> None:
        self.simulator.record_space_usage(total_words, max_local_words)


def context_for_model(
    model: str,
    *,
    congested_clique: Optional[CongestedCliqueSimulator] = None,
    mpc: Optional[MPCSimulator] = None,
) -> ExecutionContext:
    """Build a context from a model name (convenience for experiments)."""
    if model == "congested-clique":
        if congested_clique is None:
            raise ConfigurationError("a CongestedCliqueSimulator is required")
        return CongestedCliqueContext(congested_clique)
    if model == "linear-space-mpc":
        if mpc is None:
            raise ConfigurationError("an MPCSimulator is required")
        return LinearSpaceMPCContext(mpc)
    raise ConfigurationError(f"unknown model {model!r}")
