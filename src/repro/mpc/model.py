"""The MPC round/space simulator.

:class:`MPCSimulator` combines an :class:`repro.mpc.regimes.MPCRegime` (the
space budgets), a counted pool of machines, and a
:class:`repro.accounting.CostLedger`.  Algorithms call its methods to declare
the model-level operations they perform; the simulator charges rounds,
validates space budgets, and tracks peak local / total space usage, which the
space experiments (E6) report.

The pool is a count: every accounting method needs only how many machines
there are, so a low-space run over ``10^5`` machines constructs no
:class:`repro.mpc.machine.Machine` objects.  :attr:`MPCSimulator.machines`
builds them on first access for callers that want per-machine counters.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.accounting import CostLedger
from repro.errors import ConfigurationError, SpaceLimitExceededError
from repro.mpc import primitives
from repro.mpc.machine import Machine
from repro.mpc.regimes import MPCRegime


class MPCSimulator:
    """Round and space accounting for one MPC execution.

    Parameters
    ----------
    regime:
        The space regime (local and total word budgets).
    num_machines:
        Optional explicit machine count; defaults to the regime's implied
        ``ceil(total / local)``.
    """

    def __init__(self, regime: MPCRegime, num_machines: Optional[int] = None) -> None:
        self.regime = regime
        count = regime.num_machines if num_machines is None else num_machines
        if count < 1:
            raise ConfigurationError("num_machines must be positive")
        if regime.local_space_words < 1:
            raise ConfigurationError("capacity_words must be positive")
        self.num_machines = count
        self._machines: Optional[List[Machine]] = None
        self.ledger = CostLedger()
        self.peak_total_words = 0
        self.peak_local_words = 0

    @property
    def machines(self) -> List[Machine]:
        """One :class:`Machine` per pool slot, built on first access."""
        if self._machines is None:
            capacity = self.regime.local_space_words
            self._machines = [
                Machine(machine_id=i, capacity_words=capacity)
                for i in range(self.num_machines)
            ]
        return self._machines

    # ------------------------------------------------------------------
    # round accounting
    # ------------------------------------------------------------------
    @property
    def rounds(self) -> int:
        """Total MPC rounds charged so far."""
        return self.ledger.rounds

    def charge_rounds(self, label: str, rounds: int, words: int = 0) -> None:
        """Charge ``rounds`` rounds (and optionally communication words)."""
        self.ledger.charge(label, rounds, words)

    def sort(self, total_items: int, label: str = "sort") -> int:
        """Deterministic sort of ``total_items`` records (Lemma 2.1)."""
        rounds = primitives.sort_rounds(self.regime, total_items)
        self.ledger.charge(label, rounds, total_items)
        self.record_space_usage(total_words=total_items)
        return rounds

    def prefix_sum(self, total_items: int, label: str = "prefix-sum") -> int:
        """Deterministic prefix sum over ``total_items`` values (Lemma 2.1)."""
        rounds = primitives.prefix_sum_rounds(self.regime, total_items)
        self.ledger.charge(label, rounds, total_items)
        self.record_space_usage(total_words=total_items)
        return rounds

    def aggregate(self, total_items: int, label: str = "aggregate") -> int:
        """Global associative aggregate over ``total_items`` values."""
        rounds = primitives.aggregate_rounds(self.regime, total_items)
        self.ledger.charge(label, rounds, total_items)
        self.record_space_usage(total_words=total_items)
        return rounds

    def broadcast(self, words: int, label: str = "broadcast") -> int:
        """Broadcast ``words`` words (e.g. a chosen hash-function seed)."""
        rounds = primitives.broadcast_rounds(self.regime, words)
        self.ledger.charge(label, rounds, words * self.num_machines)
        self.record_space_usage(total_words=words * self.num_machines, max_local_words=words)
        return rounds

    def collect_onto_machine(self, total_words: int, label: str = "collect") -> int:
        """Gather ``total_words`` words onto a single machine.

        This is the MPC counterpart of collecting an ``O(n)``-size instance
        onto one machine for local coloring; the data must fit in one
        machine's local space.
        """
        if total_words < 0:
            raise ConfigurationError("total_words must be non-negative")
        if total_words > self.regime.local_space_words:
            raise SpaceLimitExceededError(
                f"collecting {total_words} words onto one machine exceeds the local "
                f"space budget of {self.regime.local_space_words} words"
            )
        rounds = primitives.SORT_ROUNDS
        self.ledger.charge(label, rounds, total_words)
        self.record_space_usage(total_words=total_words, max_local_words=total_words)
        return rounds

    # ------------------------------------------------------------------
    # space accounting
    # ------------------------------------------------------------------
    def record_space_usage(
        self, total_words: int, max_local_words: Optional[int] = None
    ) -> None:
        """Record that a phase used ``total_words`` of global space.

        ``max_local_words`` is the largest amount held by any single machine
        during the phase; if omitted, the total is assumed to be spread
        evenly over all machines.  Budget violations raise
        :class:`repro.errors.SpaceLimitExceededError`.
        """
        if total_words < 0:
            raise ConfigurationError("total_words must be non-negative")
        if total_words > self.regime.total_space_words:
            raise SpaceLimitExceededError(
                f"phase uses {total_words} words of global space, exceeding the "
                f"budget of {self.regime.total_space_words} words"
            )
        if max_local_words is None:
            max_local_words = -(-total_words // self.num_machines)  # ceiling division
        if max_local_words > self.regime.local_space_words:
            raise SpaceLimitExceededError(
                f"phase uses {max_local_words} words on one machine, exceeding the "
                f"local budget of {self.regime.local_space_words} words"
            )
        if total_words > self.peak_total_words:
            self.peak_total_words = total_words
        if max_local_words > self.peak_local_words:
            self.peak_local_words = max_local_words

    def space_report(self) -> Dict[str, int]:
        """Peak space usage against the regime's budgets."""
        return {
            "peak_local_words": self.peak_local_words,
            "local_budget_words": self.regime.local_space_words,
            "peak_total_words": self.peak_total_words,
            "total_budget_words": self.regime.total_space_words,
            "num_machines": self.num_machines,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MPCSimulator(regime={self.regime.name!r}, machines={self.num_machines}, "
            f"rounds={self.rounds})"
        )
