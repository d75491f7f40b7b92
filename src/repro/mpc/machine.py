"""A single MPC machine with a hard local-space budget.

The simulator tracks how many machine words each machine currently holds and
the peak it ever held; exceeding the budget raises
:class:`repro.errors.SpaceLimitExceededError`, which is how the test suite
verifies the algorithms stay inside the declared regime.
"""

from __future__ import annotations

from repro.errors import ConfigurationError, SpaceLimitExceededError
from repro.types import MachineId


class Machine:
    """One MPC machine: an identifier, a space budget, and usage counters."""

    __slots__ = ("machine_id", "capacity_words", "used_words", "peak_words")

    def __init__(self, machine_id: MachineId, capacity_words: int) -> None:
        if capacity_words < 1:
            raise ConfigurationError("capacity_words must be positive")
        self.machine_id = machine_id
        self.capacity_words = capacity_words
        self.used_words = 0
        self.peak_words = 0

    def store(self, words: int) -> None:
        """Reserve ``words`` additional words of local space."""
        if words < 0:
            raise ConfigurationError("words must be non-negative")
        new_usage = self.used_words + words
        if new_usage > self.capacity_words:
            raise SpaceLimitExceededError(
                f"machine {self.machine_id} would use {new_usage} words, "
                f"exceeding its local space budget of {self.capacity_words}"
            )
        self.used_words = new_usage
        if new_usage > self.peak_words:
            self.peak_words = new_usage

    def release(self, words: int) -> None:
        """Free ``words`` words of local space."""
        if words < 0:
            raise ConfigurationError("words must be non-negative")
        if words > self.used_words:
            raise ConfigurationError(
                f"machine {self.machine_id} cannot release {words} words; "
                f"only {self.used_words} are in use"
            )
        self.used_words -= words

    def release_all(self) -> None:
        """Free all local space (end of a phase)."""
        self.used_words = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine(id={self.machine_id}, used={self.used_words}/"
            f"{self.capacity_words}, peak={self.peak_words})"
        )
