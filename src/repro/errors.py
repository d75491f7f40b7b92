"""Exception hierarchy for the reproduction library.

All library-specific failures derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish the failure modes that matter:

* model violations (a protocol exceeded a round/space/message budget),
* invalid colorings (a produced coloring is not proper or not from palettes),
* invariant violations (the paper's Lemma 3.2 invariant failed),
* configuration errors (impossible parameters).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """Raised when parameters passed to a component are inconsistent."""


class GraphError(ReproError):
    """Raised for malformed graph inputs (self-loops, unknown nodes, ...)."""


class PaletteError(ReproError):
    """Raised when a palette assignment is inconsistent with the graph."""


class ColoringError(ReproError):
    """Raised when a produced coloring is improper or violates palettes."""


class ModelViolationError(ReproError):
    """Raised when a simulated protocol exceeds a model budget.

    Examples: a congested-clique node sending more than its per-round word
    budget, or an MPC machine exceeding its local space.
    """


class SpaceLimitExceededError(ModelViolationError):
    """Raised when an MPC machine exceeds its local-space budget."""


class BandwidthExceededError(ModelViolationError):
    """Raised when a congested-clique node exceeds its per-round bandwidth."""


class DerandomizationError(ReproError):
    """Raised when conditional-expectation seed selection cannot find a seed
    meeting the required cost bound (should not happen if the cost analysis
    is correct; surfaced loudly rather than silently degrading)."""


class HashFamilyError(ReproError):
    """Raised for invalid hash-family parameters (e.g. domain too large)."""


class ParallelExecutionError(ReproError):
    """Raised when the multiprocess slab-scoring pool fails *unrecoverably*
    (the pool is closed, or a replacement worker could not even be
    spawned).  Ordinary worker failures — crashes, hangs, garbled replies —
    are recovered in place (retry, respawn, in-process rescue; see
    :class:`repro.accounting.PoolHealth`) and never raise.  Never raised on
    the default in-process path."""


class WorkerCrashError(ParallelExecutionError):
    """Raised when a dead worker could not be replaced (the respawn itself
    failed).  A plain worker crash is self-healed — its shards are retried
    on surviving workers and a replacement is spawned in place — so this
    surfaces only when the host refuses to start new processes."""


class ShardIntegrityError(ParallelExecutionError):
    """Raised (and caught internally) when a worker reply fails the
    integrity checks: job/token echo mismatch, wrong shard length, or a
    cost vector that cannot be decoded as floats.  The affected shard is
    re-scored rather than silently corrupting the assembled cost vector."""


class CheckpointError(ReproError):
    """Raised when neither slot file of a checkpoint can be read back:
    missing file, wrong magic (an older format included), truncated
    payload, or a digest mismatch.  Never raised for a *mismatched*
    checkpoint — resuming against the wrong graph or parameters is a
    :class:`ConfigurationError`."""


class RunAbortedError(ReproError):
    """Base class of *controlled* run aborts (resource budget, deadline,
    signal).  The run stopped at a recursion boundary, wrote a final
    checkpoint when one was configured, drained the worker pool and
    unlinked every owned shared-memory segment before raising.

    ``checkpoint_path`` is the file to pass to ``--resume`` (or
    ``resume_path``) to continue the run bit-identically; ``None`` when no
    checkpoint was configured."""

    def __init__(self, message: str, checkpoint_path: "str | None" = None) -> None:
        super().__init__(message)
        self.checkpoint_path = checkpoint_path


class ResourceBudgetExceeded(RunAbortedError):
    """Raised when the run's resident-set size reached ``memory_budget_mb``
    after the graceful degradations (prefetch off, buffers shrunk) failed
    to keep it under budget.  Resumable via the attached checkpoint."""


class DeadlineExceededError(RunAbortedError):
    """Raised when the run exceeded ``deadline_seconds`` of wall-clock
    time.  Resumable via the attached checkpoint."""


class RunInterrupted(RunAbortedError):
    """Raised when SIGTERM or SIGINT arrived during a durable run.  The
    in-flight recursion level was finished first, then the shutdown
    sequence ran (checkpoint, pool drain, shm unlink).  ``signum`` is the
    delivering signal; the CLI exits with ``128 + signum``."""

    def __init__(
        self, message: str, signum: int, checkpoint_path: "str | None" = None
    ) -> None:
        super().__init__(message, checkpoint_path=checkpoint_path)
        self.signum = signum
