"""Run-level durability: checkpoint/resume, guardrails, signal shutdown.

* :mod:`repro.runtime.checkpoint` — crash-safe, fingerprint-bound checkpoint
  files holding the salt-keyed frontier of completed recursion subtrees;
* :mod:`repro.runtime.guard` — soft RSS budget with a graceful degradation
  ladder, plus a wall-clock deadline watchdog;
* :mod:`repro.runtime.signals` — SIGTERM/SIGINT recording handlers;
* :mod:`repro.runtime.durability` — the :class:`DurableRun` facade both
  drivers thread through their recursion.

The subsystem is opt-in (any of ``checkpoint_path`` / ``resume_path`` /
``memory_budget_mb`` / ``deadline_seconds`` on the parameter sets) and
outcome-neutral: a resumed, degraded or repeatedly checkpointed run
produces the bit-identical coloring, recursion tree and ledger of an
uninterrupted one.
"""

from repro.runtime.checkpoint import (
    CHECKPOINT_RECORD_DEPTH,
    CheckpointManager,
    checkpoint_files,
    fingerprint_instance,
    fingerprint_params,
    load_checkpoint,
    run_header,
    validate_header,
    write_checkpoint,
)
from repro.runtime.durability import DurableRun
from repro.runtime.guard import ResourceGuard, current_rss_mb
from repro.runtime.signals import SignalWatcher

__all__ = [
    "CHECKPOINT_RECORD_DEPTH",
    "CheckpointManager",
    "DurableRun",
    "ResourceGuard",
    "SignalWatcher",
    "checkpoint_files",
    "current_rss_mb",
    "fingerprint_instance",
    "fingerprint_params",
    "load_checkpoint",
    "run_header",
    "validate_header",
    "write_checkpoint",
]
