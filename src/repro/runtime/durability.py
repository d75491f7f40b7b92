"""``DurableRun`` — the run-level durability facade the drivers thread.

One object per run bundles the three durability concerns:

* a :class:`~repro.runtime.checkpoint.CheckpointManager` holding the
  salt-keyed frontier of completed subtrees (resume restores from it,
  completion records into it);
* a :class:`~repro.runtime.guard.ResourceGuard` (RSS budget + deadline);
* a :class:`~repro.runtime.signals.SignalWatcher` (SIGTERM/SIGINT).

The drivers call :meth:`poll` at every recursion entry (and forward it to
``Partition``'s phase boundaries), :meth:`restored`/:meth:`completed`
around each call body, and wrap the whole walk in :meth:`active`.  All
aborts funnel through :meth:`abort`: final checkpoint, pool drain,
shared-memory unlink, then the typed :class:`~repro.errors.RunAbortedError`
subclass — a controlled stop at a recursion boundary, always resumable
when a checkpoint path is configured.
"""

from __future__ import annotations

import contextlib
import signal as _signal
import threading
from typing import Any, Dict, Optional

from repro.accounting import RunDurability
from repro.errors import RunAbortedError, RunInterrupted
from repro.runtime.checkpoint import (
    CheckpointManager,
    resume_entries,
    run_header,
)
from repro.runtime.guard import ResourceGuard
from repro.runtime.signals import SignalWatcher


#: Thread-local supervision slot (see :func:`supervised`).  The service
#: layer's job executor runs each driver call inside ``supervised(...)``;
#: the slot is thread-local so concurrent jobs on different executor
#: threads each see only their own supervisor.
_SUPERVISION = threading.local()


@contextlib.contextmanager
def supervised(supervisor):
    """Run a driver under an external *supervisor* (the service job layer).

    A supervisor is duck-typed with three members:

    * ``watcher`` — a :class:`~repro.runtime.signals.SignalWatcher`-shaped
      object (``install()``/``restore()``/``signum``) the
      :class:`DurableRun` polls instead of installing real signal
      handlers.  Setting ``signum`` from another thread cancels the run at
      its next poll point, with the full shutdown contract (final
      checkpoint, pool drain, shm unlink) — a *cooperative* SIGINT that
      works off the main thread;
    * ``attach(run)`` — called with the freshly built :class:`DurableRun`
      so the supervisor can read live telemetry while the run executes;
    * ``on_subtree(manager, depth)`` — called after every completed (or
      restored) subtree recording, the driver's natural progress tick.

    The drivers themselves are oblivious: :meth:`DurableRun.from_params`
    picks the supervisor up from this thread-local slot, so no driver
    signature changes and runs outside ``supervised(...)`` behave exactly
    as before.
    """
    previous = getattr(_SUPERVISION, "current", None)
    _SUPERVISION.current = supervisor
    try:
        yield supervisor
    finally:
        _SUPERVISION.current = previous


def current_supervisor():
    """The supervisor of the calling thread's ``supervised`` block, if any."""
    return getattr(_SUPERVISION, "current", None)


class DurableRun:
    """Durability state of one driver run, carried on its
    :class:`repro.core.driver.RunState`."""

    def __init__(
        self,
        manager: CheckpointManager,
        guard: ResourceGuard,
        watcher: Optional[SignalWatcher] = None,
        telemetry: Optional[RunDurability] = None,
    ) -> None:
        self.manager = manager
        self.guard = guard
        self.watcher = watcher if watcher is not None else SignalWatcher()
        self.telemetry = telemetry if telemetry is not None else RunDurability()
        if manager is not None and manager._telemetry is None:
            manager._telemetry = self.telemetry
        self.prefetch_allowed = True
        self.supervisor = None
        self._stack: list = []

    # ------------------------------------------------------------------
    @classmethod
    def from_params(
        cls, params: Any, algorithm: str, graph: Any, palettes: Any, global_nodes: int
    ) -> Optional["DurableRun"]:
        """Build the run's durability state, or ``None`` when no knob is set."""
        if not params.durability_enabled():
            return None
        header = run_header(algorithm, params, graph, palettes, global_nodes)
        entries: Dict[int, Dict[str, Any]] = {}
        if params.resume_path:
            entries = resume_entries(params.resume_path, header)
        path = params.checkpoint_path or params.resume_path
        telemetry = RunDurability()
        manager = CheckpointManager(
            path,
            header,
            entries=entries,
            every=params.checkpoint_every_levels,
            telemetry=telemetry,
        )
        guard = ResourceGuard(
            memory_budget_mb=params.memory_budget_mb,
            deadline_seconds=params.deadline_seconds,
        )
        supervisor = current_supervisor()
        watcher = getattr(supervisor, "watcher", None)
        run = cls(manager, guard, watcher=watcher, telemetry=telemetry)
        if supervisor is not None:
            run.supervisor = supervisor
            supervisor.attach(run)
        return run

    # ------------------------------------------------------------------
    # the driver-facing surface
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def active(self):
        """Install signal handlers for the walk; flush + restore after.

        A signal recorded after the walk's last poll is honoured at the
        walk's end, the run's final boundary, instead of being dropped.
        """
        self.watcher.install()
        try:
            yield self
            if self.watcher.signum is not None:
                self.poll()
        finally:
            self.watcher.restore()
            self.manager.flush()

    def poll(self) -> None:
        """One durability check; called at recursion/phase boundaries.

        May raise a :class:`~repro.errors.RunAbortedError` subclass (after
        checkpointing and cleaning up) — never returns abnormally
        otherwise.
        """
        signum = self.watcher.signum
        if signum is not None:
            name = _signal.Signals(signum).name
            self.abort(
                RunInterrupted(
                    f"run interrupted by {name} after finishing the in-flight "
                    "level",
                    signum=signum,
                )
            )
        self.guard.poll(self)

    def restored(self, salt: int) -> Optional[Dict[str, Any]]:
        """The recorded entry for this call, if resuming past it."""
        entry = self.manager.restored(salt)
        if entry is not None:
            self.telemetry.bump("subtrees_restored")
            self.telemetry.bump("nodes_restored", len(entry["nodes"]))
            if self.supervisor is not None:
                self.supervisor.on_subtree(self.manager, entry["depth"])
        return entry

    def has(self, salt: int) -> bool:
        """Whether ``salt`` will be restored (prefetch skips such bins)."""
        return self.manager.has(salt)

    def enter(self, salt: int) -> None:
        self._stack.append(salt)

    def exit(self, salt: int) -> None:
        popped = self._stack.pop()
        assert popped == salt, "unbalanced durable recursion tracking"

    def completed(self, salt: int, depth: int, build_entry) -> None:
        """Record one completed subtree (after :meth:`exit`)."""
        recorded = self.manager.record(salt, depth, tuple(self._stack), build_entry)
        if recorded and self.supervisor is not None:
            self.supervisor.on_subtree(self.manager, depth)

    def disable_prefetch(self) -> None:
        """Degradation rung 1: no more cross-bin level prefetches."""
        if self.prefetch_allowed:
            self.prefetch_allowed = False
            self.telemetry.bump("prefetch_disabled")

    # ------------------------------------------------------------------
    # the one-way exit
    # ------------------------------------------------------------------
    def abort(self, error: RunAbortedError) -> None:
        """Checkpoint, drain the pool, unlink shm, then raise ``error``."""
        self.manager.flush(force=self.manager.path is not None)
        error.checkpoint_path = self.manager.path
        try:
            import sys

            if "repro.parallel.executor" in sys.modules:
                from repro.parallel.executor import shutdown_executors

                shutdown_executors()
            if "repro.parallel.slabs" in sys.modules:
                from repro.parallel.slabs import unlink_all_segments

                unlink_all_segments()
        except Exception:  # pragma: no cover - cleanup is best-effort
            pass
        raise error
