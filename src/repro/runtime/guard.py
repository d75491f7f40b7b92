"""Resource guardrails: soft RSS budget and wall-clock deadline.

A :class:`ResourceGuard` is polled at recursion boundaries (every
recursion call entry and the ``Partition`` phase boundaries).  The
deadline check is a cheap monotonic-clock comparison and runs on every
poll; RSS sampling reads ``/proc/self/status`` and is throttled to at most
once per :data:`POLL_INTERVAL_SECONDS`.

The memory budget degrades *gracefully* before it aborts:

1. at 80 % of the budget the cross-bin level prefetch is disabled (it
   fronts an entire level's candidate scores — the largest transient
   allocations the drivers make by choice);
2. at 90 % the buffers shrink: the worker pools are drained (freeing the
   worker processes' slab buffers and the parent-owned shared-memory
   segments — the pool respawns on demand, bit-identically, exactly as
   after a crash) and a full garbage collection runs;
3. at 100 % the run checkpoints and aborts with a *resumable*
   :class:`~repro.errors.ResourceBudgetExceeded` — a controlled stop at a
   recursion boundary instead of an uncontrolled OOM kill mid-allocation.

The watchdog aborts with :class:`~repro.errors.DeadlineExceededError`
under the same checkpoint-then-raise contract.  Neither abort ever loses
the run: resuming from the written checkpoint continues bit-identically.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Optional

from repro.errors import DeadlineExceededError, ResourceBudgetExceeded

#: Minimum seconds between two RSS samples (reading /proc is ~microseconds,
#: but recursion boundaries can be hit thousands of times per second).
POLL_INTERVAL_SECONDS = 0.1

#: The degradation rungs, as fractions of the memory budget.
PREFETCH_OFF_FRACTION = 0.8
SHRINK_FRACTION = 0.9


def current_rss_mb() -> Optional[float]:
    """This process's resident set in MiB, or ``None`` off-Linux.

    Reads ``VmRSS`` from ``/proc/self/status`` (kB).  Platforms without
    procfs return ``None`` and the memory guard stays dormant (the
    deadline watchdog is clock-based and unaffected).
    """
    try:
        with open("/proc/self/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmRSS:"):
                    return float(line.split()[1]) / 1024.0
    except OSError:  # pragma: no cover - no procfs
        return None
    return None  # pragma: no cover - VmRSS absent


class ResourceGuard:
    """Budget/deadline watchdog polled by a :class:`DurableRun`.

    ``rss_reader`` and ``clock`` are injectable for tests; the defaults
    read procfs and the monotonic clock.
    """

    def __init__(
        self,
        memory_budget_mb: Optional[float] = None,
        deadline_seconds: Optional[float] = None,
        rss_reader: Callable[[], Optional[float]] = current_rss_mb,
        clock: Callable[[], float] = time.monotonic,
        poll_interval: float = POLL_INTERVAL_SECONDS,
    ) -> None:
        self.memory_budget_mb = memory_budget_mb
        self.deadline_seconds = deadline_seconds
        self._rss_reader = rss_reader
        self._clock = clock
        self._poll_interval = poll_interval
        self._started = clock()
        self._next_sample = self._started
        self._shrunk = False

    @property
    def elapsed(self) -> float:
        return self._clock() - self._started

    def poll(self, run) -> None:
        """One guard check; ``run`` is the owning ``DurableRun``."""
        now = self._clock()
        if (
            self.deadline_seconds is not None
            and now - self._started > self.deadline_seconds
        ):
            run.abort(
                DeadlineExceededError(
                    f"run exceeded its {self.deadline_seconds:g}s deadline "
                    f"({now - self._started:.1f}s elapsed)"
                )
            )
        if self.memory_budget_mb is None or now < self._next_sample:
            return
        self._next_sample = now + self._poll_interval
        rss = self._rss_reader()
        if rss is None:
            return
        run.telemetry.bump("guard_polls")
        run.telemetry.observe_rss(rss)
        budget = self.memory_budget_mb
        if rss >= budget:
            run.abort(
                ResourceBudgetExceeded(
                    f"resident set {rss:.0f} MiB reached the {budget:g} MiB "
                    "budget after graceful degradation"
                )
            )
        elif rss >= SHRINK_FRACTION * budget:
            if run.prefetch_allowed:
                run.disable_prefetch()
            if not self._shrunk:
                self._shrunk = True
                self._shrink_buffers(run)
        elif rss >= PREFETCH_OFF_FRACTION * budget and run.prefetch_allowed:
            run.disable_prefetch()

    @staticmethod
    def _shrink_buffers(run) -> None:
        """Rung 2: drain the worker pools and collect garbage."""
        run.telemetry.bump("buffer_shrinks")
        try:
            from repro.parallel.executor import shutdown_executors

            shutdown_executors()
        except Exception:  # pragma: no cover - pool teardown is best-effort
            pass
        gc.collect()
