"""The job executor: worker threads driving the engine, supervised.

Each executor thread pulls queued jobs and runs them through the existing
drivers (:class:`~repro.core.color_reduce.ColorReduce` /
:class:`~repro.core.low_space.color_reduce.LowSpaceColorReduce`) with the
run-level durability layer *always on*: every job gets a checkpoint
under the spool (``jobs/<id>/run.ckpt`` and its second slot
``run.ckpt.1``, removed once the job is done) plus the service's per-job
memory/deadline budgets, so cancellation and guard aborts are controlled,
resumable stops — never lost work.  Jobs may additionally shard their own
candidate scoring across the :mod:`repro.parallel` worker pool via the
submitted ``parallel_workers`` parameter; the pool (and its self-healing,
shm transport and telemetry) is shared process-wide exactly as for CLI
runs.

Supervision (:func:`repro.runtime.durability.supervised`) gives the
service two live handles into a run without touching driver signatures:

* :class:`CancelToken` — a ``SignalWatcher``-shaped object whose
  ``signum`` is set by the cancel endpoint; the run notices at its next
  durability poll and performs the full signal-safe shutdown (finish the
  in-flight level, final checkpoint, drain pools, unlink shm) before
  raising :class:`~repro.errors.RunInterrupted`.  Cooperative, so it
  works from any thread — unlike real signal handlers;
* :class:`JobSupervisor.on_subtree` — progress ticks at every recorded
  subtree, from which the streaming endpoint derives nodes-colored and
  level counters.
"""

from __future__ import annotations

import dataclasses
import os
import queue
import signal
import threading
from typing import Any, Dict, Optional

from repro.accounting import ServiceTelemetry
from repro.errors import ReproError, RunAbortedError, RunInterrupted
from repro.graph.validation import count_colors_used
from repro.runtime.checkpoint import checkpoint_files
from repro.runtime.durability import supervised
from repro.service.cache import ResultCache
from repro.service.jobs import JobRecord, JobState, JobStore
from repro.service.settings import ServiceSettings

#: The sentinel shutting one worker thread down.
_STOP = object()


class CancelToken:
    """A ``SignalWatcher`` look-alike driven by the cancel endpoint.

    ``install``/``restore`` are no-ops (no process-level handlers are
    touched — service jobs run on worker threads where CPython forbids
    them anyway); ``cancel()`` flips ``signum`` and the durable run's next
    poll raises :class:`~repro.errors.RunInterrupted` exactly as a real
    SIGINT would have.
    """

    def __init__(self) -> None:
        self.signum: Optional[int] = None

    def install(self) -> bool:
        return False

    def restore(self) -> None:
        return None

    def cancel(self, signum: int = signal.SIGINT) -> None:
        self.signum = signum


class JobSupervisor:
    """Live cancel + progress handle of one running job."""

    def __init__(self, total_nodes: int) -> None:
        self.watcher = CancelToken()
        self.total_nodes = total_nodes
        self._lock = threading.Lock()
        self._run = None
        self._nodes_completed = 0
        self._subtrees_completed = 0
        self._last_depth: Optional[int] = None
        self.cancel_requested = False
        #: Test/chaos hook: auto-cancel after this many subtree ticks
        #: (deterministic mid-run cancellation without timing races).
        self.cancel_after_subtrees: Optional[int] = None

    # -- the supervised-run protocol -----------------------------------
    def attach(self, run) -> None:
        with self._lock:
            self._run = run

    def on_subtree(self, manager, depth: int) -> None:
        """One completed/restored subtree: refresh the progress counters.

        Runs on the driver thread, synchronously with the recursion, so
        reading the checkpoint frontier here is race-free; the endpoint
        threads only ever read the plain-int snapshot under the lock.
        """
        nodes = sum(len(entry["coloring"]) for entry in manager.entries.values())
        with self._lock:
            self._subtrees_completed += 1
            self._nodes_completed = nodes
            self._last_depth = depth
            if (
                self.cancel_after_subtrees is not None
                and self._subtrees_completed >= self.cancel_after_subtrees
            ):
                self.cancel()

    # -- the service-facing surface ------------------------------------
    def cancel(self) -> None:
        self.cancel_requested = True
        self.watcher.cancel()

    def snapshot(self) -> Dict[str, Any]:
        """Progress counters + live durability telemetry (JSON-able)."""
        with self._lock:
            run = self._run
            snapshot: Dict[str, Any] = {
                "total_nodes": self.total_nodes,
                "nodes_completed": self._nodes_completed,
                "subtrees_completed": self._subtrees_completed,
                "last_subtree_depth": self._last_depth,
            }
        if run is not None:
            telemetry = run.telemetry
            snapshot.update(
                checkpoints_written=telemetry.checkpoints_written,
                subtrees_recorded=telemetry.subtrees_recorded,
                subtrees_restored=telemetry.subtrees_restored,
                nodes_restored=telemetry.nodes_restored,
            )
        return snapshot


class JobExecutor:
    """A fixed pool of worker threads computing queued jobs."""

    def __init__(
        self,
        settings: ServiceSettings,
        store: JobStore,
        cache: ResultCache,
        telemetry: ServiceTelemetry,
    ) -> None:
        self.settings = settings
        self.store = store
        self.cache = cache
        self.telemetry = telemetry
        self._queue: "queue.Queue" = queue.Queue()
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-service-worker-{index}", daemon=True
            )
            for index in range(settings.workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    def enqueue(self, record: JobRecord) -> None:
        self._queue.put(record.job_id)

    def queue_depth(self) -> int:
        return self._queue.qsize()

    def shutdown(self) -> None:
        """Cancel running jobs, stop the threads, drain engine pools.

        Running jobs receive a cooperative cancel and finish as resumable
        ``cancelled`` jobs (final checkpoint written); afterwards the
        process-wide scoring pools are shut down and every owned
        shared-memory segment unlinked, so a stopped service leaves no
        ``/dev/shm`` residue.
        """
        for job_id in self.store.job_ids():
            record = self.store.get(job_id)
            if record.state == JobState.RUNNING and record.supervisor is not None:
                record.supervisor.cancel()
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=60.0)
        import sys

        if "repro.parallel.executor" in sys.modules:
            from repro.parallel.executor import shutdown_executors

            shutdown_executors()
        if "repro.parallel.slabs" in sys.modules:
            from repro.parallel.slabs import unlink_all_segments

            unlink_all_segments()

    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            record = self.store.get(item)
            if record.state != JobState.QUEUED:
                continue  # cancelled while queued
            try:
                self._run_job(record)
            except Exception as exc:  # pragma: no cover - belt and braces
                record.error = f"internal error: {exc!r}"
                record.note("failed", error=record.error)
                try:
                    self.store.transition(record, JobState.FAILED)
                except ReproError:
                    pass
                self.telemetry.bump("jobs_failed")

    # ------------------------------------------------------------------
    def _job_params(self, record: JobRecord):
        """The submission's params plus the service-owned durability knobs."""
        job_dir = self.settings.job_dir(record.job_id)
        os.makedirs(job_dir, exist_ok=True)
        checkpoint = os.path.join(job_dir, "run.ckpt")
        resume = checkpoint if os.path.exists(checkpoint) else None
        record.checkpoint_path = checkpoint
        return dataclasses.replace(
            record.submission.params,
            checkpoint_path=checkpoint,
            resume_path=resume,
            checkpoint_every_levels=self.settings.checkpoint_every_levels,
            memory_budget_mb=self.settings.memory_budget_mb,
            deadline_seconds=self.settings.deadline_seconds,
        )

    def _run_job(self, record: JobRecord) -> None:
        submission = record.submission
        self.store.transition(record, JobState.RUNNING)
        record.attempts += 1

        # A bit-identical job may have completed while this one waited in
        # the queue; serving it from the cache here keeps "compute each
        # distinct instance once" true under concurrency too.
        cached = self.cache.get(record.cache_key)
        if cached is not None:
            record.cache_hit = True
            record.result = cached
            record.note("cache-hit", cache_key=record.cache_key, stage="executor")
            record.progress = {
                "total_nodes": submission.graph.num_nodes,
                "nodes_completed": submission.graph.num_nodes,
            }
            self.store.transition(record, JobState.DONE)
            return

        supervisor = JobSupervisor(total_nodes=submission.graph.num_nodes)
        if record.progress.get("cancel_after_subtrees"):
            supervisor.cancel_after_subtrees = record.progress["cancel_after_subtrees"]
        record.supervisor = supervisor
        params = self._job_params(record)
        resumed = params.resume_path is not None
        record.note(
            "started",
            attempt=record.attempts,
            resumed_from_checkpoint=resumed,
            parallel_workers=params.parallel_workers,
        )
        if resumed:
            self.telemetry.bump("jobs_resumed")
        try:
            with supervised(supervisor):
                payload = self._compute(record, params)
        except RunInterrupted as exc:
            record.resumable = exc.checkpoint_path is not None
            record.note(
                "cancelled",
                checkpoint=exc.checkpoint_path,
                resumable=record.resumable,
            )
            record.progress = supervisor.snapshot()
            self.store.transition(record, JobState.CANCELLED)
            self.telemetry.bump("jobs_cancelled")
            return
        except RunAbortedError as exc:
            # Memory budget / deadline: a controlled stop with a resumable
            # checkpoint — park the job, don't fail it.
            record.resumable = exc.checkpoint_path is not None
            record.error = str(exc)
            record.note(
                "checkpointed",
                reason=str(exc),
                checkpoint=exc.checkpoint_path,
                resumable=record.resumable,
            )
            record.progress = supervisor.snapshot()
            self.store.transition(record, JobState.CHECKPOINTED)
            return
        except ReproError as exc:
            record.error = str(exc)
            record.note("failed", error=record.error)
            record.progress = supervisor.snapshot()
            self.store.transition(record, JobState.FAILED)
            self.telemetry.bump("jobs_failed")
            return
        record.result = payload
        record.resumable = False
        record.progress = supervisor.snapshot()
        self.cache.put(record.cache_key, payload)
        record.note(
            "completed",
            rounds=payload["rounds"],
            colors_used=payload["colors_used"],
            cached=True,
        )
        self._cleanup_checkpoint(record)
        self.store.transition(record, JobState.DONE)
        self.telemetry.bump("jobs_computed")

    def _compute(self, record: JobRecord, params) -> Dict[str, Any]:
        """One engine run → the JSON result payload the API serves."""
        submission = record.submission
        graph, palettes = submission.graph, submission.palettes
        if submission.algorithm == "low-space":
            from repro import LowSpaceColorReduce

            result = LowSpaceColorReduce(params).run(graph, palettes.copy())
            algorithm_stats = {
                "max_recursion_depth": result.max_recursion_depth,
                "total_mis_phases": result.total_mis_phases,
            }
        else:
            from repro import ColorReduce

            result = ColorReduce(params).run(graph, palettes.copy())
            algorithm_stats = {
                "max_recursion_depth": result.max_recursion_depth,
                "total_bad_nodes": result.total_bad_nodes,
                "invariant_violations": result.total_invariant_violations,
            }
        coloring = [
            [int(node), int(color)] for node, color in sorted(result.coloring.items())
        ]
        return {
            "cache_key": record.cache_key,
            "algorithm": submission.algorithm,
            "description": submission.description,
            "graph": {
                "nodes": graph.num_nodes,
                "edges": graph.num_edges,
                "max_degree": graph.max_degree(),
            },
            "coloring": coloring,
            "colors_used": count_colors_used(result.coloring),
            "rounds": result.rounds,
            **algorithm_stats,
            "ledger": {
                label: list(pair) for label, pair in result.ledger.snapshot().items()
            },
            "ledger_totals": {
                "rounds": result.ledger.rounds,
                "message_words": result.ledger.message_words,
            },
            "pool_health": result.pool_health.as_dict(),
            "durability": result.durability.as_dict(),
        }

    def _cleanup_checkpoint(self, record: JobRecord) -> None:
        """A finished job's checkpoint has served its purpose — remove it."""
        path = record.checkpoint_path
        if not path:
            return
        for name in checkpoint_files(path):
            try:
                os.unlink(name)
            except OSError:
                pass
        record.checkpoint_path = None
