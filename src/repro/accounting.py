"""Cost accounting shared by the CONGESTED CLIQUE and MPC simulators.

All of the paper's claims are stated in terms of *rounds*, *messages* and
*space*; the simulators charge every model-level operation to a
:class:`CostLedger`, and the experiments read their results from these
ledgers.  Labels let an experiment break the total down by phase (hash
selection, partitioning, local coloring, palette updates, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import ClassVar, Dict, Iterator, Tuple


@dataclass
class PhaseCost:
    """Rounds and message-words charged to one labelled phase."""

    rounds: int = 0
    message_words: int = 0

    def add(self, rounds: int, message_words: int) -> None:
        self.rounds += rounds
        self.message_words += message_words


@dataclass
class CostLedger:
    """Accumulates rounds and communication volume across a protocol run."""

    rounds: int = 0
    message_words: int = 0
    _phases: Dict[str, PhaseCost] = field(default_factory=dict)

    def charge(self, label: str, rounds: int, message_words: int = 0) -> None:
        """Charge ``rounds`` rounds and ``message_words`` words to ``label``."""
        if rounds < 0 or message_words < 0:
            raise ValueError("cannot charge negative cost")
        self.rounds += rounds
        self.message_words += message_words
        self._phases.setdefault(label, PhaseCost()).add(rounds, message_words)

    def phase(self, label: str) -> PhaseCost:
        """The accumulated cost of one phase (zero if never charged)."""
        return self._phases.get(label, PhaseCost())

    def phases(self) -> Iterator[Tuple[str, PhaseCost]]:
        """Iterate over ``(label, cost)`` pairs in insertion order."""
        return iter(self._phases.items())

    def merge_parallel(self, other: "CostLedger") -> None:
        """Merge a ledger of work done *in parallel* with this one.

        Parallel composition takes the maximum of the round counts (the
        paper's recursive calls at the same level run simultaneously) and the
        sum of the communication volumes.
        """
        self.rounds = max(self.rounds, other.rounds)
        self.message_words += other.message_words
        for label, cost in other._phases.items():
            mine = self._phases.setdefault(label, PhaseCost())
            mine.rounds = max(mine.rounds, cost.rounds)
            mine.message_words += cost.message_words

    def merge_sequential(self, other: "CostLedger") -> None:
        """Merge a ledger of work done *after* this one (costs add up)."""
        self.rounds += other.rounds
        self.message_words += other.message_words
        for label, cost in other._phases.items():
            self._phases.setdefault(label, PhaseCost()).add(cost.rounds, cost.message_words)

    def snapshot(self) -> Dict[str, Tuple[int, int]]:
        """A plain-dict snapshot ``label -> (rounds, message_words)``."""
        return {label: (cost.rounds, cost.message_words) for label, cost in self._phases.items()}

    def copy(self) -> "CostLedger":
        """An independent deep copy (same totals, phases, insertion order).

        The checkpoint layer stores and restores ledgers through copies:
        a restored subtree's ledger is merged into its parent exactly like
        a freshly computed one, and ``merge_parallel`` mutates the first
        child ledger it adopts — sharing the stored object would corrupt
        the checkpoint.
        """
        clone = CostLedger(rounds=self.rounds, message_words=self.message_words)
        for label, cost in self._phases.items():
            clone._phases[label] = PhaseCost(cost.rounds, cost.message_words)
        return clone


@dataclass
class _Counters:
    """Base of the integer telemetry records below.

    Subclasses are dataclasses whose fields are all counters; this base
    gives them the shared ``bump`` / ``as_dict`` / ``summary`` rendering.
    """

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment one counter by ``amount`` (the counter must exist)."""
        setattr(self, counter, getattr(self, counter) + amount)

    def as_dict(self) -> Dict[str, int]:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    def summary(self) -> str:
        """One-line ``name=value`` rendering (CLI, logs and ``/v1/healthz``)."""
        return " ".join(f"{name}={value}" for name, value in self.as_dict().items())


@dataclass
class PoolHealth(_Counters):
    """Self-healing telemetry of the parallel scoring pool.

    The worker pool (:mod:`repro.parallel.executor`) survives worker
    crashes, hangs, dropped and garbled replies by re-enqueueing the
    affected shards, respawning dead workers in place and — as the last
    resort — rescoring shards in-process.  None of that changes any value
    (workers return values, never decisions), so the only run-visible trace
    of a fault is this record: every recovery action is counted here, the
    pipelines attach a per-run delta to their results, and the CLI prints
    it whenever ``parallel_workers > 1``.

    Attributes
    ----------
    shard_retries:
        Shards re-enqueued to another worker after a failed attempt.
    shard_timeouts:
        Shard attempts abandoned because no reply arrived within the
        per-shard timeout (a hung or wedged worker).
    worker_deaths:
        Worker processes observed dead (crashed or killed).
    worker_respawns:
        Replacement workers spawned in place of dead ones.
    error_replies:
        Explicit error replies from workers (evaluator failed to load or
        to score a shard).
    integrity_failures:
        Replies rejected by the integrity checks (job/token echo mismatch,
        wrong shard length, undecodable values).
    in_process_rescues:
        Shards (or whole slabs) rescored in-process by the parent after
        retries were exhausted or the pool failed outright.
    breaker_trips:
        Times the circuit breaker opened after repeated pool-level
        failures, demoting scoring to the in-process path.
    breaker_skipped_slabs:
        Slabs scored in-process while the breaker was open (cool-down).
    bytes_shipped:
        Payload bytes that crossed the process boundary through the task
        queues (pickled evaluator envelopes and slab coefficients), summed
        over workers for broadcasts.  Volume telemetry, not a fault.
    bytes_shared:
        Payload bytes published once into shared-memory segments instead of
        being shipped per worker.  Volume telemetry, not a fault.
    orphan_segments_swept:
        ``repro_*`` segments of *dead* owner processes found in ``/dev/shm``
        and unlinked at pool startup (a previous run was SIGKILLed between
        publishing and its ``atexit`` backstop).  Hygiene telemetry about a
        past process, not a fault of this run.
    """

    shard_retries: int = 0
    shard_timeouts: int = 0
    worker_deaths: int = 0
    worker_respawns: int = 0
    error_replies: int = 0
    integrity_failures: int = 0
    in_process_rescues: int = 0
    breaker_trips: int = 0
    breaker_skipped_slabs: int = 0
    bytes_shipped: int = 0
    bytes_shared: int = 0
    orphan_segments_swept: int = 0

    #: Non-event counters (transport volume, startup hygiene): meaningful
    #: telemetry, but not recovery events — excluded from
    #: :attr:`total_events` / :attr:`degraded` so a fault-free parallel run
    #: still reports healthy.
    _VOLUME_COUNTERS: ClassVar[Tuple[str, ...]] = (
        "bytes_shipped",
        "bytes_shared",
        "orphan_segments_swept",
    )

    def merge(self, other: "PoolHealth") -> None:
        """Accumulate another record into this one (counters add up)."""
        for spec in fields(self):
            self.bump(spec.name, getattr(other, spec.name))

    def copy(self) -> "PoolHealth":
        return replace(self)

    def delta(self, baseline: "PoolHealth") -> "PoolHealth":
        """The events that happened since ``baseline`` was snapshotted."""
        return PoolHealth(
            **{
                spec.name: getattr(self, spec.name) - getattr(baseline, spec.name)
                for spec in fields(self)
            }
        )

    @property
    def total_events(self) -> int:
        return sum(
            getattr(self, spec.name)
            for spec in fields(self)
            if spec.name not in self._VOLUME_COUNTERS
        )

    @property
    def degraded(self) -> bool:
        """Whether any recovery action fired (a fault-free run is all-zero)."""
        return self.total_events > 0


@dataclass
class ServiceTelemetry(_Counters):
    """Traffic telemetry of one coloring service (:mod:`repro.service`).

    The service layer counts every lifecycle event here — the process-wide
    audit complement to the per-job audit trails.  ``/v1/healthz`` exposes
    the record, and the cache counters are what the service tests assert
    when they require "zero recompute" on a repeat submission: a cache hit
    bumps ``cache_hits`` and *nothing else* (in particular not
    ``jobs_computed``).

    Attributes
    ----------
    jobs_submitted:
        Submissions accepted (validated and enqueued or served from cache).
    jobs_rejected:
        Submissions rejected by request validation (bad graph, bad params).
    jobs_computed:
        Jobs whose coloring was actually computed by the engine (cache
        misses that ran to completion).
    jobs_failed:
        Jobs that ended in the ``failed`` state.
    jobs_cancelled:
        Jobs cancelled (while queued, or mid-run via the cooperative
        cancel token).
    jobs_resumed:
        Resume requests accepted (a cancelled/checkpointed job re-queued).
    cache_hits:
        Results served from the content-addressed cache without recompute.
    cache_misses:
        Cache lookups that found nothing and went to the executor.
    cache_stores:
        Result payloads written into the cache.
    """

    jobs_submitted: int = 0
    jobs_rejected: int = 0
    jobs_computed: int = 0
    jobs_failed: int = 0
    jobs_cancelled: int = 0
    jobs_resumed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0


@dataclass
class RunDurability(_Counters):
    """Durability telemetry of one run (:mod:`repro.runtime`).

    The run-level durability layer — periodic checkpoints, resume, the
    resource guardrails and signal-safe shutdown — never changes a coloring,
    a recursion tree or a ledger; like :class:`PoolHealth`, this record is
    its only run-visible trace.  The pipelines attach one to their results
    whenever any durability knob is set, and the CLI prints it.

    Attributes
    ----------
    checkpoints_written:
        Checkpoint records written (each into one of two slot files).
    checkpoint_bytes:
        Payload bytes of the *last* checkpoint written (each write is a
        whole record, so the last size is the newest record's size).
    subtrees_recorded:
        Completed recursion subtrees recorded into the checkpoint frontier.
    subtrees_restored:
        Subtrees replayed from the resume checkpoint instead of recomputed.
    nodes_restored:
        Graph nodes whose colors were restored rather than recomputed.
    guard_polls:
        Times the resource guard actually sampled RSS (polling is
        throttled; cheap deadline checks are not counted).
    rss_peak_mb:
        Largest resident-set sample the guard observed, in MiB (0 when no
        memory budget was set).
    prefetch_disabled:
        1 when the degradation ladder's first rung fired (cross-bin level
        prefetch dropped for the rest of the run).
    buffer_shrinks:
        Times the second rung fired (worker pools drained, caches
        collected) to claw memory back before aborting.
    """

    checkpoints_written: int = 0
    checkpoint_bytes: int = 0
    subtrees_recorded: int = 0
    subtrees_restored: int = 0
    nodes_restored: int = 0
    guard_polls: int = 0
    rss_peak_mb: int = 0
    prefetch_disabled: int = 0
    buffer_shrinks: int = 0

    def observe_rss(self, rss_mb: float) -> None:
        """Fold one RSS sample into the peak."""
        self.rss_peak_mb = max(self.rss_peak_mb, int(rss_mb))

    @property
    def resumed(self) -> bool:
        """Whether any work was replayed from a resume checkpoint."""
        return self.subtrees_restored > 0
