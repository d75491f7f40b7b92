"""Numeric parameters of ``ColorReduce`` / ``Partition``.

The paper fixes concrete exponents (Algorithm 1, Definition 3.1), and
Lemmas 3.2 and 3.11-3.14 hold only for these values, so they are module
constants rather than settable fields:

* the node/color hash functions map into ``l^0.1`` bins
  (:data:`BIN_EXPONENT`; the last bin receives no colors),
* the degree slack in the good-node condition is ``l^0.6``
  (:data:`DEGREE_SLACK_EXPONENT`),
* the palette slack is ``l^0.7`` (:data:`PALETTE_SLACK_EXPONENT`),
* the next level's degree proxy is ``l' = l^0.9 - l^0.6``
  (:data:`ELL_DECAY_EXPONENT`),
* a good bin has fewer than ``2 n_G l^-0.1 + n^0.6`` nodes
  (:data:`BIN_CAP_SLACK_EXPONENT`),
* an instance of size ``O(n)`` is collected onto a single machine.

:class:`ColorReduceParameters` has two modes:

``paper mode`` (default, ``num_bins_override is None``)
    Exactly the exponents above.  On laptop-size graphs ``l^0.1`` is 1 or 2,
    so the recursion bottoms out immediately — the correct behaviour, but it
    does not exercise the recursive machinery.

``scaled mode`` (:meth:`ColorReduceParameters.scaled`, ``num_bins_override`` set)
    The number of bins is set explicitly and the slack terms follow the
    concentration scale of that bin count, so that multi-level recursion,
    palette splitting, leftover-bin coloring and bad-node handling all run
    on graphs with a few thousand nodes.  The control flow is identical;
    only the thresholds change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.derand.conditional_expectation import SelectionStrategy
from repro.errors import ConfigurationError

#: Bins per level are ``floor(l ** BIN_EXPONENT)``.
BIN_EXPONENT = 0.1
#: Definition 3.1's good-node degree deviation ``l ** 0.6``.
DEGREE_SLACK_EXPONENT = 0.6
#: Definition 3.1's good-node palette surplus ``l ** 0.7``.
PALETTE_SLACK_EXPONENT = 0.7
#: ``l' = l ** 0.9 - l ** 0.6`` (Algorithm 1; ``l ** 0.9 = l / l ** 0.1``).
ELL_DECAY_EXPONENT = 0.9
#: A good bin has fewer than ``2 n_G / B + n ** 0.6`` nodes, ``n`` global.
BIN_CAP_SLACK_EXPONENT = 0.6
#: The next level's degree proxy never drops below this.
MIN_ELL = 2.0


@dataclass(frozen=True)
class RunParameters:
    """Run knobs shared by both pipelines' parameter sets.

    :class:`ColorReduceParameters` and
    :class:`repro.core.low_space.params.LowSpaceParameters` inherit these
    fields, their validation and :meth:`durability_enabled`.  Each subclass
    declares its own ``max_recursion_depth`` (the defaults differ); the
    shared checks validate it.

    Attributes
    ----------
    selection_max_candidates / selection_batch_size:
        Knobs forwarded to :class:`repro.derand.HashPairSelector` (both
        positive).
    parallel_workers:
        Shard candidate-slab scoring across this many worker processes
        (:mod:`repro.parallel`): each selection batch / conditional-
        expectation chunk is split by the deterministic planner, scored by
        the workers through the same batched evaluator (shipped once per
        Partition level), and reduced positionally — selected seeds,
        recursion trees and colorings are bit-identical for every value.
        ``1`` (default) is the zero-overhead in-process path.  This is the
        only parallel knob: the pool picks its own recovery policy,
        transport and engagement floor (:mod:`repro.parallel.executor`).
        Not part of a run's identity, so a checkpoint or cached result
        serves every worker count.
    level_use_batch:
        Score all sibling bins' head pairs in one segmented cross-bin
        pass per recursion level (:mod:`repro.core.level`) instead of each
        bin's own head probe; bit-identical outcomes either way.
        Only engaged with single-process ``FIRST_FEASIBLE`` selection.
    checkpoint_path / resume_path / checkpoint_every_levels:
        Run-level durability (:mod:`repro.runtime`): periodically write the
        completed-subtree frontier to ``checkpoint_path`` (two slot files
        overwritten in turn, :func:`~repro.runtime.checkpoint.checkpoint_files`;
        flushed after every ``checkpoint_every_levels``-th recorded
        subtree), and/or resume a previous run from ``resume_path``
        (fingerprint-validated; the resumed run's coloring, recursion tree
        and ledger are bit-identical to an uninterrupted run's).  When only
        ``resume_path`` is set, new checkpoints keep updating that file.
    memory_budget_mb / deadline_seconds:
        Resource guardrails: a soft resident-set budget (degrade
        gracefully — drop the level prefetch, shrink buffers — then
        checkpoint and abort with a resumable
        :class:`~repro.errors.ResourceBudgetExceeded`) and a wall-clock
        watchdog with the same checkpoint-then-raise contract
        (:class:`~repro.errors.DeadlineExceededError`).
    """

    selection_max_candidates: int = 2048
    selection_batch_size: int = 16
    parallel_workers: int = 1
    level_use_batch: bool = True
    checkpoint_path: Optional[str] = None
    resume_path: Optional[str] = None
    checkpoint_every_levels: int = 1
    memory_budget_mb: Optional[float] = None
    deadline_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_recursion_depth < 1:
            raise ConfigurationError("max_recursion_depth must be positive")
        if self.selection_batch_size < 1:
            raise ConfigurationError("selection_batch_size must be positive")
        if self.selection_max_candidates < 1:
            raise ConfigurationError("selection_max_candidates must be positive")
        if self.parallel_workers < 1:
            raise ConfigurationError("parallel_workers must be at least 1")
        if self.checkpoint_every_levels < 1:
            raise ConfigurationError("checkpoint_every_levels must be at least 1")
        if self.memory_budget_mb is not None and self.memory_budget_mb <= 0:
            raise ConfigurationError("memory_budget_mb must be positive")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigurationError("deadline_seconds must be positive")
        if self.checkpoint_path is not None and not str(self.checkpoint_path).strip():
            raise ConfigurationError("checkpoint_path must not be empty")
        if self.resume_path is not None and not str(self.resume_path).strip():
            raise ConfigurationError("resume_path must not be empty")

    def durability_enabled(self) -> bool:
        """Whether any run-level durability knob is set (:mod:`repro.runtime`)."""
        return any(
            knob is not None
            for knob in (
                self.checkpoint_path,
                self.resume_path,
                self.memory_budget_mb,
                self.deadline_seconds,
            )
        )


@dataclass(frozen=True)
class ColorReduceParameters(RunParameters):
    """The settable knobs of the partitioning recursion.

    The paper's exponents are the module constants above, not fields.

    Attributes
    ----------
    collect_factor:
        Instances of size at most ``collect_factor * n`` (nodes + edges,
        ``n`` the *global* node count) are collected and colored locally —
        the paper's "size O(n)" base case.
    independence:
        The ``c``-wise independence of the hash families (even, >= 4).
    max_recursion_depth:
        Safety cap; Lemma 3.14 shows depth 9 suffices with paper exponents.
    num_bins_override:
        Scaled mode: use exactly this many bins per level regardless of ``l``
        (``None``, the default, is paper mode).
    selection_strategy:
        How the hash pair is chosen (see :mod:`repro.derand`).
    selection_rng_seed:
        Seed of the ``RANDOM`` strategy, forwarded to
        :class:`repro.derand.HashPairSelector`.

    The selection, worker-pool, level-prefetch and durability knobs are
    inherited from :class:`RunParameters`.
    """

    collect_factor: float = 4.0
    independence: int = 4
    max_recursion_depth: int = 12
    num_bins_override: Optional[int] = None
    selection_strategy: SelectionStrategy = SelectionStrategy.FIRST_FEASIBLE
    selection_rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.independence < 4 or self.independence % 2 != 0:
            raise ConfigurationError("independence must be an even integer >= 4")
        if self.collect_factor <= 0:
            raise ConfigurationError("collect_factor must be positive")
        if self.num_bins_override is not None and self.num_bins_override < 2:
            raise ConfigurationError("num_bins_override must be at least 2")
        super().__post_init__()

    @classmethod
    def scaled(
        cls, num_bins: int, *, collect_factor: float = 1.5, **overrides
    ) -> "ColorReduceParameters":
        """Parameters that exercise multi-level recursion on small graphs.

        ``num_bins`` fixes the per-level bin count (the paper's ``l^0.1``).
        The ``l^0.6`` / ``l^0.7`` / ``n^0.6`` slack terms are replaced by
        concentration-scale values (a few standard deviations of the
        corresponding binomial), which keeps the good-node conditions
        satisfiable on graphs with a few hundred to a few thousand nodes.
        """
        return cls(num_bins_override=num_bins, collect_factor=collect_factor, **overrides)

    @property
    def is_scaled(self) -> bool:
        """Scaled mode: the bin count is fixed and the slacks follow it."""
        return self.num_bins_override is not None

    def literal_regime(self, ell: float) -> bool:
        """Whether Definition 3.1 applies literally at degree proxy ``l``:
        paper mode with an unclamped bin count (:meth:`bins_are_clamped`)."""
        return not self.is_scaled and not self.bins_are_clamped(ell)

    # ------------------------------------------------------------------
    # derived per-level quantities
    # ------------------------------------------------------------------
    def num_bins(self, ell: float) -> int:
        """Number of bins ``B`` at degree proxy ``l`` (paper: ``l^0.1``).

        ``Partition`` needs at least 2 bins (one color bin plus the leftover
        bin); with fewer the caller should have collected the instance
        instead, but we clamp to 2 so the function is total.

        In scaled mode the bin count is additionally capped at ``l^(1/3)``:
        the palette-splitting analysis needs the per-bin palette share
        ``p/B ~ l/B`` to dominate its standard deviation and the ``p/B(B-1)``
        margin, which requires ``l`` to be at least on the order of ``B^3`` —
        a relation the paper's ``B = l^0.1`` satisfies automatically.
        """
        if self.is_scaled:
            return max(2, min(self.num_bins_override, int(math.floor(ell ** (1.0 / 3.0)))))
        return max(2, int(math.floor(ell**BIN_EXPONENT)))

    def degree_slack(self, ell: float) -> float:
        """The additive degree slack in Definition 3.1 (paper: ``l^0.6``).

        Scaled mode uses three standard deviations of the in-bin degree (a
        binomial with mean ``l / B``), which is the quantity the ``l^0.6``
        term dominates in the paper's regime.
        """
        if self.is_scaled:
            return 3.0 * math.sqrt(max(ell, 1.0) / self.num_bins_override) + 1.0
        return ell**DEGREE_SLACK_EXPONENT

    def palette_slack(self, ell: float) -> float:
        """The additive palette surplus in Definition 3.1 (paper: ``l^0.7``).

        In scaled mode the surplus must stay below the
        ``p / (B (B - 1))`` margin between the expected in-bin palette size
        (colors are spread over ``B - 1`` bins) and the ``p / B`` reference
        in the good-node condition; a constant 1 keeps the condition
        satisfiable while still demanding a strict surplus.
        """
        if self.is_scaled:
            return 1.0
        return ell**PALETTE_SLACK_EXPONENT

    def bin_cap(self, ell: float, instance_nodes: int, global_nodes: int) -> float:
        """The good-bin size cap: ``2 n_G / B + n^0.6`` (Definition 3.1)."""
        bins = self.num_bins(ell)
        if self.is_scaled:
            slack = 4.0 * math.sqrt(max(instance_nodes, 1) / bins) + 1.0
        else:
            slack = global_nodes**BIN_CAP_SLACK_EXPONENT
        return 2.0 * instance_nodes / bins + slack

    def bins_are_clamped(self, ell: float) -> bool:
        """Whether ``floor(l^0.1)`` fell below 2 and was clamped (paper mode).

        The paper assumes ``l`` is at least a large constant, so ``l^0.1``
        bins are meaningful; on laptop-scale degrees the exponent yields a
        single bin and the implementation clamps to 2.  Downstream code uses
        this flag to know the literal Lemma 3.2/3.11 arithmetic does not
        apply at this level.
        """
        return not self.is_scaled and int(math.floor(ell**BIN_EXPONENT)) < 2

    def next_ell(self, ell: float) -> float:
        """The next level's degree proxy ``l'``.

        Paper mode with unclamped bins: the literal ``l' = l^0.9 - l^0.6``
        (note ``l^0.9 = l / l^0.1``).  Scaled mode, or paper mode with the
        bin count clamped to 2: the same structural quantity ``l / B`` minus
        the degree slack.
        """
        if self.literal_regime(ell):
            candidate = ell**ELL_DECAY_EXPONENT - ell**DEGREE_SLACK_EXPONENT
        else:
            candidate = ell / self.num_bins(ell) - self.degree_slack(ell)
        return max(MIN_ELL, candidate)

    def collect_threshold(self, global_nodes: int) -> int:
        """Instances of size (nodes + edges) at most this are colored locally."""
        return int(self.collect_factor * max(global_nodes, 1))

    def cost_target(self, ell: float, global_nodes: int) -> float:
        """Lemma 3.9's achievable cost bound ``n / l^2`` for hash selection.

        In scaled mode (small ``l``) the literal ``n / l^2`` can be smaller
        than 1 even though a handful of bad nodes is harmless and expected;
        we therefore never require a bound below ``max(4, n / l^2)`` there.
        """
        literal = global_nodes / max(ell, 1.0) ** 2
        if not self.literal_regime(ell):
            # Scaled mode, or paper mode once the bin count has been clamped
            # to 2 (laptop-scale degrees): the literal Definition 3.1
            # conditions are tighter than the analysis assumes, so a small
            # fraction of structurally-bad nodes is tolerated; they are
            # deferred to G_0 exactly like probabilistically-bad nodes.
            return max(4.0, 0.01 * global_nodes, literal)
        return max(1.0, literal)

