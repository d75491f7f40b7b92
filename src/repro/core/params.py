"""Numeric parameters of ``ColorReduce`` / ``Partition``.

The paper fixes concrete exponents:

* the node/color hash functions map into ``l^0.1`` bins (the last bin
  receives no colors),
* the degree slack in the good-node condition is ``l^0.6``,
* the palette slack is ``l^0.7``,
* the next level's degree proxy is ``l' = l^0.9 - l^0.6``,
* a good bin has fewer than ``2 n_G l^-0.1 + n^0.6`` nodes,
* an instance of size ``O(n)`` is collected onto a single machine.

:class:`ColorReduceParameters` carries these, with two modes:

``paper mode`` (default)
    Exactly the exponents above.  On laptop-size graphs ``l^0.1`` is 1 or 2,
    so the recursion bottoms out immediately — the correct behaviour, but it
    does not exercise the recursive machinery.

``scaled mode`` (:meth:`ColorReduceParameters.scaled`)
    The number of bins and the slack terms are set explicitly so that
    multi-level recursion, palette splitting, leftover-bin coloring and
    bad-node handling all run on graphs with a few thousand nodes.  The
    control flow is identical; only the thresholds change.  DESIGN.md
    documents this as a substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.derand.conditional_expectation import SelectionStrategy
from repro.errors import ConfigurationError


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
        Score all sibling bins' head candidate batches in one segmented
        cross-bin pass per recursion level (:mod:`repro.core.level`) instead
        of each bin's own head scoring; bit-identical outcomes either way.
        Only engaged with single-process ``FIRST_FEASIBLE`` selection.
    checkpoint_path / resume_path / checkpoint_every_levels:
        Run-level durability (:mod:`repro.runtime`): periodically write the
        completed-subtree frontier to ``checkpoint_path`` (atomic rename;
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
    """All numeric knobs of the partitioning recursion.

    Attributes
    ----------
    bin_exponent:
        Bins per level are ``floor(l ** bin_exponent)`` (paper: 0.1).
    degree_slack_exponent:
        The good-node degree condition allows deviation ``l ** 0.6``.
    palette_slack_exponent:
        The good-node palette condition requires surplus ``l ** 0.7``.
    ell_decay_exponent:
        ``l' = l ** 0.9 - l ** 0.6`` (paper: 0.9 with the 0.6 correction).
    bin_cap_slack_exponent:
        A good bin has fewer than ``2 n_G / B + n ** 0.6`` nodes (paper: 0.6,
        in terms of the global ``n``).
    collect_factor:
        Instances of size at most ``collect_factor * n`` (nodes + edges,
        ``n`` the *global* node count) are collected and colored locally —
        the paper's "size O(n)" base case.
    independence:
        The ``c``-wise independence of the hash families (even, >= 4).
    max_recursion_depth:
        Safety cap; Lemma 3.14 shows depth 9 suffices with paper exponents.
    num_bins_override:
        Scaled mode: use exactly this many bins per level regardless of ``l``.
    degree_slack_override / palette_slack_override / bin_cap_slack_override:
        Scaled mode: absolute slack values replacing the ``l ** e`` terms.
    min_ell:
        Recursion on a sub-instance stops refining ``l`` below this value.
    selection_strategy:
        How the hash pair is chosen (see :mod:`repro.derand`).
    selection_chunk_bits / selection_rng_seed:
        Knobs forwarded to :class:`repro.derand.HashPairSelector`.
    enforce_palette_surplus:
        If True (default), any node whose restricted palette does not exceed
        its in-bin degree is reclassified as bad.  With the paper exponents
        this is implied by the invariant (Lemma 3.2); enforcing it explicitly
        keeps the scaled mode unconditionally correct.

    The selection, worker-pool, level-prefetch and durability knobs are
    inherited from :class:`RunParameters`.
    """

    bin_exponent: float = 0.1
    degree_slack_exponent: float = 0.6
    palette_slack_exponent: float = 0.7
    ell_decay_exponent: float = 0.9
    bin_cap_slack_exponent: float = 0.6
    collect_factor: float = 4.0
    independence: int = 4
    max_recursion_depth: int = 12
    num_bins_override: Optional[int] = None
    degree_slack_override: Optional[float] = None
    palette_slack_override: Optional[float] = None
    bin_cap_slack_override: Optional[float] = None
    min_ell: int = 2
    selection_strategy: SelectionStrategy = SelectionStrategy.FIRST_FEASIBLE
    selection_chunk_bits: int = 4
    selection_rng_seed: int = 0
    enforce_palette_surplus: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.bin_exponent < 1.0:
            raise ConfigurationError("bin_exponent must be in (0, 1)")
        if self.independence < 4 or self.independence % 2 != 0:
            raise ConfigurationError("independence must be an even integer >= 4")
        if self.collect_factor <= 0:
            raise ConfigurationError("collect_factor must be positive")
        if self.num_bins_override is not None and self.num_bins_override < 2:
            raise ConfigurationError("num_bins_override must be at least 2")
        if self.min_ell < 1:
            raise ConfigurationError("min_ell must be at least 1")
        if self.selection_chunk_bits < 1:
            raise ConfigurationError("selection_chunk_bits must be positive")
        super().__post_init__()

    # ------------------------------------------------------------------
    # alternate constructors
    # ------------------------------------------------------------------
    @classmethod
    def paper(cls, **overrides) -> "ColorReduceParameters":
        """The paper's exact exponents (the default construction)."""
        return cls(**overrides)

    @classmethod
    def scaled(
        cls,
        num_bins: int,
        *,
        degree_slack: Optional[float] = None,
        palette_slack: Optional[float] = None,
        bin_cap_slack: Optional[float] = None,
        collect_factor: float = 1.5,
        **overrides,
    ) -> "ColorReduceParameters":
        """Parameters that exercise multi-level recursion on small graphs.

        ``num_bins`` fixes the per-level bin count (the paper's ``l^0.1``).
        The slack overrides replace the ``l^0.6`` / ``l^0.7`` / ``n^0.6``
        terms; when omitted, concentration-scale defaults are used (a few
        standard deviations of the corresponding binomial), which keeps the
        good-node conditions satisfiable on graphs with a few hundred to a
        few thousand nodes.
        """
        return cls(
            num_bins_override=num_bins,
            degree_slack_override=degree_slack,
            palette_slack_override=palette_slack,
            bin_cap_slack_override=bin_cap_slack,
            collect_factor=collect_factor,
            **overrides,
        )

    def with_strategy(self, strategy: SelectionStrategy) -> "ColorReduceParameters":
        """A copy using a different hash-selection strategy."""
        return replace(self, selection_strategy=strategy)

    @property
    def is_scaled(self) -> bool:
        """Whether any paper exponent has been replaced by an explicit value."""
        return any(
            override is not None
            for override in (
                self.num_bins_override,
                self.degree_slack_override,
                self.palette_slack_override,
                self.bin_cap_slack_override,
            )
        )

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
        if self.num_bins_override is not None:
            return max(2, min(self.num_bins_override, int(math.floor(ell ** (1.0 / 3.0)))))
        return max(2, int(math.floor(ell**self.bin_exponent)))

    def degree_slack(self, ell: float) -> float:
        """The additive degree slack in Definition 3.1 (paper: ``l^0.6``).

        Scaled mode without an explicit override uses three standard
        deviations of the in-bin degree (a binomial with mean ``l / B``),
        which is the quantity the ``l^0.6`` term dominates in the paper's
        regime.
        """
        if self.degree_slack_override is not None:
            return self.degree_slack_override
        if self.num_bins_override is not None:
            bins = self.num_bins_override
            return 3.0 * math.sqrt(max(ell, 1.0) / bins) + 1.0
        return ell**self.degree_slack_exponent

    def palette_slack(self, ell: float) -> float:
        """The additive palette surplus in Definition 3.1 (paper: ``l^0.7``).

        In scaled mode the surplus must stay below the
        ``p / (B (B - 1))`` margin between the expected in-bin palette size
        (colors are spread over ``B - 1`` bins) and the ``p / B`` reference
        in the good-node condition; a constant 1 keeps the condition
        satisfiable while still demanding a strict surplus.
        """
        if self.palette_slack_override is not None:
            return self.palette_slack_override
        if self.num_bins_override is not None:
            return 1.0
        return ell**self.palette_slack_exponent

    def bin_cap(self, ell: float, instance_nodes: int, global_nodes: int) -> float:
        """The good-bin size cap: ``2 n_G / B + n^0.6`` (Definition 3.1)."""
        bins = self.num_bins(ell)
        if self.bin_cap_slack_override is not None:
            slack = self.bin_cap_slack_override
        elif self.num_bins_override is not None:
            slack = 4.0 * math.sqrt(max(instance_nodes, 1) / bins) + 1.0
        else:
            slack = global_nodes**self.bin_cap_slack_exponent
        return 2.0 * instance_nodes / bins + slack

    def bins_are_clamped(self, ell: float) -> bool:
        """Whether ``floor(l^0.1)`` fell below 2 and was clamped (paper mode).

        The paper assumes ``l`` is at least a large constant, so ``l^0.1``
        bins are meaningful; on laptop-scale degrees the exponent yields a
        single bin and the implementation clamps to 2.  Downstream code uses
        this flag to know the literal Lemma 3.2/3.11 arithmetic does not
        apply at this level.
        """
        if self.num_bins_override is not None:
            return False
        return int(math.floor(ell**self.bin_exponent)) < 2

    def next_ell(self, ell: float) -> float:
        """The next level's degree proxy ``l'``.

        Paper mode with unclamped bins: the literal ``l' = l^0.9 - l^0.6``
        (note ``l^0.9 = l / l^0.1``).  Scaled mode, or paper mode with the
        bin count clamped to 2: the same structural quantity ``l / B`` minus
        the degree slack.
        """
        bins = self.num_bins(ell)
        if self.num_bins_override is None and not self.bins_are_clamped(ell):
            candidate = ell**self.ell_decay_exponent - ell**self.degree_slack_exponent
        else:
            candidate = ell / bins - self.degree_slack(ell)
        return max(float(self.min_ell), candidate)

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
        if self.is_scaled or self.bins_are_clamped(ell):
            # Scaled mode, or paper mode once the bin count has been clamped
            # to 2 (laptop-scale degrees): the literal Definition 3.1
            # conditions are tighter than the analysis assumes, so a small
            # fraction of structurally-bad nodes is tolerated; they are
            # deferred to G_0 exactly like probabilistically-bad nodes.
            return max(4.0, 0.01 * global_nodes, literal)
        return max(1.0, literal)

