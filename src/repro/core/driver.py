"""The recursion skeleton shared by ``ColorReduce`` and ``LowSpaceColorReduce``.

Algorithm 1 and Algorithms 3/4 have one shape:

    G_0, G_1, ..., G_B <- partition(G)
    for each color bin G_i (0 < i < B), in parallel: recurse on G_i
    update the palettes of the leftover bin G_B, recurse on it
    update the palettes of G_0, finish G_0

:class:`RecursionDriver` writes that walk once, together with what every
call of it needs: the run scaffolding (palette validation, durability, the
pool-health delta), the durability wrapper of each call (guard polls,
restore by salt, subtree recording), the best-effort level prefetch of the
color bins' head pairs, and the round accounting of the descent (color
bins merged in parallel, the leftover bin and ``G_0`` sequentially).  A
pipeline subclasses it and supplies only its own steps:

* :meth:`~RecursionDriver._new_node` — its recursion-tree record;
* :meth:`~RecursionDriver._base_case` — its base-case or depth-cap test;
* :meth:`~RecursionDriver._partition` — its partition call and its charges;
* :meth:`~RecursionDriver._palette_update_rounds` — the price of a palette
  update;
* :meth:`~RecursionDriver._recurses` — whether a child recurses or is
  finished directly;
* :meth:`~RecursionDriver._finish` — how ``G_0`` (and a non-recursing
  child) is colored;
* :meth:`~RecursionDriver._will_partition` and
  :meth:`~RecursionDriver._prefetch` — the level prefetch.

The hooks call the greedy coloring, the MIS reduction, the level prefetch
and (in ``run``) the final validation from the pipelines' own modules,
through those modules' globals: instrumentation and the scalar test oracle
patch these names where the drivers look them up.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Optional

from repro.accounting import CostLedger, PoolHealth, RunDurability
from repro.core.level import LEVEL_PREFETCH_MIN_SIZE
from repro.derand.conditional_expectation import _mix64
from repro.graph.palettes import RunColoring, canonical_instance, position_instance

#: Multiplier decorrelating parent salt from child ordinals (same odd
#: constant the selector uses to fold ``rng_seed`` with its salt).
_SALT_STRIDE = 1_000_003


def child_salt(parent_salt: int, ordinal: int) -> int:
    """Deterministic salt of a child instance from its parent's salt.

    A call's salt is its positional identity in the recursion: the root is
    1, and ``ordinal`` is the child's position within its level (its bin
    index).  The value depends only on the path from the root — never on
    sibling subtree sizes — so a level prefetch can compute every child's
    salt before any child recursion runs, and a checkpoint can key a
    subtree's results by it.
    """
    return _mix64(parent_salt * _SALT_STRIDE + ordinal + 1)


def prepare_palettes(graph, palettes):
    """Validate the palettes, then return the run's canonical instance.

    Validates against the input as given, and returns ``(graph,
    palettes)`` in sorted node order
    (:func:`~repro.graph.palettes.canonical_instance`) — a no-op for the
    generators' and the array constructors' sorted ids.
    """
    palettes.validate_for_graph(graph)
    return canonical_instance(graph, palettes)


@dataclass
class RunState:
    """Mutable bookkeeping threaded through one run of either pipeline."""

    #: The cost model the pipeline charges: an
    #: :class:`~repro.core.context.ExecutionContext` (``ColorReduce``) or
    #: an :class:`~repro.mpc.model.MPCSimulator` (``LowSpaceColorReduce``).
    model: object
    global_nodes: int
    #: Plain (Δ+1)-coloring: palettes are never shipped (Theorem 1.3).
    palettes_are_implicit: bool = False
    total_bad_nodes: int = 0
    total_invariant_violations: int = 0
    #: The run's :class:`repro.runtime.durability.DurableRun`, or ``None``
    #: when no durability knob is set (the recursion then bypasses the
    #: durability layer entirely).
    durable: Optional[object] = None
    #: The run coloring, by root position: every leaf paints its slots.
    coloring: Optional[RunColoring] = None

    @property
    def poll(self):
        """The durability poll a partition runs at its phase boundaries."""
        return self.durable.poll if self.durable is not None else None


class RecursionDriver:
    """Partition, recurse on the bins, finish ``G_0`` — for either pipeline.

    ``ell`` is ``ColorReduce``'s degree proxy ``l``; the low-space pipeline
    has none and passes ``None`` through.
    """

    #: Algorithm name bound into checkpoint headers.
    ALGORITHM = ""

    # ------------------------------------------------------------------
    # run scaffolding
    # ------------------------------------------------------------------
    def _walk(self, graph, palettes, ell, state: RunState):
        """Run the whole recursion from the root (salt 1).

        ``graph`` and ``palettes`` are the canonical instance
        (:func:`prepare_palettes`).  The recursion runs on its position
        form (:func:`~repro.graph.palettes.position_instance`): nodes are
        root positions inside, and the original ids come back only in the
        returned coloring.  Builds the run's durability state (when a knob
        is set) and measures the worker pool's recovery events over the
        walk.  Returns ``(coloring, ledger, tree, pool_health,
        durability)``.
        """
        params = self.params
        durable = None
        if params.durability_enabled():
            from repro.runtime.durability import DurableRun

            durable = DurableRun.from_params(
                params, self.ALGORITHM, graph, palettes, state.global_nodes
            )
        state.durable = durable
        health_baseline = None
        if params.parallel_workers > 1:
            from repro.parallel.executor import pool_health

            health_baseline = pool_health()
        root, root_palettes = position_instance(graph, palettes.copy())
        state.coloring = RunColoring(root.num_nodes)
        with durable.active() if durable is not None else contextlib.nullcontext():
            ledger, tree = self._recurse(root, root_palettes, ell, 0, state, salt=1)
        coloring = state.coloring.to_dict(root.csr().hash_keys)
        run_health = (
            PoolHealth() if health_baseline is None else pool_health().delta(health_baseline)
        )
        durability = durable.telemetry if durable is not None else RunDurability()
        return coloring, ledger, tree, run_health, durability

    # ------------------------------------------------------------------
    # the recursion
    # ------------------------------------------------------------------
    def _recurse(self, graph, palettes, ell, depth, state: RunState, salt, prefetched=None):
        """One call of the recursion, through the durability layer.

        Returns ``(ledger, tree node)``; the call's nodes are painted into
        ``state.coloring``.  Without durability knobs this is a
        zero-overhead passthrough to :meth:`_reduce`.  With them, every
        entry polls the guardrails and the signal flag, a salt with a
        checkpointed entry is *restored* (its recorded colors are painted
        and its ledger copy and tree node returned without recomputing —
        deterministic replay makes this bit-identical), and every
        completed shallow subtree is *recorded* into the checkpoint
        frontier: its nodes' root positions and colors as two arrays.
        """
        durable = state.durable
        if durable is None:
            return self._reduce(graph, palettes, ell, depth, state, salt, prefetched)
        durable.poll()
        entry = durable.restored(salt)
        if entry is not None:
            state.coloring.paint(entry["nodes"], entry["colors"])
            state.total_bad_nodes += entry["bad_nodes"]
            state.total_invariant_violations += entry["violations"]
            return entry["ledger"].copy(), entry["tree"]
        before_bad = state.total_bad_nodes
        before_violations = state.total_invariant_violations
        durable.enter(salt)
        try:
            ledger, node = self._reduce(
                graph, palettes, ell, depth, state, salt, prefetched
            )
        finally:
            durable.exit(salt)
        nodes = graph.csr().node_ids
        durable.completed(
            salt,
            depth,
            lambda: {
                "nodes": nodes,
                "colors": state.coloring.colors[nodes],
                "ledger": ledger.copy(),
                "tree": node,
                "bad_nodes": state.total_bad_nodes - before_bad,
                "violations": state.total_invariant_violations - before_violations,
            },
        )
        return ledger, node

    def _reduce(self, graph, palettes, ell, depth, state: RunState, salt, prefetched):
        """One node of the recursion.

        ``salt`` is the call's positional identity (:func:`child_salt`).
        ``prefetched`` carries this instance's
        :class:`~repro.core.level.CachedPairCost` when the parent's level
        prefetch scored its head pair.
        """
        ledger = CostLedger()
        node = self._new_node(graph, ell, depth)
        if self._base_case(graph, palettes, ell, depth, ledger, node, state):
            return ledger, node
        partition, g0, child_ell = self._partition(
            graph, palettes, ell, ledger, node, state, salt, prefetched
        )
        prefetched_costs = self._prefetch_level(
            graph, partition, child_ell, depth + 1, state, salt
        )
        coloring = state.coloring

        # --- color bins recurse in parallel ---------------------------------
        parallel_ledger: Optional[CostLedger] = None
        for bin_instance in partition.color_bins:
            if bin_instance.is_empty:
                continue
            child_ledger = self._descend(
                graph,
                bin_instance,
                child_ell,
                depth + 1,
                node,
                state,
                child_salt(salt, bin_instance.bin_index),
                prefetched_costs.get(bin_instance.bin_index),
            )
            if parallel_ledger is None:
                parallel_ledger = child_ledger
            else:
                parallel_ledger.merge_parallel(child_ledger)
        if parallel_ledger is not None:
            ledger.merge_sequential(parallel_ledger)

        # --- leftover bin: update palettes, then recurse ---------------------
        leftover = partition.leftover
        if not leftover.is_empty:
            removed = leftover.palettes.remove_colors_used_by_neighbors_batch(
                graph, coloring
            )
            update_rounds = self._palette_update_rounds(removed, state)
            ledger.charge("palette-update", update_rounds, removed)
            child_ledger = self._descend(
                graph,
                leftover,
                child_ell,
                depth + 1,
                node,
                state,
                child_salt(salt, partition.num_bins - 1),
            )
            ledger.merge_sequential(child_ledger)

        # --- G_0: update palettes, then finish -------------------------------
        if g0.num_nodes > 0:
            g0_palettes, removed = palettes.subset_updated(
                g0.csr().node_ids, graph, coloring
            )
            update_rounds = self._palette_update_rounds(removed, state)
            ledger.charge("palette-update", update_rounds, removed)
            self._finish(g0, g0_palettes, ledger, node, state)

        return ledger, node

    def _descend(
        self, parent, child, ell, depth, node, state: RunState, salt, prefetched=None
    ):
        """Recurse on one bin, or finish it directly; returns its ledger."""
        if self._recurses(parent, child.graph):
            ledger, child_node = self._recurse(
                child.graph, child.palettes, ell, depth, state, salt, prefetched
            )
            node.children.append(child_node)
            return ledger
        ledger = CostLedger()
        self._finish(child.graph, child.palettes, ledger, node, state)
        return ledger

    def _prefetch_level(
        self, parent, partition, ell, depth, state: RunState, salt
    ) -> Dict[int, object]:
        """Score every recursing color bin's head pair in one segmented pass.

        Best-effort (:mod:`repro.core.level`): a failure, or a bin the
        :meth:`_will_partition` predicate mispredicts, falls back to the
        per-bin evaluator inside the child's partition call, with
        bit-identical selections either way.
        """
        durable = state.durable
        if not self._level_prefetch_enabled() or (
            durable is not None and not durable.prefetch_allowed
        ):
            return {}
        eligible = [
            (
                bin_instance.bin_index,
                child_salt(salt, bin_instance.bin_index),
                bin_instance.graph,
                bin_instance.palettes,
            )
            for bin_instance in partition.color_bins
            if bin_instance.graph.size() >= LEVEL_PREFETCH_MIN_SIZE
            and self._recurses(parent, bin_instance.graph)
            and self._will_partition(bin_instance.graph, bin_instance.palettes, depth, state)
            # A bin whose subtree will be restored from the checkpoint
            # never reaches its partition call — don't score it.
            and (durable is None or not durable.has(child_salt(salt, bin_instance.bin_index)))
        ]
        if not eligible:
            return {}
        try:
            return self._prefetch(eligible, ell, state)
        except Exception:  # pragma: no cover - prefetch is best-effort
            return {}

    def _level_prefetch_enabled(self) -> bool:
        """Whether the cross-bin level prefetch applies under these params.

        The segmented pass reproduces the head probes of the
        single-process ``FIRST_FEASIBLE`` selection; multiprocess scoring
        keeps the per-bin route.
        """
        return self.params.level_use_batch and self.params.parallel_workers == 1

    # ------------------------------------------------------------------
    # pipeline hooks
    # ------------------------------------------------------------------
    def _new_node(self, graph, ell, depth):
        """The recursion-tree record of one call (before partitioning)."""
        raise NotImplementedError

    def _base_case(self, graph, palettes, ell, depth, ledger, node, state) -> bool:
        """Color the instance without partitioning it (painting
        ``state.coloring``), or return ``False``."""
        raise NotImplementedError

    def _partition(self, graph, palettes, ell, ledger, node, state, salt, prefetched):
        """Partition the instance (forwarding ``prefetched`` as ``cost=``).

        Returns ``(partition, g0, child_ell)``: the partition result (its
        ``color_bins``, ``leftover`` and ``num_bins``), the ``G_0`` graph and
        the ``ell`` the children recurse with.
        """
        raise NotImplementedError

    def _palette_update_rounds(self, removed: int, state: RunState) -> int:
        """Rounds charged for a palette update that removed ``removed`` entries."""
        raise NotImplementedError

    def _recurses(self, parent, child) -> bool:
        """Whether a non-empty child bin recurses (else :meth:`_finish` colors it)."""
        return True

    def _finish(self, graph, palettes, ledger, node, state) -> None:
        """Color ``G_0`` (or a non-recursing child) into ``state.coloring``,
        charging into ``ledger``."""
        raise NotImplementedError

    def _will_partition(self, graph, palettes, depth, state) -> bool:
        """Whether a recursing child at ``depth`` will reach its partition call."""
        raise NotImplementedError

    def _prefetch(self, eligible, ell, state):
        """The pipeline's level prefetch over ``(key, salt, graph, palettes)`` rows."""
        raise NotImplementedError
