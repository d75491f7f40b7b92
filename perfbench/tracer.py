"""Outside-in tracer: spans around the public entry point of each layer.

The program under test is not instrumented.  :class:`Tracer` replaces each
entry point *where the caller looks it up* (a class attribute, or the name a
driver module imported) with a wrapper that records one span per call:
``(name, start, end, parent)``.  Spans stay in memory; :meth:`Tracer.layers`
reduces them when the solve is over.  A layer's self time is its spans'
durations minus the part covered by their child spans; the process is
single-threaded where the wrappers run, so spans nest strictly and a
parent's coverage is the sum of its direct children.

Every patch is undone by :meth:`Tracer.restore` (also on error), so a
traced child process leaves the library exactly as it found it.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

# (span name, module, attribute path) — the attribute is patched on the
# object the callers resolve it from at call time.
WRAPS: Tuple[Tuple[str, str, str], ...] = (
    ("graph.build", "repro.graph.graph", "Graph.from_edges"),
    ("graph.csr", "repro.graph.graph", "Graph.csr"),
    ("graph.extract", "repro.graph.graph", "Graph.induced_subgraphs"),
    ("palettes.build", "repro.graph.palettes", "PaletteAssignment.delta_plus_one"),
    ("palettes.build", "repro.graph.palettes", "PaletteAssignment.from_lists"),
    ("palettes.store", "repro.graph.palettes", "PaletteAssignment.store"),
    ("palettes.copy", "repro.graph.palettes", "PaletteAssignment.copy"),
    ("palettes.update", "repro.graph.palettes",
     "PaletteAssignment.remove_colors_used_by_neighbors_batch"),
    ("palettes.update", "repro.graph.palettes", "PaletteAssignment.subset_updated"),
    ("validate.palettes", "repro.graph.palettes", "PaletteAssignment.validate_for_graph"),
    ("derand.select", "repro.derand.conditional_expectation", "HashPairSelector.select"),
    ("derand.partition", "repro.core.partition", "Partition.run"),
    ("classify.selected", "repro.core.classification",
     "PartitionCostEvaluator.classify_selected"),
    ("level.prefetch", "repro.core.color_reduce", "prefetch_partition_level"),
    ("level.prefetch", "repro.core.low_space.color_reduce", "prefetch_low_space_level"),
    ("lowspace.partition", "repro.core.low_space.partition", "LowSpacePartition.run"),
    ("lowspace.outcome", "repro.core.low_space.machine_sets",
     "LowSpaceCostEvaluator.outcome_selected"),
    ("lowspace.mis", "repro.core.low_space.color_reduce", "color_via_mis"),
    ("local.greedy", "repro.core.color_reduce", "greedy_list_coloring"),
    ("validate.final", "repro.core.color_reduce", "assert_valid_list_coloring"),
    ("validate.final", "repro.core.low_space.color_reduce", "assert_valid_list_coloring"),
    ("runtime.fingerprint", "repro.runtime.checkpoint", "fingerprint_instance"),
    ("runtime.ckpt_write", "repro.runtime.checkpoint", "write_checkpoint"),
    ("parallel.pool_start", "repro.parallel.executor", "get_executor"),
    ("parallel.score_slab", "repro.parallel.executor", "SlabExecutor.score_slab"),
    ("parallel.run_phase", "repro.parallel.executor", "SlabExecutor.run_phase"),
    ("parallel.publish", "repro.parallel.slabs", "publish_evaluator"),
)


class Tracer:
    """Records spans around the :data:`WRAPS` entry points of one process."""

    def __init__(self) -> None:
        # span = [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self.counters: Dict[str, int] = {}
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        try:
            for name, module_name, path in WRAPS:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                self._patch(owner, attr, name)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def bump(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def _patch(self, owner, attr: str, name: str) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, name))
        else:
            wrapped = self._wrap(raw, name)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _wrap(self, func: Callable, name: str) -> Callable:
        spans, stack = self.spans, self._stack
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    # ------------------------------------------------------------------
    def layers(self, window: Tuple[float, float]) -> Dict[str, float]:
        """Per-span self time and call counts, plus the window's coverage.

        ``window`` is the traced solve's ``(start, end)``; spans are
        reduced over the whole process (set-up spans included), while
        ``covered_s`` sums only the solve's top-level spans.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = {}
        covered = 0.0
        for (name, start, end, parent), children in zip(self.spans, child_time):
            out[name + "_s"] = out.get(name + "_s", 0.0) + (end - start - children)
            out[name + "_calls"] = out.get(name + "_calls", 0) + 1
            if parent < 0 and window[0] <= start and end <= window[1]:
                covered += end - start
        out["covered_s"] = covered
        out.update(self.counters)
        return out


# ----------------------------------------------------------------------
# work counters read at the same boundaries as the spans
# ----------------------------------------------------------------------
def _count_selection(tracer: Tracer, args, kwargs, outcome) -> None:
    tracer.bump("derand.candidates", int(outcome.evaluations))


def _count_prefetched(tracer: Tracer, args, kwargs, result) -> None:
    from repro.core.level import CachedPairCost

    if isinstance(kwargs.get("cost"), CachedPairCost):
        tracer.bump("level.prefetched_partitions")


def _count_greedy(tracer: Tracer, args, kwargs, coloring) -> None:
    tracer.bump("local.greedy_nodes", len(coloring))


def _count_checkpoint(tracer: Tracer, args, kwargs, size) -> None:
    tracer.bump("runtime.ckpt_bytes", int(size))


_OBSERVERS: Dict[str, Optional[Callable]] = {
    "derand.select": _count_selection,
    "derand.partition": _count_prefetched,
    "lowspace.partition": _count_prefetched,
    "local.greedy": _count_greedy,
    "runtime.ckpt_write": _count_checkpoint,
}
