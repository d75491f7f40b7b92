"""Vectorized (batched) evaluation of the polynomial hash families.

The derandomized seed search evaluates a degree-``(k-1)`` polynomial over
``F_p`` *per node, per candidate seed* — the dominant cost of every
experiment.  The computation is embarrassingly data-parallel: for a batch of
``S`` candidate seeds (coefficient vectors) and ``m`` inputs, all ``S * m``
hash values are one Horner recurrence over a ``(S, m)`` array.  This module
provides that kernel; :class:`repro.hashing.family.HashFunction.hash_many`
and :meth:`repro.hashing.family.KWiseIndependentFamily.hash_candidates` are
the object-level entry points, and the batched cost evaluators in
:mod:`repro.core.classification` / :mod:`repro.core.low_space.machine_sets`
build on it.

Substitution rule (scalar vs. batch)
------------------------------------
The batch kernels are *exact* drop-in replacements for the scalar path: for
any coefficients, inputs and prime they return bit-identical values to
:func:`repro.hashing.field.evaluate_polynomial` (and therefore identical
bins after range reduction).  Two arithmetic regimes make this work:

* ``p < 2**31`` — every Horner step computes ``acc * x + c <= (p-1) * p``
  which fits in ``int64``; the kernel runs on ``int64`` arrays.
* larger primes (notably the Mersenne prime ``2**61 - 1``) — ``int64``
  would overflow, so the kernel switches to ``object``-dtype arrays of
  Python ints: still one vectorized Horner recurrence per coefficient, with
  exact arbitrary-precision arithmetic.

Every batched consumer in this repository asserts equivalence against the
scalar reference in ``tests/test_batch_kernels.py``.

:class:`BatchCostEvaluatorBase` (bottom of this module) carries the
slab/cache scaffolding shared by the two batched cost evaluators —
Equation (1)'s :class:`repro.core.classification.PartitionCostEvaluator`
and Equation (2)'s
:class:`repro.core.low_space.machine_sets.LowSpaceCostEvaluator` — so the
staleness handling, slab sizing and per-family input caches cannot drift
apart.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import HashFamilyError

#: Largest prime for which the int64 Horner step cannot overflow:
#: ``acc * x + c <= (p - 1) * p < 2**62`` requires ``p < 2**31``.
INT64_SAFE_PRIME = 1 << 31

ArrayLike = Union[Sequence[int], np.ndarray]


def _as_input_array(xs: ArrayLike, prime: int) -> np.ndarray:
    """Inputs as a 1-D array reduced mod ``prime`` (int64 or object)."""
    dtype = np.int64 if prime < INT64_SAFE_PRIME else object
    arr = np.atleast_1d(np.asarray(xs, dtype=dtype))
    return arr % prime


def evaluate_polynomial_many(
    coefficients: ArrayLike, xs: ArrayLike, prime: int
) -> np.ndarray:
    """Vectorized Horner evaluation of one or many polynomials over ``F_p``.

    Parameters
    ----------
    coefficients:
        Either a single coefficient vector of shape ``(k,)`` (constant term
        first, matching :func:`repro.hashing.field.evaluate_polynomial`) or a
        matrix of shape ``(num_seeds, k)`` holding one candidate seed's
        coefficients per row.
    xs:
        Evaluation points, shape ``(m,)``.
    prime:
        The field modulus.

    Returns
    -------
    ``(m,)`` array for a single coefficient vector, ``(num_seeds, m)``
    matrix otherwise; entries equal ``evaluate_polynomial(coeffs, x, prime)``
    exactly.
    """
    if prime < 2:
        raise HashFamilyError("prime must be at least 2")
    exact = prime >= INT64_SAFE_PRIME
    dtype = object if exact else np.int64
    # Reduce coefficients mod p with exact (object) arithmetic before
    # narrowing: like the scalar reference, unreduced coefficients — even
    # ones beyond int64 — must not overflow the Horner step.  Coefficient
    # matrices are tiny ((num_seeds, k)), so the object pass is cheap.
    coeffs = (np.asarray(coefficients, dtype=object) % prime).astype(dtype)
    if coeffs.ndim not in (1, 2):
        raise HashFamilyError(
            f"coefficients must be 1- or 2-dimensional, got shape {coeffs.shape}"
        )
    single = coeffs.ndim == 1
    if single:
        coeffs = coeffs.reshape(1, -1)
    points = _as_input_array(xs, prime)
    num_seeds, degree_plus_one = coeffs.shape
    if degree_plus_one == 0:
        zeros = np.zeros((num_seeds, points.shape[0]), dtype=dtype)
        return zeros[0] if single else zeros
    # Horner, highest-degree coefficient first; one (S, m) multiply-add per
    # coefficient, reduced mod p at every step so int64 never overflows.
    acc = np.broadcast_to(
        coeffs[:, degree_plus_one - 1].reshape(num_seeds, 1) % prime,
        (num_seeds, points.shape[0]),
    ).copy()
    for index in range(degree_plus_one - 2, -1, -1):
        acc = (acc * points + coeffs[:, index].reshape(num_seeds, 1)) % prime
    return acc[0] if single else acc


def range_reduce_many(values: np.ndarray, range_size: int, prime: int) -> np.ndarray:
    """Interval range reduction ``(value * range_size) // prime``, vectorized.

    ``values`` is any array of field values (``(m,)`` or ``(num_seeds, m)``
    — the shape is preserved); entries land in ``[0, range_size)``.
    Scalar reference: the range-reduction step of
    :meth:`repro.hashing.family.HashFunction.__call__`, matched exactly; for
    ``prime < 2**31`` the product stays below ``2**62`` so int64 suffices,
    otherwise the values are already ``object`` dtype (exact Python ints).
    """
    reduced = (values * range_size) // prime
    if reduced.dtype == object:
        return np.asarray(reduced.tolist(), dtype=np.int64).reshape(reduced.shape)
    return reduced


def hash_many(
    coefficients: ArrayLike,
    xs: ArrayLike,
    prime: int,
    range_size: int,
) -> np.ndarray:
    """Hash all ``xs`` into ``[range_size]``: evaluation plus range reduction.

    Shapes follow :func:`evaluate_polynomial_many`: ``(m,)`` for a single
    ``(k,)`` coefficient vector, ``(num_seeds, m)`` for a coefficient
    matrix.  Scalar reference:
    :meth:`repro.hashing.family.HashFunction.__call__` — every entry equals
    ``HashFunction(...)(x)`` exactly (inputs must already be reduced into
    the domain, as the object-level wrappers
    :meth:`~repro.hashing.family.HashFunction.hash_many` /
    :meth:`~repro.hashing.family.KWiseIndependentFamily.hash_candidates`
    do).
    """
    return range_reduce_many(
        evaluate_polynomial_many(coefficients, xs, prime), range_size, prime
    )


def hash_bins(
    coefficients: ArrayLike,
    xs: ArrayLike,
    prime: int,
    range_size: int,
    num_bins: int,
) -> np.ndarray:
    """Candidate-by-input bin matrix, reduced ``% num_bins`` and narrowed.

    Shape ``(num_seeds, num_xs)`` (or ``(num_xs,)`` for a single
    coefficient vector).  The shared front half of both batched cost
    evaluators: vectorized hash into ``[range_size]``, the scalar paths'
    defensive ``% num_bins``, and dtype narrowing for the memory-bound
    gathers that follow.  Scalar reference: ``h(x % domain) % num_bins`` as
    computed by :func:`repro.core.classification.classify_partition` /
    :func:`repro.core.low_space.machine_sets.node_level_outcome`.
    """
    return narrow_bins(hash_many(coefficients, xs, prime, range_size) % num_bins, num_bins)


def narrow_bins(bins: np.ndarray, num_bins: int) -> np.ndarray:
    """Narrow a bin-label matrix to the smallest safe integer dtype.

    Shape-preserving; values must lie in ``[0, num_bins)``.  The cost
    kernels' gathers are memory-bound; int8 moves an eighth of the bytes of
    int64.  Shared by the Equation (1) and Equation (2) evaluators so the
    dtype thresholds cannot drift apart.  (Pure representation change — no
    scalar counterpart; bin values are unchanged.)
    """
    if num_bins < 127:
        return bins.astype(np.int8)
    if num_bins < 32767:
        return bins.astype(np.int16)
    return bins


def evaluate_polynomial_rows(
    coefficient_rows: Sequence[Sequence[int]],
    xs: ArrayLike,
    row_of_x: ArrayLike,
    primes: Sequence[int],
) -> np.ndarray:
    """Per-element Horner where each element picks its own row's polynomial.

    The segmented (cross-bin) counterpart of
    :func:`evaluate_polynomial_many`: ``coefficient_rows`` holds one
    coefficient vector per *row* (e.g. one sibling bin of a recursion
    level), ``primes`` the matching field modulus per row, and
    ``row_of_x[j]`` says which row element ``xs[j]`` belongs to.  All rows
    must share the same degree (the recursion uses one independence
    parameter per level).  Entry ``j`` of the result equals
    ``evaluate_polynomial(coefficient_rows[r], xs[j] % primes[r], primes[r])``
    for ``r = row_of_x[j]`` — bit-identical to evaluating each row
    separately with :func:`evaluate_polynomial_many`.

    A single arithmetic regime covers the whole call: int64 when *every*
    row's prime is below :data:`INT64_SAFE_PRIME`, exact ``object`` dtype
    otherwise (color-family primes scale like ``n**2`` and cross ``2**31``
    near ``n = 46341``, so mixed levels are the norm at scale).
    """
    primes_list = [int(prime) for prime in primes]
    if any(prime < 2 for prime in primes_list):
        raise HashFamilyError("prime must be at least 2")
    rows = np.asarray(row_of_x, dtype=np.int64)
    widths = {len(row) for row in coefficient_rows}
    if len(widths) > 1:
        raise HashFamilyError(
            f"coefficient rows must share one degree, got widths {sorted(widths)}"
        )
    exact = any(prime >= INT64_SAFE_PRIME for prime in primes_list)
    dtype = object if exact else np.int64
    primes_row = np.asarray(primes_list, dtype=dtype)
    # Reduce coefficients mod their own prime with exact (object) arithmetic
    # before narrowing, mirroring evaluate_polynomial_many.
    coeffs = (
        np.asarray([list(row) for row in coefficient_rows], dtype=object)
        % np.asarray(primes_list, dtype=object).reshape(-1, 1)
    ).astype(dtype)
    mods = primes_row[rows]
    points = np.atleast_1d(np.asarray(xs, dtype=dtype)) % mods
    degree_plus_one = coeffs.shape[1] if coeffs.size else 0
    if degree_plus_one == 0:
        return np.zeros(points.shape[0], dtype=dtype)
    acc = (coeffs[rows, degree_plus_one - 1] % mods).copy()
    for index in range(degree_plus_one - 2, -1, -1):
        acc = (acc * points + coeffs[rows, index]) % mods
    return acc


def hash_rows(
    functions: Sequence, xs: ArrayLike, row_of_x: ArrayLike
) -> np.ndarray:
    """Apply one :class:`~repro.hashing.family.HashFunction` per row to a
    row-tagged flat input array.

    ``functions[row_of_x[j]]`` hashes ``xs[j]``; inputs must already be
    reduced into each row's domain (as the per-child ``_cached_xs`` arrays
    of the cost evaluators are).  Scalar reference: entry ``j`` equals
    ``functions[row_of_x[j]](xs[j])`` exactly, so concatenating per-row
    :func:`hash_many` results in row order gives the same array.  Returns
    int64 regardless of the internal arithmetic regime.
    """
    primes = [fn.prime for fn in functions]
    values = evaluate_polynomial_rows(
        [fn.coefficients for fn in functions], xs, row_of_x, primes
    )
    dtype = object if values.dtype == object else np.int64
    rows = np.asarray(row_of_x, dtype=np.int64)
    ranges_row = np.asarray([fn.range_size for fn in functions], dtype=dtype)
    reduced = (values * ranges_row[rows]) // np.asarray(primes, dtype=dtype)[rows]
    if reduced.dtype == object:
        return np.asarray(
            [int(value) for value in reduced.tolist()], dtype=np.int64
        )
    return reduced


def rowwise_bincount(values: np.ndarray, num_values: int) -> np.ndarray:
    """Per-row histogram of a ``(num_rows, m)`` integer matrix.

    ``values`` has shape ``(num_rows, m)`` with entries in
    ``[0, num_values)``; the result has shape ``(num_rows, num_values)``
    and ``values[r, j]`` increments bucket ``result[r, values[r, j]]``.
    Implemented as a single flattened :func:`numpy.bincount` with per-row
    offsets — the scatter primitive the batched cost kernels use for bin
    sizes.  Scalar reference: one ``collections.Counter`` pass per row, as
    the per-node classification's ``bin_sizes`` accumulation does.
    (Segmented sums over the CSR layout use the faster
    :func:`segment_sum_rows` instead.)
    """
    if values.ndim != 2:
        raise HashFamilyError("values must be a 2-D matrix")
    num_rows, width = values.shape
    if width == 0:
        return np.zeros((num_rows, num_values), dtype=np.int64)
    offsets = (np.arange(num_rows, dtype=np.int64) * num_values).reshape(num_rows, 1)
    flat = (values + offsets).ravel()
    counts = np.bincount(flat, minlength=num_rows * num_values)
    return counts.reshape(num_rows, num_values).astype(np.int64)


def segment_mark_members(
    flat: np.ndarray,
    indptr: np.ndarray,
    query_values: np.ndarray,
    query_segments: np.ndarray,
    segment_of_entry: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Mark entries of a segment-sorted array hit by ``(segment, value)`` queries.

    ``flat`` holds one sorted run per segment (CSR-style ``indptr``,
    duplicates within a run not allowed); each query asks "does segment
    ``query_segments[j]`` contain ``query_values[j]``?".  Returns a boolean
    mask over ``flat`` with ``True`` exactly at the matched entries —
    duplicate queries mark the same entry once, and values absent from
    their segment mark nothing.

    The kernel encodes ``(segment, value)`` pairs as combined integer keys
    (segment-major, so the encoded ``flat`` stays globally sorted) and
    resolves every query with one :func:`numpy.searchsorted`.  This is the
    membership primitive behind the batched palette pruning
    (:meth:`repro.graph.palettes.PaletteAssignment.remove_colors_used_by_neighbors_batch`,
    its path for universes too large for a position table).  Scalar
    reference: one ``value in segment_set`` probe per query.
    ``segment_of_entry`` may
    pass the precomputed ``repeat(arange(num_segments), lengths)``
    expansion (callers holding a palette store get it cached).  If the
    combined key cannot fit int64 (astronomical color values), the
    per-query ``bisect`` path keeps the result exact.
    """
    total = int(flat.shape[0])
    mask = np.zeros(total, dtype=bool)
    if total == 0 or query_values.shape[0] == 0:
        return mask
    # Values outside the flat array's range cannot match; dropping them first
    # keeps the key span tight (and independent of outlandish query values).
    low = int(flat.min())
    high = int(flat.max())
    in_range = (query_values >= low) & (query_values <= high)
    if not bool(in_range.any()):
        return mask
    values = query_values[in_range]
    segments = query_segments[in_range]
    span = high - low + 1
    num_segments = int(indptr.shape[0]) - 1
    if num_segments * span < (1 << 62):
        if segment_of_entry is None:
            segment_of_entry = np.repeat(
                np.arange(num_segments, dtype=np.int64), indptr[1:] - indptr[:-1]
            )
        keys = segment_of_entry * span + (flat - low)
        query_keys = segments * span + (values - low)
        found = np.searchsorted(keys, query_keys)
        inside = found < total
        found = found[inside]
        hit = keys[found] == query_keys[inside]
        mask[found[hit]] = True
        return mask
    # Key-overflow fallback: exact per-query bisection (reachable only with
    # color spans near 2**62).
    import bisect

    flat_list = flat.tolist()
    bounds = indptr.tolist()
    for segment, value in zip(segments.tolist(), values.tolist()):
        start, end = bounds[segment], bounds[segment + 1]
        index = bisect.bisect_left(flat_list, value, start, end)
        if index < end and flat_list[index] == value:
            mask[index] = True
    return mask


def segment_sum_rows(matrix: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Sum contiguous column segments of a ``(num_rows, m)`` matrix, per row.

    ``indptr`` is a CSR-style boundary array of shape ``(n + 1,)`` with
    ``indptr[-1] == m``; the result has shape ``(num_rows, n)`` with
    ``result[r, i] == matrix[r, indptr[i]:indptr[i+1]].sum()``.

    This is the fast path for in-bin degree / in-bin palette counts: the CSR
    view lays out every node's incident edges (and palette entries)
    contiguously, so one :func:`numpy.add.reduceat` per batch replaces a
    Python loop over nodes.  ``np.add`` on bools is logical-or, so boolean
    input is reinterpreted as integers first: a free ``int8`` view when the
    longest segment is short enough not to overflow (the common case —
    segment sums are bounded by node degrees), otherwise a widening copy.
    Empty segments — where ``reduceat`` would echo a stray element instead
    of 0 — are zeroed explicitly.
    """
    num_rows, width = matrix.shape
    num_segments = indptr.shape[0] - 1
    if num_segments <= 0:
        return np.zeros((num_rows, 0), dtype=np.int64)
    if width == 0:
        return np.zeros((num_rows, num_segments), dtype=np.int64)
    summable = matrix
    if matrix.dtype == np.bool_:
        longest = int(np.max(indptr[1:] - indptr[:-1]))
        if longest < 127:
            summable = matrix.view(np.int8)
        elif longest < 32767:
            summable = matrix.astype(np.int16)
        else:
            summable = matrix.astype(np.int32)
    # ``reduceat`` mishandles empty segments (it echoes a stray element and
    # would shift its neighbors' boundaries), so reduce over the non-empty
    # segments only: they tile [0, width) contiguously, making their start
    # indices strictly increasing — exactly what reduceat requires.
    nonempty = indptr[1:] > indptr[:-1]
    if nonempty.all():
        return np.add.reduceat(summable, indptr[:-1], axis=1)
    sums = np.zeros((num_rows, num_segments), dtype=summable.dtype)
    if nonempty.any():
        sums[:, nonempty] = np.add.reduceat(summable, indptr[:-1][nonempty], axis=1)
    return sums


class BatchCostEvaluatorBase:
    """Shared slab/cache scaffolding of the batched pair-cost evaluators.

    Both selection costs — Equation (1)
    (:class:`repro.core.classification.PartitionCostEvaluator`) and the
    Lemma 4.5 violation count
    (:class:`repro.core.low_space.machine_sets.LowSpaceCostEvaluator`) —
    share the same batched shape: static per-instance arrays prepared once,
    invalidated when the graph mutates; candidate batches sliced into
    cache-sized slabs; hash inputs cached per hash family; a candidate-by-bin
    matrix pipeline per slab.  This base carries that scaffolding so the two
    evaluators only implement the cost arithmetic itself.

    Subclasses implement:

    * :meth:`_prepare` — build (and store on ``self._prep``) the static
      arrays; returns the prep dict.  Must include ``node_xs_cache`` and
      ``color_xs_cache`` entries for :meth:`_cached_xs`.
    * :meth:`_prep_is_stale` — whether the live graph has drifted from the
      arrays (CSR identity, size signature, ...), forcing a re-prepare.
    * :meth:`_slab_entries` — the per-candidate element count used to size
      slabs against :attr:`MAX_ELEMENTS`.
    * :meth:`_many_slab` — score one slab of candidate pairs.
    """

    #: Soft cap on elements per intermediate matrix; batches are sliced into
    #: slabs so ``slab_rows * _slab_entries()`` stays below this.
    #: Deliberately small: the gather/compare/reduceat pipeline is
    #: memory-bound, and slabs whose intermediates fit in cache are several
    #: times faster than one monolithic batch.
    MAX_ELEMENTS = 1 << 20

    def __init__(self) -> None:
        self._prep: Optional[dict] = None

    def __getstate__(self) -> dict:
        """Pickle the evaluator without its prepared static arrays.

        ``_prep`` is a pure cache (and holds a module reference, which
        pickle rejects); a worker process receiving the evaluator rebuilds
        the arrays once from the instance state — the parallel layer
        (:mod:`repro.parallel.slabs`) ships evaluators once per Partition
        level, so each worker pays that preparation once, not per slab.
        A shared-memory segment handle likewise never crosses a pickle
        boundary.
        """
        state = self.__dict__.copy()
        state["_prep"] = None
        state.pop("_shm_segment", None)
        return state

    # -- subclass hooks -------------------------------------------------
    def _prepare(self) -> dict:
        raise NotImplementedError

    def _prep_is_stale(self, prep: dict) -> bool:
        raise NotImplementedError

    def _slab_entries(self, prep: dict) -> int:
        raise NotImplementedError

    def _many_slab(self, pairs, prep: dict) -> List[float]:
        raise NotImplementedError

    # -- zero-copy transport hooks --------------------------------------
    def shared_payload(self):
        """``(state, arrays)`` for the shared-memory evaluator envelope,
        or ``None`` when this evaluator cannot export its static arrays
        (non-integer node ids, colors beyond ``int64``, ...) and must ship
        as a pickle.  ``state`` must be picklable; ``arrays`` is a dict of
        NumPy arrays published once into a segment
        (:func:`repro.parallel.slabs.publish_evaluator`)."""
        return None

    @classmethod
    def from_shared_payload(cls, state, arrays):
        """Rebuild a worker-side evaluator whose ``_prep`` views point
        directly into an attached shared-memory segment (zero copies).
        Subclasses that return a payload from :meth:`shared_payload` must
        implement the inverse here."""
        raise NotImplementedError(
            f"{cls.__name__} does not support the shared-memory transport"
        )

    def phase_shard(self, phase: str, h1, h2, start: int, stop: int) -> List[float]:
        """Raw per-item count vectors of one post-selection *phase* shard,
        concatenated, for items ``[start, stop)`` — exact integers as
        floats, so the parent's reassembly is bit-identical to its own
        serial pass.  Subclasses opt in per phase name."""
        raise NotImplementedError(
            f"{type(self).__name__} has no sharded phase {phase!r}"
        )

    # -- shared machinery -----------------------------------------------
    def many(self, pairs) -> List[float]:
        """Costs for a batch of pairs, bit-identical to the scalar path.

        All pairs of a batch must come from the same two hash families
        (identical prime/domain/range), which is how the selection
        strategies produce them.  If the graph mutated since the static
        arrays were built, they are rebuilt so the batched path keeps
        matching the live-state scalar path.
        """
        if not pairs:
            return []
        prep = self._prep
        # Shared-memory-restored evaluators carry views instead of a live
        # graph; their prep is immutable by construction, never stale.
        if prep is None or (not prep.get("_shared") and self._prep_is_stale(prep)):
            prep = self._prepare()
        slab = max(1, self.MAX_ELEMENTS // max(1, self._slab_entries(prep)))
        costs: List[float] = []
        for start in range(0, len(pairs), slab):
            costs.extend(self._many_slab(pairs[start : start + slab], prep))
        return costs

    @staticmethod
    def palette_entry_arrays(palettes, node_ids) -> dict:
        """Flattened palette-entry arrays for ``node_ids``, store-backed.

        The static palette arrays both cost evaluators prepare — sorted
        color universe, per-node sizes, entry owners and universe
        positions — used to be rebuilt from the Python palette sets once
        per ``Partition`` call.  This helper answers from the assignment's
        array store (:meth:`repro.graph.palettes.PaletteAssignment.store`)
        instead: children produced by the batched restriction kernels
        already carry their flat arrays, so preparing a child evaluator is
        a couple of NumPy gathers rather than a per-color Python loop.

        Returns a dict with ``universe`` (sorted unique colors of the
        listed nodes, as a plain list — the hash-input shape the slab
        pipeline consumes), ``universe_array`` (the same colors as an
        int64 array, or ``None`` when they exceed int64), ``sizes`` /
        ``indptr`` (palette sizes aligned with ``node_ids``),
        ``entry_nodes`` (owner index per entry), ``entry_positions``
        (position of each entry's color in ``universe``) and
        ``sorted_entries`` (True iff every node's run is ascending — the
        store guarantees it; the set-backed fallback does not).  Raises
        the palette layer's error for nodes without a palette.
        """
        node_list = list(node_ids)
        count = len(node_list)
        store = palettes.store()
        if store is not None:
            if store.nodes == node_list:
                flat = store.flat
                sizes = store.sizes()
                indptr = store.offsets
                universe_array, positions = store.universe_positions()
            else:
                rows = store.rows_of(node_list)
                from repro.graph.csr import gather_segments

                sizes, gather = gather_segments(store.offsets, rows)
                flat = store.flat[gather]
                indptr = np.zeros(count + 1, dtype=np.int64)
                np.cumsum(sizes, out=indptr[1:])
                universe_array = np.unique(flat)
                positions = np.searchsorted(universe_array, flat)
            return {
                "universe": universe_array.tolist(),
                "universe_array": universe_array,
                "flat_colors": flat,
                "sizes": sizes,
                "indptr": indptr,
                "entry_nodes": np.repeat(np.arange(count, dtype=np.int64), sizes),
                "entry_positions": positions,
                "sorted_entries": True,
            }
        # Store unavailable (colors beyond int64 or not integers): exact
        # scalar flatten, keeping universe positions as dict lookups.
        import itertools

        sizes = np.fromiter(
            (palettes.palette_size(node) for node in node_list),
            dtype=np.int64,
            count=count,
        )
        total = int(sizes.sum())
        flat_list = list(
            itertools.chain.from_iterable(
                palettes.iter_palette(node) for node in node_list
            )
        )
        universe_list = sorted(set(flat_list))
        position_of = {color: index for index, color in enumerate(universe_list)}
        indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        return {
            "universe": universe_list,
            "universe_array": None,
            "flat_colors": flat_list,
            "sizes": sizes,
            "indptr": indptr,
            "entry_nodes": np.repeat(np.arange(count, dtype=np.int64), sizes),
            "entry_positions": np.fromiter(
                (position_of[color] for color in flat_list),
                dtype=np.int64,
                count=total,
            ),
            "sorted_entries": False,
        }

    @staticmethod
    def _cached_xs(
        prep: dict, cache_name: str, hash_fn, values: Sequence[int]
    ) -> np.ndarray:
        """``values % domain`` as a ready int64 array, cached per family."""
        key = (hash_fn.domain_size, hash_fn.prime)
        cache: Dict[Tuple[int, int], np.ndarray] = prep[cache_name]
        if key not in cache:
            domain = hash_fn.domain_size
            cache[key] = np.asarray(
                [value % domain for value in values], dtype=np.int64
            )
        return cache[key]

    def _slab_bin_matrices(
        self,
        pairs,
        prep: dict,
        num_bins: int,
        num_color_bins: int,
        node_values: Sequence[int],
        color_values: Sequence[int],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The two candidate-by-bin matrices every slab starts from.

        Validates family uniformity, resolves the cached hash inputs, and
        returns ``(bins1, bins2)``: node bins in ``[num_bins]`` and color
        bins in ``[num_color_bins]``, one row per candidate pair.
        """
        from repro.derand.cost import assert_uniform_pair_families

        h1_ref, h2_ref = pairs[0]
        assert_uniform_pair_families(pairs)
        node_xs = self._cached_xs(prep, "node_xs_cache", h1_ref, node_values)
        color_xs = self._cached_xs(prep, "color_xs_cache", h2_ref, color_values)
        bins1 = hash_bins(
            [pair[0].coefficients for pair in pairs],
            node_xs,
            h1_ref.prime,
            h1_ref.range_size,
            num_bins,
        )
        bins2 = hash_bins(
            [pair[1].coefficients for pair in pairs],
            color_xs,
            h2_ref.prime,
            h2_ref.range_size,
            num_color_bins,
        )
        return bins1, bins2
