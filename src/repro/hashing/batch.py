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

:class:`BatchCostEvaluatorBase` (bottom of this module) is the shared core
of the two batched cost evaluators — Equation (1)'s
:class:`repro.core.classification.PartitionCostEvaluator` and Lemma 4.5's
:class:`repro.core.low_space.machine_sets.LowSpaceCostEvaluator`.  Both
score a hash pair from the in-bin degree ``d'(v)`` and in-bin palette size
``p'(v)``; the base owns their one prep layout, the one kernel that counts
them (one pair over a node range, for every pair of a batch), the selected
pair's pass (which also scores a one-pair batch, and is kept for the
classification that follows), the staleness check and the shared-memory
payload, so the evaluators keep only which nodes they score and their
predicate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import HashFamilyError, PaletteError

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
    membership primitive of the one palette-pruning kernel
    (:meth:`repro.graph.palettes.PaletteAssignment.remove_colors_used_by_neighbors_batch`).
    Scalar reference: one ``value in segment_set`` probe per query.
    ``segment_of_entry`` may pass the precomputed
    ``repeat(arange(num_segments), lengths)`` expansion (callers holding a
    palette store get it cached).  If the combined key cannot fit int64
    (color spans near ``2**63``), the per-query ``bisect`` path keeps the
    result exact.
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


def segment_sums(mask: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Exact int64 sums of a 1-D mask over contiguous segments.

    ``bounds`` has shape ``(n + 1,)``, starts at 0 and ends at
    ``mask.shape[0]``; entry ``i`` of the result is
    ``mask[bounds[i]:bounds[i+1]].sum()``.  Empty segments stay 0
    (``reduceat`` runs over the non-empty starts only, which are strictly
    increasing).  A sum cannot exceed the mask's length, so masks shorter
    than ``2**31`` accumulate in int32, which ``reduceat`` runs several
    times faster than int64 over long segments (palette runs).
    """
    sums = np.zeros(bounds.shape[0] - 1, dtype=np.int64)
    nonempty = bounds[1:] > bounds[:-1]
    if nonempty.any():
        accumulator = np.int32 if mask.shape[0] < 2**31 else np.int64
        sums[nonempty] = np.add.reduceat(
            mask, bounds[:-1][nonempty], dtype=accumulator
        )
    return sums


#: Prep entries that are per-process caches or live-instance handles, never
#: part of the shared-memory payload.
_LOCAL_PREP_KEYS = ("csr", "node_xs_cache", "color_xs_cache")


class BatchCostEvaluatorBase:
    """The shared layout and count kernel of the batched pair-cost evaluators.

    Both selection costs — Equation (1)
    (:class:`repro.core.classification.PartitionCostEvaluator`) and the
    Lemma 4.5 violation count
    (:class:`repro.core.low_space.machine_sets.LowSpaceCostEvaluator`) —
    score a hash pair from the same two per-node counts, the in-bin degree
    ``d'(v)`` and the in-bin palette size ``p'(v)``; only the good/bad
    predicate differs.  This base owns everything else.

    **The prep layout** (built once per instance by :meth:`_prepare`,
    rebuilt when the graph's CSR view is replaced by a mutation):

    * ``ids`` — the scored nodes' ids (int64), in scoring order;
    * ``edge_sources`` / ``edge_targets`` / ``edge_indptr`` — each scored
      node's edges to other scored nodes as one contiguous run, endpoints
      given as positions in ``ids``;
    * ``entry_colors`` / ``entry_indptr`` — each scored node's palette
      entries as one contiguous run, as the colors' positions in
      ``universe`` (an entry's owner is implied by its run);
    * ``universe`` — the sorted colors of those palettes;
    * ``num_bins`` / ``num_color_bins``, ``csr`` (the live view, ``None``
      on a worker) and the per-family hash-input caches.

    Subclasses add their predicate's thresholds.

    **One count kernel**, :meth:`_count_range`, on the narrow bins of
    :func:`hash_bins`: it counts one pair over a node range ``[start,
    stop)``, repeating each node's bin over its palette-entry run instead
    of gathering entry owners, and summing per-node runs with
    ``reduceat``.  A batch of pairs (:meth:`many`) is hashed at once and
    each pair counted over ``[0, n)``; the selected pair's pass is that
    same range, and a pool shard is a sub-range (:meth:`range_counts`), so
    sharded and serial counts are the same integers.

    **One pass per partition step.**  A one-pair batch — the head probe of
    the first-feasible scan — is scored by the selected pair's pass itself
    (:meth:`probe`), and that pass is kept in a one-slot cache keyed on the
    ``(h1, h2)`` objects: when the head wins, the classification that
    follows (:meth:`_selected_pass`) takes it instead of counting again.
    The slot is taken once and cleared, and never crosses a pickle or the
    shared-memory payload.

    Subclasses implement :meth:`_prepare` (which nodes, edges and
    thresholds), :meth:`_pair_cost` (their predicate over one pair's
    counts) and the selected-pair result on top of :meth:`_selected_pass`.
    """

    #: Attributes tied to the live instance; a shared-memory worker gets
    #: ``None`` for them and reads only the prep arrays.
    _LIVE_ATTRS: Tuple[str, ...] = ("graph", "palettes")

    def __init__(self) -> None:
        self._prep: Optional[dict] = None
        #: ``(h1, h2, pass)`` of the last probed pair, until taken.
        self._kept: Optional[tuple] = None

    def __getstate__(self) -> dict:
        """Pickle the evaluator without its prepared static arrays.

        ``_prep`` is a pure cache; a worker process receiving the evaluator
        rebuilds the arrays once from the instance state — the parallel
        layer (:mod:`repro.parallel.slabs`) ships evaluators once per
        Partition level, so each worker pays that preparation once, not
        per slab.  A shared-memory segment handle and a kept pass likewise
        never cross a pickle boundary.
        """
        state = self.__dict__.copy()
        state["_prep"] = None
        state["_kept"] = None
        state.pop("_shm_segment", None)
        return state

    # -- subclass hooks -------------------------------------------------
    def _prepare(self) -> dict:
        """The prep layout (see the class docstring) for the live instance."""
        raise NotImplementedError

    def _pair_cost(self, prep: dict, node_bins, d_prime, p_prime) -> float:
        """One pair's cost from its node bins and ``[0, n)`` counts."""
        raise NotImplementedError

    # -- the prep -------------------------------------------------------
    def _prepared(self) -> dict:
        """The prep, built on first use and rebuilt when the graph mutated.

        Graph mutations drop the cached CSR view, so CSR identity detects
        any change since the arrays were built.  Palettes have no such
        hook — they must not be mutated while the evaluator is in use (no
        in-repo caller does).  A worker-side prep has no ``csr`` and is
        never stale.
        """
        prep = self._prep
        if prep is None or (
            prep["csr"] is not None and prep["csr"] is not self.graph.csr()
        ):
            prep = self._prepare()
            prep["node_xs_cache"] = {}
            prep["color_xs_cache"] = {}
            self._prep = prep
        return prep

    @staticmethod
    def palette_entry_arrays(palettes, node_ids) -> dict:
        """The palette-entry part of the prep layout for ``node_ids``.

        Answers from the assignment's array store
        (:meth:`repro.graph.palettes.PaletteAssignment.store`): children
        produced by the batched restriction kernels already carry their
        flat arrays, so this is a couple of NumPy gathers.  The universe
        and the entries' positions in it are the store's exact ranks
        (:meth:`~repro.graph.palettes._PaletteStore.ranks`), derived from
        the entries' color span — a scatter and a ``cumsum``, no sort —
        whenever it is no wider than the entries; only stores whose node
        order differs from ``node_ids`` rank just the gathered entries
        (and cache nothing).  Returns ``universe``, ``entry_colors`` and
        ``entry_indptr``.  Raises the palette layer's error for nodes
        without a palette, and :class:`~repro.errors.PaletteError` when the
        colors are not int64 integers (the hash families reject such
        colors first; see :func:`repro.core.classification.hash_families`).
        """
        store = palettes.store()
        if store.table is not None:
            raise PaletteError(
                "palette colors are not int64 integers; partitioning hashes "
                "integer colors"
            )
        from repro.graph.csr import gather_segments, same_ids

        if same_ids(store.nodes, node_ids):
            indptr = store.offsets
            universe, positions = store.universe_positions()
        else:
            sizes, gather = gather_segments(store.offsets, store.rows_for(node_ids))
            indptr = np.zeros(len(node_ids) + 1, dtype=np.int64)
            np.cumsum(sizes, out=indptr[1:])
            universe, positions = store.ranks(gather)
        return {
            "universe": universe,
            "entry_colors": positions,
            "entry_indptr": indptr,
        }

    # -- zero-copy transport --------------------------------------------
    def shared_payload(self):
        """``(state, arrays)`` for the shared-memory evaluator envelope.

        ``arrays`` holds every array of the prep, published once into a
        segment (:func:`repro.parallel.slabs.publish_evaluator`); ``state``
        holds the evaluator's scalar attributes and the prep's scalars.
        """
        prep = self._prepared()
        arrays = {
            key: value for key, value in prep.items() if isinstance(value, np.ndarray)
        }
        scalars = {
            key: value
            for key, value in prep.items()
            if key not in arrays and key not in _LOCAL_PREP_KEYS
        }
        attrs = {
            key: value
            for key, value in self.__dict__.items()
            if not key.startswith("_") and key not in self._LIVE_ATTRS
        }
        return (attrs, scalars), arrays

    @classmethod
    def from_shared_payload(cls, state, arrays):
        """Worker-side rebuild whose prep views point straight into an
        attached shared-memory segment (zero copies).  The evaluator has no
        live instance: only the batched kernels (:meth:`many`,
        :meth:`range_counts`) run on it, and the float64 thresholds cross
        bit-exactly."""
        attrs, scalars = state
        evaluator = cls.__new__(cls)
        evaluator.__dict__.update(dict.fromkeys(cls._LIVE_ATTRS))
        evaluator.__dict__.update(attrs)
        evaluator._kept = None
        evaluator._prep = {
            **arrays,
            **scalars,
            "csr": None,
            "node_xs_cache": {},
            "color_xs_cache": {},
        }
        return evaluator

    # -- the count kernel -----------------------------------------------
    def many(self, pairs) -> List[float]:
        """Costs for a batch of pairs, bit-identical to the scalar path.

        All pairs of a batch must come from the same two hash families
        (identical prime/domain/range), which is how the selection
        strategies produce them.  A one-pair batch is scored by
        :meth:`probe` (the same integers, so the same cost).  A longer
        batch hashes all its pairs at once (:meth:`_bin_matrices`) and
        counts each pair over ``[0, n)`` with :meth:`_count_range`; it
        keeps nothing: only the probe's pass is one a classification takes.
        """
        if not pairs:
            return []
        if len(pairs) == 1:
            return [self.probe(*pairs[0])]
        prep = self._prepared()
        num_nodes = len(prep["ids"])
        costs: List[float] = []
        for node_bins, universe_bins in zip(*self._bin_matrices(pairs, prep)):
            d_prime, p_prime, _ = self._count_range(
                prep, node_bins, universe_bins, 0, num_nodes
            )
            costs.append(self._pair_cost(prep, node_bins, d_prime, p_prime))
        return costs

    def probe(self, h1, h2, scorer=None) -> float:
        """The cost of one pair, from its selected-pair pass, which is kept.

        :meth:`_selected_pass` counts the pair (through ``scorer``'s pool
        shards when one is given) and :meth:`_pair_cost` scores those
        counts, so the cost equals the one :meth:`many` gives the pair in
        a longer batch.  The pass stays in the one-slot cache for the
        classification of the same ``(h1, h2)`` objects.
        """
        selected = self._selected_pass(h1, h2, scorer)
        self._kept = (h1, h2, selected)
        prep, node_bins, _, d_prime, p_prime, _ = selected
        return self._pair_cost(prep, node_bins, d_prime, p_prime)

    @staticmethod
    def _count_range(prep: dict, node_bins, universe_bins, start: int, stop: int):
        """``(d', p', entry_match)`` of one pair for scored nodes
        ``[start, stop)``: exact int64 count vectors of length
        ``stop - start`` and the match mask over that range's palette
        entries.  A range touches exactly its own edge and entry runs, so
        counts over sub-ranges concatenate to the counts over ``[0, n)``.
        The bins stay narrow: the entries' owner bins are each node's bin
        repeated over its run, and the counts are :func:`segment_sums`
        over the runs.
        """
        indptr = prep["edge_indptr"]
        lo, hi = int(indptr[start]), int(indptr[stop])
        same_bin = (
            node_bins[prep["edge_sources"][lo:hi]]
            == node_bins[prep["edge_targets"][lo:hi]]
        )
        d_prime = segment_sums(same_bin, indptr[start : stop + 1] - lo)
        entry_indptr = prep["entry_indptr"]
        lo, hi = int(entry_indptr[start]), int(entry_indptr[stop])
        bounds = entry_indptr[start : stop + 1] - lo
        owner_bins = np.repeat(node_bins[start:stop], bounds[1:] - bounds[:-1])
        entry_match = universe_bins[prep["entry_colors"][lo:hi]] == owner_bins
        p_prime = segment_sums(entry_match, bounds)
        return d_prime, p_prime, entry_match

    def range_counts(self, h1, h2, start: int, stop: int):
        """``(d', p')`` of the pair ``(h1, h2)`` for scored nodes
        ``[start, stop)`` — one pool shard of the selected-pair pass."""
        prep = self._prepared()
        node_bins, universe_bins = self._pair_bins(h1, h2, prep)
        d_prime, p_prime, _ = self._count_range(
            prep, node_bins, universe_bins, start, stop
        )
        return d_prime, p_prime

    def _selected_pass(self, h1, h2, scorer=None, precomputed_counts=None):
        """Narrow bins and exact counts of the pair over every scored node.

        The pass kept by :meth:`probe` for these very ``(h1, h2)`` objects
        is taken first (the slot is cleared either way).  Otherwise the
        counts come from ``precomputed_counts`` (the segmented level pass,
        :mod:`repro.core.level`), else from the pool's range shards
        (``scorer``, a :class:`repro.parallel.executor.ParallelSlabScorer`),
        else from one serial :meth:`_count_range` over ``[0, n)``; all are
        the same integers.  Returns ``(prep, node_bins, universe_bins, d',
        p', entry_match)``; ``entry_match`` is ``None`` unless the serial
        count ran.
        """
        kept, self._kept = self._kept, None
        prep = self._prepared()
        if kept is not None and kept[0] is h1 and kept[1] is h2 and kept[2][0] is prep:
            return kept[2]
        node_bins, universe_bins = self._pair_bins(h1, h2, prep)
        num_nodes = len(prep["ids"])
        counts = precomputed_counts
        if counts is None and scorer is not None:
            counts = scorer.phase_values(h1, h2, num_nodes)
        if counts is not None:
            return (
                prep,
                node_bins,
                universe_bins,
                np.asarray(counts[0], dtype=np.int64),
                np.asarray(counts[1], dtype=np.int64),
                None,
            )
        d_prime, p_prime, entry_match = self._count_range(
            prep, node_bins, universe_bins, 0, num_nodes
        )
        return prep, node_bins, universe_bins, d_prime, p_prime, entry_match

    # -- hashing --------------------------------------------------------
    @staticmethod
    def _cached_xs(prep: dict, cache_name: str, hash_fn, values) -> np.ndarray:
        """``values % domain`` as a ready int64 array, cached per family."""
        key = (hash_fn.domain_size, hash_fn.prime)
        cache: Dict[Tuple[int, int], np.ndarray] = prep[cache_name]
        if key not in cache:
            cache[key] = np.asarray(values, dtype=np.int64) % hash_fn.domain_size
        return cache[key]

    def _bin_matrices(self, pairs, prep: dict) -> Tuple[np.ndarray, np.ndarray]:
        """The two candidate-by-bin matrices every count starts from.

        Validates family uniformity, resolves the cached hash inputs, and
        returns ``(bins1, bins2)``: node bins in ``[num_bins]`` over ``ids``
        and color bins in ``[num_color_bins]`` over ``universe``, one row
        per candidate pair.
        """
        from repro.derand.cost import assert_uniform_pair_families

        h1_ref, h2_ref = pairs[0]
        assert_uniform_pair_families(pairs)
        node_xs = self._cached_xs(prep, "node_xs_cache", h1_ref, prep["ids"])
        color_xs = self._cached_xs(prep, "color_xs_cache", h2_ref, prep["universe"])
        bins1 = hash_bins(
            [pair[0].coefficients for pair in pairs],
            node_xs,
            h1_ref.prime,
            h1_ref.range_size,
            prep["num_bins"],
        )
        bins2 = hash_bins(
            [pair[1].coefficients for pair in pairs],
            color_xs,
            h2_ref.prime,
            h2_ref.range_size,
            prep["num_color_bins"],
        )
        return bins1, bins2

    def _pair_bins(self, h1, h2, prep: dict) -> Tuple[np.ndarray, np.ndarray]:
        """``(node_bins, universe_bins)`` of one pair, as narrow vectors."""
        bins1, bins2 = self._bin_matrices([(h1, h2)], prep)
        return bins1[0], bins2[0]
