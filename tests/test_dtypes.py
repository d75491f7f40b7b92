"""Dtype-policy boundary tests (int32 storage with guarded int64 promotion).

The array layer stores CSR positions and palette colors as int32 whenever
the values fit (``docs/ARCHITECTURE.md``, "Dtype policy & memory budget"),
promoting to int64 exactly at the representability boundary.  These tests
pin the boundary itself, the places that must *stay* int64 (indptr,
degrees, combined sort keys), and the transports (shared memory, pickle)
that must carry narrowed slabs through unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest
from scalar_oracle import SetGraph, assert_same_graph

from repro.core import ColorReduceParameters
from repro.core.classification import partition_cost_function
from repro.core.partition import Partition
from repro.derand.conditional_expectation import candidate_pairs
from repro.graph import Graph, PaletteAssignment
from repro.graph.csr import index_dtype, split_by_bins
from repro.parallel.slabs import (
    attach_arrays,
    decode_evaluator,
    encode_evaluator,
    publish_arrays,
    shared_memory_available,
    unlink_segment,
)

INT32_MAX = np.iinfo(np.int32).max


class TestIndexDtypeBoundary:
    def test_crossover_at_int32_max(self):
        assert index_dtype(0) is np.int32
        assert index_dtype(1000) is np.int32
        assert index_dtype(INT32_MAX) is np.int32
        assert index_dtype(INT32_MAX + 1) is np.int64

    def test_view_narrows_positions_only(self):
        graph = Graph(nodes=range(6), edges=[(0, 1), (1, 2), (2, 3), (4, 5)])
        csr = graph.csr()
        # Positions fit int32; offsets and degrees stay int64 (they feed
        # arithmetic whose intermediates are not bounded by num_nodes).
        assert csr.indices.dtype == np.int32
        assert csr.edge_sources.dtype == np.int32
        assert csr.indptr.dtype == np.int64
        assert csr.degrees.dtype == np.int64

    def test_extraction_children_stay_narrowed(self):
        graph = Graph(
            nodes=range(10),
            edges=[(i, (i + 1) % 10) for i in range(10)],
        )
        child = split_by_bins(graph.csr(), [[0, 1, 2, 3, 4]])[0]
        assert child.indices.dtype == np.int32
        assert child.edge_sources.dtype == np.int32
        assert child.degrees.dtype == np.int64

    def test_key_sort_survives_int32_overflowing_keys(self):
        # With n = 50_000 the combined sort key source * n + target reaches
        # ~2.5e9 > 2**31 - 1 for edges between tail nodes, so a key sort
        # computed in int32 would wrap negative and scramble the layout.
        n = 50_000
        tail = [n - 3, n - 2, n - 1]
        edges = [(tail[2], tail[0]), (tail[1], tail[2]), (tail[0], tail[1])]
        graph = Graph.from_edges(edges[:2], nodes=range(n))
        graph.add_edge(*edges[2])  # folded into the view by the next query
        assert_same_graph(graph, SetGraph(range(n), edges))
        csr = graph.csr()
        assert csr.indices.dtype == np.int32
        start, end = int(csr.indptr[tail[0]]), int(csr.indptr[tail[0] + 1])
        assert sorted(csr.indices[start:end].tolist()) == [tail[1], tail[2]]
        # Targets are sorted within each neighbor run — the canonical
        # layout the batched kernels rely on.
        for node in tail:
            run = csr.indices[csr.indptr[node] : csr.indptr[node + 1]]
            assert run.tolist() == sorted(run.tolist())


class TestPaletteStoreDowncast:
    def test_small_colors_narrow_to_int32(self):
        palettes = PaletteAssignment.from_lists(
            {0: [1, 2, 3], 1: [2, 3, 4], 2: [INT32_MAX]}
        )
        store = palettes.store()
        assert store is not None
        assert store.flat.dtype == np.int32
        assert store.universe().tolist() == [1, 2, 3, 4, INT32_MAX]

    def test_colors_beyond_int32_promote_to_int64(self):
        palettes = PaletteAssignment.from_lists(
            {0: [1, 2], 1: [INT32_MAX + 1]}
        )
        store = palettes.store()
        assert store is not None
        assert store.flat.dtype == np.int64
        assert INT32_MAX + 1 in set(store.universe().tolist())

    def test_downcast_checks_bounds_not_endpoints(self):
        # flat is sorted per owner, not globally: a palette whose *first*
        # and *last* entries fit int32 can still hide an out-of-range color
        # in the middle of another owner's run.
        palettes = PaletteAssignment.from_lists(
            {0: [1, 2], 1: [2, INT32_MAX + 7], 2: [3, 4]}
        )
        store = palettes.store()
        assert store is not None
        assert store.flat.dtype == np.int64

    def test_sizes_and_rows_unaffected_by_narrowing(self):
        palettes = PaletteAssignment.from_lists(
            {7: [1, 2, 3], 21: [4], 35: [5, 6]}
        )
        store = palettes.store()
        assert store is not None
        rows = store.rows_for([35, 7])
        assert rows.dtype == np.int64
        assert store.sizes()[rows].tolist() == [2, 3]


class TestTransportsPreserveNarrowedSlabs:
    @pytest.mark.skipif(
        not shared_memory_available(), reason="no shared memory on platform"
    )
    def test_shm_roundtrip_mixed_dtypes(self):
        arrays = {
            "narrow": np.arange(10, dtype=np.int32),
            "wide": np.asarray([INT32_MAX + 1, 2, 3], dtype=np.int64),
            "empty": np.zeros(0, dtype=np.int32),
        }
        name, manifest = publish_arrays(arrays, generation=17)
        try:
            segment, views = attach_arrays(name, 17, manifest)
            try:
                for key, array in arrays.items():
                    assert views[key].dtype == array.dtype
                    assert np.array_equal(views[key], array)
            finally:
                views.clear()
                segment.close()
        finally:
            unlink_segment(name)

    def test_evaluator_pickle_roundtrip_preserves_values(self):
        graph = Graph(
            nodes=range(20), edges=[(i, (i + 1) % 20) for i in range(20)]
        )
        palettes = PaletteAssignment.from_lists(
            {node: [node % 5, node % 5 + 1, 9] for node in graph.nodes()}
        )
        params = ColorReduceParameters.scaled(num_bins=3)
        ell = float(graph.max_degree())
        evaluator = partition_cost_function(graph, palettes, params, ell, 20)
        family1, family2 = Partition(params).build_families(
            graph, palettes, ell, 20
        )
        pairs = candidate_pairs(family1, family2, 5, 0, 4)
        expected = list(evaluator.many(pairs))
        decoded = decode_evaluator(encode_evaluator(evaluator))
        assert list(decoded.many(pairs)) == expected
        # The re-prepared worker-side CSR keeps the narrowed layout.
        assert decoded.graph.csr().indices.dtype == np.int32
