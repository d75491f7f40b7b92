"""Unit tests for the synthetic graph and palette generators."""

from __future__ import annotations

import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.graph import generators
from repro.graph.graph import Graph


class TestErdosRenyi:
    def test_deterministic_given_seed(self):
        a = generators.erdos_renyi(60, 0.2, seed=3)
        b = generators.erdos_renyi(60, 0.2, seed=3)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_different_seed_different_graph(self):
        a = generators.erdos_renyi(60, 0.2, seed=3)
        b = generators.erdos_renyi(60, 0.2, seed=4)
        assert sorted(a.edges()) != sorted(b.edges())

    def test_p_zero_and_one(self):
        assert generators.erdos_renyi(10, 0.0, seed=1).num_edges == 0
        assert generators.erdos_renyi(10, 1.0, seed=1).num_edges == 45

    def test_edge_count_near_expectation(self):
        graph = generators.erdos_renyi(300, 0.1, seed=5)
        expected = 0.1 * 300 * 299 / 2
        assert 0.8 * expected < graph.num_edges < 1.2 * expected

    def test_invalid_p(self):
        with pytest.raises(ConfigurationError):
            generators.erdos_renyi(10, 1.5)

    def test_invalid_n(self):
        with pytest.raises(ConfigurationError):
            generators.erdos_renyi(-1, 0.5)


class TestOtherGraphs:
    def test_gnm_exact_edges(self):
        graph = generators.gnm_random(30, 100, seed=2)
        assert graph.num_edges == 100
        assert graph.num_nodes == 30

    def test_gnm_too_many_edges(self):
        with pytest.raises(ConfigurationError):
            generators.gnm_random(5, 100)

    def test_random_regular_like_degrees_bounded(self):
        graph = generators.random_regular_like(50, 6, seed=1)
        assert graph.max_degree() <= 6
        assert graph.num_nodes == 50

    def test_random_regular_degree_too_large(self):
        with pytest.raises(ConfigurationError):
            generators.random_regular_like(5, 5)

    def test_power_law_has_heavy_tail(self):
        graph = generators.power_law(200, attachment=3, seed=1)
        assert graph.num_nodes == 200
        assert graph.max_degree() > 6

    def test_power_law_small_n(self):
        graph = generators.power_law(3, attachment=3, seed=1)
        assert graph.num_nodes == 3

    def test_bipartite_has_no_odd_cycles(self):
        graph = generators.random_bipartite(20, 25, 0.3, seed=4)
        left = set(range(20))
        for u, v in graph.edges():
            assert (u in left) != (v in left)

    def test_complete_multipartite(self):
        graph = generators.complete_multipartite([2, 3])
        assert graph.num_edges == 6
        assert not graph.has_edge(0, 1)

    def test_ring_of_cliques(self):
        graph = generators.ring_of_cliques(4, 5)
        assert graph.num_nodes == 20
        assert graph.max_degree() >= 4

    def test_ring_of_cliques_invalid(self):
        with pytest.raises(ConfigurationError):
            generators.ring_of_cliques(0, 5)

    def test_ring_and_star(self):
        ring = generators.ring(6)
        assert ring.max_degree() == 2
        assert ring.num_edges == 6
        star = generators.star(7)
        assert star.degree(0) == 6
        assert star.num_edges == 6


class TestPaletteGenerators:
    def test_shared_universe_sizes(self):
        graph = generators.erdos_renyi(50, 0.3, seed=1)
        palettes = generators.shared_universe_palettes(graph, seed=2)
        delta = graph.max_degree()
        for node in graph.nodes():
            assert palettes.palette_size(node) == delta + 1

    def test_shared_universe_validates(self):
        graph = generators.erdos_renyi(50, 0.3, seed=1)
        palettes = generators.shared_universe_palettes(graph, seed=2)
        palettes.validate_for_graph(graph)

    def test_shared_universe_invalid_universe(self):
        graph = generators.erdos_renyi(20, 0.3, seed=1)
        with pytest.raises(ConfigurationError):
            generators.shared_universe_palettes(graph, palette_size=10, universe_size=5)

    def test_degree_plus_one_palettes(self):
        graph = generators.erdos_renyi(50, 0.2, seed=3)
        palettes = generators.degree_plus_one_palettes(graph, seed=4)
        for node in graph.nodes():
            assert palettes.palette_size(node) == graph.degree(node) + 1

    def test_adversarial_palettes_validate(self):
        graph = generators.erdos_renyi(30, 0.3, seed=5)
        palettes = generators.adversarial_disjoint_palettes(graph, seed=6)
        palettes.validate_for_graph(graph)

    @pytest.mark.parametrize(
        "seed,digest",
        [
            (6, "546963235336aeecff3eedeb4b1176290bd161b9eb98c8b7647fd8ce8b55e3e5"),
            (11, "8fc8ca221b48c92fe47ebcdfe481c387e909d65e9bead2b3a519a7db1b59bafb"),
        ],
    )
    def test_adversarial_palettes_unchanged_on_sequential_ids(self, seed, digest):
        # Recorded before the block lookup moved from ids to node order;
        # on ids 0..n-1 in order the two agree.
        graph = generators.erdos_renyi(80, 0.1, seed=seed)
        palettes = generators.adversarial_disjoint_palettes(graph, seed=seed)
        listing = repr([(v, sorted(palettes.palette(v))) for v in graph.nodes()])
        assert hashlib.sha256(listing.encode()).hexdigest() == digest

    def test_adversarial_overlap_lands_in_a_neighbor_block(self):
        base = generators.erdos_renyi(25, 0.3, seed=5)
        graph = Graph.from_edges(
            [(7 * u + 1000, 7 * v + 1000) for u, v in base.edges()],
            nodes=[7 * v + 1000 for v in base.nodes()],
        )
        palettes = generators.adversarial_disjoint_palettes(graph, seed=6)
        size = graph.max_degree() + 1
        block_of = {node: index for index, node in enumerate(graph.nodes())}
        filler = graph.num_nodes * size
        replaced = 0
        for node in graph.nodes():
            neighbor_blocks = {block_of[other] for other in graph.neighbors(node)}
            for color in palettes.palette(node):
                if color // size == block_of[node] or color >= filler:
                    continue
                replaced += 1
                assert color // size in neighbor_blocks
        assert replaced > 0

    def test_palette_generators_deterministic(self):
        graph = generators.erdos_renyi(40, 0.2, seed=9)
        a = generators.shared_universe_palettes(graph, seed=1)
        b = generators.shared_universe_palettes(graph, seed=1)
        for node in graph.nodes():
            assert a.palette(node) == b.palette(node)
