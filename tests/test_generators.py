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


def _digest_graph(graph) -> str:
    """sha256 over a graph's node order and its CSR arrays (dtypes too)."""
    import numpy as np

    h = hashlib.sha256(repr(graph.nodes()).encode())
    view = graph.csr()
    for name in ("indptr", "indices", "degrees", "edge_sources"):
        array = np.ascontiguousarray(getattr(view, name))
        h.update(f"{name}:{array.dtype}:".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def _digest_palettes(palettes) -> str:
    """sha256 over a palette assignment's array store (nodes, flat, offsets)."""
    import numpy as np

    store = palettes.store()
    h = hashlib.sha256(repr(store.node_list()).encode())
    for name in ("flat", "offsets"):
        array = np.ascontiguousarray(getattr(store, name))
        h.update(f"{name}:{array.dtype}:".encode())
        h.update(array.tobytes())
    return h.hexdigest()


#: ``name -> (build(seed), {seed: digest})``.  The structured generators
#: take no seed; their "seed" picks the shape.
GRAPH_PINS = {
    "erdos_renyi": (
        lambda seed: generators.erdos_renyi(300, 0.05, seed=seed),
        {
            1: "ce3862e85c2c4228be6a3a2178747ef23ae7749a7ed9d404149eb5c3696430af",
            2: "8e0d102bdd639eaf860cccc95ecf8c28424bc1a247dc950d4d0e754b438f373f",
        },
    ),
    "gnm_random": (
        lambda seed: generators.gnm_random(200, 900, seed=seed),
        {
            1: "9619688b81b4f6813955d2408b6a52a703b76310c71be942ff872b9753e8f4b0",
            2: "24f46476c5f154b50de686e411243e61f964ea8e7779adbf2128a075201dfe07",
        },
    ),
    "power_law": (
        lambda seed: generators.power_law(400, attachment=3, seed=seed),
        {
            1: "47ed17e7b58c0d97d669a873121ae9ad91ea1709d685e7d7abe2ae130528f114",
            2: "61dd7ad486c69cbefe099625c1aa64c35cbf6284db44f3fa4edb4413b8a73fb8",
        },
    ),
    "random_regular_like": (
        lambda seed: generators.random_regular_like(200, 7, seed=seed),
        {
            1: "10c1595fbf25d58ef97635a9dcf09e439191eafd03bcd41f09f4266fa8eb382b",
            2: "888cfe70d9e0acf0e10cdc39fa99aba17f265a21792c2dfa982186e78aa242ed",
        },
    ),
    "random_bipartite": (
        lambda seed: generators.random_bipartite(60, 80, 0.1, seed=seed),
        {
            1: "4622b30eca936fddbc31c2c5388a1f61a91857ebcc62830cc169306018ed0f2c",
            2: "6847ae8ffcde6366beb846ead2feec56134c17e8f57beaf350c34d3a870c5307",
        },
    ),
    "complete_multipartite": (
        lambda seed: generators.complete_multipartite([seed + 2, 3, 2 * seed]),
        {
            1: "62f2d22f8b0eb04dca1c8b481626ae85eafb93708ed2eba7bb91707596fc8254",
            2: "75e108c7a9c8bc800622d0335fdf81112a7b5633068fc35ca6925e39d426a4bc",
        },
    ),
    "ring_of_cliques": (
        lambda seed: generators.ring_of_cliques(seed + 3, 2 * seed + 2),
        {
            1: "126a63edd91c4da93ff85fe2630fb2e79b0d3ec40760ea6622220fd61819cdd0",
            2: "1f43f6f11020a1b96f70626608f732287e9094fc7dec03bf5e92f15ef0005fa2",
        },
    ),
}

PALETTE_PINS = {
    "shared_universe_palettes": (
        lambda graph, seed: generators.shared_universe_palettes(graph, seed=seed),
        {
            1: "ef39bcd60fa05ef49c0e20ff3fb17634c1a4e1cbf49ffd1c67478b7957f7c7c8",
            2: "3a5c246057f3b0890aed88fe0b8926e43ac481cdaf0451e9a564e66e078b4533",
        },
    ),
    "degree_plus_one_palettes": (
        lambda graph, seed: generators.degree_plus_one_palettes(graph, seed=seed),
        {
            1: "b12eb4f7a667b4548c35fb05735e311b9e9c607d1437b3b2e9e3aaefcfedfc93",
            2: "531411294a7a65c584ea6dd47cb731ab0be9a37cd597454e8e92998fd6fbac80",
        },
    ),
    "adversarial_disjoint_palettes": (
        lambda graph, seed: generators.adversarial_disjoint_palettes(graph, seed=seed),
        {
            1: "6e175490939d2367c0438809b4718245b0a275ca06d1e8c50b2a47d08f8f60f8",
            2: "0dec6b9bb07001a6018841ce318c541114ef8cd2e71e4600b4e119c3de98d817",
        },
    ),
}


class TestGeneratorPins:
    """The generators' outputs are pinned: node order, CSR and store arrays.

    The benchmark and the golden tests build every instance through these
    functions, so a digest change here is an input change there.
    """

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", sorted(GRAPH_PINS))
    def test_graph_digest(self, name, seed):
        build, digests = GRAPH_PINS[name]
        assert _digest_graph(build(seed)) == digests[seed]

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", sorted(PALETTE_PINS))
    def test_palette_digest(self, name, seed):
        build, digests = PALETTE_PINS[name]
        graph = generators.power_law(150, attachment=3, seed=seed)
        assert _digest_palettes(build(graph, seed)) == digests[seed]
