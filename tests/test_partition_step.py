"""The partition step of both pipelines: arrays in, no per-node records out.

* Non-integer node ids are a :class:`GraphError` naming the first offender
  once an instance is big enough to partition; base-case instances still
  color.  An undersized palette still names the first offending node.
* Ids and colors the hash field cannot take (at or beyond ``2**61 - 1``)
  are a :class:`GraphError` / :class:`PaletteError` naming the value, in
  both pipelines.
* A production ``ColorReduce.run`` builds no :class:`NodeClassification`
  record and a ``LowSpaceColorReduce.run`` no MPC :class:`Machine`; both
  still answer on demand (``.nodes``, ``simulator.machines``).
* The scalar oracle's reroutes of the low-space evaluator's static arrays
  and of the record assembly are reached, and agree with production.
"""

from __future__ import annotations

import re

import pytest
from scalar_oracle import scalar_reference

import repro.core.classification as classification_module
import repro.mpc.model as mpc_model
from repro.core.classification import (
    PartitionCostEvaluator,
    classify_partition,
    partition_cost_function,
)
from repro.core.color_reduce import ColorReduce
from repro.core.low_space.color_reduce import LowSpaceColorReduce
from repro.core.low_space.machine_sets import LowSpaceCostEvaluator
from repro.core.low_space.params import LowSpaceParameters
from repro.core.params import ColorReduceParameters
from repro.core.partition import Partition
from repro.errors import GraphError, PaletteError
from repro.graph.generators import erdos_renyi, star
from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment
from repro.graph.validation import assert_valid_list_coloring
from repro.hashing.family import KWiseIndependentFamily
from repro.hashing.field import MERSENNE_61
from repro.mpc import low_space_regime


#: The array ``classify_selected``, captured before any oracle reroute.
ARRAY_CLASSIFY_SELECTED = PartitionCostEvaluator.classify_selected


def _lazy_classification(graph, palettes, h1, h2, params, ell):
    """The selected pair's array classification (records built on demand)."""
    evaluator = partition_cost_function(graph, palettes, params, ell, graph.num_nodes)
    return ARRAY_CLASSIFY_SELECTED(evaluator, h1, h2)[0]


def _string_ids(graph: Graph) -> Graph:
    label = {node: f"v{node + 1:05d}" for node in graph.nodes()}
    return Graph(
        nodes=[label[node] for node in graph.nodes()],
        edges=[(label[u], label[v]) for u, v in graph.edges()],
    )


PIPELINES = {
    "color-reduce": lambda graph, palettes=None: ColorReduce().run(graph, palettes),
    "low-space": lambda graph, palettes=None: LowSpaceColorReduce().run(graph, palettes),
}


class TestNonIntegerIds:
    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    def test_partitioned_instance_names_the_id(self, pipeline):
        graph = _string_ids(erdos_renyi(3000, 0.01, seed=1))
        with pytest.raises(GraphError, match="'v00001' is not an int64 integer"):
            PIPELINES[pipeline](graph)

    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    def test_base_case_instance_still_colors(self, pipeline):
        graph = Graph(nodes=["a", "b", "c"], edges=[("a", "b"), ("b", "c")])
        result = PIPELINES[pipeline](graph)
        palettes = (
            PaletteAssignment.delta_plus_one(graph)
            if pipeline == "color-reduce"
            else PaletteAssignment.degree_plus_one(graph)
        )
        assert_valid_list_coloring(graph, palettes, result.coloring)

    def test_build_families(self):
        graph = Graph(nodes=[0, 1, 2.5], edges=[(0, 1), (1, 2.5)])
        palettes = PaletteAssignment.delta_plus_one(graph)
        with pytest.raises(GraphError, match="2.5"):
            Partition().build_families(graph, palettes, 2.0, 3)


def _shifted_lists(graph: Graph, pipeline: str, offset: int) -> PaletteAssignment:
    """The pipeline's default palettes with every color shifted by ``offset``."""
    delta = graph.max_degree()
    return PaletteAssignment.from_lists(
        {
            node: range(
                offset,
                offset + (delta if pipeline == "color-reduce" else graph.degree(node)) + 1,
            )
            for node in graph.nodes()
        }
    )


class TestOutOfFieldValues:
    """The hash families take integers below ``2**61 - 1`` only; a color or
    id beyond that is named, with the palette or graph error."""

    @pytest.mark.parametrize("exponent", [62, 70])
    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    def test_color_is_named(self, pipeline, exponent):
        graph = erdos_renyi(3000, 0.01, seed=1)
        palettes = _shifted_lists(graph, pipeline, 2**exponent)
        with pytest.raises(PaletteError) as info:
            PIPELINES[pipeline](graph, palettes)
        named = int(re.match(r"color (\d+) is not ", str(info.value)).group(1))
        assert named >= MERSENNE_61
        assert named in palettes.color_universe()

    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    def test_node_id_is_named(self, pipeline):
        base = erdos_renyi(3000, 0.01, seed=1)
        offset = 2**62
        graph = Graph(
            nodes=[node + offset for node in base.nodes()],
            edges=[(u + offset, v + offset) for u, v in base.edges()],
        )
        with pytest.raises(GraphError, match=f"^node id {offset} is not below 2\\*\\*61 - 1"):
            PIPELINES[pipeline](graph)


def test_undersized_palette_names_the_first_node():
    graph = star(20)
    palettes = PaletteAssignment.degree_plus_one(graph)
    with pytest.raises(PaletteError, match="^node 1 has only 2 colors but .* l = 19 "):
        ColorReduce().run(graph, palettes)


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` (a class) by a subclass counting constructions."""
    base = getattr(module, name)
    built = []

    class Counted(base):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(module, name, Counted)
    return built


class TestNoPerNodeObjects:
    def test_color_reduce_builds_no_node_records(self, monkeypatch):
        built = _counting(monkeypatch, classification_module, "NodeClassification")
        graph = erdos_renyi(600, 0.05, seed=3)
        params = ColorReduceParameters.scaled(num_bins=3, collect_factor=0.25)
        result = ColorReduce(params).run(graph)
        assert result.recursion_root.children, "the instance must partition"
        assert not built

        # On demand the records still come, equal to the scalar reference.
        palettes = PaletteAssignment.delta_plus_one(graph)
        ell = float(graph.max_degree())
        num_bins = params.num_bins(ell)
        h1 = KWiseIndependentFamily(graph.num_nodes, num_bins, 4).from_seed_int(5)
        h2 = KWiseIndependentFamily(graph.num_nodes**2, num_bins - 1, 4).from_seed_int(7)
        lazy = _lazy_classification(graph, palettes, h1, h2, params, ell)
        assert not built
        reference = classify_partition(graph, palettes, h1, h2, params, ell, graph.num_nodes)
        assert lazy.nodes == reference.nodes
        assert lazy.bad_nodes == reference.bad_nodes
        assert built

    def test_low_space_builds_no_machines(self, monkeypatch):
        built = _counting(monkeypatch, mpc_model, "Machine")
        graph = erdos_renyi(400, 0.05, seed=4)
        result = LowSpaceColorReduce(
            LowSpaceParameters.scaled(num_bins=3, low_degree_threshold=6)
        ).run(graph)
        assert result.recursion_root.num_bins, "the instance must partition"
        assert not built
        regime = low_space_regime(
            num_nodes=graph.num_nodes, num_edges=graph.num_edges, epsilon=result.epsilon
        )
        simulator = result.simulator
        assert simulator.space_report()["num_machines"] == regime.num_machines
        machines = simulator.machines
        assert len(machines) == regime.num_machines == len(built)
        assert [machine.machine_id for machine in machines] == list(range(len(machines)))
        assert {machine.capacity_words for machine in machines} == {regime.local_space_words}


class TestOracleReroutes:
    def test_prepare_and_records_reroutes_agree(self, monkeypatch):
        graph = erdos_renyi(200, 0.06, seed=8)
        palettes = PaletteAssignment.degree_plus_one(graph)
        params = LowSpaceParameters.scaled(num_bins=3, low_degree_threshold=6)
        high = {node for node in graph.nodes() if graph.degree(node) > 6}
        family1 = KWiseIndependentFamily(graph.num_nodes, 3, 4)
        family2 = KWiseIndependentFamily(graph.num_nodes**2, 2, 4)
        pairs = [(family1.from_seed_int(s), family2.from_seed_int(3 * s)) for s in range(12)]

        cr_params = ColorReduceParameters.scaled(num_bins=3)
        cr_palettes = PaletteAssignment.delta_plus_one(graph)
        ell = float(graph.max_degree())
        h1, h2 = pairs[5]

        def run():
            costs = LowSpaceCostEvaluator(graph, palettes, high, params, 3).many(pairs)
            nodes = _lazy_classification(graph, cr_palettes, h1, h2, cr_params, ell).nodes
            return costs, nodes

        production = run()
        with scalar_reference(monkeypatch) as oracle:
            reference = run()
        oracle.assert_called("LowSpaceCostEvaluator._prepare", "PartitionClassification._records")
        assert production == reference
