"""The partition step of both pipelines: arrays in, no per-node records out.

* Non-integer node ids are a :class:`GraphError` naming the first offender
  once an instance is big enough to partition; base-case instances still
  color.  An undersized palette still names the first offending node.
* A production ``ColorReduce.run`` builds no :class:`NodeClassification`
  record and a ``LowSpaceColorReduce.run`` no MPC :class:`Machine`; both
  still answer on demand (``.nodes``, ``simulator.machines``).
* The scalar oracle's reroutes of the low-space evaluator's static arrays
  and of the record assembly are reached, and agree with production.
"""

from __future__ import annotations

import pytest
from scalar_oracle import scalar_reference

import repro.core.classification as classification_module
import repro.mpc.model as mpc_model
from repro.core.classification import classify_partition, classify_partition_batch
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
from repro.mpc import low_space_regime


def _string_ids(graph: Graph) -> Graph:
    label = {node: f"v{node + 1:05d}" for node in graph.nodes()}
    return Graph(
        nodes=[label[node] for node in graph.nodes()],
        edges=[(label[u], label[v]) for u, v in graph.edges()],
    )


PIPELINES = {
    "color-reduce": lambda graph: ColorReduce().run(graph),
    "low-space": lambda graph: LowSpaceColorReduce().run(graph),
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
        lazy = classify_partition_batch(graph, palettes, h1, h2, params, ell, graph.num_nodes)
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
            nodes = classify_partition_batch(
                graph, cr_palettes, h1, h2, cr_params, ell, graph.num_nodes
            ).nodes
            return costs, nodes

        production = run()
        with scalar_reference(monkeypatch) as oracle:
            reference = run()
        oracle.assert_called("LowSpaceCostEvaluator._prepare", "PartitionClassification._records")
        assert production == reference
