"""Request validation: one submitted JSON body → one runnable job.

The submit endpoint accepts exactly the instance sources the CLI does and
funnels them through the same hardened code paths:

* ``edges`` / ``edge_list`` submissions are parsed by
  :func:`repro.graph.io.parse_edge_list` — the *same* parser behind the
  CLI's ``--edge-list`` flag, so malformed pairs, negative endpoints,
  self-loops and empty graphs are rejected with the same
  ``source:lineno`` messages — and get the same seeded (deg+1)-list
  palettes the CLI builds;
* ``workload`` submissions instantiate a named workload via
  :func:`repro.experiments.workloads.build_workload`, exactly like
  ``repro color --workload``.

``params`` overrides are mapped field-by-field onto the algorithm's
parameter dataclass (:class:`~repro.core.params.ColorReduceParameters` or
:class:`~repro.core.low_space.params.LowSpaceParameters`).  The mapping is
derived from the dataclass fields, so it can never drift from the
engine — with one carve-out: the durability knobs (checkpoint/resume
paths, budgets) are *service-owned* and rejected if a client tries to set
them.  Every validation failure raises
:class:`~repro.errors.ConfigurationError` with an actionable message; the
HTTP layer renders those as 400 responses.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import (
    Any,
    Dict,
    Optional,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.core.low_space.params import LowSpaceParameters
from repro.core.params import ColorReduceParameters
from repro.derand.conditional_expectation import SelectionStrategy
from repro.errors import ConfigurationError
from repro.experiments.workloads import build_workload
from repro.graph.generators import degree_plus_one_palettes
from repro.graph.graph import Graph
from repro.graph.io import parse_edge_list
from repro.graph.palettes import PaletteAssignment
from repro.runtime.checkpoint import DURABILITY_FIELDS
from repro.service.settings import ServiceSettings

#: Algorithm name → parameter dataclass (the same choices as the CLI's
#: ``--algorithm`` flag).
ALGORITHMS = {
    "congested-clique": ColorReduceParameters,
    "low-space": LowSpaceParameters,
}

#: Top-level request fields the submit endpoint understands.
REQUEST_FIELDS = frozenset(
    {"algorithm", "edges", "edge_list", "workload", "nodes", "seed", "params"}
)


@dataclass
class Submission:
    """One validated submission, ready to queue (or to hit the cache)."""

    algorithm: str
    graph: Graph
    palettes: PaletteAssignment
    params: Any
    description: str
    #: The normalized request echoed into the job's audit trail.
    request: Dict[str, Any]


def _reject_unknown_keys(payload: Dict[str, Any]) -> None:
    unknown = sorted(set(payload) - REQUEST_FIELDS)
    if unknown:
        raise ConfigurationError(
            f"unknown request field(s) {unknown}; "
            f"accepted fields: {sorted(REQUEST_FIELDS)}"
        )


def _parse_algorithm(payload: Dict[str, Any]) -> str:
    algorithm = payload.get("algorithm", "congested-clique")
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; choose one of {sorted(ALGORITHMS)}"
        )
    return algorithm


def build_params(algorithm: str, overrides: Optional[Dict[str, Any]]):
    """Map a ``params`` dict onto the algorithm's parameter dataclass.

    The accepted field set is derived from the dataclass itself minus the
    service-owned durability knobs; values pass through the dataclass's
    own ``__post_init__`` validation, so an out-of-range value produces
    the same actionable message the library raises.
    ``selection_strategy`` accepts the strategy's string value (e.g.
    ``"first-feasible"``).  Every other value must match its field's
    annotation (:func:`_accepts`), so a mistyped override is rejected at
    submission instead of failing the run.
    """
    cls = ALGORITHMS[algorithm]
    if overrides is None:
        return cls()
    if not isinstance(overrides, dict):
        raise ConfigurationError("'params' must be a JSON object of overrides")
    allowed = {spec.name for spec in fields(cls)} - DURABILITY_FIELDS
    annotations = get_type_hints(cls)
    cleaned: Dict[str, Any] = {}
    for name, value in overrides.items():
        if name in DURABILITY_FIELDS:
            raise ConfigurationError(
                f"parameter {name!r} is service-owned (the job layer manages "
                "checkpoints, budgets and deadlines); configure it with the "
                "serve command's deployment knobs instead"
            )
        if name not in allowed:
            raise ConfigurationError(
                f"unknown parameter {name!r} for algorithm with "
                f"{cls.__name__}; accepted: {sorted(allowed)}"
            )
        if name == "selection_strategy":
            try:
                value = SelectionStrategy(value)
            except ValueError:
                raise ConfigurationError(
                    f"unknown selection_strategy {value!r}; choose one of "
                    f"{[s.value for s in SelectionStrategy]}"
                ) from None
        elif not _accepts(annotations[name], value):
            raise ConfigurationError(
                f"parameter {name!r} must be {_describe(annotations[name])}, "
                f"got {value!r}"
            )
        cleaned[name] = value
    try:
        return cls(**cleaned)
    except TypeError as exc:
        raise ConfigurationError(f"invalid params: {exc}") from exc


def _accepts(annotation, value) -> bool:
    """Whether a JSON override ``value`` fits a parameter field's annotation.

    ``int`` rejects ``bool`` (a JSON ``true`` is not a count) as well as
    ``float`` and ``str``; ``float`` also takes an ``int``; ``Optional``
    also takes ``None``.
    """
    if get_origin(annotation) is Union:
        return any(_accepts(arg, value) for arg in get_args(annotation))
    if annotation is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if annotation is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, annotation)


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "a boolean", str: "a string"}


def _describe(annotation) -> str:
    if get_origin(annotation) is Union:
        return " or ".join(_describe(arg) for arg in get_args(annotation))
    if annotation is type(None):
        return "null"
    return _TYPE_NAMES.get(annotation, annotation.__name__)


def _parse_seed(payload: Dict[str, Any]) -> int:
    seed = payload.get("seed", 1)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigurationError(f"'seed' must be an integer, got {seed!r}")
    return seed


def _resolve_instance(
    payload: Dict[str, Any], seed: int
) -> Tuple[Graph, PaletteAssignment, str, Dict[str, Any]]:
    """The (graph, palettes, description, normalized-source) of a request.

    Exactly one instance source must be present, mirroring the CLI's
    ``--edge-list`` / ``--workload`` exclusivity.
    """
    sources = [key for key in ("edges", "edge_list", "workload") if key in payload]
    if len(sources) != 1:
        raise ConfigurationError(
            "provide exactly one instance source: 'edges' (list of [u, v] "
            "pairs), 'edge_list' (text in the CLI --edge-list format) or "
            "'workload' (a named workload)"
        )
    source = sources[0]
    if source == "workload":
        name = payload["workload"]
        if not isinstance(name, str):
            raise ConfigurationError(f"'workload' must be a string, got {name!r}")
        nodes = payload.get("nodes", 400)
        if not isinstance(nodes, int) or isinstance(nodes, bool) or nodes < 1:
            raise ConfigurationError(f"'nodes' must be a positive integer, got {nodes!r}")
        graph, palettes, spec = build_workload(name, nodes, seed=seed)
        description = f"workload {spec.name!r} ({spec.problem})"
        normalized = {"workload": name, "nodes": nodes}
        return graph, palettes, description, normalized
    if "nodes" in payload:
        raise ConfigurationError(
            f"'nodes' conflicts with {source!r} (the edges define the nodes)"
        )
    if source == "edges":
        edges = payload["edges"]
        if not isinstance(edges, list):
            raise ConfigurationError(
                "'edges' must be a list of [u, v] pairs of non-negative integers"
            )
        lines = []
        for index, pair in enumerate(edges):
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or any(isinstance(end, bool) or not isinstance(end, int) for end in pair)
            ):
                raise ConfigurationError(
                    f"edges[{index}]: expected a [u, v] pair of integers, got {pair!r}"
                )
            lines.append(f"{pair[0]} {pair[1]}")
        graph = parse_edge_list(lines, source="edges")
        normalized = {"edges": [[int(u), int(v)] for u, v in edges]}
    else:
        text = payload["edge_list"]
        if not isinstance(text, str):
            raise ConfigurationError(f"'edge_list' must be a string, got {text!r}")
        graph = parse_edge_list(text.splitlines(), source="edge_list")
        normalized = {"edge_list": text}
    palettes = degree_plus_one_palettes(graph, seed=seed)
    description = f"submitted edges (n={graph.num_nodes}, m={graph.num_edges})"
    return graph, palettes, description, normalized


def parse_submission(payload: Any, settings: ServiceSettings) -> Submission:
    """Validate one submit-request body into a :class:`Submission`.

    Raises :class:`~repro.errors.ConfigurationError` for every malformed
    request; nothing is queued, computed or cached for a rejected body.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError("request body must be a JSON object")
    _reject_unknown_keys(payload)
    algorithm = _parse_algorithm(payload)
    seed = _parse_seed(payload)
    params = build_params(algorithm, payload.get("params"))
    graph, palettes, description, source = _resolve_instance(payload, seed)
    if graph.num_nodes > settings.max_nodes:
        raise ConfigurationError(
            f"graph has {graph.num_nodes} nodes, above this service's "
            f"max_nodes limit of {settings.max_nodes}"
        )
    if graph.num_edges > settings.max_edges:
        raise ConfigurationError(
            f"graph has {graph.num_edges} edges, above this service's "
            f"max_edges limit of {settings.max_edges}"
        )
    if algorithm == "congested-clique":
        # ColorReduce needs > Delta colors per node (Corollary 3.3 (i));
        # reject at submit time with the library's own guidance instead of
        # queueing a job doomed to fail.
        delta = graph.max_degree()
        for node in graph.nodes():
            if palettes.palette_size(node) <= delta:
                raise ConfigurationError(
                    f"node {node} has only {palettes.palette_size(node)} "
                    f"colors but ColorReduce requires more than Delta = {delta} "
                    "per node ((Δ+1)-list coloring); submit with "
                    '"algorithm": "low-space" for (deg+1)-list instances'
                )
    request = {
        "algorithm": algorithm,
        "seed": seed,
        "params": dict(payload.get("params") or {}),
        **source,
    }
    return Submission(
        algorithm=algorithm,
        graph=graph,
        palettes=palettes,
        params=params,
        description=description,
        request=request,
    )
